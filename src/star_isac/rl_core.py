"""Shared learning substrate: explicit-backprop MLPs, a ring replay
buffer, a bias-corrected moment-adaptive updater, and soft target
updates. Everything is float64 numpy so gradient oracles stay tight.
"""
from __future__ import annotations

import numpy as np


class RlError(ValueError):
    pass


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    if name == "linear":
        return z
    raise RlError(f"unknown activation {name!r}")


def _act_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0.0).astype(z.dtype)
    if name == "tanh":
        return 1.0 - a * a
    if name == "linear":
        return np.ones_like(z)
    raise RlError(f"unknown activation {name!r}")


class Mlp:
    """Fully-connected net with ReLU hidden layers.

    Parameters live in self.weights / self.biases; forward returns a
    cache that backward consumes to produce parameter gradients and the
    gradient with respect to the input (needed when a critic is
    differentiated through its action input).
    """

    def __init__(self, sizes, output_activation="linear", rng=None):
        if len(sizes) < 2:
            raise RlError("need at least input and output sizes")
        rng = rng or np.random.default_rng()
        self.sizes = list(sizes)
        self.activations = ["relu"] * (len(sizes) - 2) + [output_activation]
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(rng.uniform(-bound, bound, size=fan_out))

    @property
    def params(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def copy(self) -> "Mlp":
        other = Mlp.__new__(Mlp)
        other.sizes = list(self.sizes)
        other.activations = list(self.activations)
        other.weights = [w.copy() for w in self.weights]
        other.biases = [b.copy() for b in self.biases]
        return other

    def forward(self, x: np.ndarray):
        """Returns (y, cache) for a (B, d_in) batch."""
        x = np.atleast_2d(np.asarray(x, float))
        if x.shape[1] != self.sizes[0]:
            raise RlError(f"input width {x.shape[1]} != {self.sizes[0]}")
        inputs, pre, post = [], [], []
        a = x
        for w, b, act in zip(self.weights, self.biases, self.activations):
            inputs.append(a)
            z = a @ w + b
            a = _act(act, z)
            pre.append(z)
            post.append(a)
        return a, (inputs, pre, post)

    def __call__(self, x):
        return self.forward(x)[0]

    def backward(self, cache, dy: np.ndarray):
        """Backprop dy = dL/dy through the cached forward pass.

        Returns (grads, dx) with grads ordered as self.params.
        """
        if cache is None:
            raise RlError("forward cache required")
        inputs, pre, post = cache
        delta = np.atleast_2d(np.asarray(dy, float))
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        for i in reversed(range(len(self.weights))):
            delta = delta * _act_grad(self.activations[i], pre[i], post[i])
            grads_w[i] = inputs[i].T @ delta
            grads_b[i] = delta.sum(axis=0)
            delta = delta @ self.weights[i].T
        grads = []
        for gw, gb in zip(grads_w, grads_b):
            grads.extend([gw, gb])
        return grads, delta

    # flat views, used by gradient oracles and checkpoints
    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.params])

    def set_flat(self, flat: np.ndarray) -> None:
        if flat.size != sum(p.size for p in self.params):
            raise RlError("flat vector size mismatch")
        i = 0
        for p in self.params:
            p[...] = flat[i:i + p.size].reshape(p.shape)
            i += p.size


class Adam:
    """Bias-corrected first/second-moment updater over a parameter list."""

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads) -> None:
        if self.lr == 0.0:
            return
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


class RewardScale:
    """Running mean-absolute-reward normalizer.

    The constraint-aware reward carries an additive bonus proportional
    to the sensing threshold, so its magnitude varies by an order of
    magnitude across scenarios. Dividing rewards by their running mean
    absolute value keeps critic targets (and therefore actor gradients)
    on a comparable scale everywhere, letting one learning rate serve
    the whole sweep range. Stored transitions keep raw rewards; the
    current scale is applied where targets are formed.
    """

    def __init__(self):
        self._total = 0.0
        self._count = 0

    def update(self, reward: float) -> None:
        self._total += abs(float(reward))
        self._count += 1

    @property
    def scale(self) -> float:
        if self._count == 0:
            return 1.0
        return max(self._total / self._count, 1e-8)

    def normalize(self, rewards):
        return rewards / self.scale


def soft_update(target: Mlp, online: Mlp, eps: float) -> None:
    """target := eps*online + (1-eps)*target, elementwise."""
    if not 0.0 <= eps <= 1.0:
        raise RlError("soft-update rate must be in [0, 1]")
    for tp, op in zip(target.params, online.params):
        tp *= 1.0 - eps
        tp += eps * op


class ReplayBuffer:
    """Preallocated ring buffer of transitions with uniform
    without-replacement batch sampling."""

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        if capacity < 1:
            raise RlError("capacity must be positive")
        self.capacity = capacity
        self.states = np.zeros((capacity, state_dim))
        self.actions = np.zeros((capacity, action_dim))
        self.rewards = np.zeros(capacity)
        self.next_states = np.zeros((capacity, state_dim))
        self.dones = np.zeros(capacity)
        self.cursor = 0
        self.count = 0

    def __len__(self):
        return self.count

    def add(self, state, action, reward, next_state, done: bool) -> None:
        i = self.cursor
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self.dones[i] = float(done)
        self.cursor = (i + 1) % self.capacity
        self.count = min(self.count + 1, self.capacity)

    def ready(self, batch_size: int) -> bool:
        return self.count >= batch_size

    def sample(self, batch_size: int, rng: np.random.Generator):
        if not self.ready(batch_size):
            raise RlError("not enough transitions to sample")
        idx = rng.choice(self.count, size=batch_size, replace=False)
        return {
            "states": self.states[idx],
            "actions": self.actions[idx],
            "rewards": self.rewards[idx],
            "next_states": self.next_states[idx],
            "dones": self.dones[idx],
        }

