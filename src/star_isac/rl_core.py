"""Shared learning substrate: explicit-backprop MLPs, a ring replay
buffer, a bias-corrected moment-adaptive updater, and soft target
updates. Everything is float64 numpy so gradient oracles stay tight.

Each net keeps its parameters in one contiguous vector. The updater and
the soft update pass each such vector once through a compiled loop from
``_fused.c``, which importing this module builds with the system C
compiler into ``__pycache__`` unless that build is already there. Where
it cannot be built or loaded, they stream through the vectors CHUNK
elements at a time in numpy, the same operations in the same order,
with one small scratch shared by all of them; either way an update
allocates no parameter-sized temporaries and gives the same bits.
"""
from __future__ import annotations

import ctypes
import hashlib
import math
import os
from pathlib import Path

import numpy as np

# elements per slice of the flat vectors that the numpy Adam and
# soft_update walk through; two scratch rows of 256 KiB stay in a core's
# L2 cache
CHUNK = 32768
# every use writes a scratch slice before reading it, so it carries
# nothing between calls; it is not for concurrent use by threads
_SCRATCH = np.empty((2, CHUNK))
# both agents start updating once the replay buffer holds this many batches
WARMUP_BATCHES = 10
# no FMA contraction, which would round a product and a sum once; no
# errno from sqrt, which lets GCC vectorise it; no -march: the loops are
# memory-bound
_FUSED_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off",
                "-fno-math-errno")


class RlError(ValueError):
    pass


def _load_fused():
    """The compiled loops of _fused.c, built on first use of this source
    and these flags; None where no C compiler builds them or the built
    library does not load. Processes that build at once each write their
    own file and move it into place."""
    src = Path(__file__).with_name("_fused.c")
    try:
        key = hashlib.sha256(src.read_bytes()
                             + " ".join(_FUSED_FLAGS).encode()).hexdigest()
        lib = src.parent / "__pycache__" / f"_fused-{key[:16]}.so"
        if not lib.exists():
            import subprocess  # only a build needs it; most imports load
            lib.parent.mkdir(exist_ok=True)
            tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
            try:
                cmd = ["cc", *_FUSED_FLAGS, "-o", str(tmp), str(src)]
                if subprocess.run(cmd, capture_output=True).returncode == 0:
                    os.replace(tmp, lib)
            finally:
                tmp.unlink(missing_ok=True)
        # a failed build leaves no library, and loading it raises OSError
        fused = ctypes.CDLL(str(lib))
    except OSError:
        return None
    ptr, size, real = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
    fused.adam.argtypes = [ptr, ptr, ptr, ptr, size, real, real, real, real]
    fused.soft_update.argtypes = [ptr, ptr, size, real]
    fused.adam.restype = fused.soft_update.restype = None
    return fused


_FUSED = _load_fused()


def _addresses(*arrays) -> list:
    """Data addresses of equally long, C-contiguous float64 arrays whose
    buffers do not overlap, which is what the compiled loops take."""
    n = arrays[0].size
    for a in arrays:
        if a.dtype != np.float64 or not a.flags.c_contiguous or a.size != n:
            raise RlError(f"compiled update needs C-contiguous float64 arrays "
                          f"of {n} elements, got {a.dtype} {a.shape}")
    addresses = [a.ctypes.data for a in arrays]
    ordered = sorted(addresses)
    if any(hi - lo < 8 * n for lo, hi in zip(ordered, ordered[1:])):
        raise RlError("compiled update needs arrays that do not overlap")
    return addresses


def _act(name: str, z: np.ndarray) -> np.ndarray:
    """The activation of z, in place."""
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "tanh":
        return np.tanh(z, out=z)
    return z  # linear


def _act_backward(name: str, delta, a, owned: bool) -> np.ndarray:
    """delta times the derivative of the activation whose output is a; in
    place when the caller owns delta. relu(z) > 0 exactly where z > 0."""
    if name == "relu":
        return np.multiply(delta, a > 0.0, out=delta if owned else None)
    if name == "tanh":
        return delta * (1.0 - a * a)
    return delta  # linear


def _layer_views(sizes, vec: np.ndarray):
    """(weights, biases) of a net with these layer sizes, as views into
    vec, laid out w0, b0, w1, b1, ..."""
    weights, biases, i = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(vec[i:i + fan_in * fan_out].reshape(fan_in, fan_out))
        i += fan_in * fan_out
        biases.append(vec[i:i + fan_out])
        i += fan_out
    return weights, biases


def _flat_chunks(*arrays):
    """Aligned CHUNK-long slices of equally long contiguous arrays, each
    with the matching slices of the two scratch rows."""
    flat = [np.reshape(a, -1, copy=False) for a in arrays]
    for lo in range(0, flat[0].size, CHUNK):
        parts = [a[lo:lo + CHUNK] for a in flat]
        n = parts[0].size
        yield (*parts, _SCRATCH[0, :n], _SCRATCH[1, :n])


def _adam_numpy(p, g, m, v, b1, b2, lr_t, eps_t) -> None:
    """m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g;
    p -= m/(sqrt(v) + eps_t)*lr_t, one chunk at a time."""
    for p, g, m, v, s, u in _flat_chunks(p, g, m, v):
        m *= b1
        np.multiply(g, 1 - b1, out=s)
        m += s
        v *= b2
        np.multiply(g, 1 - b2, out=s)
        s *= g
        v += s
        np.sqrt(v, out=s)
        s += eps_t
        np.divide(m, s, out=u)
        u *= lr_t
        p -= u


def _adam_fused(p, g, m, v, b1, b2, lr_t, eps_t) -> None:
    """_adam_numpy's operations in one compiled pass."""
    _FUSED.adam(*_addresses(p, g, m, v), p.size, b1, b2, lr_t, eps_t)


def _soft_update_numpy(target, online, eps) -> None:
    """target := (1-eps)*target + eps*online, one chunk at a time."""
    for tp, op, s, _ in _flat_chunks(target, online):
        tp *= 1.0 - eps
        np.multiply(op, eps, out=s)
        tp += s


def _soft_update_fused(target, online, eps) -> None:
    """_soft_update_numpy's operations in one compiled pass."""
    _FUSED.soft_update(*_addresses(target, online), target.size, eps)


# the compiled passes wherever they built; the numpy chain otherwise
_adam, _soft_update = ((_adam_numpy, _soft_update_numpy) if _FUSED is None
                       else (_adam_fused, _soft_update_fused))


class Mlp:
    """Fully-connected net with ReLU hidden layers.

    Parameters live in one contiguous vector, ``flat``; ``weights`` and
    ``biases`` are views into it. forward returns a cache that backward
    consumes to produce parameter gradients, written into one vector of
    the same layout that the net allocates on its first backward pass.
    The view that through(start) returns shares the parameters, and its
    backward gives only the gradient with respect to input columns
    start: (needed when an objective is differentiated through a
    critic's action input, which follows the state).
    """

    def __init__(self, sizes, output_activation, rng):
        self.sizes = list(sizes)
        self.activations = ["relu"] * (len(sizes) - 2) + [output_activation]
        self._bind(np.empty(sum((fan_in + 1) * fan_out for fan_in, fan_out
                                in zip(sizes[:-1], sizes[1:]))))
        for w, b in zip(self.weights, self.biases):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)

    def _bind(self, flat: np.ndarray, input_start: int | None = None) -> None:
        self.flat = flat
        self.weights, self.biases = _layer_views(self.sizes, flat)
        self.grad = None
        # None on a trained net; on a view, the first input column whose
        # gradient its backward returns
        self._input_start = input_start
        self._through = None

    @property
    def params(self):
        """The arrays an optimizer steps: the one flat vector."""
        return [self.flat]

    def _over(self, flat: np.ndarray, input_start: int | None = None):
        """A net of this shape whose parameters are the vector flat."""
        other = Mlp.__new__(Mlp)
        other.sizes = list(self.sizes)
        other.activations = list(self.activations)
        other._bind(flat, input_start)
        return other

    def copy(self) -> "Mlp":
        return self._over(self.flat.copy())

    def through(self, start: int) -> "Mlp":
        """A view that shares this net's parameters and whose backward
        returns only the gradient with respect to input columns start:;
        made once, then reused while start stays the same. The view is
        its own through(start), without a reference to itself: such a
        cycle would keep the parameters alive until a full garbage
        collection."""
        if self._input_start == start:
            return self
        if self._through is None or self._through._input_start != start:
            self._through = self._over(self.flat, start)
        return self._through

    def forward(self, x: np.ndarray):
        """Returns (y, cache) for a (B, d_in) batch."""
        x = np.atleast_2d(np.asarray(x, float))
        if x.shape[1] != self.sizes[0]:
            raise RlError(f"input width {x.shape[1]} != {self.sizes[0]}")
        inputs, post = [], []
        a = x
        for w, b, act in zip(self.weights, self.biases, self.activations):
            inputs.append(a)
            z = a @ w
            z += b
            a = _act(act, z)
            post.append(a)
        return a, (inputs, post)

    def __call__(self, x):
        return self.forward(x)[0]

    def backward(self, cache, dy: np.ndarray):
        """Backprop a (B, d_out) dy = dL/dy through the cached forward pass.

        Returns (grads, None) with grads ordered as self.params: the
        net's gradient buffer, which the next backward overwrites; the
        input gradient is not computed. On the view from through(start),
        returns (None, dL/dx[:, start:]) and computes no parameter
        gradients.
        """
        inputs, post = cache
        delta = dy
        params_too = self._input_start is None
        if params_too and self.grad is None:
            self.grad = np.empty_like(self.flat)
            self._grad_w, self._grad_b = _layer_views(self.sizes, self.grad)
        last = len(self.weights) - 1
        for i in reversed(range(len(self.weights))):
            delta = _act_backward(self.activations[i], delta, post[i],
                                  owned=i < last)
            if params_too:
                np.matmul(inputs[i].T, delta, out=self._grad_w[i])
                np.sum(delta, axis=0, out=self._grad_b[i])
                if i == 0:
                    return [self.grad], None
            w = self.weights[i]
            if i == 0:
                w = w[self._input_start:]
            # with one output column each entry is a single product, which
            # a broadcast forms far faster than a rank-1 GEMM
            delta = delta * w.T if w.shape[1] == 1 else delta @ w.T
        return None, delta


class Adam:
    """Bias-corrected first/second-moment updater over a list of
    contiguous parameter arrays, with Kingma & Ba's default decay rates
    and epsilon."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, lr):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        # Kingma & Ba's efficient order (section 2): lr*(m/c1)/(sqrt(v/c2)
        # + eps) is lr_t*m/(sqrt(v) + eps_t), the bias corrections folded
        # into the step size and epsilon once per step
        lr_t = self.lr * math.sqrt(c2) / c1
        eps_t = self.EPS * math.sqrt(c2)
        for p, g, m, v in zip(params, grads, self.m, self.v):
            _adam(p, g, m, v, b1, b2, lr_t, eps_t)


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


def critic_mse(critic: Mlp, batch, y: np.ndarray):
    """(loss, grads) of the mean squared error between the critic's
    Q(s, a) on the batch and the regression targets y."""
    x = np.concatenate([batch["states"], batch["actions"]], axis=1)
    q, cache = critic.forward(x)
    q = q[:, 0]
    loss = float(np.mean((y - q) ** 2))
    grads, _ = critic.backward(cache, (2.0 * (q - y) / q.size)[:, None])
    return loss, grads


def soft_update(target: Mlp, online: Mlp, eps: float) -> None:
    """target := eps*online + (1-eps)*target, elementwise."""
    _soft_update(target.flat, online.flat, eps)


class ReplayBuffer:
    """Preallocated ring buffer of transitions with uniform
    without-replacement batch sampling."""

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
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

    def sample(self, batch_size: int, rng: np.random.Generator):
        idx = rng.choice(self.count, size=batch_size, replace=False)
        return {
            "states": self.states[idx],
            "actions": self.actions[idx],
            "rewards": self.rewards[idx],
            "next_states": self.next_states[idx],
            "dones": self.dones[idx],
        }

