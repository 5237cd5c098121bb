"""Maximum-entropy actor-critic with twin critics, twin target critics,
and a learned entropy temperature.

The policy is a diagonal Gaussian squashed by tanh. The entropy bonus
in the policy objective and in the soft target uses the squashed
log-density, with the exact squashing correction. Temperature is
parameterized as log(alpha) so it stays positive under arbitrary
updates.

This departs from SAC v2 (Haarnoja et al., 2018), where the temperature
objective reads the same squashed log-density as the bonus. Here the
temperature regulates the entropy of the pre-squash Gaussian, the
exploration noise itself, so alpha's fixed point is set on a different
density than the bonus it scales. The squashed density adds a tanh
log-det term that grows on dimensions pushed into saturation, where
noise no longer moves the action; measured on it, the saturated
dimensions alone meet the entropy target and alpha keeps widening the
noise on every dimension, including those that still move. On the
Gaussian each dimension's noise counts the same; the default target of
-dim(A) nats is a pre-squash std of exp(-1 - 0.5*log(2*pi*e)) ~= 0.09
per dimension.
"""
from __future__ import annotations

import numpy as np

from .rl_core import Adam, Mlp, ReplayBuffer, RewardScale, soft_update

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
SQUASH_EPS = 1e-6


class SacAgent:
    def __init__(self, state_dim: int, action_dim: int, *, hidden=(256, 256),
                 lr=1e-4, gamma=0.99, soft_rate=5e-4, target_entropy=None,
                 init_alpha=1e-3, alpha_lr=1e-3, init_log_std=-2.1,
                 buffer_capacity=1_000_000, batch_size=64, seed=0):
        rng = np.random.default_rng(seed)
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.gamma = gamma
        self.soft_rate = soft_rate
        self.batch_size = batch_size
        self.target_entropy = (-float(action_dim) if target_entropy is None
                               else float(target_entropy))

        self.policy = Mlp([state_dim, *hidden, 2 * action_dim], "linear", rng)
        # start with moderate per-dimension exploration noise (std about
        # exp(init_log_std) ~= 0.12, just above the ~0.09 the entropy
        # target holds); the default head would open at std ~ 1, which in
        # a high-dimensional action space is indistinguishable from
        # acting uniformly at random
        self.policy.biases[-1][action_dim:] += init_log_std
        self.critic1 = Mlp([state_dim + action_dim, *hidden, 1], "linear", rng)
        self.critic2 = Mlp([state_dim + action_dim, *hidden, 1], "linear", rng)
        self.target_critic1 = self.critic1.copy()
        self.target_critic2 = self.critic2.copy()
        self.policy_opt = Adam(self.policy.params, lr=lr)
        self.critic1_opt = Adam(self.critic1.params, lr=lr)
        self.critic2_opt = Adam(self.critic2.params, lr=lr)
        # the temperature gets a faster schedule than the networks: with
        # high-dimensional actions the entropy term is large relative to
        # the reward, and alpha must adapt within the training horizon.
        # It starts small because its push on each log-std is alpha:
        # from 0.01 it widens the noise to std ~0.25 in the ~100 episodes
        # it takes to decay, whatever the initial std, and at this scale
        # the critic does not narrow it again. From 1e-4 the noise of
        # saturated dimensions, which the critic no longer sees, can
        # drift to std > 1
        self.log_alpha = np.array([np.log(init_alpha)])
        self.alpha_opt = Adam([self.log_alpha], lr=alpha_lr)
        self.buffer = ReplayBuffer(buffer_capacity, state_dim, action_dim)
        self.reward_scale = RewardScale()
        self.rng = rng

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha[0]))

    # ---- policy ---------------------------------------------------------
    def _policy_stats(self, states):
        out, cache = self.policy.forward(np.atleast_2d(states))
        mean = out[:, :self.action_dim]
        log_std_raw = out[:, self.action_dim:]
        log_std = np.clip(log_std_raw, LOG_STD_MIN, LOG_STD_MAX)
        return mean, log_std, log_std_raw, cache

    @staticmethod
    def _squash(mean, log_std, eps):
        std = np.exp(log_std)
        u = mean + std * eps
        a = np.tanh(u)
        one_m_t2 = 1.0 - a * a
        log_prob = np.sum(
            -0.5 * np.log(2.0 * np.pi) - log_std - 0.5 * eps ** 2
            - np.log(one_m_t2 + SQUASH_EPS),
            axis=1)
        return a, u, log_prob

    def sample_action(self, state, eps=None):
        """(action in [-1,1]^dim, log-prob). Pass eps for a fixed draw."""
        mean, log_std, _, _ = self._policy_stats(state)
        if eps is None:
            eps = self.rng.standard_normal(mean.shape)
        a, _, log_prob = self._squash(mean, log_std, eps)
        if np.asarray(state).ndim == 1:
            return a[0], float(log_prob[0])
        return a, log_prob

    # ---- targets and critics ---------------------------------------------
    def soft_q_target(self, batch, eps=None) -> np.ndarray:
        """r + gamma*(min(Q1bar,Q2bar)(s',a') - alpha*logpi(a'|s')) with a'
        freshly sampled; terminal transitions bootstrap nothing."""
        s_next = batch["next_states"]
        a_next, log_prob = self.sample_action(s_next, eps=eps)
        x = np.concatenate([s_next, a_next], axis=1)
        q1 = self.target_critic1(x)[:, 0]
        q2 = self.target_critic2(x)[:, 0]
        v = np.minimum(q1, q2) - self.alpha * log_prob
        r = self.reward_scale.normalize(batch["rewards"])
        return r + self.gamma * (1.0 - batch["dones"]) * v

    def critic_loss_and_grads(self, critic: Mlp, batch, y):
        x = np.concatenate([batch["states"], batch["actions"]], axis=1)
        q, cache = critic.forward(x)
        q = q[:, 0]
        d = q.size
        loss = float(np.mean((y - q) ** 2))
        grads, _ = critic.backward(cache, (2.0 * (q - y) / d)[:, None])
        return loss, grads

    def critic_update(self, batch, eps=None):
        y = self.soft_q_target(batch, eps=eps)
        loss1, g1 = self.critic_loss_and_grads(self.critic1, batch, y)
        loss2, g2 = self.critic_loss_and_grads(self.critic2, batch, y)
        self.critic1_opt.step(self.critic1.params, g1)
        self.critic2_opt.step(self.critic2.params, g2)
        return loss1, loss2

    # ---- policy and temperature -------------------------------------------
    @staticmethod
    def _noise_log_prob(log_std):
        """Per-state expected log-density of the pre-squash Gaussian,
        -H(N(mean, std^2)); the quantity the temperature regulates."""
        return -np.sum(log_std + 0.5 * np.log(2.0 * np.pi * np.e), axis=1)

    def policy_loss_and_grads(self, batch, eps=None):
        """J = mean(alpha*logpi(a|s) - min Q(s,a)) with a reparameterized
        through the policy; returns (J, policy grads, per-state
        pre-squash Gaussian log-density for the temperature update)."""
        s = batch["states"]
        d = s.shape[0]
        mean, log_std, log_std_raw, cache = self._policy_stats(s)
        if eps is None:
            eps = self.rng.standard_normal(mean.shape)
        a, u, log_prob = self._squash(mean, log_std, eps)

        x = np.concatenate([s, a], axis=1)
        q1, c1 = self.critic1.forward(x)
        q2, c2 = self.critic2.forward(x)
        q1, q2 = q1[:, 0], q2[:, 0]
        q_min = np.minimum(q1, q2)
        alpha = self.alpha
        loss = float(np.mean(alpha * log_prob - q_min))

        # dQmin/da via whichever critic attains the min, per sample
        pick1 = (q1 <= q2).astype(float)[:, None]
        _, dx1 = self.critic1.backward(c1, pick1)
        _, dx2 = self.critic2.backward(c2, 1.0 - pick1)
        dq_da = (dx1 + dx2)[:, self.state_dim:]

        t = np.tanh(u)
        one_m_t2 = 1.0 - t * t
        # d logpi / du, squash-correction term only (the Gaussian part is
        # constant in u once eps is fixed)
        g_sq = 2.0 * t * one_m_t2 / (one_m_t2 + SQUASH_EPS)
        std = np.exp(log_std)
        d_mean = (alpha * g_sq - dq_da * one_m_t2) / d
        d_log_std = (alpha * (g_sq * std * eps - 1.0)
                     - dq_da * one_m_t2 * std * eps) / d
        clip_mask = ((log_std_raw > LOG_STD_MIN) &
                     (log_std_raw < LOG_STD_MAX)).astype(float)
        upstream = np.concatenate([d_mean, d_log_std * clip_mask], axis=1)
        grads, _ = self.policy.backward(cache, upstream)
        return loss, grads, self._noise_log_prob(log_std)

    def policy_update(self, batch, eps=None):
        loss, grads, log_prob = self.policy_loss_and_grads(batch, eps=eps)
        self.policy_opt.step(self.policy.params, grads)
        return loss, log_prob

    def temperature_loss_and_grad(self, log_prob):
        """J(alpha) = mean(-alpha*logp - alpha*H0), logp the pre-squash
        Gaussian log-density; gradient is with respect to log(alpha)."""
        alpha = self.alpha
        loss = float(np.mean(-alpha * log_prob - alpha * self.target_entropy))
        grad = alpha * float(np.mean(-log_prob - self.target_entropy))
        return loss, np.array([grad])

    def temperature_update(self, log_prob) -> float:
        loss, grad = self.temperature_loss_and_grad(log_prob)
        self.alpha_opt.step([self.log_alpha], [grad])
        return loss

    def update_targets(self) -> None:
        soft_update(self.target_critic1, self.critic1, self.soft_rate)
        soft_update(self.target_critic2, self.critic2, self.soft_rate)

    def observe(self, state, action, reward, next_state, done) -> None:
        self.buffer.add(state, action, reward, next_state, done)
        self.reward_scale.update(reward)

    def maybe_update(self) -> None:
        if len(self.buffer) < 10 * self.batch_size:
            return
        batch = self.buffer.sample(self.batch_size, self.rng)
        self.critic_update(batch)
        _, log_prob = self.policy_update(batch)
        self.temperature_update(log_prob)
        self.update_targets()


def train(env, agent: SacAgent, episodes: int):
    """Run the training loop; yields one record per environment step."""
    if agent.state_dim != env.state_dim or agent.action_dim != env.action_dim:
        raise ValueError("agent/environment dimension mismatch")
    for episode in range(episodes):
        state = env.reset()
        for step in range(env.T):
            action, _ = agent.sample_action(state)
            out = env.step(action)
            agent.observe(state, action, out.reward, out.next_state, out.done)
            agent.maybe_update()
            yield {
                "episode": episode,
                "step": step,
                "reward": out.reward,
                "sum_secrecy_rate": out.sum_secrecy_rate,
                "lu_rates": out.lu_rates,
                "echo_snr": out.echo_snr,
                "snr_feasible": out.snr_feasible,
                "rate_feasible": out.rate_feasible,
            }
            state = out.next_state
