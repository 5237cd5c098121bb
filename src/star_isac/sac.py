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
Gaussian each dimension's noise counts the same; the target of -dim(A)
nats is a pre-squash std of exp(-1 - 0.5*log(2*pi*e)) ~= 0.09
per dimension.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .rl_core import (WARMUP_BATCHES, Adam, Mlp, ReplayBuffer, RewardScale,
                      check_losses, critic_mse, soft_update)

if TYPE_CHECKING:
    from .experiments import ScenarioConfig

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
SQUASH_EPS = 1e-6
# shift of the policy head's log-std bias: the policy opens with
# per-dimension exploration noise of std about exp(-2.1) ~= 0.12, just
# above the ~0.09 the entropy target holds; the default head would open
# at std ~ 1, which in a high-dimensional action space is
# indistinguishable from acting uniformly at random
INIT_LOG_STD = -2.1
# the temperature gets a faster schedule than the networks: with
# high-dimensional actions the entropy term is large relative to the
# reward, and alpha must adapt within the training horizon. It starts
# small because its push on each log-std is alpha: from 0.01 it widens
# the noise to std ~0.25 in the ~100 episodes it takes to decay, whatever
# the initial std, and at this scale the critic does not narrow it again.
# From 1e-4 the noise of saturated dimensions, which the critic no longer
# sees, can drift to std > 1
INIT_ALPHA = 1e-3
ALPHA_LR = 1e-3


class SacAgent:
    def __init__(self, cfg: ScenarioConfig, state_dim: int, action_dim: int,
                 seed: int):
        rng = np.random.default_rng(seed)
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.cfg = cfg
        self.target_entropy = -float(action_dim)

        hidden = [cfg.hidden_units] * cfg.hidden_layers
        self.policy = Mlp([state_dim, *hidden, 2 * action_dim], "linear", rng)
        self.policy.biases[-1][action_dim:] += INIT_LOG_STD
        self.critic1 = Mlp([state_dim + action_dim, *hidden, 1], "linear", rng)
        self.critic2 = Mlp([state_dim + action_dim, *hidden, 1], "linear", rng)
        self.target_critic1 = self.critic1.copy()
        self.target_critic2 = self.critic2.copy()
        self.policy_opt = Adam(self.policy.params, lr=cfg.lr)
        self.critic1_opt = Adam(self.critic1.params, lr=cfg.lr)
        self.critic2_opt = Adam(self.critic2.params, lr=cfg.lr)
        self.log_alpha = np.array([np.log(INIT_ALPHA)])
        self.alpha_opt = Adam([self.log_alpha], lr=ALPHA_LR)
        self.buffer = ReplayBuffer(cfg.replay_capacity, state_dim, action_dim)
        self.reward_scale = RewardScale()
        self.rng = rng

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha[0]))

    # ---- policy ---------------------------------------------------------
    @staticmethod
    def _squash(mean, log_std, eps):
        a = np.tanh(mean + np.exp(log_std) * eps)
        one_m_t2 = 1.0 - a * a
        log_prob = np.sum(
            -0.5 * np.log(2.0 * np.pi) - log_std - 0.5 * eps ** 2
            - np.log(one_m_t2 + SQUASH_EPS),
            axis=1)
        return a, log_prob

    def _sample(self, states, eps=None):
        """One reparameterized, squashed draw per state: (a, log_prob, eps,
        log_std, log_std_raw, policy cache), eps drawn unless given."""
        out, cache = self.policy.forward(states)
        mean = out[:, :self.action_dim]
        log_std_raw = out[:, self.action_dim:]
        log_std = np.clip(log_std_raw, LOG_STD_MIN, LOG_STD_MAX)
        if eps is None:
            eps = self.rng.standard_normal(mean.shape)
        a, log_prob = self._squash(mean, log_std, eps)
        return a, log_prob, eps, log_std, log_std_raw, cache

    def sample_action(self, state) -> np.ndarray:
        """The action in (-1, 1)^dim for one state, from one noise draw."""
        return self._sample(state)[0][0]

    # ---- targets and critics ---------------------------------------------
    def soft_q_target(self, batch, eps=None) -> np.ndarray:
        """r + gamma*(min(Q1bar,Q2bar)(s',a') - alpha*logpi(a'|s')) with a'
        freshly sampled; terminal transitions bootstrap nothing."""
        s_next = batch["next_states"]
        a_next, log_prob, *_ = self._sample(s_next, eps)
        x = np.concatenate([s_next, a_next], axis=1)
        q1 = self.target_critic1(x)[:, 0]
        q2 = self.target_critic2(x)[:, 0]
        v = np.minimum(q1, q2) - self.alpha * log_prob
        r = self.reward_scale.normalize(batch["rewards"])
        return r + self.cfg.gamma * (1.0 - batch["dones"]) * v

    def critic_update(self, batch, eps=None):
        y = self.soft_q_target(batch, eps=eps)
        loss1, g1 = critic_mse(self.critic1, batch, y)
        loss2, g2 = critic_mse(self.critic2, batch, y)
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
        a, log_prob, eps, log_std, log_std_raw, cache = self._sample(s, eps)

        x = np.concatenate([s, a], axis=1)
        q1, c1 = self.critic1.forward(x)
        q2, c2 = self.critic2.forward(x)
        q1, q2 = q1[:, 0], q2[:, 0]
        q_min = np.minimum(q1, q2)
        alpha = self.alpha
        loss = float(np.mean(alpha * log_prob - q_min))

        # dQmin/da via whichever critic attains the min, per sample
        pick1 = (q1 <= q2).astype(float)[:, None]
        _, da1 = self.critic1.through(self.state_dim).backward(c1, pick1)
        _, da2 = self.critic2.through(self.state_dim).backward(c2, 1.0 - pick1)
        dq_da = da1 + da2

        one_m_t2 = 1.0 - a * a
        # d logpi / du, squash-correction term only (the Gaussian part is
        # constant in u once eps is fixed)
        g_sq = 2.0 * a * one_m_t2 / (one_m_t2 + SQUASH_EPS)
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
        soft_update(self.target_critic1, self.critic1, self.cfg.soft_rate)
        soft_update(self.target_critic2, self.critic2, self.cfg.soft_rate)

    def observe(self, state, action, reward, next_state, done) -> None:
        self.buffer.add(state, action, reward, next_state, done)
        self.reward_scale.update(reward)

    def maybe_update(self) -> None:
        if len(self.buffer) < WARMUP_BATCHES * self.cfg.batch_size:
            return
        batch = self.buffer.sample(self.cfg.batch_size, self.rng)
        critic1_loss, critic2_loss = self.critic_update(batch)
        policy_loss, log_prob = self.policy_update(batch)
        check_losses({"critic 1 loss": critic1_loss,
                      "critic 2 loss": critic2_loss,
                      "policy loss": policy_loss})
        self.temperature_update(log_prob)
        self.update_targets()


def train(env, agent: SacAgent, episodes: int):
    """Run the training loop; yields the env's StepOutcome of every step,
    episode by episode, so the i-th has (episode, step) = divmod(i, T)."""
    for _ in range(episodes):
        state = env.reset()
        for _ in range(env.T):
            action = agent.sample_action(state)
            out = env.step(action)
            agent.observe(state, action, out.reward, out.next_state, out.done)
            agent.maybe_update()
            yield out
            state = out.next_state
