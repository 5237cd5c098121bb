"""Deterministic actor-critic agent with target networks, Gaussian
exploration noise, and soft target updates.

Update helpers return (loss, grads) pairs so the gradient oracle in the
test suite can check them against finite differences without stepping
the optimizer.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .rl_core import (WARMUP_BATCHES, Adam, Mlp, ReplayBuffer, RewardScale,
                      critic_mse, soft_update)

if TYPE_CHECKING:
    from .experiments import ScenarioConfig

# std of the Gaussian noise added to every action component when acting
NOISE_STD = 0.1


class DdpgAgent:
    def __init__(self, cfg: ScenarioConfig, state_dim: int, action_dim: int,
                 seed: int):
        rng = np.random.default_rng(seed)
        self.state_dim = state_dim
        self.cfg = cfg

        hidden = [cfg.hidden_units] * cfg.hidden_layers
        self.actor = Mlp([state_dim, *hidden, action_dim], "tanh", rng)
        self.critic = Mlp([state_dim + action_dim, *hidden, 1], "linear", rng)
        self.target_actor = self.actor.copy()
        self.target_critic = self.critic.copy()
        self.actor_opt = Adam(self.actor.params, lr=cfg.lr)
        self.critic_opt = Adam(self.critic.params, lr=cfg.lr)
        self.buffer = ReplayBuffer(cfg.replay_capacity, state_dim, action_dim)
        self.reward_scale = RewardScale()
        self.rng = rng

    # ---- acting ---------------------------------------------------------
    def select_action(self, state) -> np.ndarray:
        a = self.actor(state)[0]
        return np.clip(a + self.rng.normal(0.0, NOISE_STD, size=a.shape),
                       -1.0, 1.0)

    # ---- updates --------------------------------------------------------
    def target_value(self, batch) -> np.ndarray:
        """y_i = r + gamma * target_critic(s', target_actor(s'));
        bootstrap masked on terminal transitions."""
        a_next = self.target_actor(batch["next_states"])
        q_next = self.target_critic(
            np.concatenate([batch["next_states"], a_next], axis=1))[:, 0]
        r = self.reward_scale.normalize(batch["rewards"])
        return r + self.cfg.gamma * (1.0 - batch["dones"]) * q_next

    def critic_update(self, batch) -> float:
        loss, grads = critic_mse(self.critic, batch, self.target_value(batch))
        self.critic_opt.step(self.critic.params, grads)
        return loss

    def actor_objective_and_grads(self, batch):
        """J = mean critic(s, actor(s)); grads are of J itself (caller
        ascends by stepping along -grads)."""
        s = batch["states"]
        a, a_cache = self.actor.forward(s)
        x = np.concatenate([s, a], axis=1)
        q, c_cache = self.critic.forward(x)
        d = q.shape[0]
        objective = float(np.mean(q))
        _, da = self.critic.through(self.state_dim).backward(
            c_cache, np.full((d, 1), 1.0 / d))
        grads, _ = self.actor.backward(a_cache, da)
        return objective, grads

    def actor_update(self, batch) -> float:
        objective, grads = self.actor_objective_and_grads(batch)
        for g in grads:
            np.negative(g, out=g)
        self.actor_opt.step(self.actor.params, grads)
        return objective

    def update_targets(self) -> None:
        soft_update(self.target_actor, self.actor, self.cfg.soft_rate)
        soft_update(self.target_critic, self.critic, self.cfg.soft_rate)

    def observe(self, state, action, reward, next_state, done) -> None:
        self.buffer.add(state, action, reward, next_state, done)
        self.reward_scale.update(reward)

    def maybe_update(self) -> dict:
        """One critic + one actor update per environment step, after a
        warm-up of WARMUP_BATCHES batches worth of transitions; returns
        the update's {name: loss}, empty while warming up."""
        if len(self.buffer) < WARMUP_BATCHES * self.cfg.batch_size:
            return {}
        batch = self.buffer.sample(self.cfg.batch_size, self.rng)
        losses = {"critic loss": self.critic_update(batch),
                  "actor objective": self.actor_update(batch)}
        self.update_targets()
        return losses


def train(env, agent: DdpgAgent, episodes: int):
    """Run the training loop; yields (the env's StepOutcome, the losses
    of the update after it) for every step, episode by episode, so the
    i-th has (episode, step) = divmod(i, T). Nothing here checks them."""
    for _ in range(episodes):
        state = env.reset()
        for _ in range(env.T):
            action = agent.select_action(state)
            out = env.step(action)
            agent.observe(state, action, out.reward, out.next_state, out.done)
            yield out, agent.maybe_update()
            state = out.next_state
