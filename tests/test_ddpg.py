import functools

import numpy as np
import pytest

from star_isac.ddpg import NOISE_STD, DdpgAgent
from star_isac.rl_core import WARMUP_BATCHES, critic_mse

import learners
from learners import random_batch
from oracles import central_differences


tiny_agent = functools.partial(learners.tiny_agent, DdpgAgent)


def critic_loss(agent, batch):
    """The critic's (loss, grads) against the agent's own targets."""
    return critic_mse(agent.critic, batch, agent.target_value(batch))


class TestActing:
    def test_action_bounds_and_shape(self):
        agent = tiny_agent()
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = agent.select_action(rng.standard_normal(3))
            assert a.shape == (2,)
            assert np.all((a >= -1.0) & (a <= 1.0))

    def test_noise_has_constant_std(self):
        agent = tiny_agent()
        s = np.ones(3)
        mean = agent.actor(s[None])[0]
        # far enough inside [-1, 1] that clipping never shows
        assert np.all(np.abs(mean) < 1.0 - 6 * NOISE_STD)
        for _ in range(2):  # the same std early and late
            noise = np.array([agent.select_action(s)
                              for _ in range(2000)]) - mean
            assert np.std(noise) == pytest.approx(NOISE_STD, rel=0.05)
            assert np.abs(np.mean(noise)) < 0.01


class TestTargetValue:
    def test_gamma_zero_is_reward(self):
        agent = tiny_agent(gamma=0.0)
        batch = random_batch(np.random.default_rng(1))
        assert np.allclose(agent.target_value(batch), batch["rewards"])

    def test_hand_computed_bootstrap(self):
        agent = tiny_agent(gamma=0.99)
        batch = random_batch(np.random.default_rng(2), n=1)
        a_next = agent.target_actor(batch["next_states"])
        q_next = agent.target_critic(
            np.concatenate([batch["next_states"], a_next], axis=1))[0, 0]
        expect = batch["rewards"][0] + 0.99 * q_next
        assert agent.target_value(batch)[0] == pytest.approx(expect, rel=1e-12)

    def test_terminal_masking(self):
        agent = tiny_agent(gamma=0.99)
        rng = np.random.default_rng(3)
        batch = random_batch(rng, n=4, dones=[1, 1, 1, 1])
        assert np.allclose(agent.target_value(batch), batch["rewards"])
        batch["dones"] = np.array([0.0, 1.0, 0.0, 1.0])
        y = agent.target_value(batch)
        assert y[1] == batch["rewards"][1]
        assert y[3] == batch["rewards"][3]
        assert y[0] != batch["rewards"][0]


class TestGradients:
    def test_critic_gradients_match_finite_differences(self):
        agent = tiny_agent(seed=4)
        batch = random_batch(np.random.default_rng(4))
        loss, grads = critic_loss(agent, batch)
        analytic = np.concatenate([g.ravel() for g in grads])
        idx = np.random.default_rng(5).choice(agent.critic.flat.size, 40,
                                              replace=False)
        numeric = central_differences(
            agent.critic, lambda: critic_loss(agent, batch)[0], idx, 1e-5)
        for i, num in zip(idx, numeric):
            assert analytic[i] == pytest.approx(num, abs=1e-7, rel=1e-4)

    def test_actor_gradients_match_finite_differences(self):
        agent = tiny_agent(seed=6)
        batch = random_batch(np.random.default_rng(6))
        obj, grads = agent.actor_objective_and_grads(batch)
        analytic = np.concatenate([g.ravel() for g in grads])
        idx = np.random.default_rng(7).choice(agent.actor.flat.size, 40,
                                              replace=False)
        numeric = central_differences(
            agent.actor, lambda: agent.actor_objective_and_grads(batch)[0],
            idx, 1e-5)
        for i, num in zip(idx, numeric):
            assert analytic[i] == pytest.approx(num, abs=1e-7, rel=1e-4)

    def test_actor_update_ascends_objective(self):
        agent = tiny_agent(seed=8, lr=1e-6)
        batch = random_batch(np.random.default_rng(8), n=16)
        before, _ = agent.actor_objective_and_grads(batch)
        agent.actor_update(batch)
        after, _ = agent.actor_objective_and_grads(batch)
        assert after > before

    def test_critic_update_descends_loss(self):
        agent = tiny_agent(seed=9, lr=1e-6)
        batch = random_batch(np.random.default_rng(9), n=16)
        before, _ = critic_loss(agent, batch)
        agent.critic_update(batch)
        after, _ = critic_loss(agent, batch)
        assert after < before


class TestUpdateMachinery:
    def test_targets_start_equal_and_track_slowly(self):
        agent = tiny_agent(seed=10, soft_rate=0.1)
        assert np.array_equal(agent.actor.flat, agent.target_actor.flat)
        t0 = agent.target_critic.flat.copy()
        agent.critic.flat += 1.0
        agent.update_targets()
        expect = 0.9 * t0 + 0.1 * agent.critic.flat
        assert np.allclose(agent.target_critic.flat, expect, atol=1e-14)

    def test_warmup_blocks_updates(self):
        agent = tiny_agent(seed=11, batch_size=4)
        rng = np.random.default_rng(11)
        flat0 = agent.critic.flat.copy()
        for _ in range(WARMUP_BATCHES * 4 - 1):
            agent.observe(rng.standard_normal(3), rng.uniform(-1, 1, 2),
                          0.0, rng.standard_normal(3), False)
            agent.maybe_update()
        assert np.array_equal(agent.critic.flat, flat0)
        agent.observe(rng.standard_normal(3), rng.uniform(-1, 1, 2),
                      0.0, rng.standard_normal(3), False)
        agent.maybe_update()
        assert not np.array_equal(agent.critic.flat, flat0)

    def test_same_seed_reproduces(self):
        rng_s = np.random.default_rng(12)
        states = rng_s.standard_normal((50, 3))

        def run():
            agent = tiny_agent(seed=13, batch_size=4)
            for s in states:
                a = agent.select_action(s)
                agent.observe(s, a, float(s.sum()), s, False)
                agent.maybe_update()
            return agent.actor.flat

        assert np.array_equal(run(), run())


def test_target_uses_normalized_rewards():
    agent = tiny_agent(hidden_layers=1)
    for k in range(10):
        agent.observe(np.zeros(3), np.zeros(2), 5.0, np.zeros(3), False)
    assert agent.reward_scale.scale == pytest.approx(5.0)
    batch = {
        "states": np.zeros((1, 3)),
        "actions": np.zeros((1, 2)),
        "rewards": np.array([5.0]),
        "next_states": np.zeros((1, 3)),
        "dones": np.array([1.0]),  # mask the bootstrap term
    }
    assert agent.target_value(batch)[0] == pytest.approx(1.0)
