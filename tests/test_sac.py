import copy
import functools

import numpy as np
import pytest

from star_isac.experiments import ScenarioConfig
from star_isac.rl_core import WARMUP_BATCHES, critic_mse
from star_isac.sac import SQUASH_EPS, SacAgent

import learners
from learners import random_batch
from oracles import central_differences


tiny_agent = functools.partial(learners.tiny_agent, SacAgent)


class TestSquash:
    def test_action_bounds(self):
        agent = tiny_agent()
        rng = np.random.default_rng(0)
        for _ in range(100):
            states = rng.standard_normal((4, 3))
            a, lp, *_ = agent._sample(states, rng.standard_normal((4, 2)))
            assert a.shape == (4, 2) and lp.shape == (4,)
            assert np.all(np.abs(a) < 1.0)
            assert np.all(np.isfinite(lp))

    def test_fixed_eps_hand_values(self):
        mean = np.array([[0.3, -0.7]])
        log_std = np.array([[-1.0, 0.5]])
        eps = np.array([[0.2, -0.1]])
        a, lp = SacAgent._squash(mean, log_std, eps)
        u_expect = mean + np.exp(log_std) * eps
        assert np.allclose(a, np.tanh(u_expect))
        lp_expect = np.sum(
            -0.5 * np.log(2 * np.pi) - log_std - 0.5 * eps ** 2
            - np.log(1 - np.tanh(u_expect) ** 2 + SQUASH_EPS))
        assert lp[0] == pytest.approx(lp_expect, rel=1e-12)

    def test_log_prob_is_squashed_density(self):
        # Monte-Carlo check: E[exp(lp)] over the sampler should integrate
        # to ~1 over the action box for a 1-d slice
        mean = np.zeros((1, 1))
        log_std = np.zeros((1, 1))
        rng = np.random.default_rng(1)
        grid = np.linspace(-0.999, 0.999, 4001)
        u = np.arctanh(grid)
        eps = (u - mean[0, 0]) / np.exp(log_std[0, 0])
        _, lp = SacAgent._squash(
            np.repeat(mean, grid.size, 0), np.repeat(log_std, grid.size, 0),
            eps[:, None])
        dens = np.exp(lp)
        total = np.trapezoid(dens, grid)
        assert total == pytest.approx(1.0, abs=5e-3)


class TestSoftQTarget:
    def test_gamma_zero_is_reward(self):
        agent = tiny_agent(gamma=0.0)
        batch = random_batch(np.random.default_rng(3))
        eps = np.zeros((4, 2))
        assert np.allclose(agent.soft_q_target(batch, eps=eps),
                           batch["rewards"])

    def test_hand_computed_target(self):
        agent = tiny_agent(seed=4, gamma=0.9)
        batch = random_batch(np.random.default_rng(4), n=2)
        eps = np.random.default_rng(5).standard_normal((2, 2))
        a_next, lp, *_ = agent._sample(batch["next_states"], eps)
        x = np.concatenate([batch["next_states"], a_next], axis=1)
        q1 = agent.target_critic1(x)[:, 0]
        q2 = agent.target_critic2(x)[:, 0]
        expect = batch["rewards"] + 0.9 * (np.minimum(q1, q2)
                                           - agent.alpha * lp)
        got = agent.soft_q_target(batch, eps=eps)
        assert np.allclose(got, expect, rtol=1e-12)

    def test_terminal_masking(self):
        agent = tiny_agent(seed=6)
        batch = random_batch(np.random.default_rng(6), dones=[1, 0, 1, 0])
        eps = np.zeros((4, 2))
        y = agent.soft_q_target(batch, eps=eps)
        assert y[0] == batch["rewards"][0]
        assert y[2] == batch["rewards"][2]


class TestGradients:
    def test_policy_gradients_match_finite_differences(self):
        agent = tiny_agent(seed=7)
        rng = np.random.default_rng(7)
        batch = random_batch(rng)
        eps = rng.standard_normal((4, 2))
        loss, grads, _ = agent.policy_loss_and_grads(batch, eps=eps)
        analytic = np.concatenate([g.ravel() for g in grads])
        idx = np.random.default_rng(8).choice(agent.policy.flat.size, 50,
                                              replace=False)
        numeric = central_differences(
            agent.policy,
            lambda: agent.policy_loss_and_grads(batch, eps=eps)[0], idx, 1e-5)
        for i, num in zip(idx, numeric):
            assert analytic[i] == pytest.approx(num, abs=1e-7, rel=1e-4)

    def test_policy_update_descends_loss(self):
        agent = tiny_agent(seed=9, lr=1e-6)
        rng = np.random.default_rng(9)
        batch = random_batch(rng, n=16)
        eps = rng.standard_normal((16, 2))
        before, _, _ = agent.policy_loss_and_grads(batch, eps=eps)
        agent.policy_update(batch, eps=eps)
        after, _, _ = agent.policy_loss_and_grads(batch, eps=eps)
        assert after < before

    def test_twin_critics_update_toward_common_target(self):
        agent = tiny_agent(seed=10, lr=1e-6)
        rng = np.random.default_rng(10)
        batch = random_batch(rng, n=16)
        eps = rng.standard_normal((16, 2))
        y = agent.soft_q_target(batch, eps=eps)
        l1_before, _ = critic_mse(agent.critic1, batch, y)
        l2_before, _ = critic_mse(agent.critic2, batch, y)
        agent.critic_update(batch, eps=eps)
        # targets move with the fresh action sample, so re-evaluate against
        # the frozen y
        l1_after, _ = critic_mse(agent.critic1, batch, y)
        l2_after, _ = critic_mse(agent.critic2, batch, y)
        assert l1_after < l1_before
        assert l2_after < l2_before

    def test_min_critic_selection_per_sample(self):
        agent = tiny_agent(seed=11)
        rng = np.random.default_rng(11)
        batch = random_batch(rng)
        eps = rng.standard_normal((4, 2))
        s = batch["states"]
        a, lp, *_ = agent._sample(s, eps)
        x = np.concatenate([s, a], axis=1)
        q_min = np.minimum(agent.critic1(x)[:, 0], agent.critic2(x)[:, 0])
        loss, _, _ = agent.policy_loss_and_grads(batch, eps=eps)
        assert loss == pytest.approx(
            float(np.mean(agent.alpha * lp - q_min)), rel=1e-12)


class TestTemperature:
    def test_gradient_sign(self):
        agent = tiny_agent(seed=12)
        # entropy far above target (very negative logpi) -> positive
        # gradient -> descent shrinks alpha
        lp = np.full(8, -50.0)
        _, g = agent.temperature_loss_and_grad(lp)
        assert g[0] > 0
        # entropy below target -> negative gradient -> alpha grows
        lp = np.full(8, 50.0)
        _, g = agent.temperature_loss_and_grad(lp)
        assert g[0] < 0

    def test_stationary_at_target_entropy(self):
        agent = tiny_agent(seed=13)
        lp = np.full(8, -agent.target_entropy)
        loss, g = agent.temperature_loss_and_grad(lp)
        assert g[0] == pytest.approx(0.0, abs=1e-12)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_alpha_stays_positive(self):
        agent = tiny_agent(seed=14, lr=0.5)
        for _ in range(200):
            agent.temperature_update(np.full(4, -100.0))
        assert agent.alpha > 0.0

    def test_grad_matches_finite_difference_in_log_alpha(self):
        agent = tiny_agent(seed=15)
        lp = np.random.default_rng(15).standard_normal(8)
        _, g = agent.temperature_loss_and_grad(lp)
        h = 1e-6
        la0 = agent.log_alpha[0]
        agent.log_alpha[0] = la0 + h
        up, _ = agent.temperature_loss_and_grad(lp)
        agent.log_alpha[0] = la0 - h
        dn, _ = agent.temperature_loss_and_grad(lp)
        agent.log_alpha[0] = la0
        assert g[0] == pytest.approx((up - dn) / (2 * h), abs=1e-6, rel=1e-5)


class TestTemperatureTracksNoise:
    """The temperature regulates the exploration noise itself: a
    dimension pushed into tanh saturation must not pay the entropy
    target for the dimensions that still move."""

    @staticmethod
    def _wide_noise_agent(mean_bias):
        agent = tiny_agent(seed=19)
        # state-independent head: the given means, pre-squash std 0.5
        agent.policy.weights[-1][:] = 0.0
        agent.policy.biases[-1][:] = [*mean_bias, np.log(0.5), np.log(0.5)]
        return agent

    def test_temperature_signal_ignores_saturation(self):
        batch = random_batch(np.random.default_rng(19))
        eps = np.random.default_rng(20).standard_normal((4, 2))
        _, _, centred = self._wide_noise_agent(
            [0.0, 0.0]).policy_loss_and_grads(batch, eps=eps)
        _, _, saturated = self._wide_noise_agent(
            [6.0, 0.0]).policy_loss_and_grads(batch, eps=eps)
        assert np.allclose(saturated, centred, rtol=1e-12)
        # std 0.5 in both dimensions is more entropy than the target
        assert -np.mean(centred) > tiny_agent().target_entropy

    def test_wide_noise_lowers_alpha_despite_saturation(self):
        agent = self._wide_noise_agent([6.0, 0.0])
        rng = np.random.default_rng(21)
        for _ in range(WARMUP_BATCHES * agent.cfg.batch_size):
            agent.observe(rng.standard_normal(3), rng.uniform(-1, 1, 2),
                          float(rng.standard_normal()),
                          rng.standard_normal(3), False)
        alpha0 = agent.alpha
        for _ in range(20):
            agent.maybe_update()
        assert agent.alpha < alpha0


class TestMachinery:
    def test_warmup_blocks_updates(self):
        agent = tiny_agent(seed=16, batch_size=4)
        rng = np.random.default_rng(16)
        flat0 = agent.policy.flat.copy()
        for _ in range(WARMUP_BATCHES * 4 - 1):
            agent.observe(rng.standard_normal(3), rng.uniform(-1, 1, 2),
                          0.0, rng.standard_normal(3), False)
            agent.maybe_update()
        assert np.array_equal(agent.policy.flat, flat0)
        agent.observe(rng.standard_normal(3), rng.uniform(-1, 1, 2),
                      0.0, rng.standard_normal(3), False)
        agent.maybe_update()
        assert not np.array_equal(agent.policy.flat, flat0)

    def test_same_seed_reproduces(self):
        states = np.random.default_rng(17).standard_normal((50, 3))

        def run():
            agent = tiny_agent(seed=18, batch_size=4)
            for s in states:
                a = agent.sample_action(s)
                agent.observe(s, a, float(s.sum()), s, False)
                agent.maybe_update()
            return agent.policy.flat

        assert np.array_equal(run(), run())


def test_sample_action_acts_on_one_state_with_one_draw():
    # the acting contract training relies on: one state in, its action
    # out, squashed from exactly one (1, action_dim) draw of agent.rng,
    # so the generator stays in step with the updates' batch draws
    agent = tiny_agent(seed=19)
    states = np.random.default_rng(20).standard_normal((20, 3))
    for state in states:
        twin = copy.deepcopy(agent.rng)
        a = agent.sample_action(state)
        assert a.shape == (2,)
        assert np.all(np.abs(a) < 1.0)
        expect, *_ = agent._sample(state, twin.standard_normal((1, 2)))
        assert np.array_equal(a, expect[0])
        assert agent.rng.bit_generator.state == twin.bit_generator.state


def test_soft_target_uses_normalized_rewards():
    agent = tiny_agent(hidden_layers=1)
    for k in range(10):
        agent.observe(np.zeros(3), np.zeros(2), 4.0, np.zeros(3), False)
    assert agent.reward_scale.scale == pytest.approx(4.0)
    batch = {
        "states": np.zeros((1, 3)),
        "actions": np.zeros((1, 2)),
        "rewards": np.array([4.0]),
        "next_states": np.zeros((1, 3)),
        "dones": np.array([1.0]),
    }
    assert agent.soft_q_target(batch)[0] == pytest.approx(1.0)


def test_initial_policy_std_is_moderate():
    agent = SacAgent(ScenarioConfig(), 5, 7, seed=0)
    log_std = agent._sample(np.zeros(5))[3]
    # head bias shifted by INIT_LOG_STD, weights add only small jitter
    assert np.all(log_std < -1.0)
    assert np.all(log_std > -2.2)
