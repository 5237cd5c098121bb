import numpy as np
import pytest
from scipy import stats

from star_isac.rl_core import (Adam, Mlp, ReplayBuffer, RewardScale, RlError,
                               soft_update)


def flat_numeric_grad(net, x, loss_fn, h=1e-5):
    """Central finite differences of loss_fn(net(x)) w.r.t. flat params."""
    base = net.get_flat()
    grad = np.zeros_like(base)
    for i in range(base.size):
        plus = base.copy()
        plus[i] += h
        net.set_flat(plus)
        lp = loss_fn(net(x))
        minus = base.copy()
        minus[i] -= h
        net.set_flat(minus)
        lm = loss_fn(net(x))
        grad[i] = (lp - lm) / (2 * h)
    net.set_flat(base)
    return grad


class TestMlp:
    def test_shapes_and_init_bounds(self):
        net = Mlp([3, 7, 2], rng=np.random.default_rng(0))
        y = net(np.zeros((5, 3)))
        assert y.shape == (5, 2)
        for w, fan_in in zip(net.weights, [3, 7]):
            assert np.max(np.abs(w)) <= 1.0 / np.sqrt(fan_in)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(1)
        net = Mlp([4, 6, 6, 3], output_activation="tanh", rng=rng)
        x = rng.standard_normal((8, 4))
        y = net(x)
        for i in range(8):
            assert np.allclose(y[i], net(x[i:i + 1])[0], atol=1e-14)

    def test_tanh_output_bounded(self):
        rng = np.random.default_rng(2)
        net = Mlp([4, 16, 5], output_activation="tanh", rng=rng)
        y = net(10 * rng.standard_normal((100, 4)))
        assert np.all(np.abs(y) < 1.0)

    @pytest.mark.parametrize("out_act", ["linear", "tanh"])
    def test_param_gradients_match_finite_differences(self, out_act):
        rng = np.random.default_rng(3)
        net = Mlp([3, 5, 4, 2], output_activation=out_act, rng=rng)
        x = rng.standard_normal((6, 3))
        w = rng.standard_normal((6, 2))  # fixed loss weights

        def loss(y):
            return float(np.sum(w * y))

        y, cache = net.forward(x)
        grads, _ = net.backward(cache, w)
        analytic = np.concatenate([g.ravel() for g in grads])
        numeric = flat_numeric_grad(net, x, loss)
        denom = np.maximum(np.abs(numeric), 1e-8)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        net = Mlp([3, 8, 1], rng=rng)
        x = rng.standard_normal((1, 3))
        _, cache = net.forward(x)
        _, dx = net.backward(cache, np.ones((1, 1)))
        h = 1e-6
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[0, j] += h
            xm[0, j] -= h
            num = (net(xp)[0, 0] - net(xm)[0, 0]) / (2 * h)
            assert dx[0, j] == pytest.approx(num, abs=1e-6, rel=1e-5)

    def test_flat_roundtrip(self):
        net = Mlp([2, 4, 1], rng=np.random.default_rng(5))
        flat = net.get_flat()
        other = Mlp([2, 4, 1], rng=np.random.default_rng(6))
        other.set_flat(flat)
        assert np.array_equal(other.get_flat(), flat)
        with pytest.raises(RlError):
            other.set_flat(flat[:-1])

    def test_copy_is_independent(self):
        net = Mlp([2, 3, 1], rng=np.random.default_rng(7))
        dup = net.copy()
        dup.weights[0][0, 0] += 1.0
        assert net.weights[0][0, 0] != dup.weights[0][0, 0]

    def test_width_mismatch_rejected(self):
        net = Mlp([3, 2], rng=np.random.default_rng(8))
        with pytest.raises(RlError):
            net(np.zeros((1, 4)))


class TestAdam:
    def test_first_step_is_signed_lr(self):
        # after one step m/(1-b1) == g and v/(1-b2) == g^2, so the update
        # is lr * g/(|g| + eps) ~= lr * sign(g)
        p = np.array([1.0, -2.0, 3.0])
        g = np.array([0.5, -4.0, 1e-3])
        opt = Adam([p], lr=0.01, eps=1e-8)
        before = p.copy()
        opt.step([p], [g])
        expect = before - 0.01 * g / (np.abs(g) + 1e-8)
        assert np.allclose(p, expect, atol=1e-12)

    def test_zero_lr_is_noop(self):
        p = np.array([1.0, 2.0])
        opt = Adam([p], lr=0.0)
        opt.step([p], [np.ones(2)])
        assert np.array_equal(p, [1.0, 2.0])
        assert opt.t == 0

    def test_two_steps_match_reference_recursion(self):
        rng = np.random.default_rng(9)
        p = rng.standard_normal(4)
        ref = p.copy()
        g1, g2 = rng.standard_normal(4), rng.standard_normal(4)
        opt = Adam([p], lr=0.05, beta1=0.9, beta2=0.999, eps=1e-8)
        opt.step([p], [g1])
        opt.step([p], [g2])
        m = np.zeros(4)
        v = np.zeros(4)
        for t, g in enumerate([g1, g2], start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= 0.05 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        assert np.allclose(p, ref, atol=1e-12)

    def test_descends_quadratic(self):
        p = np.array([5.0])
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            opt.step([p], [2 * p])
        assert abs(p[0]) < 0.1


class TestSoftUpdate:
    def test_convex_blend(self):
        rng = np.random.default_rng(10)
        online = Mlp([2, 3, 1], rng=rng)
        target = Mlp([2, 3, 1], rng=rng)
        t0 = target.get_flat().copy()
        soft_update(target, online, 0.25)
        expect = 0.75 * t0 + 0.25 * online.get_flat()
        assert np.allclose(target.get_flat(), expect, atol=1e-15)

    def test_eps_one_copies(self):
        rng = np.random.default_rng(11)
        online = Mlp([2, 3, 1], rng=rng)
        target = Mlp([2, 3, 1], rng=rng)
        soft_update(target, online, 1.0)
        assert np.array_equal(target.get_flat(), online.get_flat())

    def test_bad_rate_rejected(self):
        rng = np.random.default_rng(12)
        net = Mlp([2, 2], rng=rng)
        with pytest.raises(RlError):
            soft_update(net.copy(), net, 1.5)


class TestReplayBuffer:
    def test_ring_overwrite(self):
        buf = ReplayBuffer(capacity=3, state_dim=1, action_dim=1)
        for k in range(5):
            buf.add([k], [k], k, [k + 1], False)
        assert len(buf) == 3
        # slots now hold transitions 3, 4, 2 (cursor wrapped twice)
        assert sorted(buf.rewards.tolist()) == [2.0, 3.0, 4.0]

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(capacity=10, state_dim=1, action_dim=1)
        for k in range(10):
            buf.add([k], [0], k, [0], False)
        batch = buf.sample(10, np.random.default_rng(0))
        assert sorted(batch["rewards"].tolist()) == list(map(float, range(10)))

    def test_not_ready_raises(self):
        buf = ReplayBuffer(capacity=5, state_dim=1, action_dim=1)
        buf.add([0], [0], 0, [0], False)
        assert not buf.ready(2)
        with pytest.raises(RlError):
            buf.sample(2, np.random.default_rng(0))

    def test_fields_roundtrip(self):
        buf = ReplayBuffer(capacity=4, state_dim=2, action_dim=3)
        s = [1.0, 2.0]
        a = [0.1, 0.2, 0.3]
        ns = [3.0, 4.0]
        buf.add(s, a, 7.5, ns, True)
        batch = buf.sample(1, np.random.default_rng(1))
        assert np.array_equal(batch["states"][0], s)
        assert np.array_equal(batch["actions"][0], a)
        assert batch["rewards"][0] == 7.5
        assert np.array_equal(batch["next_states"][0], ns)
        assert batch["dones"][0] == 1.0

    def test_sampling_is_uniform(self):
        buf = ReplayBuffer(capacity=20, state_dim=1, action_dim=1)
        for k in range(20):
            buf.add([k], [0], k, [0], False)
        rng = np.random.default_rng(2)
        counts = np.zeros(20)
        for _ in range(2000):
            for r in buf.sample(4, rng)["rewards"]:
                counts[int(r)] += 1
        _, p = stats.chisquare(counts)
        assert p > 0.01


class TestRewardScale:
    def test_fresh_scale_is_identity(self):
        rs = RewardScale()
        assert rs.scale == 1.0
        r = np.array([3.0, -2.0])
        assert np.array_equal(rs.normalize(r), r)

    def test_scale_tracks_mean_absolute_reward(self):
        rs = RewardScale()
        rewards = [4.0, -2.0, 0.0, 6.0]
        for r in rewards:
            rs.update(r)
        assert rs.scale == pytest.approx(np.mean(np.abs(rewards)))
        assert rs.normalize(np.array([6.0]))[0] == pytest.approx(2.0)

    def test_scale_invariance_of_normalized_stream(self):
        # feeding c*r instead of r must leave normalized values unchanged
        rng = np.random.default_rng(3)
        rewards = rng.normal(2.0, 1.5, size=50)
        a, b = RewardScale(), RewardScale()
        for r in rewards:
            a.update(r)
            b.update(10.0 * r)
        assert np.allclose(a.normalize(rewards), b.normalize(10.0 * rewards))

    def test_zero_rewards_do_not_divide_by_zero(self):
        rs = RewardScale()
        rs.update(0.0)
        out = rs.normalize(np.array([0.0, 1.0]))
        assert np.all(np.isfinite(out))
