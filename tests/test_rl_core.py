import gc
import math
import shutil
import weakref

import numpy as np
import pytest
from scipy import stats

from star_isac import rl_core
from star_isac.rl_core import (CHUNK, Adam, Mlp, ReplayBuffer, RewardScale,
                               RlError, soft_update)

from oracles import central_differences


class TestMlp:
    def test_shapes_and_init_bounds(self):
        net = Mlp([3, 7, 2], "linear", np.random.default_rng(0))
        y = net(np.zeros((5, 3)))
        assert y.shape == (5, 2)
        for w, fan_in in zip(net.weights, [3, 7]):
            assert np.max(np.abs(w)) <= 1.0 / np.sqrt(fan_in)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(1)
        net = Mlp([4, 6, 6, 3], "tanh", rng)
        x = rng.standard_normal((8, 4))
        y = net(x)
        for i in range(8):
            assert np.allclose(y[i], net(x[i:i + 1])[0], atol=1e-14)

    def test_tanh_output_bounded(self):
        rng = np.random.default_rng(2)
        net = Mlp([4, 16, 5], "tanh", rng)
        y = net(10 * rng.standard_normal((100, 4)))
        assert np.all(np.abs(y) < 1.0)

    @pytest.mark.parametrize("out_act", ["linear", "tanh"])
    def test_param_gradients_match_finite_differences(self, out_act):
        rng = np.random.default_rng(3)
        net = Mlp([3, 5, 4, 2], out_act, rng)
        x = rng.standard_normal((6, 3))
        w = rng.standard_normal((6, 2))  # fixed loss weights

        def loss(y):
            return float(np.sum(w * y))

        y, cache = net.forward(x)
        grads, dx = net.backward(cache, w)
        assert dx is None
        analytic = np.concatenate([g.ravel() for g in grads])
        numeric = central_differences(net, lambda: loss(net(x)),
                                      range(net.flat.size), 1e-5)
        denom = np.maximum(np.abs(numeric), 1e-8)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        net = Mlp([3, 8, 1], "linear", rng)
        x = rng.standard_normal((1, 3))
        _, cache = net.forward(x)
        grads, dx = net.through(0).backward(cache, np.ones((1, 1)))
        assert grads is None
        h = 1e-6
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[0, j] += h
            xm[0, j] -= h
            num = (net(xp)[0, 0] - net(xm)[0, 0]) / (2 * h)
            assert dx[0, j] == pytest.approx(num, abs=1e-6, rel=1e-5)

    def test_through_zero_is_the_full_input_gradient(self):
        rng = np.random.default_rng(21)
        net = Mlp([5, 8, 8, 2], "tanh", rng)
        y, cache = net.forward(rng.standard_normal((6, 5)))
        dy = rng.standard_normal((6, 2))
        _, dx = net.through(0).backward(cache, dy)
        # the cache keeps each layer's output; a ReLU's is positive
        # exactly where its input is
        (h0, h1, _), (w0, w1, w2) = cache[1], net.weights
        delta = dy * (1.0 - y * y)
        delta = (delta @ w2.T) * (h1 > 0.0)
        delta = (delta @ w1.T) * (h0 > 0.0)
        assert np.array_equal(dx, delta @ w0.T)

    def test_through_start_gives_the_trailing_input_columns(self):
        # the critic's case: only the action columns after the state
        rng = np.random.default_rng(20)
        net = Mlp([40, 32, 32, 1], "linear", rng)
        _, cache = net.forward(rng.standard_normal((16, 40)))
        dy = rng.standard_normal((16, 1))
        _, full = net.through(0).backward(cache, dy)
        for start in (1, 30, 39):
            view = net.through(start)
            assert view is net.through(start) and view.through(start) is view
            grads, dx = view.backward(cache, dy)
            assert grads is None and net.grad is None
            assert dx.shape == (16, 40 - start)
            err = np.max(np.abs(dx - full[:, start:]))
            assert err <= 1e-12 * np.max(np.abs(full[:, start:]))

    def test_copy_is_independent(self):
        net = Mlp([2, 3, 1], "linear", np.random.default_rng(7))
        dup = net.copy()
        dup.weights[0][0, 0] += 1.0
        assert net.weights[0][0, 0] != dup.weights[0][0, 0]

    def test_weights_and_biases_are_views_of_flat(self):
        net = Mlp([3, 4, 2], "linear", np.random.default_rng(13))
        layout = np.concatenate([p.ravel() for wb in zip(net.weights,
                                                         net.biases)
                                 for p in wb])
        assert np.array_equal(layout, net.flat)
        new = np.arange(net.flat.size, dtype=float)
        net.flat[...] = new
        assert np.array_equal(net.weights[0], new[:12].reshape(3, 4))
        assert np.array_equal(net.biases[1], new[-2:])
        net.flat[0] = -1.0
        assert net.weights[0][0, 0] == -1.0

    def test_copy_shares_no_memory(self):
        rng = np.random.default_rng(14)
        net = Mlp([3, 4, 2], "linear", rng)
        net.backward(net.forward(rng.standard_normal((2, 3)))[1],
                     np.ones((2, 2)))
        dup = net.copy()
        assert dup.grad is None
        for a in (dup.flat, *dup.weights, *dup.biases):
            for b in (net.flat, net.grad):
                assert not np.shares_memory(a, b)

    def test_net_and_view_freed_without_garbage_collector(self):
        # a reference cycle would keep the shared parameter vector alive
        # until the next full collection
        net = Mlp([3, 4, 2], "linear", np.random.default_rng(16))
        refs = [weakref.ref(net), weakref.ref(net.through(2))]
        gc.disable()
        try:
            del net
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_through_shares_parameters_not_gradients(self):
        rng = np.random.default_rng(15)
        net = Mlp([3, 4, 2], "linear", rng)
        view = net.through(0)
        assert view is net.through(0) and view.through(0) is view
        assert view.flat is net.flat
        assert all(np.shares_memory(a, b) for a, b in
                   zip(view.weights + view.biases, net.weights + net.biases))
        _, cache = net.forward(rng.standard_normal((5, 3)))
        dy = rng.standard_normal((5, 2))
        grads, _ = net.backward(cache, dy)
        before = grads[0].copy()
        net.flat[0] += 1.0
        assert view.weights[0][0, 0] == net.weights[0][0, 0]
        view.backward(cache, 2.0 * dy)
        assert view.grad is None
        assert np.array_equal(net.grad, before)

    def test_untrained_net_has_no_gradient_buffer(self):
        net = Mlp([3, 4, 2], "linear", np.random.default_rng(16))
        assert net.grad is None and net.copy().grad is None

    def test_width_mismatch_rejected(self):
        net = Mlp([3, 2], "linear", np.random.default_rng(8))
        with pytest.raises(RlError):
            net(np.zeros((1, 4)))


class TestAdam:
    def test_first_step_is_signed_lr(self):
        # after one step m/(1-b1) == g and v/(1-b2) == g^2, so the update
        # is lr * g/(|g| + eps) ~= lr * sign(g)
        p = np.array([1.0, -2.0, 3.0])
        g = np.array([0.5, -4.0, 1e-3])
        opt = Adam([p], lr=0.01)
        before = p.copy()
        opt.step([p], [g])
        expect = before - 0.01 * g / (np.abs(g) + 1e-8)
        assert np.allclose(p, expect, atol=1e-12)

    def test_two_steps_match_reference_recursion(self):
        rng = np.random.default_rng(9)
        p = rng.standard_normal(4)
        ref = p.copy()
        g1, g2 = rng.standard_normal(4), rng.standard_normal(4)
        opt = Adam([p], lr=0.05)
        opt.step([p], [g1])
        opt.step([p], [g2])
        m = np.zeros(4)
        v = np.zeros(4)
        for t, g in enumerate([g1, g2], start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= 0.05 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        assert np.allclose(p, ref, atol=1e-12)

    def test_chunked_step_matches_per_array_formula_bitwise(self):
        # a vector longer than one chunk and not a multiple of it, next to
        # a small array, against the update written out on whole arrays in
        # Kingma & Ba's efficient order: the bias corrections folded into
        # the step size and epsilon
        rng = np.random.default_rng(17)
        sizes = (2 * CHUNK + 123, 7)
        params = [rng.standard_normal(n) for n in sizes]
        ref = [p.copy() for p in params]
        m = [np.zeros(n) for n in sizes]
        v = [np.zeros(n) for n in sizes]
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        opt = Adam(params, lr=lr)
        for t in range(1, 6):
            grads = [rng.standard_normal(n) for n in sizes]
            opt.step(params, grads)
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            lr_t, eps_t = lr * math.sqrt(c2) / c1, eps * math.sqrt(c2)
            for p, g, mi, vi in zip(ref, grads, m, v):
                mi *= b1
                mi += (1 - b1) * g
                vi *= b2
                vi += (1 - b2) * g * g
                p -= mi / (np.sqrt(vi) + eps_t) * lr_t
            for p, r in zip(params, ref):
                assert np.array_equal(p, r)

    def test_long_run_matches_textbook_recursion(self):
        # 1,000 steps against the bias-corrected form as Kingma & Ba's
        # Algorithm 1 writes it: the two orders differ only in rounding, a
        # few ulps of |p| ~ 1 after the parameters have walked ~0.2
        rng = np.random.default_rng(19)
        p = rng.standard_normal(50)
        ref, start = p.copy(), p.copy()
        m, v = np.zeros(50), np.zeros(50)
        opt = Adam([p], lr=1e-3)
        for t in range(1, 1001):
            g = rng.standard_normal(50) + 0.1 * p
            opt.step([p], [g])
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= 1e-3 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        assert np.max(np.abs(p - start)) > 0.1
        assert np.allclose(p, ref, rtol=0.0, atol=1e-14)

    def test_descends_quadratic(self):
        p = np.array([5.0])
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            opt.step([p], [2 * p])
        assert abs(p[0]) < 0.1


class TestSoftUpdate:
    def test_convex_blend(self):
        rng = np.random.default_rng(10)
        online = Mlp([2, 3, 1], "linear", rng)
        target = Mlp([2, 3, 1], "linear", rng)
        t0 = target.flat.copy()
        soft_update(target, online, 0.25)
        expect = 0.75 * t0 + 0.25 * online.flat
        assert np.allclose(target.flat, expect, atol=1e-15)

    def test_eps_one_copies(self):
        rng = np.random.default_rng(11)
        online = Mlp([2, 3, 1], "linear", rng)
        target = Mlp([2, 3, 1], "linear", rng)
        soft_update(target, online, 1.0)
        assert np.array_equal(target.flat, online.flat)

    def test_chunked_blend_matches_per_array_formula_bitwise(self):
        rng = np.random.default_rng(18)
        sizes = [CHUNK + 5, 2, 1]  # flat length 2*CHUNK + 15
        online = Mlp(sizes, "linear", rng)
        target = Mlp(sizes, "linear", rng)
        ref = [p.copy() for p in target.weights + target.biases]
        for _ in range(3):
            online.flat[...] = rng.standard_normal(online.flat.size)
            soft_update(target, online, 0.3)
            for tp, op in zip(ref, online.weights + online.biases):
                tp *= 1.0 - 0.3
                tp += 0.3 * op
            for got, want in zip(target.weights + target.biases, ref):
                assert np.array_equal(got, want)


def same_bits(a, b) -> bool:
    """Equal bit for bit, zeros' signs included, and NaN in the same
    places; a NaN's payload depends on operand order and is not
    compared."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64),
                               b[~nan].view(np.uint64)))


needs_kernel = pytest.mark.skipif(rl_core._FUSED is None,
                                  reason="no compiled update on this host")


class TestFusedKernel:
    def test_built_wherever_a_compiler_is(self):
        # a build that fails would quietly run the slower numpy chain
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on PATH")
        assert rl_core._FUSED is not None
        assert rl_core._adam is rl_core._adam_fused
        assert rl_core._soft_update is rl_core._soft_update_fused

    @needs_kernel
    def test_adam_matches_numpy_chain_bitwise(self, monkeypatch):
        # from t = 1 past t = 10**6, on a vector crossing two chunk
        # boundaries, with zero, subnormal, huge (g*g overflows v to
        # inf), infinite and NaN gradient entries mixed in
        rng = np.random.default_rng(23)
        n = 2 * CHUNK + 123
        special = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]
        params = {path: [rng.standard_normal(n)]
                  for path in ("fused", "numpy")}
        params["numpy"][0][...] = params["fused"][0]
        opts = {path: Adam(params[path], lr=1e-3) for path in params}
        for t in range(1, 121):
            g = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 3, n)
            g[rng.integers(0, n, 40)] = rng.choice(special, 40)
            if t % 30 == 0:
                g[rng.integers(0, n, 3)] = [np.inf, -np.inf, np.nan]
            if t == 60:
                for opt in opts.values():
                    opt.t = 10 ** 6
            for path in params:
                monkeypatch.setattr(rl_core, "_adam",
                                    getattr(rl_core, f"_adam_{path}"))
                # numpy warns of the overflows; the kernel does not
                with np.errstate(over="ignore", invalid="ignore"):
                    opts[path].step(params[path], [g])
        fused, plain = opts["fused"], opts["numpy"]
        for a, b in ((params["fused"], params["numpy"]), (fused.m, plain.m),
                     (fused.v, plain.v)):
            assert same_bits(a[0], b[0])
        assert 0 < np.isnan(params["fused"][0]).sum() < n
        assert np.isinf(fused.v[0]).any()

    @needs_kernel
    def test_soft_update_matches_numpy_chain_bitwise(self, monkeypatch):
        rng = np.random.default_rng(24)
        sizes = [CHUNK + 5, 2, 1]  # flat length 2*CHUNK + 15
        online = Mlp(sizes, "linear", rng)
        targets = {"fused": Mlp(sizes, "linear", rng)}
        targets["numpy"] = targets["fused"].copy()
        for eps in (0.005, 0.3, 1e-300, 1.0):
            online.flat[...] = rng.standard_normal(online.flat.size)
            online.flat[rng.integers(0, online.flat.size, 4)] = \
                [0.0, -0.0, 5e-324, 1e300]
            for path, target in targets.items():
                monkeypatch.setattr(rl_core, "_soft_update",
                                    getattr(rl_core, f"_soft_update_{path}"))
                soft_update(target, online, eps)
            assert same_bits(targets["fused"].flat, targets["numpy"].flat)

    @needs_kernel
    def test_rejects_arrays_it_cannot_point_at(self):
        n = 10
        base = np.zeros(2 * n)
        bad_grads = {
            "float32": np.zeros(n, np.float32),
            "strided": np.zeros(2 * n)[::2],
            "short": np.zeros(n - 1),
            "overlapping": base[1:n + 1],
        }
        for name, g in bad_grads.items():
            p = base[:n]
            opt = Adam([p], lr=0.1)
            with pytest.raises(RlError):
                opt.step([p], [g])
            assert opt.m[0].sum() == 0.0, name
        net = Mlp([2, 3, 1], "linear", np.random.default_rng(25))
        with pytest.raises(RlError, match="overlap"):
            soft_update(net, net, 0.5)


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
        with pytest.raises(ValueError):
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
