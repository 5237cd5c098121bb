import numpy as np
import pytest

from star_isac import physics
from star_isac.env import EnvError, SecureIsacEnv
from star_isac.experiments import ScenarioConfig, build_baseline

from oracles import naive_sinr


def small_cfg(**kw):
    kw.setdefault("L", 3)
    kw.setdefault("N", 4)
    kw.setdefault("n_x", 2)
    kw.setdefault("T", 5)
    kw.setdefault("episodes", 2)
    kw.setdefault("seeds", (0,))
    return ScenarioConfig(**kw)


def make_env(**kw):
    seed = kw.pop("seed", 0)
    return build_baseline(small_cfg(**kw), seed=seed)


class TestDimensions:
    def test_es_star_dims(self):
        env = make_env()
        L, N, M = 3, 4, 2
        assert env.action_dim == 2 * L * (L + M) + 3 * N
        n_complex = N * L + M * (L + N) + 2 * (L + N)
        assert env.state_dim == 2 * n_complex + env.action_dim + 2
        assert env.reset().size == env.state_dim

    def test_ts_star_dims(self):
        env = make_env(protocol="ts")
        assert env.ris_action_dim == 2 * 4 + 1

    def test_baseline_dims(self):
        spliced = make_env(baseline="spliced")
        conv = make_env(baseline="conventional")
        assert spliced.ris_action_dim == 4
        assert conv.ris_action_dim == 4
        # reduced baselines never expose more surface controls than the
        # coupled model
        star = make_env()
        assert conv.ris_action_dim <= spliced.ris_action_dim \
            <= star.ris_action_dim

    def test_ts_baseline_rejected(self):
        with pytest.raises(Exception):
            make_env(protocol="ts", baseline="spliced")

    def test_spliced_needs_even_n(self):
        cfg = small_cfg(N=6, n_x=3)
        env = build_baseline(cfg, seed=0)  # even N fine
        assert env.N == 6
        from star_isac.channel import FadingParams
        with pytest.raises(EnvError):
            SecureIsacEnv(
                geometry=env.geometry, fading=env.fading,
                sensing=env.sensing, L=3, N=5,
                noise_power=env.noise_power, p_max=env.p_max,
                r_min=env.r_min, T=5, variant="spliced")


class TestEpisodeControl:
    def test_episode_runs_t_steps_then_raises(self):
        env = make_env()
        env.reset()
        rng = np.random.default_rng(0)
        for k in range(env.T):
            out = env.step(rng.uniform(-1, 1, env.action_dim))
            assert out.done == (k == env.T - 1)
        with pytest.raises(EnvError):
            env.step(np.zeros(env.action_dim))

    def test_step_before_reset_raises(self):
        env = make_env()
        with pytest.raises(EnvError):
            env.step(np.zeros(env.action_dim))

    def test_same_seed_same_trajectory(self):
        a = make_env(seed=7)
        b = make_env(seed=7)
        rng = np.random.default_rng(1)
        actions = rng.uniform(-1, 1, (5, a.action_dim))
        sa, sb = a.reset(), b.reset()
        assert np.array_equal(sa, sb)
        for act in actions:
            oa, ob = a.step(act), b.step(act)
            assert oa.reward == ob.reward
            assert np.array_equal(oa.next_state, ob.next_state)

    def test_episodes_differ(self):
        env = make_env(seed=3)
        s1 = env.reset()
        s2 = env.reset()
        assert not np.array_equal(s1, s2)

    def test_bad_action_length(self):
        env = make_env()
        env.reset()
        with pytest.raises(EnvError):
            env.step(np.zeros(env.action_dim + 1))

    def test_state_tail_tracks_action_and_reward(self):
        env = make_env()
        s0 = env.reset()
        assert np.array_equal(s0[-env.action_dim - 2:-2],
                              np.zeros(env.action_dim))
        assert s0[-2] == 0.0 and s0[-1] == 0.0
        act = np.random.default_rng(2).uniform(-1, 1, env.action_dim)
        out = env.step(act)
        tail = out.next_state
        assert np.allclose(tail[-env.action_dim - 2:-2], act)
        assert tail[-2] == pytest.approx(out.reward / 10.0)
        assert tail[-1] == pytest.approx(1 / env.T)


class TestStepPhysics:
    def test_power_budget_respected(self):
        env = make_env()
        env.reset()
        rng = np.random.default_rng(4)
        for _ in range(20):
            design, _ = env.decode_action(rng.uniform(-1, 1, env.action_dim))
            tr = np.trace(design.K @ design.K.conj().T).real
            assert tr <= env.p_max * (1 + 1e-12)

    def test_reward_consistent_with_parts(self):
        env = make_env()
        env.reset()
        rng = np.random.default_rng(5)
        for _ in range(env.T):
            out = env.step(rng.uniform(-1, 1, env.action_dim))
            expect = physics.reward(out.echo_snr, out.lu_rates,
                                    out.sum_secrecy_rate, env.r_min,
                                    env.sensing.kappa_t)
            assert out.reward == pytest.approx(expect, rel=1e-12)
            assert out.sum_secrecy_rate == pytest.approx(
                float(out.secrecy_rates.sum()), rel=1e-12)
            assert out.snr_feasible == (out.echo_snr > env.sensing.kappa_t)
            assert out.rate_feasible == bool(np.all(out.lu_rates >= env.r_min))

    def test_conventional_lu_uses_direct_link_only(self):
        # reflect-only surface: transmission-side users see Phi_B = 0, so
        # their SINR must match the direct-channel oracle exactly
        env = make_env(baseline="conventional", seed=9)
        env.reset()
        ch = env.channels[0]
        raw = np.random.default_rng(6).uniform(-1, 1, env.action_dim)
        design, [(_, _, phi_b)] = env.decode_action(raw)
        assert np.allclose(phi_b, 0.0)
        out = env.step(raw)
        for m in range(env.M):
            oracle = naive_sinr(np.conj(ch.D[m]), design.K_s, design.K_w,
                                m, env.noise_power)
            assert out.lu_rates[m] == pytest.approx(
                np.log2(1 + oracle.real), rel=1e-10)

    def test_spliced_halves_are_disjoint(self):
        env = make_env(baseline="spliced")
        env.reset()
        raw = np.random.default_rng(7).uniform(-1, 1, env.action_dim)
        _, [(_, phi_a, phi_b)] = env.decode_action(raw)
        da, db = np.abs(phi_a), np.abs(phi_b)
        assert np.allclose(da, [1, 1, 0, 0], atol=1e-15)
        assert np.allclose(db, [0, 0, 1, 1], atol=1e-15)

    def test_ts_mode_step_runs(self):
        env = make_env(protocol="ts")
        env.reset()
        out = env.step(np.random.default_rng(8).uniform(-1, 1, env.action_dim))
        assert np.isfinite(out.reward)
        assert out.echo_snr >= 0.0

    def test_rewards_finite_at_action_extremes(self):
        env = make_env()
        env.reset()
        for raw in (np.zeros(env.action_dim), np.ones(env.action_dim),
                    -np.ones(env.action_dim)):
            env.reset()
            out = env.step(raw)
            assert np.isfinite(out.reward)
