import re

import numpy as np
import pytest

from dataclasses import replace

from star_isac import env as env_module
from star_isac import physics
from star_isac.env import EnvError, SecureIsacEnv, state_features
from star_isac.experiments import ScenarioConfig, build_baseline
from star_isac.physics import SensingParams

from oracles import naive_sinr, naive_step

SURFACE_PAIRS = (("star", "es"), ("star", "ts"), ("spliced", "es"),
                 ("conventional", "es"))


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

    def test_attributes_come_from_the_config(self):
        cfg = small_cfg(protocol="ts", p0_dbm=30.0, r0=0.5)
        env = SecureIsacEnv(cfg, seed=0)
        assert (env.L, env.N, env.M, env.T) == (cfg.L, cfg.N, cfg.M, cfg.T)
        assert (env.variant, env.mode) == (cfg.baseline, cfg.protocol)
        assert env.noise_power == cfg.noise_watt
        assert (env.p_max, env.r_min) == (cfg.p0_watt, cfg.r0)
        assert env.sensing == SensingParams(
            tau=cfg.sensing_tau, P=cfg.sensing_slots,
            sigma_s2=cfg.noise_watt, kappa_t=cfg.kappa_linear)


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

    @pytest.mark.parametrize("shape", ["1,d", "d,1", "scalar"])
    def test_action_of_wrong_shape_names_it(self, shape):
        env = make_env()
        env.reset()
        d = env.action_dim
        action = {"1,d": np.zeros((1, d)), "d,1": np.zeros((d, 1)),
                  "scalar": 0.0}[shape]
        with pytest.raises(EnvError, match=re.escape(
                f"action shape {np.shape(action)} != ({d},)")):
            env.step(action)
        assert env.t == 0

    def test_state_head_is_each_slots_features(self):
        # reset reads slot 0; the state after step k reads slot k+1, and
        # the last step's state repeats slot T-1
        env = make_env(seed=5)
        states = [env.reset()]
        rng = np.random.default_rng(3)
        for _ in range(env.T):
            states.append(env.step(rng.uniform(-1, 1, env.action_dim)).next_state)
        features = state_features(env.channels)
        assert features.shape[0] == env.T
        for t, state in enumerate(states):
            want = features[min(t, env.T - 1)]
            assert np.array_equal(state[:want.size], want)

    def test_non_finite_action_rejected(self):
        env = make_env()
        env.reset()
        env.step(np.zeros(env.action_dim))
        for bad, text in ((np.nan, "nan"), (np.inf, "inf")):
            act = np.zeros(env.action_dim)
            act[[5, 9]] = bad
            with pytest.raises(EnvError, match=f"step 1: entry 5 is {text}"):
                env.step(act)
        assert env.t == 1

    def test_huge_finite_action_is_clipped_not_rejected(self):
        # entries whose squares overflow are still finite: the step clips
        # them like any other entry beyond [-1, 1]
        a, b = make_env(seed=4), make_env(seed=4)
        a.reset(), b.reset()
        huge = np.full(a.action_dim, 1e200)
        huge[::2] *= -1.0
        ones = np.sign(huge)
        oa, ob = a.step(huge), b.step(ones)
        assert oa.reward == ob.reward
        assert np.array_equal(oa.next_state, ob.next_state)

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
            K, _ = env.decode_action(rng.uniform(-1, 1, env.action_dim))
            tr = np.trace(K @ K.conj().T).real
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
        D = env.channels.D[0]
        raw = np.random.default_rng(6).uniform(-1, 1, env.action_dim)
        K, [(_, _, phi_b)] = env.decode_action(raw)
        assert np.allclose(phi_b, 0.0)
        out = env.step(raw)
        for m in range(env.M):
            oracle = naive_sinr(np.conj(D[m]), K[:, :env.M], K[:, env.M:],
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


class TestStepBitExact:
    """Every field of every step equals the frozen step chain in
    ``oracles.naive_step`` bit for bit."""

    @staticmethod
    def assert_step_matches(env, raw):
        want = naive_step(env, raw)
        out = env.step(raw)
        for field, value in want.items():
            assert np.array_equal(getattr(out, field), value), field
        return out

    @pytest.mark.parametrize("N", (8, 12, 24))
    @pytest.mark.parametrize("variant, mode", SURFACE_PAIRS)
    def test_episode_matches_frozen_chain(self, variant, mode, N):
        cfg = replace(ScenarioConfig(seeds=(0,)), N=N, baseline=variant,
                      protocol=mode)
        env = build_baseline(cfg, seed=N)
        env.reset()
        rng = np.random.default_rng(N)
        for _ in range(env.T):
            # some entries beyond [-1, 1], which the step clips
            self.assert_step_matches(
                env, rng.uniform(-1.2, 1.2, env.action_dim))

    @pytest.mark.parametrize("variant, mode", SURFACE_PAIRS)
    def test_zero_target_channel_skips_the_echo(self, variant, mode,
                                                monkeypatch):
        generate = env_module.generate_episode_channels

        def no_target(*args):
            ch = generate(*args)
            ch.D[:, -1] = 0.0
            ch.R[:, -1] = 0.0
            return ch

        monkeypatch.setattr(env_module, "generate_episode_channels", no_target)
        env = make_env(baseline=variant, protocol=mode, N=4, seed=11)
        env.reset()
        rng = np.random.default_rng(12)
        for _ in range(env.T):
            out = self.assert_step_matches(
                env, rng.uniform(-1.0, 1.0, env.action_dim))
            assert out.echo_snr == 0.0

    @pytest.mark.parametrize("entry, projected", ((1.0, True), (0.1, False)))
    def test_beam_over_and_under_budget(self, entry, projected):
        env = make_env(seed=13)
        env.reset()
        raw = np.random.default_rng(14).uniform(-1.0, 1.0, env.action_dim)
        raw[:env._beam_len] = entry
        K, _ = env.decode_action(raw)
        power = float(np.sum(np.abs(K) ** 2))
        if projected:
            assert power == pytest.approx(env.p_max, rel=1e-12)
        else:
            assert power < 0.5 * env.p_max
        self.assert_step_matches(env, raw)


def filter_echo(H, D_conj, R_conj, period, K, sensing):
    """One period's weighted echo SNR as the paper states it: the Jensen
    bound at the closed-form receive filter, 0 where it has no
    direction."""
    weight, phi_a, phi_b = period
    g = physics.effective_channels(D_conj, R_conj, H, phi_a, phi_b)[-1].conj()
    try:
        u = physics.optimal_filter(g, K)
    except physics.DegenerateFilterError:
        return 0.0
    return weight * physics.echo_snr_lower_bound(g, K, u, sensing)


class TestEchoAtTheFilter:
    """The step's closed-form echo SNR is the bound at the paper's
    filter, period by period."""

    @pytest.mark.parametrize("N", (8, 12, 24))
    @pytest.mark.parametrize("variant, mode", SURFACE_PAIRS)
    def test_echo_is_the_bound_at_the_filter(self, variant, mode, N):
        cfg = replace(ScenarioConfig(seeds=(0,)), N=N, baseline=variant,
                      protocol=mode)
        env = build_baseline(cfg, seed=N)
        env.reset()
        ch, rng = env.channels, np.random.default_rng(100 + N)
        for t in range(env.T):
            K, periods = env.decode_action(
                rng.uniform(-1.0, 1.0, env.action_dim))
            args = (ch.H[t], ch.D[t].conj(), ch.R[t].conj())
            want = [filter_echo(*args, p, K, env.sensing) for p in periods]
            # each period on its own (both TS periods), then their sum
            for period, w in zip(periods, want):
                assert w > 0.0
                got = physics.evaluate(*args, [period], K, env.noise_power,
                                       env.sensing)[3]
                assert got == pytest.approx(w, rel=1e-12, abs=0.0)
            got = physics.evaluate(*args, periods, K, env.noise_power,
                                   env.sensing)[3]
            assert got == pytest.approx(sum(want), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("side", (10.0, 0.1))
    @pytest.mark.parametrize("variant, mode", SURFACE_PAIRS)
    def test_degenerate_threshold(self, variant, mode, side):
        # target row scaled so that the filter's ||u||^2 = ||g||^2
        # sum_c |g^H k_c|^2 lands at side * 1e-300: above the threshold
        # both forms agree, below it both give 0
        env = make_env(baseline=variant, protocol=mode, seed=3)
        env.reset()
        K, periods = env.decode_action(
            np.random.default_rng(4).uniform(-1.0, 1.0, env.action_dim))
        H, D_conj, R_conj = (env.channels.H[0], env.channels.D[0].conj(),
                             env.channels.R[0].conj())
        for period in periods:
            _, phi_a, phi_b = period
            gH = physics.effective_channels(D_conj, R_conj, H, phi_a,
                                            phi_b)[-1]
            w2 = np.vdot(gH, gH).real * np.sum(np.abs(gH @ K) ** 2)
            scale = (side * 1e-300 / w2) ** 0.25
            D_s, R_s = D_conj.copy(), R_conj.copy()
            D_s[-1] *= scale
            R_s[-1] *= scale
            want = filter_echo(H, D_s, R_s, period, K, env.sensing)
            got = physics.evaluate(H, D_s, R_s, [period], K, env.noise_power,
                                   env.sensing)[3]
            if side > 1.0:
                assert want > 0.0
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            else:
                assert got == want == 0.0
