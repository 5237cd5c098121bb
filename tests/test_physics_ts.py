from typing import NamedTuple

import numpy as np
import pytest

from star_isac.physics import (SensingParams, echo_snr_lower_bound,
                               effective_channels, evaluate, optimal_filter,
                               rate, secrecy_rate)
from star_isac.star_ris import ts_periods

from oracles import (kernel_inputs, naive_effective_channel, naive_sinr,
                     random_instance)

SENSING = SensingParams(tau=1.3, P=5, sigma_s2=0.5, kappa_t=1.0)


class TsParams(NamedTuple):
    """The arguments of ``ts_periods``."""
    pi_1: float
    phi_a: np.ndarray
    phi_b: np.ndarray

    @property
    def pi_2(self) -> float:
        return 1.0 - self.pi_1


def random_ts_cfg(rng, N, pi_1=None):
    return TsParams(
        pi_1=float(rng.uniform()) if pi_1 is None else pi_1,
        phi_a=rng.uniform(0, 2 * np.pi, N),
        phi_b=rng.uniform(0, 2 * np.pi, N))


def ts_rates(ch, cfg, K, sigma2):
    """(LU, Eve, target) rates per user over the two TS periods."""
    return evaluate(*ch, ts_periods(*cfg), K, sigma2, SENSING)[:3]


def ts_echo(ch, cfg, K, sensing):
    return evaluate(*ch, ts_periods(*cfg), K, 1.0, sensing)[3]


def sensing_channels(ch, cfg):
    """The target's channel in each TS period."""
    H, D_conj, R_conj = ch
    return [effective_channels(D_conj, R_conj, H, phi_a, phi_b)[-1].conj()
            for _, phi_a, phi_b in ts_periods(*cfg)]


class TestTsRates:
    def test_pure_reflection_ignores_surface(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng)
        ch, K = kernel_inputs(inst)
        cfg1 = random_ts_cfg(rng, 6, pi_1=1.0)
        cfg2 = random_ts_cfg(rng, 6, pi_1=1.0)
        r1 = ts_rates(ch, cfg1, K, 1.0)
        r2 = ts_rates(ch, cfg2, K, 1.0)
        for a, b in zip(r1, r2):
            assert a == pytest.approx(b, rel=1e-12)
        # and equals the direct-link rate
        direct = rate(naive_sinr(np.conj(inst["h_bm"][0]), inst["K_s"],
                                 inst["K_w"], 0, 1.0))
        assert r1[0][0] == pytest.approx(direct, rel=1e-10)

    def test_pure_transmission_identity_surface(self):
        # pi_1 = 0 with Phi_B^TS = I equals the ES cascade at unit
        # amplitudes and zero phases
        rng = np.random.default_rng(1)
        inst = random_instance(rng)
        ch, K = kernel_inputs(inst)
        cfg = TsParams(pi_1=0.0, phi_a=np.zeros(6), phi_b=np.zeros(6))
        r_lu, _, _ = ts_rates(ch, cfg, K, 1.0)
        unit = np.ones(6, complex)
        es_equiv, _, _, _ = evaluate(*ch, [(1.0, unit, unit)], K, 1.0,
                                     SENSING)
        assert r_lu == pytest.approx(es_equiv, rel=1e-12)

    def test_convex_combination(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng)
        ch, K = kernel_inputs(inst)
        phi_a = rng.uniform(0, 2 * np.pi, 6)
        phi_b = rng.uniform(0, 2 * np.pi, 6)
        r0 = ts_rates(ch, TsParams(0.0, phi_a, phi_b), K, 1.0)
        r1 = ts_rates(ch, TsParams(1.0, phi_a, phi_b), K, 1.0)
        rhalf = ts_rates(ch, TsParams(0.5, phi_a, phi_b), K, 1.0)
        for a, b, c in zip(r0, r1, rhalf):
            assert c == pytest.approx(0.5 * a + 0.5 * b, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        L = int(rng.integers(2, 5))
        N = 2 * int(rng.integers(1, 5))
        M = int(rng.integers(1, 4))
        inst = random_instance(rng, L=L, N=N, M=M)
        ch, K = kernel_inputs(inst)
        cfg = random_ts_cfg(rng, N)
        sigma2 = float(rng.uniform(0.5, 2.0))
        got_lu, got_eve, got_st = ts_rates(ch, cfg, K, sigma2)
        for m in range(M):
            phi_b = np.exp(1j * cfg.phi_b)
            phi_a = np.exp(1j * cfg.phi_a)
            lu_a = naive_sinr(np.conj(inst["h_bm"][m]), inst["K_s"],
                              inst["K_w"], m, sigma2)
            lu_b = naive_sinr(
                naive_effective_channel(inst["h_bm"][m], inst["h_rm"][m],
                                        phi_b, inst["H"]),
                inst["K_s"], inst["K_w"], m, sigma2)
            expect = (cfg.pi_1 * np.log2(1 + lu_a)
                      + cfg.pi_2 * np.log2(1 + lu_b))
            assert got_lu[m] == pytest.approx(expect, abs=1e-10, rel=1e-10)
            eve_a = naive_sinr(np.conj(inst["h_be"]), inst["K_s"],
                               inst["K_w"], m, sigma2)
            eve_b = naive_sinr(
                naive_effective_channel(inst["h_be"], inst["h_re"],
                                        phi_b, inst["H"]),
                inst["K_s"], inst["K_w"], m, sigma2)
            assert got_eve[m] == pytest.approx(
                cfg.pi_1 * np.log2(1 + eve_a) + cfg.pi_2 * np.log2(1 + eve_b),
                abs=1e-10, rel=1e-10)
            st_a = naive_sinr(np.conj(inst["g_bs"]), inst["K_s"],
                              inst["K_w"], m, sigma2)
            st_b = naive_sinr(
                naive_effective_channel(inst["g_bs"], inst["g_rs"],
                                        phi_a, inst["H"]),
                inst["K_s"], inst["K_w"], m, sigma2)
            assert got_st[m] == pytest.approx(
                cfg.pi_1 * np.log2(1 + st_a) + cfg.pi_2 * np.log2(1 + st_b),
                abs=1e-10, rel=1e-10)


class TestSecrecyTs:
    def test_equal_rates_zero(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng)
        # make Eve and ST channels identical to the LU channel
        inst["h_be"] = inst["h_bm"][0].copy()
        inst["h_re"] = inst["h_rm"][0].copy()
        inst["g_bs"] = inst["h_bm"][0].copy()
        inst["g_rs"] = inst["h_rm"][0].copy()
        ch, K = kernel_inputs(inst)
        phases = np.zeros(6)
        cfg = TsParams(0.4, phases, phases)
        lu, eve, st = ts_rates(ch, cfg, K, 1.0)
        assert secrecy_rate(lu[0], eve[0], st[0]) == 0.0

    def test_hinge_combination(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng)
        ch, K = kernel_inputs(inst)
        cfg = random_ts_cfg(rng, 6)
        r_lu, r_eve, r_st = (r[0] for r in ts_rates(ch, cfg, K, 1.0))
        assert secrecy_rate(r_lu, r_eve, r_st) == pytest.approx(
            max(r_lu - r_eve, 0) + max(r_lu - r_st, 0))

    def test_nonnegative_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            inst = random_instance(rng)
            ch, K = kernel_inputs(inst)
            cfg = random_ts_cfg(rng, 6)
            lu, eve, st = ts_rates(ch, cfg, K, 1.0)
            assert secrecy_rate(lu[0], eve[0], st[0]) >= 0.0


class TestEchoSnrTs:
    sensing = SENSING

    def test_pure_reflection_single_term(self):
        rng = np.random.default_rng(6)
        inst = random_instance(rng)
        ch, K = kernel_inputs(inst)
        cfg = random_ts_cfg(rng, 6, pi_1=1.0)
        got = ts_echo(ch, cfg, K, self.sensing)
        g = inst["g_bs"]
        direct_only = echo_snr_lower_bound(g, K, optimal_filter(g, K),
                                           self.sensing)
        assert got == pytest.approx(direct_only, rel=1e-12)

    def test_scale_invariance_both_filters(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng)
        ch, K = kernel_inputs(inst)
        cfg = random_ts_cfg(rng, 6)
        n = 3 * 5
        for g, scale in zip(sensing_channels(ch, cfg), (3.0, 0.5)):
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a = echo_snr_lower_bound(g, K, u, self.sensing)
            b = echo_snr_lower_bound(g, K, scale * u, self.sensing)
            assert abs(a - b) <= 1e-12 * max(a, 1.0)

    def test_hand_expanded_two_term_sum(self):
        # direct link in the pi_1 term, Phi_A^TS cascade in the pi_2 term,
        # each at its own closed-form filter
        rng = np.random.default_rng(8)
        inst = random_instance(rng)
        ch, K = kernel_inputs(inst)
        cfg = random_ts_cfg(rng, 6)
        g1 = inst["g_bs"]
        g2 = naive_effective_channel(inst["g_bs"], inst["g_rs"],
                                     np.exp(1j * cfg.phi_a),
                                     inst["H"]).conj()
        expect = sum(
            pi * echo_snr_lower_bound(g, K, optimal_filter(g, K),
                                      self.sensing)
            for pi, g in ((cfg.pi_1, g1), (cfg.pi_2, g2)))
        got = ts_echo(ch, cfg, K, self.sensing)
        assert got == pytest.approx(expect, abs=1e-10, rel=1e-10)

    def test_filters_dominate_random(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            inst = random_instance(rng)
            ch, K = kernel_inputs(inst)
            cfg = random_ts_cfg(rng, 6)
            best = ts_echo(ch, cfg, K, self.sensing)
            g1, g2 = sensing_channels(ch, cfg)
            n = K.size
            for _ in range(100):
                v1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                v2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                got = (cfg.pi_1 * echo_snr_lower_bound(g1, K, v1, self.sensing)
                       + cfg.pi_2 * echo_snr_lower_bound(g2, K, v2, self.sensing))
                assert got <= best * (1 + 1e-12)

    def test_each_filter_maximizes_its_term(self):
        rng = np.random.default_rng(10)
        inst = random_instance(rng)
        ch, K = kernel_inputs(inst)
        cfg = random_ts_cfg(rng, 6)
        g1, g2 = sensing_channels(ch, cfg)
        u1, u2 = optimal_filter(g1, K), optimal_filter(g2, K)
        s1_star = echo_snr_lower_bound(g1, K, u1, self.sensing)
        s2_star = echo_snr_lower_bound(g2, K, u2, self.sensing)
        assert ts_echo(ch, cfg, K, self.sensing) == pytest.approx(
            cfg.pi_1 * s1_star + cfg.pi_2 * s2_star, rel=1e-12)
        for _ in range(200):
            v = rng.standard_normal(u1.size) + 1j * rng.standard_normal(u1.size)
            assert echo_snr_lower_bound(g1, K, v, self.sensing) \
                <= s1_star * (1 + 1e-12)
            assert echo_snr_lower_bound(g2, K, v, self.sensing) \
                <= s2_star * (1 + 1e-12)
