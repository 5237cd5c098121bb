import numpy as np
import pytest

from star_isac.physics import (DegenerateFilterError, PhysicsError,
                               SensingParams, echo_snr_lower_bound,
                               effective_channels, evaluate, optimal_filter,
                               project_power, reward, secrecy_rate, sinrs)

from oracles import (kernel_inputs, naive_echo_snr, naive_echo_snr_montecarlo,
                     naive_effective_channel, naive_sinr, random_instance)


def es_channels(inst):
    """Effective channels of every receiver under the instance's ES
    surfaces."""
    (H, D_conj, R_conj), _ = kernel_inputs(inst)
    return effective_channels(D_conj, R_conj, H, inst["phi_a"],
                              inst["phi_b"])


def target_channel(inst):
    """Sensing channel g_s through the reflection-side cascade."""
    return es_channels(inst)[-1].conj()


class TestSinrEs:
    def test_single_user_no_radar(self):
        # h = e_1, k_s = sqrt(P) e_1, no radar, unit noise -> SINR = P
        L, P = 3, 7.0
        D = np.zeros((3, L), complex)
        D[0, 0] = 1.0
        h_eff = effective_channels(D.conj(), np.zeros((3, 4), complex),
                                   np.zeros((4, L)), np.zeros(4), np.zeros(4))
        K = np.concatenate([(np.sqrt(P) * np.eye(L)[:, :1]).astype(complex),
                            np.zeros((L, L), complex)], axis=1)
        assert sinrs(h_eff, K, 1.0)[0, 0] == pytest.approx(P)

    def test_zero_beamformer_gives_zero(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng)
        inst["K_s"] = np.zeros_like(inst["K_s"])
        inst["K_w"] = np.zeros_like(inst["K_w"])
        _, K = kernel_inputs(inst)
        assert np.all(sinrs(es_channels(inst), K, 1.0) == 0.0)

    def test_identical_channels_equal_sinr(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng)
        inst["h_be"] = inst["h_bm"][0].copy()
        inst["h_re"] = inst["h_rm"][0].copy()
        _, K = kernel_inputs(inst)
        s = sinrs(es_channels(inst), K, 1.0)
        M = s.shape[1]
        assert s[M, 0] == pytest.approx(s[0, 0], rel=1e-12)

    def test_eve_orthogonal_channel_zero_sinr(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, L=3, M=2)
        inst["h_be"] = np.zeros(3, complex)
        inst["h_re"] = np.zeros(6, complex)
        _, K = kernel_inputs(inst)
        assert np.all(sinrs(es_channels(inst), K, 1.0)[2] == 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        L = int(rng.integers(2, 5))
        N = 2 * int(rng.integers(1, 5))
        M = int(rng.integers(1, 4))
        inst = random_instance(rng, L=L, N=N, M=M)
        sigma2 = float(rng.uniform(0.1, 2.0))
        _, K = kernel_inputs(inst)
        s = sinrs(es_channels(inst), K, sigma2)
        assert s.shape == (M + 2, M)
        for m in range(M):
            hH = naive_effective_channel(
                inst["h_bm"][m], inst["h_rm"][m], inst["phi_b"], inst["H"])
            expect = naive_sinr(hH, inst["K_s"], inst["K_w"], m, sigma2)
            assert s[m, m] == pytest.approx(expect, abs=1e-10, rel=1e-10)
            eH = naive_effective_channel(
                inst["h_be"], inst["h_re"], inst["phi_b"], inst["H"])
            assert s[M, m] == \
                pytest.approx(naive_sinr(eH, inst["K_s"], inst["K_w"], m, sigma2),
                              abs=1e-10, rel=1e-10)
            gH = naive_effective_channel(
                inst["g_bs"], inst["g_rs"], inst["phi_a"], inst["H"])
            assert s[M + 1, m] == \
                pytest.approx(naive_sinr(gH, inst["K_s"], inst["K_w"], m, sigma2),
                              abs=1e-10, rel=1e-10)


class TestSecrecyRate:
    def test_equal_rates_zero(self):
        assert secrecy_rate(1.7, 1.7, 1.7) == 0.0

    def test_hand_evaluated_hinges(self):
        assert secrecy_rate(2.0, 1.0, 3.0) == pytest.approx(1.0)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            r = rng.uniform(0, 5, 3)
            assert secrecy_rate(r[0], r[1], r[2]) >= 0.0

    def test_es_wrapper_consistent(self):
        # one ES period: user m reads entry [m, m], Eve row M, the target
        # row M+1, and the echo SNR is taken at the closed-form filter
        rng = np.random.default_rng(5)
        inst = random_instance(rng)
        ch, K = kernel_inputs(inst)
        sensing = SensingParams(tau=1.0, P=2, sigma_s2=0.5, kappa_t=1.0)
        period = (1.0, inst["phi_a"], inst["phi_b"])
        lu, eve, st, echo = evaluate(*ch, [period], K, 1.0, sensing)
        r = np.log2(1 + sinrs(es_channels(inst), K, 1.0))
        M = r.shape[1]
        assert np.array_equal(lu, [r[m, m] for m in range(M)])
        assert np.array_equal(eve, r[M]) and np.array_equal(st, r[M + 1])
        got = secrecy_rate(lu[0], eve[0], st[0])
        assert got == pytest.approx(max(r[0, 0] - r[M, 0], 0)
                                    + max(r[0, 0] - r[M + 1, 0], 0))
        # the bound at the filter in closed form, P tau^2 ||g||^2
        # sum_c |g^H k_c|^2 / sigma_s^2, in the kernel's operation order
        gH = es_channels(inst)[-1]
        w2 = np.vdot(gH, gH).real * np.sum(np.abs(gH @ K) ** 2)
        assert echo == sensing.P * sensing.tau ** 2 * w2 / sensing.sigma_s2
        g = target_channel(inst)
        assert echo == pytest.approx(
            echo_snr_lower_bound(g, K, optimal_filter(g, K), sensing),
            rel=1e-12)


class TestEchoSnr:
    sensing = SensingParams(tau=1.0, P=1, sigma_s2=0.25, kappa_t=1.0)

    def test_scalar_case(self):
        # L=1, M=0, everything 1 -> SNR = 1/sigma_s^2
        K = np.ones((1, 1), complex)
        g = np.ones(1, complex)
        snr = echo_snr_lower_bound(g, K, np.ones(1, complex), self.sensing)
        assert snr == pytest.approx(1.0 / 0.25)

    def test_filter_scale_invariance(self):
        rng = np.random.default_rng(6)
        inst = random_instance(rng)
        _, K = kernel_inputs(inst)
        g = inst["g_bs"]
        u = rng.standard_normal(3 * 5) + 1j * rng.standard_normal(3 * 5)
        a = echo_snr_lower_bound(g, K, u, self.sensing)
        b = echo_snr_lower_bound(g, K, 2.0 * u, self.sensing)
        assert abs(a - b) <= 1e-12 * max(a, 1.0)

    def test_zero_filter_rejected(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng)
        _, K = kernel_inputs(inst)
        with pytest.raises(PhysicsError):
            echo_snr_lower_bound(inst["g_bs"], K, np.zeros(15), self.sensing)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_kron_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        L = int(rng.integers(1, 4))
        M = int(rng.integers(0, 3))
        inst = random_instance(rng, L=L, N=4, M=max(M, 1))
        K = np.concatenate([inst["K_s"][:, :M], inst["K_w"]], axis=1)
        g = inst["g_bs"]
        u = rng.standard_normal(L * (M + L)) + 1j * rng.standard_normal(L * (M + L))
        sensing = SensingParams(tau=float(rng.uniform(0.5, 2)),
                                P=int(rng.integers(1, 10)),
                                sigma_s2=float(rng.uniform(0.1, 2)), kappa_t=1.0)
        got = echo_snr_lower_bound(g, K, u, sensing)
        expect = naive_echo_snr(g, K, u, sensing.P, sensing.tau, sensing.sigma_s2)
        assert got == pytest.approx(expect, abs=1e-10, rel=1e-10)


class TestOptimalFilter:
    sensing = SensingParams(tau=1.0, P=4, sigma_s2=0.5, kappa_t=1.0)

    def test_scalar_all_ones(self):
        u = optimal_filter(np.ones(1, complex), np.ones((1, 1), complex))
        assert u.shape == (1,)
        assert u[0] == pytest.approx(1.0 + 0j)

    def test_dominates_random_filters(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            inst = random_instance(rng)
            _, K = kernel_inputs(inst)
            g = target_channel(inst)
            u_star = optimal_filter(g, K)
            best = echo_snr_lower_bound(g, K, u_star, self.sensing)
            for _ in range(200):
                u = (rng.standard_normal(u_star.size)
                     + 1j * rng.standard_normal(u_star.size))
                assert echo_snr_lower_bound(g, K, u, self.sensing) \
                    <= best * (1 + 1e-12)

    def test_matches_subspace_line_search(self):
        # golden-section refinement along random 2-D subspaces spanned by
        # u* and a random direction never improves on u*
        gold = (np.sqrt(5) - 1) / 2
        rng = np.random.default_rng(9)
        inst = random_instance(rng)
        _, K = kernel_inputs(inst)
        g = target_channel(inst)
        u_star = optimal_filter(g, K)
        best = echo_snr_lower_bound(g, K, u_star, self.sensing)
        for _ in range(20):
            v = (rng.standard_normal(u_star.size)
                 + 1j * rng.standard_normal(u_star.size))

            def snr_at(t):
                return echo_snr_lower_bound(
                    g, K, u_star + t * v, self.sensing)

            lo, hi = -2.0, 2.0
            for _ in range(60):
                m1 = hi - gold * (hi - lo)
                m2 = lo + gold * (hi - lo)
                if snr_at(m1) < snr_at(m2):
                    lo = m1
                else:
                    hi = m2
            assert snr_at((lo + hi) / 2) <= best + 1e-8 * best

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateFilterError):
            optimal_filter(np.ones(2, complex), np.zeros((2, 3), complex))

    @pytest.mark.parametrize("seed", range(5))
    def test_jensen_bound(self, seed):
        # Monte-Carlo estimate of the exact echo SNR dominates the
        # closed-form lower bound
        rng = np.random.default_rng(300 + seed)
        inst = random_instance(rng, L=2, N=4, M=1)
        _, K = kernel_inputs(inst)
        g = target_channel(inst)
        u = optimal_filter(g, K)
        sensing = SensingParams(tau=1.0, P=3, sigma_s2=0.5, kappa_t=1.0)
        lower = echo_snr_lower_bound(g, K, u, sensing)
        mc = naive_echo_snr_montecarlo(g, K, u, sensing.P, sensing.tau,
                                       sensing.sigma_s2, 1000, rng)
        assert mc >= lower - 1e-9 * lower


class TestProjectPower:
    def test_within_budget_unchanged(self):
        rng = np.random.default_rng(10)
        K = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        K *= np.sqrt(0.5 / np.sum(np.abs(K) ** 2))
        assert np.array_equal(project_power(K, P_0=1.0), K)

    def test_over_budget_scaled_to_equality(self):
        rng = np.random.default_rng(11)
        K = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        K *= np.sqrt(4.0 / np.sum(np.abs(K) ** 2))  # trace = 4*P_0
        projected = project_power(K, P_0=1.0)
        assert np.sum(np.abs(projected) ** 2) == pytest.approx(1.0)
        assert np.allclose(projected, K / 2.0)

    def test_direction_preserved(self):
        rng = np.random.default_rng(12)
        K = 10 * (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
        ratio = project_power(K, P_0=1.0) / K
        assert np.allclose(ratio, ratio.flat[0])

    def test_never_increases_power(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            K = rng.uniform(0.1, 3) * (rng.standard_normal((2, 4))
                                       + 1j * rng.standard_normal((2, 4)))
            projected = project_power(K, P_0=1.0)
            assert np.sum(np.abs(projected) ** 2) <= 1.0 + 1e-12


class TestReward:
    def test_snr_branch(self):
        assert reward(0.5, np.array([9.9, 9.9]), 5.0, 1.0, 1.0) == 0.5

    def test_all_rates_met(self):
        r = reward(2.0, np.array([1.5, 2.0]), 3.0, 1.0, 1.0)
        assert r == pytest.approx(1.0 + 2 * 1.0 + 3.0)

    def test_partial_rates(self):
        r = reward(2.0, np.array([0.5, 2.0]), 3.0, 1.0, 1.0)
        assert r == pytest.approx(1.0 + 0.5 + 1.0)

    def test_boundary_continuity(self):
        # at echo SNR exactly kappa the SNR branch applies and r = kappa;
        # the rate branch with all-zero rates also evaluates to kappa
        kappa = 1.2589
        assert reward(kappa, np.array([0.0, 0.0]), 0.0, 1.0, kappa) == kappa
        just_above = np.nextafter(kappa, np.inf)
        assert reward(just_above, np.array([0.0, 0.0]), 0.0, 1.0, kappa) == \
            pytest.approx(kappa)

    def test_monotone_in_secrecy_when_feasible(self):
        rates = np.array([1.5, 1.2])
        vals = [reward(2.0, rates, s, 1.0, 1.0) for s in np.linspace(0, 5, 21)]
        assert np.all(np.diff(vals) >= 0)

    def test_monotone_in_snr_below_threshold(self):
        vals = [reward(s, np.array([2.0]), 1.0, 1.0, 1.0)
                for s in np.linspace(0, 1, 21)]
        assert np.all(np.diff(vals) > 0)


def test_effective_channel_matches_naive():
    rng = np.random.default_rng(14)
    inst = random_instance(rng, L=4, N=8, M=2)
    h = es_channels(inst)
    links = [(inst["h_bm"][0], inst["h_rm"][0], inst["phi_b"]),
             (inst["h_bm"][1], inst["h_rm"][1], inst["phi_b"]),
             (inst["h_be"], inst["h_re"], inst["phi_b"]),
             (inst["g_bs"], inst["g_rs"], inst["phi_a"])]
    for row, (direct, ris_side, phi) in zip(h, links):
        hH = naive_effective_channel(direct, ris_side, phi, inst["H"])
        assert np.allclose(row, hH, atol=1e-12)
