import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from star_isac.channel import (generate_episode_channels, geometry_angles,
                               link_constants, loss_db_to_amplitude,
                               path_loss_los, path_loss_nlos, steering_bs,
                               steering_ris)
from star_isac.experiments import ScenarioConfig

from oracles import naive_episode_fading


def scenario(L=4, N=12, M=2, rician_db=3.0):
    """A 2 GHz scenario with n_x = 4, an elevated surface, users and Eve
    beyond it and the target before it."""
    lus = tuple((158.0 + 4 * m, 163.0 - 3 * m, 1.5) for m in range(M))
    return ScenarioConfig(
        L=L, N=N, M=M, n_x=4, freq_ghz=2.0, rician_db=rician_db,
        bs=(0, 0, 5), ris=(150, 150, 15), lus=lus, eve=(162, 166, 1.5),
        st=(138, 141, 1.5))


def nlos_amplitude(source, point):
    """Path-loss amplitude of an NLoS link at 2 GHz, from ``source`` to a
    receiver at ``point``, as ``link_constants`` computes it."""
    source, point = np.asarray(source, float), np.asarray(point, float)
    return loss_db_to_amplitude(path_loss_nlos(
        np.linalg.norm(source - point), 2.0, z_r=point[2]))


def episode(T, seed, L=4, N=12, rician_db=3.0):
    """Channels of one episode in the default scenario, drawn from the
    seed sequence of the int seed."""
    links = link_constants(scenario(L, N, rician_db=rician_db))
    return generate_episode_channels(links, T, np.random.SeedSequence(seed))


class TestPathLoss:
    def test_los_reference_point(self):
        assert path_loss_los(1.0, 1.0) == pytest.approx(28.0)

    def test_los_hand_evaluated(self):
        # 20*log10(2) + 22*log10(100) + 28
        assert path_loss_los(100.0, 2.0) == pytest.approx(78.0206, abs=1e-3)
        assert path_loss_los(10.0, 1.0) == pytest.approx(50.0)

    def test_nlos_hand_evaluated(self):
        # 26*log10(2) + 36.7*log10(100) + 22.7 = 103.927, above LoS 78.02
        assert path_loss_nlos(100.0, 2.0, 1.5) == pytest.approx(103.927, abs=1e-3)

    def test_nlos_floored_at_los(self):
        # inner NLoS formula gives 22.7 at d=1, f=1; LoS floor wins
        assert path_loss_nlos(1.0, 1.0, 1.5) == pytest.approx(28.0)

    def test_nlos_monotone_in_distance(self):
        for d in [1.0, 5.0, 40.0, 333.0]:
            assert (path_loss_nlos(2 * d, 2.0, 1.5)
                    > path_loss_nlos(d, 2.0, 1.5))

    @given(d=st.floats(1.0, 1e3), f1=st.floats(0.5, 10.0),
           z_r=st.floats(1.5, 22.5))
    @settings(max_examples=200, deadline=None)
    def test_nlos_never_below_los(self, d, f1, z_r):
        assert path_loss_nlos(d, f1, z_r) >= path_loss_los(d, f1) - 1e-12


class TestSteering:
    def test_first_entry_is_one(self):
        v = steering_bs(5, 0.7, 0.15)
        assert v[0] == pytest.approx(1.0 + 0j)

    def test_broadside_all_ones(self):
        assert np.allclose(steering_bs(6, 0.0, 0.15), 1.0)
        assert np.allclose(steering_ris(8, 0.0, 1.1, 0.15, 4), 1.0)

    def test_endfire_half_wavelength(self):
        v = steering_bs(2, np.pi / 2, 0.15)
        assert v[1] == pytest.approx(-1.0 + 0j)

    def test_unit_modulus(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = steering_ris(12, rng.uniform(-np.pi, np.pi),
                             rng.uniform(-np.pi, np.pi), 0.15, 4)
            assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-12

    def test_planar_index_roundtrip(self):
        n_x = 4
        for n in range(12):
            row, col = n // n_x, n % n_x
            assert row * n_x + col == n


class TestRician:
    """The BS->RIS link: unit-power Rician fading H_fading, scaled by its
    path-loss amplitude in H."""

    def test_large_f_is_rank_one(self):
        # F = 1e9
        for H in episode(T=3, seed=0, L=4, N=8, rician_db=90.0).H_fading:
            s = np.linalg.svd(H, compute_uv=False)
            assert s[1] / s[0] < 1e-4
            assert np.linalg.norm(H, "fro") ** 2 == pytest.approx(32.0, rel=1e-3)

    def test_zero_f_unit_variance(self):
        # Monte-Carlo oracle on the Gaussian entry variance; F = 1e-30
        H = episode(T=200, seed=1, L=5, N=12, rician_db=-300.0).H_fading
        assert H.shape == (200, 12, 5)
        assert np.mean(np.abs(H) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_seeded_determinism(self):
        a = episode(T=3, seed=7, L=4, N=8)
        b = episode(T=3, seed=7, L=4, N=8)
        assert np.array_equal(a.H, b.H)
        assert np.array_equal(a.H_fading, b.H_fading)
        assert not np.array_equal(a.H[0], a.H[1])

    def test_frobenius_power_any_f(self):
        # E{||H||_F^2} = lambda*N*L regardless of F
        links = link_constants(scenario(L=4, N=8))
        H = generate_episode_channels(links, 3000,
                                      np.random.SeedSequence(5)).H
        vals = np.linalg.norm(H, "fro", axis=(1, 2)) ** 2
        assert np.mean(vals) == pytest.approx(links.H_amp ** 2 * 32.0,
                                              rel=0.03)


class TestEpisodeChannels:
    def test_single_slot(self):
        chans = episode(T=1, seed=0)
        assert chans.H.shape == chans.H_fading.shape == (1, 12, 4)
        # rows: 2 users, Eve, target
        assert chans.D.shape == chans.D_fading.shape == (1, 4, 4)
        assert chans.R.shape == chans.R_fading.shape == (1, 4, 12)
        assert all(np.all(np.isfinite(v)) for v in
                   [chans.H, chans.D, chans.R])

    def test_seeded_determinism(self):
        a = episode(T=3, seed=11)
        b = episode(T=3, seed=11)
        assert np.array_equal(a.H, b.H)
        assert np.array_equal(a.R, b.R)

    def test_seeds_differ(self):
        a = episode(T=1, seed=1)
        b = episode(T=1, seed=2)
        assert not np.array_equal(a.H, b.H)

    def test_per_link_power_matches_path_loss(self):
        # Monte-Carlo: empirical per-entry power equals the linear loss
        g = vars(scenario())
        chans = episode(T=4000, seed=3)
        lin = nlos_amplitude(g["bs"], g["eve"]) ** 2
        emp = np.mean(np.abs(chans.D[:, -2]) ** 2)
        assert emp == pytest.approx(lin, rel=0.03)
        lin_st = nlos_amplitude(g["ris"], g["st"]) ** 2
        emp_st = np.mean(np.abs(chans.R[:, -1]) ** 2)
        assert emp_st == pytest.approx(lin_st, rel=0.03)

    def test_bs_ris_uses_los_others_nlos(self):
        cfg = scenario()
        g = vars(cfg)
        links = link_constants(cfg)
        d = np.linalg.norm(np.subtract(g["bs"], g["ris"]))
        assert links.H_amp == pytest.approx(
            loss_db_to_amplitude(path_loss_los(d, 2.0)))
        assert links.D_amp[-2, 0] == pytest.approx(
            nlos_amplitude(g["bs"], g["eve"]))

    def test_geometry_angles_consistent(self):
        g = vars(scenario())
        beta_b, beta_r, zeta_r = geometry_angles(np.asarray(g["bs"], float),
                                                 np.asarray(g["ris"], float))
        assert -np.pi <= beta_b <= np.pi
        assert -np.pi / 2 <= beta_r <= np.pi / 2


class TestStreamOrder:
    """One draw per link stream per episode gives the channels that
    drawing slot by slot gives."""

    @pytest.mark.parametrize("L, N, M, T, seed", [
        (4, 12, 2, 30, 0), (3, 8, 1, 5, 7), (2, 4, 3, 4, 123),
        (4, 12, 2, 1, 5), (1, 8, 2, 3, 42),
    ])
    def test_matches_per_slot_draws(self, L, N, M, T, seed):
        def fresh():  # spawning advances a SeedSequence, so build one per call
            return np.random.SeedSequence(seed)

        cfg = scenario(L, N, M)
        want = naive_episode_fading(cfg, T, fresh())
        got = generate_episode_channels(link_constants(cfg), T, fresh())
        g = vars(cfg)
        H_amp = loss_db_to_amplitude(path_loss_los(
            np.linalg.norm(np.subtract(g["bs"], g["ris"])), 2.0))
        receivers = (*g["lus"], g["eve"], g["st"])
        D_amp = np.array([[nlos_amplitude(g["bs"], p)] for p in receivers])
        R_amp = np.array([[nlos_amplitude(g["ris"], p)] for p in receivers])
        assert len(got.H) == len(want) == T
        for t, (H, D, R) in enumerate(want):
            assert np.array_equal(got.H_fading[t], H)
            assert np.array_equal(got.D_fading[t], D)
            assert np.array_equal(got.R_fading[t], R)
            assert np.array_equal(got.H[t], H_amp * H)
            assert np.array_equal(got.D[t], D_amp * D)
            assert np.array_equal(got.R[t], R_amp * R)
