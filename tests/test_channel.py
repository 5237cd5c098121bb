import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from star_isac.channel import (ChannelError, FadingParams, SystemGeometry,
                               generate_episode_channels, geometry_angles,
                               link_loss_table, loss_db_to_amplitude,
                               path_loss_los, path_loss_nlos, rician_channel,
                               steering_bs, steering_ris)


def default_geometry(M=2):
    lus = [(158.0 + 4 * m, 163.0 - 3 * m, 1.5) for m in range(M)]
    return SystemGeometry(
        bs_position=(0, 0, 5), ris_position=(150, 150, 15),
        lu_positions=lus, eve_position=(162, 166, 1.5),
        st_position=(138, 141, 1.5))


def default_fading(F=2.0):
    return FadingParams(rician_factor=F, carrier_freq_ghz=2.0, n_x=4)


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
            assert path_loss_nlos(2 * d, 2.0) > path_loss_nlos(d, 2.0)

    @given(d=st.floats(1.0, 1e3), f1=st.floats(0.5, 10.0),
           z_r=st.floats(1.5, 22.5))
    @settings(max_examples=200, deadline=None)
    def test_nlos_never_below_los(self, d, f1, z_r):
        assert path_loss_nlos(d, f1, z_r) >= path_loss_los(d, f1) - 1e-12

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_inputs_rejected(self, bad):
        with pytest.raises(ChannelError):
            path_loss_los(bad, 1.0)
        with pytest.raises(ChannelError):
            path_loss_nlos(1.0, bad)


class TestSteering:
    def test_first_entry_is_one(self):
        v = steering_bs(5, 0.7, 0.075, 0.15)
        assert v[0] == pytest.approx(1.0 + 0j)

    def test_broadside_all_ones(self):
        assert np.allclose(steering_bs(6, 0.0, 0.075, 0.15), 1.0)
        assert np.allclose(steering_ris(8, 0.0, 1.1, 0.075, 0.15, 4), 1.0)

    def test_endfire_half_wavelength(self):
        v = steering_bs(2, np.pi / 2, 0.075, 0.15)
        assert v[1] == pytest.approx(-1.0 + 0j)

    def test_unit_modulus(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = steering_ris(12, rng.uniform(-np.pi, np.pi),
                             rng.uniform(-np.pi, np.pi), 0.075, 0.15, 4)
            assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-12

    def test_planar_index_roundtrip(self):
        n_x = 4
        for n in range(12):
            row, col = n // n_x, n % n_x
            assert row * n_x + col == n

    def test_nx_must_divide(self):
        with pytest.raises(ChannelError):
            steering_ris(10, 0.1, 0.1, 0.075, 0.15, 4)
        with pytest.raises(ChannelError):
            steering_ris(8, 0.1, 0.1, 0.075, 0.15, 0)


class TestRician:
    def test_large_f_is_rank_one(self):
        params = default_fading(F=1e9)
        rng = np.random.default_rng(0)
        H = rician_channel(params, 0.0, 8, 4, 0.3, -0.2, 0.8, rng)
        s = np.linalg.svd(H, compute_uv=False)
        assert s[1] / s[0] < 1e-4
        assert np.linalg.norm(H, "fro") ** 2 == pytest.approx(32.0, rel=1e-3)

    def test_zero_f_unit_variance(self):
        # Monte-Carlo oracle on the Gaussian entry variance
        params = default_fading(F=0.0)
        rng = np.random.default_rng(1)
        total, count = 0.0, 0
        for _ in range(200):
            H = rician_channel(params, 0.0, 12, 5, 0.3, -0.2, 0.8, rng)
            total += np.sum(np.abs(H) ** 2)
            count += H.size
        assert total / count == pytest.approx(1.0, abs=0.02)

    def test_seeded_determinism(self):
        params = default_fading()
        a = rician_channel(params, 60.0, 8, 4, 0.3, -0.2, 0.8,
                           np.random.default_rng(7))
        b = rician_channel(params, 60.0, 8, 4, 0.3, -0.2, 0.8,
                           np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_frobenius_power_any_f(self):
        # E{||H||_F^2} = lambda*N*L regardless of F
        params = default_fading(F=2.0)
        rng = np.random.default_rng(5)
        amp2 = loss_db_to_amplitude(20.0) ** 2
        vals = [np.linalg.norm(
            rician_channel(params, 20.0, 8, 4, 0.3, -0.2, 0.8, rng),
            "fro") ** 2 for _ in range(3000)]
        assert np.mean(vals) == pytest.approx(amp2 * 32.0, rel=0.03)


class TestGeometry:
    def test_st_must_be_side_a(self):
        with pytest.raises(ChannelError):
            SystemGeometry(bs_position=(0, 0, 5), ris_position=(1, 1, 1),
                           lu_positions=[(2, 2, 2)], eve_position=(3, 3, 3),
                           st_position=(4, 4, 4), st_side="B")

    def test_coincident_positions_rejected(self):
        with pytest.raises(ChannelError):
            SystemGeometry(bs_position=(0, 0, 5), ris_position=(0, 0, 5),
                           lu_positions=[(2, 2, 2)], eve_position=(3, 3, 3),
                           st_position=(4, 4, 4))


class TestEpisodeChannels:
    def test_single_slot(self):
        chans = generate_episode_channels(
            default_geometry(), default_fading(), L=4, N=12, T=1, seed=0)
        assert len(chans) == 1
        ch = chans[0]
        assert ch.H.shape == (12, 4)
        # rows: 2 users, Eve, target
        assert ch.D.shape == (4, 4) and ch.R.shape == (4, 12)
        assert all(np.all(np.isfinite(v)) for v in [ch.H, ch.D, ch.R])

    def test_t_must_be_positive(self):
        with pytest.raises(ChannelError):
            generate_episode_channels(default_geometry(), default_fading(),
                                      L=4, N=12, T=0, seed=0)

    def test_seeded_determinism(self):
        a = generate_episode_channels(default_geometry(), default_fading(),
                                      L=4, N=12, T=3, seed=11)
        b = generate_episode_channels(default_geometry(), default_fading(),
                                      L=4, N=12, T=3, seed=11)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.H, cb.H)
            assert np.array_equal(ca.R, cb.R)

    def test_seeds_differ(self):
        a = generate_episode_channels(default_geometry(), default_fading(),
                                      L=4, N=12, T=1, seed=1)
        b = generate_episode_channels(default_geometry(), default_fading(),
                                      L=4, N=12, T=1, seed=2)
        assert not np.array_equal(a[0].H, b[0].H)

    def test_per_link_power_matches_path_loss(self):
        # Monte-Carlo: empirical per-entry power equals the linear loss
        geometry = default_geometry()
        params = default_fading()
        chans = generate_episode_channels(geometry, params, L=4, N=12,
                                          T=4000, seed=3)
        losses = link_loss_table(geometry, params)
        lin = loss_db_to_amplitude(losses["bs_eve"]) ** 2
        emp = np.mean([np.mean(np.abs(ch.D[-2]) ** 2) for ch in chans])
        assert emp == pytest.approx(lin, rel=0.03)
        lin_st = loss_db_to_amplitude(losses["ris_st"]) ** 2
        emp_st = np.mean([np.mean(np.abs(ch.R[-1]) ** 2) for ch in chans])
        assert emp_st == pytest.approx(lin_st, rel=0.03)

    def test_bs_ris_uses_los_others_nlos(self):
        geometry = default_geometry()
        params = default_fading()
        losses = link_loss_table(geometry, params)
        d = np.linalg.norm(geometry.bs_position - geometry.ris_position)
        assert losses["bs_ris"] == pytest.approx(path_loss_los(d, 2.0))
        d_eve = np.linalg.norm(geometry.bs_position - geometry.eve_position)
        assert losses["bs_eve"] == pytest.approx(
            path_loss_nlos(d_eve, 2.0, z_r=geometry.eve_position[2]))

    def test_geometry_angles_consistent(self):
        beta_b, beta_r, zeta_r = geometry_angles(default_geometry())
        assert -np.pi <= beta_b <= np.pi
        assert -np.pi / 2 <= beta_r <= np.pi / 2
