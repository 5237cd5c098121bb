import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from star_isac.star_ris import (StarRisError, StarRisEsConfig, StarRisTsConfig,
                                es_coefficients, project_raw_action_es,
                                project_raw_action_ts, ts_coefficients, wrap_pi)

raw_es = arrays(float, st.integers(2, 8).map(lambda n: 3 * n),
                elements=st.floats(-1.0, 1.0))
raw_ts = arrays(float, st.integers(2, 8).map(lambda n: 2 * n + 1),
                elements=st.floats(-1.0, 1.0))


class TestEsConfig:
    def test_amplitude_coupling_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            cfg = project_raw_action_es(rng.uniform(-1, 1, 12))
            assert np.all(cfg.alpha_a_sq + cfg.alpha_b_sq == 1.0)
            assert np.max(np.abs(cfg.alpha_a ** 2 + cfg.alpha_b ** 2 - 1.0)) < 1e-15

    def test_phase_coupling_quarter_turn(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            cfg = project_raw_action_es(rng.uniform(-1, 1, 24))
            assert np.max(np.abs(np.cos(cfg.phi_a - cfg.phi_b))) < 1e-12

    def test_full_reflection(self):
        cfg = StarRisEsConfig(theta=np.zeros(4), phi_b=np.zeros(4),
                              sign=np.ones(4))
        phi_a, phi_b = es_coefficients(cfg)
        assert np.allclose(phi_b, 0.0)
        assert np.allclose(np.abs(phi_a), 1.0)

    def test_pi_third_element(self):
        cfg = StarRisEsConfig(theta=np.array([np.pi / 3]),
                              phi_b=np.array([0.0]), sign=np.array([1.0]))
        phi_a, phi_b = es_coefficients(cfg)
        assert phi_a[0] == pytest.approx(0.5j, abs=1e-12)
        assert phi_b[0] == pytest.approx(np.sqrt(3) / 2, abs=1e-12)

    def test_modulus_square_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            cfg = project_raw_action_es(rng.uniform(-1, 1, 9))
            phi_a, phi_b = es_coefficients(cfg)
            total = np.abs(phi_a) ** 2 + np.abs(phi_b) ** 2
            assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_theta_range_enforced(self):
        with pytest.raises(StarRisError):
            StarRisEsConfig(theta=np.array([2.0]), phi_b=np.array([0.0]),
                            sign=np.array([1.0]))

    def test_sign_values_enforced(self):
        with pytest.raises(StarRisError):
            StarRisEsConfig(theta=np.array([0.3]), phi_b=np.array([0.0]),
                            sign=np.array([0.5]))


class TestEsProjection:
    def test_zero_raw_is_balanced(self):
        cfg = project_raw_action_es(np.zeros(12))
        assert np.allclose(cfg.theta, np.pi / 4)
        assert np.allclose(cfg.alpha_a, np.sqrt(2) / 2)
        assert np.allclose(cfg.alpha_b, np.sqrt(2) / 2)
        assert np.allclose(cfg.phi_b, 0.0)
        assert np.all(cfg.sign == 1.0)

    def test_raw_one_is_full_transmission(self):
        raw = np.zeros(6)
        raw[:2] = 1.0
        cfg = project_raw_action_es(raw)
        assert np.allclose(cfg.theta, np.pi / 2)
        assert np.allclose(cfg.alpha_b, 1.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(StarRisError):
            project_raw_action_es(np.zeros(10))

    @given(raw=raw_es)
    @settings(max_examples=300, deadline=None)
    def test_invariants_hold_for_any_raw(self, raw):
        cfg = project_raw_action_es(raw)
        assert np.all(cfg.alpha_a_sq + cfg.alpha_b_sq == 1.0)
        assert np.max(np.abs(np.cos(cfg.phi_a - cfg.phi_b))) < 1e-12
        assert np.all((cfg.theta >= 0) & (cfg.theta <= np.pi / 2))


class TestTsConfig:
    def test_identity_at_zero_phase(self):
        cfg = StarRisTsConfig(pi_1=0.5, phi_a=np.zeros(4), phi_b=np.zeros(4))
        phi_a, phi_b = ts_coefficients(cfg)
        assert np.allclose(phi_a, 1.0)
        assert np.allclose(phi_b, 1.0)

    def test_pi_phase_gives_minus_one(self):
        cfg = StarRisTsConfig(pi_1=0.2, phi_a=np.full(3, np.pi),
                              phi_b=np.zeros(3))
        phi_a, _ = ts_coefficients(cfg)
        assert np.allclose(phi_a, -1.0)

    def test_unit_modulus_random(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            cfg = project_raw_action_ts(rng.uniform(-1, 1, 9))
            phi_a, phi_b = ts_coefficients(cfg)
            assert np.max(np.abs(np.abs(phi_a) - 1.0)) < 1e-12
            assert np.max(np.abs(np.abs(phi_b) - 1.0)) < 1e-12

    def test_time_fractions_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            cfg = project_raw_action_ts(rng.uniform(-1, 1, 7))
            assert cfg.pi_1 + cfg.pi_2 == 1.0

    def test_pi1_out_of_range_rejected(self):
        with pytest.raises(StarRisError):
            StarRisTsConfig(pi_1=1.5, phi_a=np.zeros(2), phi_b=np.zeros(2))


class TestTsProjection:
    def test_zero_raw_even_split(self):
        cfg = project_raw_action_ts(np.zeros(9))
        assert cfg.pi_1 == pytest.approx(0.5)
        assert cfg.pi_2 == pytest.approx(0.5)

    def test_minus_one_pure_transmission(self):
        raw = np.zeros(5)
        raw[0] = -1.0
        cfg = project_raw_action_ts(raw)
        assert cfg.pi_1 == 0.0
        assert cfg.pi_2 == 1.0

    def test_roundtrip_preserves_values(self):
        rng = np.random.default_rng(5)
        raw = rng.uniform(-0.99, 0.99, 11)
        cfg = project_raw_action_ts(raw)
        n = 5
        assert cfg.pi_1 == pytest.approx((raw[0] + 1) / 2, abs=1e-12)
        assert np.allclose(cfg.phi_a, (raw[1:n + 1] + 1) * np.pi, atol=1e-12)
        assert np.allclose(cfg.phi_b, (raw[n + 1:] + 1) * np.pi, atol=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(StarRisError):
            project_raw_action_ts(np.zeros(8))

    @given(raw=raw_ts)
    @settings(max_examples=300, deadline=None)
    def test_invariants_hold_for_any_raw(self, raw):
        cfg = project_raw_action_ts(raw)
        assert cfg.pi_1 + cfg.pi_2 == 1.0
        assert np.all((cfg.phi_a >= 0) & (cfg.phi_a < 2 * np.pi))
        assert np.all((cfg.phi_b >= 0) & (cfg.phi_b < 2 * np.pi))


def test_wrap_pi_range():
    x = np.linspace(-10, 10, 2001)
    w = wrap_pi(x)
    assert np.all((w > -np.pi) & (w <= np.pi))
    assert np.allclose(np.exp(1j * w), np.exp(1j * x))
