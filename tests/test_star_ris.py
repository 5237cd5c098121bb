import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from star_isac.star_ris import (SURFACES, _wrap_pi_inplace, decode,
                                es_coefficients, es_power_split, ts_periods)

raw_es = arrays(float, st.integers(2, 8).map(lambda n: 3 * n),
                elements=st.floats(-1.0, 1.0))
raw_ts = arrays(float, st.integers(2, 8).map(lambda n: 2 * n + 1),
                elements=st.floats(-1.0, 1.0))


def es_decode(raw):
    [(_, phi_a, phi_b)] = decode("star", "es", raw)
    return phi_a, phi_b


def phase_cos(phi_a, phi_b):
    """cos(phi_A - phi_B) read off the coefficients."""
    return np.real(phi_a * phi_b.conj()) / (np.abs(phi_a) * np.abs(phi_b))


class TestEsConfig:
    def test_amplitude_coupling_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            theta = (rng.uniform(-1, 1, 4) + 1.0) * np.pi / 4.0
            a_sq, b_sq = es_power_split(theta)
            assert np.all(a_sq + b_sq == 1.0)
            assert np.max(np.abs(np.sqrt(a_sq) ** 2 + np.sqrt(b_sq) ** 2
                                 - 1.0)) < 1e-15

    def test_phase_coupling_quarter_turn(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            phi_a, phi_b = es_decode(rng.uniform(-1, 1, 24))
            assert np.max(np.abs(phase_cos(phi_a, phi_b))) < 1e-12

    def test_full_reflection(self):
        phi_a, phi_b = es_coefficients(np.zeros(4), np.zeros(4), np.ones(4))
        assert np.allclose(phi_b, 0.0)
        assert np.allclose(np.abs(phi_a), 1.0)

    def test_pi_third_element(self):
        phi_a, phi_b = es_coefficients(np.array([np.pi / 3]), np.array([0.0]),
                                       np.array([1.0]))
        assert phi_a[0] == pytest.approx(0.5j, abs=1e-12)
        assert phi_b[0] == pytest.approx(np.sqrt(3) / 2, abs=1e-12)

    def test_modulus_square_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            phi_a, phi_b = es_decode(rng.uniform(-1, 1, 9))
            total = np.abs(phi_a) ** 2 + np.abs(phi_b) ** 2
            assert np.max(np.abs(total - 1.0)) < 1e-12


class TestEsProjection:
    def test_zero_raw_is_balanced(self):
        # theta = pi/4, phi_B = 0, sign +1: phi_A = pi/2
        phi_a, phi_b = es_decode(np.zeros(12))
        assert np.allclose(phi_a, 1j * np.sqrt(2) / 2)
        assert np.allclose(phi_b, np.sqrt(2) / 2)

    def test_raw_one_is_full_transmission(self):
        raw = np.zeros(6)
        raw[:2] = 1.0
        phi_a, phi_b = es_decode(raw)
        assert np.allclose(np.abs(phi_b), 1.0)
        assert np.allclose(phi_a, 0.0)

    @given(raw=raw_es)
    @settings(max_examples=300, deadline=None)
    def test_invariants_hold_for_any_raw(self, raw):
        n = raw.size // 3
        a_sq, b_sq = es_power_split((raw[:n] + 1.0) * np.pi / 4.0)
        assert np.all(a_sq + b_sq == 1.0)
        phi_a, phi_b = es_decode(raw)
        # alpha_A alpha_B cos(phi_A - phi_B), defined at zero amplitudes too
        assert np.max(np.abs(np.real(phi_a * phi_b.conj()))) < 1e-12
        total = np.abs(phi_a) ** 2 + np.abs(phi_b) ** 2
        assert np.max(np.abs(total - 1.0)) < 1e-12


class TestTsConfig:
    def test_identity_at_zero_phase(self):
        _, (_, phi_a, phi_b) = ts_periods(0.5, np.zeros(4), np.zeros(4))
        assert np.allclose(phi_a, 1.0)
        assert np.allclose(phi_b, 1.0)

    def test_pi_phase_gives_minus_one(self):
        _, (_, phi_a, _) = ts_periods(0.2, np.full(3, np.pi), np.zeros(3))
        assert np.allclose(phi_a, -1.0)

    def test_unit_modulus_random(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            _, (_, phi_a, phi_b) = decode("star", "ts", rng.uniform(-1, 1, 9))
            assert np.max(np.abs(np.abs(phi_a) - 1.0)) < 1e-12
            assert np.max(np.abs(np.abs(phi_b) - 1.0)) < 1e-12

    def test_time_fractions_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            (pi_1, _, _), (pi_2, _, _) = decode("star", "ts",
                                                rng.uniform(-1, 1, 7))
            assert pi_1 + pi_2 == 1.0


class TestTsProjection:
    def test_zero_raw_even_split(self):
        (pi_1, _, _), (pi_2, _, _) = decode("star", "ts", np.zeros(9))
        assert pi_1 == pytest.approx(0.5)
        assert pi_2 == pytest.approx(0.5)

    def test_minus_one_pure_transmission(self):
        raw = np.zeros(5)
        raw[0] = -1.0
        (pi_1, _, _), (pi_2, _, _) = decode("star", "ts", raw)
        assert pi_1 == 0.0
        assert pi_2 == 1.0

    def test_roundtrip_preserves_values(self):
        rng = np.random.default_rng(5)
        raw = rng.uniform(-0.99, 0.99, 11)
        (pi_1, _, _), (_, phi_a, phi_b) = decode("star", "ts", raw)
        n = 5
        assert pi_1 == pytest.approx((raw[0] + 1) / 2, abs=1e-12)
        assert np.allclose(phi_a, np.exp(1j * (raw[1:n + 1] + 1) * np.pi),
                           atol=1e-12)
        assert np.allclose(phi_b, np.exp(1j * (raw[n + 1:] + 1) * np.pi),
                           atol=1e-12)

    @given(raw=raw_ts)
    @settings(max_examples=300, deadline=None)
    def test_invariants_hold_for_any_raw(self, raw):
        (pi_1, dark_a, dark_b), (pi_2, phi_a, phi_b) = decode("star", "ts",
                                                              raw)
        assert pi_1 + pi_2 == 1.0
        assert 0.0 <= pi_1 <= 1.0
        assert not dark_a.any() and not dark_b.any()
        assert np.max(np.abs(np.abs(phi_a) - 1.0)) < 1e-12
        assert np.max(np.abs(np.abs(phi_b) - 1.0)) < 1e-12


@pytest.mark.parametrize("surface", sorted(SURFACES), ids="-".join)
@given(n=st.integers(1, 8), data=st.data())
@settings(max_examples=150, deadline=None)
def test_every_surface_decodes_feasibly(surface, n, data):
    _, a, b = SURFACES[surface]
    raw = data.draw(arrays(float, a * n + b, elements=st.floats(-1.0, 1.0)))
    periods = decode(*surface, raw)
    weights = [w for w, _, _ in periods]
    assert min(weights) >= 0.0 and sum(weights) == 1.0
    for _, phi_a, phi_b in periods:
        assert phi_a.shape == phi_b.shape == (n,)
        if surface == ("star", "es"):
            total = np.abs(phi_a) ** 2 + np.abs(phi_b) ** 2
            assert np.max(np.abs(total - 1.0)) <= 1e-12
        else:
            mods = np.abs(np.concatenate([phi_a, phi_b]))
            assert np.all((mods == 0.0) | (np.abs(mods - 1.0) <= 1e-12))


@pytest.mark.parametrize("surface", [
    pytest.param(key, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 3: in its second period the TS "
        "surface transmits and reflects at full amplitude at once, "
        "|Phi_A|^2 + |Phi_B|^2 = 2"))
    if key == ("star", "ts") else key for key in sorted(SURFACES)],
    ids="-".join)
def test_every_surface_is_passive(surface):
    # a passive element splits at most the power it receives between its
    # two faces, in every period
    _, a, b = SURFACES[surface]
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(500):
        raw = rng.uniform(-1.0, 1.0, a * int(rng.integers(1, 13)) + b)
        periods = decode(*surface, raw)
        weights = np.array([w for w, _, _ in periods])
        assert np.all(weights >= 0.0) and abs(weights.sum() - 1.0) <= 1e-12
        for _, phi_a, phi_b in periods:
            worst = max(worst, float(np.max(np.abs(phi_a) ** 2
                                            + np.abs(phi_b) ** 2)))
    assert worst <= 1.0 + 1e-12, f"max |Phi_A|^2 + |Phi_B|^2 = {worst}"


def test_wrap_pi_range():
    x = np.linspace(-10, 10, 2001)
    w = _wrap_pi_inplace(x.copy())
    assert np.all((w > -np.pi) & (w <= np.pi))
    assert np.allclose(np.exp(1j * w), np.exp(1j * x))
