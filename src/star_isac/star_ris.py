"""STAR-RIS configurations for the energy-splitting (ES) and
time-switching (TS) protocols.

ES amplitudes and phases are coupled per element: the squared transmit
and reflect amplitudes sum to one and the phase difference is an odd
multiple of pi/2. Both couplings are enforced by construction (cos/sin
parameterization plus a signed quarter-turn offset), so every config
reachable from an agent action is feasible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class StarRisError(ValueError):
    pass


def wrap_pi(phi: np.ndarray) -> np.ndarray:
    """Wrap angles to (-pi, pi]."""
    out = np.mod(phi + np.pi, 2.0 * np.pi) - np.pi
    return np.where(out == -np.pi, np.pi, out)


@dataclass(frozen=True)
class StarRisEsConfig:
    theta: np.ndarray      # in [0, pi/2]; alpha_A = cos, alpha_B = sin
    phi_b: np.ndarray      # in (-pi, pi]
    sign: np.ndarray       # +-1; phi_a = phi_b + sign*pi/2

    def __post_init__(self):
        theta = np.asarray(self.theta, float)
        phi_b = np.asarray(self.phi_b, float)
        sign = np.asarray(self.sign, float)
        if not (theta.shape == phi_b.shape == sign.shape):
            raise StarRisError("field shapes differ")
        if np.any((theta < 0) | (theta > np.pi / 2)):
            raise StarRisError("theta out of [0, pi/2]")
        if not np.all(np.isin(sign, (-1.0, 1.0))):
            raise StarRisError("sign entries must be +-1")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi_b", wrap_pi(phi_b))
        object.__setattr__(self, "sign", sign)

    @property
    def alpha_a_sq(self) -> np.ndarray:
        # the double complement makes alpha_a_sq + alpha_b_sq == 1.0 hold
        # exactly in floating point (one side always lands in the
        # Sterbenz-exact subtraction region)
        return 1.0 - self.alpha_b_sq

    @property
    def alpha_b_sq(self) -> np.ndarray:
        return 1.0 - (1.0 - np.sin(self.theta) ** 2)

    @property
    def alpha_a(self) -> np.ndarray:
        return np.sqrt(self.alpha_a_sq)

    @property
    def alpha_b(self) -> np.ndarray:
        return np.sqrt(self.alpha_b_sq)

    @property
    def phi_a(self) -> np.ndarray:
        return wrap_pi(self.phi_b + self.sign * np.pi / 2.0)


@dataclass(frozen=True)
class StarRisTsConfig:
    pi_1: float            # reflection time fraction; pi_2 = 1 - pi_1
    phi_a: np.ndarray      # in [0, 2*pi)
    phi_b: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.pi_1 <= 1.0:
            raise StarRisError("pi_1 out of [0, 1]")
        phi_a = np.mod(np.asarray(self.phi_a, float), 2.0 * np.pi)
        phi_b = np.mod(np.asarray(self.phi_b, float), 2.0 * np.pi)
        if phi_a.shape != phi_b.shape:
            raise StarRisError("phase shapes differ")
        object.__setattr__(self, "phi_a", phi_a)
        object.__setattr__(self, "phi_b", phi_b)

    @property
    def pi_2(self) -> float:
        return 1.0 - self.pi_1


def es_coefficients(cfg: StarRisEsConfig):
    """Per-element coefficients (Phi_A, Phi_B); |A|^2 + |B|^2 = 1."""
    return (cfg.alpha_a * np.exp(1j * cfg.phi_a),
            cfg.alpha_b * np.exp(1j * cfg.phi_b))


def ts_coefficients(cfg: StarRisTsConfig):
    """Unit-modulus per-element coefficients (Phi_A^TS, Phi_B^TS)."""
    return np.exp(1j * cfg.phi_a), np.exp(1j * cfg.phi_b)


def ts_periods(cfg: StarRisTsConfig) -> list:
    """The TS protocol as (weight, Phi_A, Phi_B) periods.

    Convention: the surface is dark for pi_1, where every receiver sees
    only its direct link, and serves both sides for pi_2, the users and
    Eve through Phi_B^TS and the sensing target through Phi_A^TS. In the
    TS protocol of Mu et al. (IEEE TWC 2022) the elements instead reflect
    in one period and transmit in the other, so the target would see
    Phi_A^TS while the users see only their direct links; this model has
    not been checked against that reading.
    """
    dark = np.zeros(cfg.phi_a.size)
    return [(cfg.pi_1, dark, dark), (cfg.pi_2, *ts_coefficients(cfg))]


def project_raw_action_es(raw: np.ndarray) -> StarRisEsConfig:
    """Map a raw [-1,1]^(3N) agent action onto the coupled ES manifold."""
    raw = np.asarray(raw, float)
    if raw.ndim != 1 or raw.size % 3 != 0:
        raise StarRisError("ES raw action must have length 3N")
    n = raw.size // 3
    theta = (np.clip(raw[:n], -1, 1) + 1.0) * np.pi / 4.0
    phi_b = np.clip(raw[n:2 * n], -1, 1) * np.pi
    sign = np.where(raw[2 * n:] >= 0.0, 1.0, -1.0)
    return StarRisEsConfig(theta=theta, phi_b=phi_b, sign=sign)


def project_raw_action_ts(raw: np.ndarray) -> StarRisTsConfig:
    """Map a raw [-1,1]^(2N+1) agent action onto a TS config."""
    raw = np.asarray(raw, float)
    if raw.ndim != 1 or raw.size < 3 or (raw.size - 1) % 2 != 0:
        raise StarRisError("TS raw action must have length 2N+1")
    n = (raw.size - 1) // 2
    pi_1 = (np.clip(raw[0], -1, 1) + 1.0) / 2.0
    phi_a = (np.clip(raw[1:n + 1], -1, 1) + 1.0) * np.pi
    phi_b = (np.clip(raw[n + 1:], -1, 1) + 1.0) * np.pi
    # 2*pi maps back to 0; keep phases in [0, 2*pi)
    return StarRisTsConfig(pi_1=float(pi_1),
                           phi_a=np.mod(phi_a, 2.0 * np.pi),
                           phi_b=np.mod(phi_b, 2.0 * np.pi))
