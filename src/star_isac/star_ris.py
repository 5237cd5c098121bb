"""Surface decoders: from an agent's raw surface action to the list of
(weight, Phi_A, Phi_B) periods that ``physics.evaluate`` scores.

``SURFACES`` maps every supported (variant, protocol) pair to its
decoder and its raw action length a*N + b. Each decoder maps a raw slice
in [-1, 1] onto a feasible surface by construction:

- star/es, energy splitting: per element the squared transmit and
  reflect amplitudes sum to one (sin/cos of theta) and the phases differ
  by a signed quarter turn;
- star/ts, time switching: unit-modulus faces and a time split, see
  ``ts_periods``;
- spliced/es: two reflect-only halves facing opposite sides;
- conventional/es: a reflect-only surface; users on the transmission
  side are reached via the direct BS links only.

``es_coefficients`` and ``ts_periods`` build the STAR surfaces from
physical parameters, for the decoders and for direct use alike.
"""
from __future__ import annotations

import numpy as np


def wrap_pi(phi: np.ndarray) -> np.ndarray:
    """Wrap angles to (-pi, pi]."""
    out = np.mod(phi + np.pi, 2.0 * np.pi) - np.pi
    return np.where(out == -np.pi, np.pi, out)


def es_power_split(theta: np.ndarray):
    """(alpha_A^2, alpha_B^2) = (cos^2 theta, sin^2 theta).

    The double complement makes the two sum to 1.0 exactly in floating
    point (one side always lands in the Sterbenz-exact subtraction
    region).
    """
    b_sq = 1.0 - (1.0 - np.sin(theta) ** 2)
    return 1.0 - b_sq, b_sq


def es_coefficients(theta: np.ndarray, phi_b: np.ndarray, sign: np.ndarray):
    """ES per-element coefficients (Phi_A, Phi_B), |A|^2 + |B|^2 = 1:
    theta in [0, pi/2] splits the energy, and phi_A = phi_B + sign*pi/2
    with sign = +-1."""
    phi_b = wrap_pi(phi_b)
    a_sq, b_sq = es_power_split(theta)
    return (np.sqrt(a_sq) * np.exp(1j * wrap_pi(phi_b + sign * np.pi / 2.0)),
            np.sqrt(b_sq) * np.exp(1j * phi_b))


def ts_periods(pi_1: float, phi_a: np.ndarray, phi_b: np.ndarray) -> list:
    """The TS protocol as (weight, Phi_A, Phi_B) periods, pi_1 in [0, 1].

    Convention: the surface is dark for pi_1, where every receiver sees
    only its direct link, and serves both sides for pi_2 = 1 - pi_1, the
    users and Eve through Phi_B^TS = exp(j phi_b) and the sensing target
    through Phi_A^TS = exp(j phi_a). In the TS protocol of Mu et al.
    (IEEE TWC 2022) the elements instead reflect in one period and
    transmit in the other, so the target would see Phi_A^TS while the
    users see only their direct links; this model has not been checked
    against that reading.
    """
    dark = np.zeros(np.size(phi_a))
    return [(pi_1, dark, dark),
            (1.0 - pi_1, np.exp(1j * np.mod(phi_a, 2.0 * np.pi)),
             np.exp(1j * np.mod(phi_b, 2.0 * np.pi)))]


# ---- decoders: raw slice in [-1, 1] -> periods --------------------------

def _star_es(raw: np.ndarray) -> list:
    n = raw.size // 3
    return [(1.0, *es_coefficients((raw[:n] + 1.0) * np.pi / 4.0,
                                   raw[n:2 * n] * np.pi,
                                   np.where(raw[2 * n:] >= 0.0, 1.0, -1.0)))]


def _star_ts(raw: np.ndarray) -> list:
    n = (raw.size - 1) // 2
    return ts_periods(float((raw[0] + 1.0) / 2.0), (raw[1:n + 1] + 1.0) * np.pi,
                      (raw[n + 1:] + 1.0) * np.pi)


def _spliced(raw: np.ndarray) -> list:
    half = raw.size // 2
    phases = raw * np.pi
    amp_a = np.concatenate([np.ones(half), np.zeros(raw.size - half)])
    return [(1.0, amp_a * np.exp(1j * phases),
             (1.0 - amp_a) * np.exp(1j * phases))]


def _conventional(raw: np.ndarray) -> list:
    return [(1.0, np.exp(1j * raw * np.pi), np.zeros(raw.size))]


# (variant, protocol) -> (decoder, a, b): the raw slice has length a*N + b
SURFACES = {
    ("star", "es"): (_star_es, 3, 0),
    ("star", "ts"): (_star_ts, 2, 1),
    ("spliced", "es"): (_spliced, 1, 0),
    ("conventional", "es"): (_conventional, 1, 0),
}


def decode(variant: str, protocol: str, raw: np.ndarray) -> list:
    """Periods of a (variant, protocol) surface for a raw slice in
    [-1, 1] of length a*N + b."""
    return SURFACES[variant, protocol][0](raw)
