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
physical parameters, and the STAR decoders call them. They run only the
elementwise operations of their formulas, in place where they can: the
two ES surfaces are the rows of one array, as are the two energy shares
``es_power_split`` returns, and exp(j x) is formed as ``exp`` of a zero
array whose imaginary part holds x.
"""
from __future__ import annotations

import numpy as np


def _wrap_pi_inplace(phi: np.ndarray) -> np.ndarray:
    """Wrap the angles of a float array to (-pi, pi], in place."""
    phi += np.pi
    np.mod(phi, 2.0 * np.pi, out=phi)
    phi -= np.pi
    phi[phi == -np.pi] = np.pi
    return phi


def es_power_split(theta: np.ndarray) -> np.ndarray:
    """[alpha_A^2, alpha_B^2] = [cos^2 theta, sin^2 theta], the rows of
    one 2 x N array (callers unpack it as ``a_sq, b_sq``).

    The double complement makes the two sum to 1.0 exactly in floating
    point (one side always lands in the Sterbenz-exact subtraction
    region).
    """
    split = np.empty((2, *np.shape(theta)))
    b_sq = np.sin(theta, out=split[1, ...])
    np.square(b_sq, out=b_sq)
    np.subtract(1.0, b_sq, out=b_sq)
    np.subtract(1.0, b_sq, out=b_sq)
    np.subtract(1.0, b_sq, out=split[0, ...])
    return split


def es_coefficients(theta: np.ndarray, phi_b: np.ndarray, sign: np.ndarray):
    """ES per-element coefficients (Phi_A, Phi_B), |A|^2 + |B|^2 = 1, for
    arrays of one length N: theta in [0, pi/2] splits the energy, and
    phi_A = phi_B + sign*pi/2 with sign = +-1. The two surfaces are the
    rows of one 2 x N array, so that one sqrt, exp and product serve
    both."""
    split = es_power_split(theta)
    # the phases are written into the imaginary part of a zero array,
    # which exp then turns into exp(j phase) in place
    coef = np.zeros(split.shape, complex)
    phase = coef.imag
    phase[1] = phi_b
    _wrap_pi_inplace(phase[1, ...])
    # sign * (pi/2) is exact for sign = +-1
    np.add(phase[1], np.multiply(sign, np.pi / 2.0), out=phase[0, ...])
    _wrap_pi_inplace(phase[0, ...])
    np.exp(coef, out=coef)
    np.multiply(np.sqrt(split), coef, out=coef)
    return coef[0], coef[1]


def ts_periods(pi_1: float, phi_a: np.ndarray, phi_b: np.ndarray) -> list:
    """The TS protocol as (weight, Phi_A, Phi_B) periods, pi_1 in [0, 1]
    and phi_a, phi_b of one length N.

    Convention: the surface is dark for pi_1, where every receiver sees
    only its direct link, and serves both sides for pi_2 = 1 - pi_1, the
    users and Eve through Phi_B^TS = exp(j phi_b) and the sensing target
    through Phi_A^TS = exp(j phi_a). In the TS protocol of Mu et al.
    (IEEE TWC 2022) the elements instead reflect in one period and
    transmit in the other, so the target would see Phi_A^TS while the
    users see only their direct links. This model is not passive: its
    pi_2 period gives |Phi_A|^2 + |Phi_B|^2 = 2 per element, which
    tests/test_star_ris.py::test_every_surface_is_passive pins as a
    strict xfail until ROADMAP item 3 makes TS time switching.
    """
    n = np.size(phi_a)
    # [Phi_A^TS, Phi_B^TS] as exp of j*[phi_a, phi_b], in place
    faces = np.zeros(2 * n, complex)
    angle = faces.imag
    angle[:n] = phi_a
    angle[n:] = phi_b
    np.mod(angle, 2.0 * np.pi, out=angle)
    np.exp(faces, out=faces)
    dark = np.zeros(n)
    return [(pi_1, dark, dark), (1.0 - pi_1, faces[:n], faces[n:])]


# ---- decoders: raw slice in [-1, 1] -> periods --------------------------

def _star_es(raw: np.ndarray) -> list:
    n = raw.size // 3
    theta = raw[:n] + 1.0
    theta *= np.pi / 4.0
    return [(1.0, *es_coefficients(theta, raw[n:2 * n] * np.pi,
                                   np.where(raw[2 * n:] >= 0.0, 1.0, -1.0)))]


def _star_ts(raw: np.ndarray) -> list:
    n = raw.size // 2
    phi = raw[1:] + 1.0
    phi *= np.pi
    return ts_periods(float((raw[0] + 1.0) / 2.0), phi[:n], phi[n:])


def _spliced(raw: np.ndarray) -> list:
    half = raw.size // 2
    faces = np.exp(1j * (raw * np.pi))
    amp_a = np.concatenate([np.ones(half), np.zeros(raw.size - half)])
    return [(1.0, amp_a * faces, (1.0 - amp_a) * faces)]


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
