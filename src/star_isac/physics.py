"""Physical-layer quantities: one kernel for every receiver, surface
variant and protocol, plus echo SNR lower bounds, closed-form receive
filters, power projection, and the constraint-aware reward.

Every receiver k sees the effective channel h_k^H = r_k^H diag(phi) H +
d_k^H, where phi is the surface on its side: Phi_B for the users and
Eve, Phi_A for the sensing target. ``effective_channels`` stacks all
M+2 rows at once from the conjugated receiver links d_k^H and r_k^H
(a caller scoring many slots of one channel draw conjugates them once),
and one |h^H K|^2 matrix gives every SINR: user m reads entry [m, m],
Eve row M and the target row M+1. The beamformers are one bare
L x (M+L) array K, M communication columns then L radar columns, so
M = K.shape[1] - K.shape[0]. A surface state is a list of (weight,
Phi_A, Phi_B) periods with length-N coefficient vectors: ES and the
single-surface baselines have one period of weight 1, TS has two (see
``star_ris.ts_periods``). Rates and the echo SNR are the weighted sums
over periods. The echo SNR of a period is the Jensen bound
(``echo_snr_lower_bound``) at the closed-form filter (``optimal_filter``),
whose direction u = (I (x) g_s g_s^H) k has ||u||^2 = ||g_s||^2 sum_c
|g_s^H k_c|^2 over the columns k_c of K. There the bound reduces to

    P tau^2 ||u||^2 / sigma_s^2,

which ``evaluate`` takes from the target's row g_s^H and one g_s^H K
product, with no filter vector.

``evaluate`` scores a slot from its links, and ``score`` turns a slot's
rates and echo SNR into the step's record.

Rates are log2 (bps/Hz). SINR/SNR values and the echo threshold are
linear; dB conversion, and the check that P_0 and the noise variances
are positive and finite, happen once at config load. Reductions call
``np.add.reduce`` directly: the reduction ``np.sum`` runs, without its
Python-level dispatch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PhysicsError(ValueError):
    pass


class DegenerateFilterError(PhysicsError):
    """Beamformer orthogonal to the sensing channel: the Rayleigh
    quotient has no maximizer direction."""


@dataclass(frozen=True)
class SensingParams:
    tau: float          # compound echo magnitude (amplitude)
    P: int              # matched-filter slot count
    sigma_s2: float     # sensing noise variance, watts
    kappa_t: float      # echo-SNR threshold, linear


@dataclass
class StepOutcome:
    reward: float
    lu_rates: np.ndarray          # R_{m,t}
    eve_rates: np.ndarray         # R^e_{m,t}
    st_rates: np.ndarray          # R^s_{m,t}
    secrecy_rates: np.ndarray     # per-LU hinge secrecy rates
    sum_secrecy_rate: float
    echo_snr: float               # lower bound, linear
    snr_feasible: bool
    rate_feasible: bool
    next_state: np.ndarray = None
    done: bool = False


# ---------------------------------------------------------------------------
# receiver-stacked kernel

def effective_channels(D_conj: np.ndarray, R_conj: np.ndarray,
                       H: np.ndarray, phi_a: np.ndarray,
                       phi_b: np.ndarray) -> np.ndarray:
    """Rows h_k^H = r_k^H diag(phi) H + d_k^H of all M+2 receivers, as an
    (M+2) x L matrix, from the conjugated links D^* ((M+2) x L) and R^*
    ((M+2) x N): side-B rows read phi_b, the target row reads phi_a."""
    cascade = np.empty(R_conj.shape, complex)
    np.multiply(R_conj[:-1], phi_b, out=cascade[:-1])
    np.multiply(R_conj[-1], phi_a, out=cascade[-1])
    return cascade @ H + D_conj


def sinrs(h_eff: np.ndarray, K: np.ndarray, sigma2: float) -> np.ndarray:
    """(M+2) x M matrix: entry [k, m] is the SINR of user m's stream at
    receiver k, all read off one |h^H K|^2 matrix."""
    M = K.shape[1] - K.shape[0]
    power = np.abs(h_eff @ K)
    np.square(power, out=power)
    streams = power[:, :M]
    # (all streams - own stream + radar columns) + noise, in this order:
    # the order of the sums fixes the last bits of every SINR
    interference = np.add.reduce(streams, axis=1, keepdims=True) - streams
    interference += np.add.reduce(power[:, M:], axis=1, keepdims=True)
    interference += sigma2
    return np.divide(streams, interference, out=interference)


def rate(sinr):
    return np.log2(1.0 + sinr)


def secrecy_rate(r_lu, r_eve, r_st):
    """Hinge secrecy rate against both interceptors, elementwise over
    users."""
    return np.maximum(r_lu - r_eve, 0.0) + np.maximum(r_lu - r_st, 0.0)


# ---------------------------------------------------------------------------
# sensing

def echo_snr_lower_bound(g_s: np.ndarray, K: np.ndarray, u: np.ndarray,
                         sensing: SensingParams) -> float:
    """Jensen lower bound on the matched-filtered echo SNR.

    Evaluates P*tau^2*|u^H (I (x) H_s) k|^2 / (sigma_s^2 u^H u) with
    H_s = g_s g_s^H; block structure is exploited instead of forming the
    Kronecker product.
    """
    u = np.asarray(u).reshape(-1)
    nrm = np.vdot(u, u).real
    if nrm == 0.0:
        raise PhysicsError("receive filter must be nonzero")
    L = K.shape[0]
    U = u.reshape(L, -1, order="F")
    if U.shape[1] != K.shape[1]:
        raise PhysicsError("filter length must be L*(M+L)")
    # u^H (I (x) H_s) k = sum_c u_c^H g_s g_s^H k_c
    val = np.add.reduce(U.conj().T @ g_s * (g_s.conj() @ K))
    num = sensing.P * sensing.tau ** 2 * np.abs(val) ** 2
    return float(num / (sensing.sigma_s2 * nrm))


def optimal_filter(g_s: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Closed-form Rayleigh-quotient maximizer of the echo SNR.

    Direction (I (x) H_s) k; the paper's normalization by
    k^H (I (x) H_s^H H_s) k only rescales and the SNR is scale-invariant.
    Raises ``DegenerateFilterError`` where the filter has no direction.
    """
    # (I (x) H_s) k stacks H_s k_c = g (g^H k_c) over the columns c of K;
    # row c of this (M+L) x L product is block c of u
    u = (g_s * (g_s.conj() @ K)[:, None]).reshape(-1)
    denom = np.vdot(u, u).real
    if denom < 1e-300:
        raise DegenerateFilterError("beamformer orthogonal to sensing channel")
    return u / denom


# ---------------------------------------------------------------------------
# one slot, summed over the surface's periods

def evaluate(H: np.ndarray, D_conj: np.ndarray, R_conj: np.ndarray,
             periods, K: np.ndarray, sigma2: float, sensing: SensingParams):
    """(LU, Eve, target rates per user, echo SNR) of one slot with scaled
    links H (N x L) and conjugated D^*, R^*, receivers stacked as in
    ``effective_channels``; each the weighted sum over the (weight,
    Phi_A, Phi_B) periods. The echo SNR of a period is the bound at its
    closed-form filter, P tau^2 ||g_s||^2 sum_c |g_s^H k_c|^2 /
    sigma_s^2, and is 0 where ||g_s||^2 sum_c |g_s^H k_c|^2, the
    filter's squared norm, is below the 1e-300 at which
    ``optimal_filter`` finds no direction."""
    M = K.shape[1] - K.shape[0]
    rates = echo = 0.0
    for weight, phi_a, phi_b in periods:
        h_eff = effective_channels(D_conj, R_conj, H, phi_a, phi_b)
        rates = rates + weight * rate(sinrs(h_eff, K, sigma2))
        # the target's row is g_s^H; w2 = ||g_s||^2 sum_c |g_s^H k_c|^2
        h = h_eff[M + 1]
        gk = np.abs(h @ K)
        np.square(gk, out=gk)
        w2 = np.vdot(h, h).real * np.add.reduce(gk)
        if w2 >= 1e-300:
            echo += weight * float(
                sensing.P * sensing.tau ** 2 * w2 / sensing.sigma_s2)
    return rates.diagonal().copy(), rates[M], rates[M + 1], echo


# ---------------------------------------------------------------------------
# constraints and reward

def project_power(K_raw: np.ndarray, P_0: float) -> np.ndarray:
    """K scaled down onto the total-power ball trace(K K^H) <= P_0;
    directions are preserved. Within the budget this is K_raw itself."""
    tr = np.add.reduce(np.abs(K_raw) ** 2, axis=None)
    return K_raw if tr <= P_0 else K_raw * np.sqrt(P_0 / tr)


def reward(echo_snr: float, lu_rates: np.ndarray, sum_secrecy: float,
           R_0: float, kappa_t: float) -> float:
    """Constraint-shaped reward.

    Below the echo threshold the reward is the echo SNR itself; once
    sensing is satisfied it rewards meeting every per-user rate floor
    and then the sum secrecy rate on top.
    """
    return _shaped_reward(echo_snr, lu_rates, sum_secrecy, R_0, kappa_t,
                          bool(np.all(lu_rates >= R_0)))


def _shaped_reward(echo_snr, lu_rates, sum_secrecy, R_0, kappa_t, rates_met):
    if echo_snr <= kappa_t:
        return float(echo_snr)
    if rates_met:
        return float(kappa_t + lu_rates.size * R_0 + sum_secrecy)
    return float(kappa_t + np.minimum(lu_rates, R_0).sum())


def score(lu_rates: np.ndarray, eve_rates: np.ndarray, st_rates: np.ndarray,
          echo_snr: float, R_0: float, kappa_t: float) -> StepOutcome:
    """The step record of one slot's rates and echo SNR, without the next
    state: hinge secrecy rates, their sum, the reward and both
    feasibility flags. The rate floors are tested once, for the flag and
    the reward alike."""
    sec = secrecy_rate(lu_rates, eve_rates, st_rates)
    sum_sec = float(sec.sum())
    rates_met = bool((lu_rates >= R_0).all())
    return StepOutcome(
        reward=_shaped_reward(echo_snr, lu_rates, sum_sec, R_0, kappa_t,
                              rates_met),
        lu_rates=lu_rates,
        eve_rates=eve_rates,
        st_rates=st_rates,
        secrecy_rates=sec,
        sum_secrecy_rate=sum_sec,
        echo_snr=echo_snr,
        snr_feasible=echo_snr > kappa_t,
        rate_feasible=rates_met,
    )
