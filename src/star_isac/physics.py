"""Physical-layer quantities: one kernel for every receiver, surface
variant and protocol, plus echo SNR lower bounds, closed-form receive
filters, power projection, and the constraint-aware reward.

Every receiver k sees the effective channel h_k^H = r_k^H diag(phi) H +
d_k^H, where phi is the surface on its side: Phi_B for the users and
Eve, Phi_A for the sensing target. ``effective_channels`` stacks all
M+2 rows at once, and one |h^H K|^2 matrix gives every SINR: user m
reads entry [m, m], Eve row M and the target row M+1. A surface state is
a list of (weight, Phi_A, Phi_B) periods with length-N coefficient
vectors: ES and the single-surface baselines have one period of weight
1, TS has two (see ``star_ris.ts_periods``). Rates and the echo SNR are
the weighted sums over periods.

Rates are log2 (bps/Hz). SINR/SNR values and the echo threshold are
linear; dB conversion happens once at config load.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization


class PhysicsError(ValueError):
    pass


class DegenerateFilterError(PhysicsError):
    """Beamformer orthogonal to the sensing channel: the Rayleigh
    quotient has no maximizer direction."""


@dataclass
class TransmitDesign:
    """BS beamformers: M communication columns K_s and L radar columns
    K_w, stacked as K = [K_s K_w] of shape L x (M+L)."""

    K_s: np.ndarray
    K_w: np.ndarray

    @property
    def K(self) -> np.ndarray:
        return np.concatenate([self.K_s, self.K_w], axis=1)


@dataclass(frozen=True)
class SensingParams:
    tau: float          # compound echo magnitude (amplitude)
    P: int              # matched-filter slot count
    sigma_s2: float     # sensing noise variance, watts
    kappa_t: float      # echo-SNR threshold, linear

    def __post_init__(self):
        if self.P < 1:
            raise PhysicsError("P must be >= 1")
        if self.sigma_s2 <= 0:
            raise PhysicsError("sensing noise variance must be positive")


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

def effective_channels(D: np.ndarray, R: np.ndarray, H: np.ndarray,
                       phi_a: np.ndarray, phi_b: np.ndarray) -> np.ndarray:
    """Rows h_k^H = r_k^H diag(phi) H + d_k^H of all M+2 receivers, as an
    (M+2) x L matrix: side-B rows read phi_b, the target row reads phi_a."""
    phi = np.empty(R.shape, complex)
    phi[:-1] = phi_b
    phi[-1] = phi_a
    return (R.conj() * phi) @ H + D.conj()


def sinrs(h_eff: np.ndarray, design: TransmitDesign,
          sigma2: float) -> np.ndarray:
    """(M+2) x M matrix: entry [k, m] is the SINR of user m's stream at
    receiver k, all read off one |h^H K|^2 matrix."""
    if sigma2 <= 0:
        raise PhysicsError("noise variance must be positive")
    M = design.K_s.shape[1]
    power = np.abs(h_eff @ design.K) ** 2
    streams = power[:, :M]
    interference = (streams.sum(axis=1, keepdims=True) - streams
                    + power[:, M:].sum(axis=1, keepdims=True))
    return streams / (interference + sigma2)


def rate(sinr):
    return np.log2(1.0 + sinr)


def secrecy_rate(r_lu: float, r_eve: float, r_st: float) -> float:
    """Hinge secrecy rate against both interceptors."""
    return max(r_lu - r_eve, 0.0) + max(r_lu - r_st, 0.0)


# ---------------------------------------------------------------------------
# sensing

def echo_snr_lower_bound(g_s: np.ndarray, design: TransmitDesign,
                         u: np.ndarray, sensing: SensingParams) -> float:
    """Jensen lower bound on the matched-filtered echo SNR.

    Evaluates P*tau^2*|u^H (I (x) H_s) k|^2 / (sigma_s^2 u^H u) with
    H_s = g_s g_s^H; block structure is exploited instead of forming the
    Kronecker product.
    """
    u = np.asarray(u).reshape(-1)
    nrm = np.vdot(u, u).real
    if nrm == 0.0:
        raise PhysicsError("receive filter must be nonzero")
    K = design.K
    L = K.shape[0]
    U = u.reshape(L, -1, order="F")
    if U.shape[1] != K.shape[1]:
        raise PhysicsError("filter length must be L*(M+L)")
    # u^H (I (x) H_s) k = sum_c u_c^H g_s g_s^H k_c
    val = np.sum(U.conj().T @ g_s * (g_s.conj() @ K))
    num = sensing.P * sensing.tau ** 2 * np.abs(val) ** 2
    return float(num / (sensing.sigma_s2 * nrm))


def optimal_filter(g_s: np.ndarray, design: TransmitDesign) -> np.ndarray:
    """Closed-form Rayleigh-quotient maximizer of the echo SNR.

    Direction (I (x) H_s) k; the paper's normalization by
    k^H (I (x) H_s^H H_s) k only rescales and the SNR is scale-invariant.
    """
    K = design.K
    # (I (x) H_s) k stacks H_s k_c per column; H_s = g g^H
    cols = np.outer(g_s, g_s.conj() @ K)  # L x (M+L), col c = g (g^H k_c)
    u = cols.reshape(-1, order="F")
    denom = np.vdot(u, u).real
    if denom < 1e-300:
        raise DegenerateFilterError("beamformer orthogonal to sensing channel")
    return u / denom


# ---------------------------------------------------------------------------
# one slot, summed over the surface's periods

def evaluate(ch: ChannelRealization, periods, design: TransmitDesign,
             sigma2: float, sensing: SensingParams):
    """(LU, Eve, target rates per user, echo SNR) of one slot, each the
    weighted sum over the (weight, Phi_A, Phi_B) periods. The echo SNR
    of a period is taken at its closed-form filter, and is 0 where the
    target's channel is degenerate."""
    D, R, H = ch.D, ch.R, ch.H
    lu = eve = st = echo = 0.0
    for weight, phi_a, phi_b in periods:
        h_eff = effective_channels(D, R, H, phi_a, phi_b)
        r = rate(sinrs(h_eff, design, sigma2))
        M = r.shape[1]
        lu = lu + weight * r.diagonal()
        eve = eve + weight * r[M]
        st = st + weight * r[M + 1]
        g_s = h_eff[M + 1].conj()
        try:
            u = optimal_filter(g_s, design)
        except DegenerateFilterError:
            continue
        echo += weight * echo_snr_lower_bound(g_s, design, u, sensing)
    return lu, eve, st, echo


# ---------------------------------------------------------------------------
# constraints and reward

def project_power(K_raw: np.ndarray, M: int, P_0: float) -> TransmitDesign:
    """Scale K down onto the total-power ball trace(K K^H) <= P_0;
    directions are preserved."""
    if P_0 <= 0:
        raise PhysicsError("power budget must be positive")
    tr = np.sum(np.abs(K_raw) ** 2)
    K = K_raw if tr <= P_0 else K_raw * np.sqrt(P_0 / tr)
    return TransmitDesign(K_s=K[:, :M], K_w=K[:, M:])


def reward(echo_snr: float, lu_rates: np.ndarray, sum_secrecy: float,
           R_0: float, kappa_t: float) -> float:
    """Constraint-shaped reward.

    Below the echo threshold the reward is the echo SNR itself; once
    sensing is satisfied it rewards meeting every per-user rate floor
    and then the sum secrecy rate on top.
    """
    if echo_snr <= kappa_t:
        return float(echo_snr)
    lu_rates = np.asarray(lu_rates, float)
    M = lu_rates.size
    if np.all(lu_rates >= R_0):
        return float(kappa_t + M * R_0 + sum_secrecy)
    return float(kappa_t + np.minimum(lu_rates, R_0).sum())
