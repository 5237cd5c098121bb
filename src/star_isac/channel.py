"""Channel generation: urban path loss, steering vectors, Rician fading.

All quantities are linear unless the name says dB. One master seed is
split into independent per-link streams, so adding a link never perturbs
the draws of another.

Each episode draws every link stream once, for all T slots together,
and returns the links as one ``EpisodeChannels`` record of (T, ...)
stacks; slot t is index t of each stack. Within a stream the order is:
per slot, per receiver, the link's real parts, then its imaginary parts.
This is the order in which a per-slot loop would draw them, so a seed
gives the same channels whichever way they are drawn. What the fixed
scenario's geometry and fading parameters determine, the path-loss
amplitudes and the weights of the BS->RIS LoS and NLoS terms, is a
``LinkConstants`` record (``link_constants``), computed once and required
by ``generate_episode_channels``, which reads the sizes L, N and M from
it. The scenario is a ``ScenarioConfig``, which checked every value
when it loaded; the functions here trust it and raise nothing.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .experiments import ScenarioConfig

C_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class EpisodeChannels:
    """Every link of one episode as a (T, ...) stack, slot first.

    Receivers are stacked in the order users, Eve, sensing target: row k
    of D is receiver k's direct BS link and row k of R its RIS-side link.
    The unit-power fading feeds the observation vector so feature scales
    stay O(1); H, D and R are the scaled links, fading times path-loss
    amplitude, which the physics reads one slot at a time.
    """

    H_fading: np.ndarray          # T x N x L, BS -> RIS
    D_fading: np.ndarray          # T x (M+2) x L, BS -> receiver
    R_fading: np.ndarray          # T x (M+2) x N, RIS -> receiver
    H: np.ndarray
    D: np.ndarray
    R: np.ndarray


def path_loss_los(d: float, f1: float) -> float:
    """LoS loss in dB for distance d meters and carrier f1 GHz."""
    return 20.0 * np.log10(f1) + 22.0 * np.log10(d) + 28.0


def path_loss_nlos(d: float, f1: float, z_r: float) -> float:
    """NLoS loss in dB for a receiver at height z_r meters, floored at
    the LoS loss."""
    nlos = 26.0 * np.log10(f1) + 36.7 * np.log10(d) + 22.7 - 0.3 * (z_r - 1.5)
    return max(nlos, path_loss_los(d, f1))


def loss_db_to_amplitude(loss_db: float) -> float:
    """Linear amplitude scaling sqrt(10^(-loss/10))."""
    return np.sqrt(10.0 ** (-loss_db / 10.0))


def steering_bs(L: int, beta_b: float, lam: float) -> np.ndarray:
    """Half-wavelength ULA steering vector at the BS, first entry 1+0j."""
    l = np.arange(L)
    return np.exp(1j * 2.0 * np.pi * l * (lam / 2.0) * np.sin(beta_b) / lam)


def steering_ris(N: int, beta_r: float, zeta_r: float, lam: float,
                 n_x: int) -> np.ndarray:
    """Half-wavelength UPA steering vector at the RIS with row-major
    planar indexing, n_x elements per row."""
    n = np.arange(N)
    row = n // n_x
    col = n % n_x
    eta1 = np.sin(beta_r) * np.sin(zeta_r)
    eta2 = np.sin(beta_r) * np.cos(zeta_r)
    return np.exp(1j * 2.0 * np.pi * (lam / 2.0) * (row * eta1 + col * eta2)
                  / lam)


def _cn_samples(lead: tuple, block: tuple,
                rng: np.random.Generator) -> np.ndarray:
    """i.i.d. circularly-symmetric complex Gaussian, unit variance, of
    shape lead + block, from one draw: for each lead index, the block's
    real parts, then its imaginary parts."""
    x = rng.standard_normal((*lead, 2, *block))
    at = (slice(None),) * len(lead)
    return (x[at + (0,)] + 1j * x[at + (1,)]) / np.sqrt(2.0)


def geometry_angles(bs: np.ndarray, ris: np.ndarray):
    """Azimuth at the BS and (elevation, azimuth) at the RIS for the
    BS->RIS link, derived from the two positions."""
    v = ris - bs
    d = np.linalg.norm(v)
    beta_b = np.arctan2(v[1], v[0])
    # angles seen from the RIS looking back at the BS, along -v
    beta_r = np.arcsin(np.clip(-v[2] / d, -1.0, 1.0))
    zeta_r = np.arctan2(-v[1], -v[0])
    return beta_b, beta_r, zeta_r


# the links in the order of their RNG streams; keep it, so seeds reproduce
_LINK_ORDER = ("bs_ris", "bs_lu", "ris_lu", "bs_eve", "ris_eve", "bs_st", "ris_st")


@dataclass(frozen=True)
class LinkConstants:
    """The parts of every episode's links that the scenario fixes: the
    weighted LoS term and the NLoS weight of the Rician BS->RIS link, and
    each link's path-loss amplitude, receivers stacked as users, Eve,
    target."""

    los: np.ndarray               # N x L, sqrt(F/(F+1)) f_r f_b^T
    nlos_weight: float            # sqrt(1/(F+1))
    H_amp: float
    D_amp: np.ndarray             # (M+2) x 1
    R_amp: np.ndarray             # (M+2) x 1


def link_constants(cfg: ScenarioConfig) -> LinkConstants:
    """The ``LinkConstants`` of a scenario. BS->RIS uses the LoS formula
    (elevated RIS); every other link is NLoS with the receiver's own
    height."""
    bs, ris = np.asarray(cfg.bs, float), np.asarray(cfg.ris, float)
    receivers = [np.asarray(p, float) for p in (*cfg.lus, cfg.eve, cfg.st)]
    f1 = cfg.freq_ghz
    F = cfg.rician_linear
    lam = C_LIGHT / (f1 * 1e9)
    beta_b, beta_r, zeta_r = geometry_angles(bs, ris)
    f_r = steering_ris(cfg.N, beta_r, zeta_r, lam, cfg.n_x)
    f_b = steering_bs(cfg.L, beta_b, lam)

    def nlos_column(source):
        return np.array([[loss_db_to_amplitude(path_loss_nlos(
            np.linalg.norm(source - p), f1, z_r=p[2]))] for p in receivers])

    return LinkConstants(
        los=np.sqrt(F / (F + 1.0)) * np.outer(f_r, f_b),
        nlos_weight=np.sqrt(1.0 / (F + 1.0)),
        H_amp=loss_db_to_amplitude(path_loss_los(np.linalg.norm(bs - ris), f1)),
        D_amp=nlos_column(bs), R_amp=nlos_column(ris))


def generate_episode_channels(links: LinkConstants, T: int,
                              seed: np.random.SeedSequence) -> EpisodeChannels:
    """An independent channel draw per slot, for all T slots at once,
    of the links whose constants are ``links``.

    BS->RIS is Rician; all other links are NLoS-only Rayleigh with their
    own path loss. Channel draws per link come from independent child
    streams of the given seed, one draw per stream for the whole episode
    (see the module docstring for the order).
    """
    N, L = links.los.shape
    M = len(links.D_amp) - 2

    streams = {name: np.random.default_rng(child) for name, child
               in zip(_LINK_ORDER, seed.spawn(len(_LINK_ORDER)))}

    def receivers(n, users, eve, target):
        """T x (M+2) x n links of the users, Eve and the target."""
        return np.concatenate([_cn_samples((T, M), (n,), streams[users]),
                               _cn_samples((T, 1), (n,), streams[eve]),
                               _cn_samples((T, 1), (n,), streams[target])],
                              axis=1)

    H_fading = links.los + links.nlos_weight * _cn_samples(
        (T,), (N, L), streams["bs_ris"])
    D_fading = receivers(L, "bs_lu", "bs_eve", "bs_st")
    R_fading = receivers(N, "ris_lu", "ris_eve", "ris_st")
    return EpisodeChannels(H_fading, D_fading, R_fading,
                           links.H_amp * H_fading, links.D_amp * D_fading,
                           links.R_amp * R_fading)
