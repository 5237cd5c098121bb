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
geometry and fading parameters determine, the path-loss amplitudes and
the weights of the BS->RIS LoS and NLoS terms, is a ``LinkConstants``
record (``link_constants``), computed once and required by
``generate_episode_channels``, which reads the sizes L, N and M from it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

C_LIGHT = 299_792_458.0


class ChannelError(ValueError):
    pass


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def dbm_to_watt(x_dbm: float) -> float:
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class SystemGeometry:
    """Node positions in meters. The sensing target is served from the
    surface's reflection side A, the users and Eve from its transmission
    side B."""

    bs_position: np.ndarray
    ris_position: np.ndarray
    lu_positions: tuple
    eve_position: np.ndarray
    st_position: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bs_position", np.asarray(self.bs_position, float))
        object.__setattr__(self, "ris_position", np.asarray(self.ris_position, float))
        object.__setattr__(
            self, "lu_positions", tuple(np.asarray(p, float) for p in self.lu_positions)
        )
        object.__setattr__(self, "eve_position", np.asarray(self.eve_position, float))
        object.__setattr__(self, "st_position", np.asarray(self.st_position, float))
        pts = [self.bs_position, self.ris_position, *self.lu_positions,
               self.eve_position, self.st_position]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if np.linalg.norm(pts[i] - pts[j]) <= 0.0:
                    raise ChannelError("coincident node positions")

    @property
    def num_users(self) -> int:
        return len(self.lu_positions)


@dataclass(frozen=True)
class FadingParams:
    """Small-scale fading and array parameters.

    rician_factor is linear (convert from dB before constructing).
    carrier_freq_ghz feeds the loss formulas directly; the wavelength is
    derived from the same frequency, and both arrays space their elements
    half a wavelength apart.
    """

    rician_factor: float
    carrier_freq_ghz: float
    n_x: int

    def __post_init__(self):
        if self.rician_factor < 0:
            raise ChannelError("Rician factor must be nonnegative")
        if self.carrier_freq_ghz <= 0:
            raise ChannelError("carrier frequency must be positive")
        if self.n_x <= 0:
            raise ChannelError("n_x must be positive")

    @property
    def wavelength(self) -> float:
        return C_LIGHT / (self.carrier_freq_ghz * 1e9)


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
    if d <= 0 or f1 <= 0:
        raise ChannelError("distance and frequency must be positive")
    return 20.0 * np.log10(f1) + 22.0 * np.log10(d) + 28.0


def path_loss_nlos(d: float, f1: float, z_r: float = 1.5) -> float:
    """NLoS loss in dB, floored at the LoS loss."""
    if d <= 0 or f1 <= 0:
        raise ChannelError("distance and frequency must be positive")
    nlos = 26.0 * np.log10(f1) + 36.7 * np.log10(d) + 22.7 - 0.3 * (z_r - 1.5)
    return max(nlos, path_loss_los(d, f1))


def loss_db_to_amplitude(loss_db: float) -> float:
    """Linear amplitude scaling sqrt(10^(-loss/10))."""
    return np.sqrt(10.0 ** (-loss_db / 10.0))


def steering_bs(L: int, beta_b: float, d_0: float, lam: float) -> np.ndarray:
    """ULA steering vector at the BS, first entry 1+0j."""
    if L < 1:
        raise ChannelError("L must be >= 1")
    l = np.arange(L)
    return np.exp(1j * 2.0 * np.pi * l * d_0 * np.sin(beta_b) / lam)


def steering_ris(N: int, beta_r: float, zeta_r: float, d_r: float,
                 lam: float, n_x: int) -> np.ndarray:
    """UPA steering vector at the RIS with row-major planar indexing."""
    if n_x <= 0:
        raise ChannelError("n_x must be positive")
    if N % n_x != 0:
        raise ChannelError("n_x must divide N")
    n = np.arange(N)
    row = n // n_x
    col = n % n_x
    eta1 = np.sin(beta_r) * np.sin(zeta_r)
    eta2 = np.sin(beta_r) * np.cos(zeta_r)
    return np.exp(1j * 2.0 * np.pi * d_r * (row * eta1 + col * eta2) / lam)


def _cn_samples(lead: tuple, block: tuple,
                rng: np.random.Generator) -> np.ndarray:
    """i.i.d. circularly-symmetric complex Gaussian, unit variance, of
    shape lead + block, from one draw: for each lead index, the block's
    real parts, then its imaginary parts."""
    x = rng.standard_normal((*lead, 2, *block))
    at = (slice(None),) * len(lead)
    return (x[at + (0,)] + 1j * x[at + (1,)]) / np.sqrt(2.0)


def geometry_angles(geometry: SystemGeometry):
    """Azimuth at the BS and (elevation, azimuth) at the RIS for the
    BS->RIS link, derived from positions."""
    v = geometry.ris_position - geometry.bs_position
    d = np.linalg.norm(v)
    beta_b = np.arctan2(v[1], v[0])
    # angles seen from the RIS looking back at the BS
    w = -v
    beta_r = np.arcsin(np.clip(w[2] / d, -1.0, 1.0))
    zeta_r = np.arctan2(w[1], w[0])
    return beta_b, beta_r, zeta_r


# (link name, endpoint attr) pairs define the per-link RNG stream order;
# keep stable so seeds reproduce across versions.
_LINK_ORDER = ("bs_ris", "bs_lu", "ris_lu", "bs_eve", "ris_eve", "bs_st", "ris_st")


def link_loss_table(geometry: SystemGeometry, params: FadingParams) -> dict:
    """dB losses per link. BS->RIS uses the LoS formula (elevated RIS);
    everything else is NLoS with the receiver's own height."""
    f1 = params.carrier_freq_ghz
    bs, ris = geometry.bs_position, geometry.ris_position

    def nlos(a, b):
        return path_loss_nlos(np.linalg.norm(a - b), f1, z_r=b[2])

    table = {
        "bs_ris": path_loss_los(np.linalg.norm(bs - ris), f1),
        "bs_lu": [nlos(bs, p) for p in geometry.lu_positions],
        "ris_lu": [nlos(ris, p) for p in geometry.lu_positions],
        "bs_eve": nlos(bs, geometry.eve_position),
        "ris_eve": nlos(ris, geometry.eve_position),
        "bs_st": nlos(bs, geometry.st_position),
        "ris_st": nlos(ris, geometry.st_position),
    }
    return table


@dataclass(frozen=True)
class LinkConstants:
    """The parts of every episode's links that the geometry and the
    fading parameters fix: the weighted LoS term and the NLoS weight of
    the Rician BS->RIS link, and each link's path-loss amplitude,
    receivers stacked as users, Eve, target."""

    los: np.ndarray               # N x L, sqrt(F/(F+1)) f_r f_b^T
    nlos_weight: float            # sqrt(1/(F+1))
    H_amp: float
    D_amp: np.ndarray             # (M+2) x 1
    R_amp: np.ndarray             # (M+2) x 1


def link_constants(geometry: SystemGeometry, params: FadingParams, L: int,
                   N: int) -> LinkConstants:
    """The ``LinkConstants`` of a geometry, fading parameters, L and N."""
    losses = link_loss_table(geometry, params)
    F = params.rician_factor
    lam = params.wavelength
    beta_b, beta_r, zeta_r = geometry_angles(geometry)
    f_r = steering_ris(N, beta_r, zeta_r, lam / 2.0, lam, params.n_x)
    f_b = steering_bs(L, beta_b, lam / 2.0, lam)

    def column(*losses_db):
        return np.array([[loss_db_to_amplitude(x)] for x in losses_db])

    return LinkConstants(
        los=np.sqrt(F / (F + 1.0)) * np.outer(f_r, f_b),
        nlos_weight=np.sqrt(1.0 / (F + 1.0)),
        H_amp=loss_db_to_amplitude(losses["bs_ris"]),
        D_amp=column(*losses["bs_lu"], losses["bs_eve"], losses["bs_st"]),
        R_amp=column(*losses["ris_lu"], losses["ris_eve"], losses["ris_st"]))


def generate_episode_channels(links: LinkConstants, T: int,
                              seed) -> EpisodeChannels:
    """An independent channel draw per slot, for all T slots at once,
    of the links whose constants are ``links``.

    BS->RIS is Rician; all other links are NLoS-only Rayleigh with their
    own path loss. Channel draws per link come from independent child
    streams of the given seed, one draw per stream for the whole episode
    (see the module docstring for the order).
    """
    if T < 1:
        raise ChannelError("T must be >= 1")
    N, L = links.los.shape
    M = len(links.D_amp) - 2

    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    streams = {name: np.random.default_rng(child)
               for name, child in zip(_LINK_ORDER, ss.spawn(len(_LINK_ORDER)))}

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
