"""Channel generation: urban path loss, steering vectors, Rician fading.

All quantities are linear unless the name says dB. One master seed is
split into independent per-link streams, so adding a link never perturbs
the draws of another.
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
    """Node positions in meters. Side A is the reflection (sensing) half
    space, side B the transmission (communication) half space."""

    bs_position: np.ndarray
    ris_position: np.ndarray
    lu_positions: tuple
    eve_position: np.ndarray
    st_position: np.ndarray
    lu_side: str = "B"
    st_side: str = "A"

    def __post_init__(self):
        object.__setattr__(self, "bs_position", np.asarray(self.bs_position, float))
        object.__setattr__(self, "ris_position", np.asarray(self.ris_position, float))
        object.__setattr__(
            self, "lu_positions", tuple(np.asarray(p, float) for p in self.lu_positions)
        )
        object.__setattr__(self, "eve_position", np.asarray(self.eve_position, float))
        object.__setattr__(self, "st_position", np.asarray(self.st_position, float))
        if self.st_side != "A":
            raise ChannelError("sensed target must sit on the reflection side A")
        if self.lu_side != "B":
            raise ChannelError("users must sit on the transmission side B")
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
    derived from the same frequency.
    """

    rician_factor: float
    carrier_freq_ghz: float
    n_x: int
    d_r: float = 0.0  # 0 -> half wavelength
    d_0: float = 0.0
    z_r: float = 1.5

    def __post_init__(self):
        if self.rician_factor < 0:
            raise ChannelError("Rician factor must be nonnegative")
        if self.carrier_freq_ghz <= 0:
            raise ChannelError("carrier frequency must be positive")
        if self.n_x <= 0:
            raise ChannelError("n_x must be positive")
        lam = self.wavelength
        if self.d_r == 0.0:
            object.__setattr__(self, "d_r", lam / 2.0)
        if self.d_0 == 0.0:
            object.__setattr__(self, "d_0", lam / 2.0)

    @property
    def wavelength(self) -> float:
        return C_LIGHT / (self.carrier_freq_ghz * 1e9)


@dataclass
class ChannelRealization:
    """All complex channel coefficients for one timeslot, each link
    stored once as unit-power fading times its path-loss amplitude.

    Receivers are stacked in the order users, Eve, sensing target: row k
    of D_fading is receiver k's direct BS link and row k of R_fading its
    RIS-side link. The fading feeds the observation vector so feature
    scales stay O(1); the properties D, R and H are the scaled links.
    """

    slot: int
    H_fading: np.ndarray          # N x L, BS -> RIS
    D_fading: np.ndarray          # (M+2) x L, BS -> receiver
    R_fading: np.ndarray          # (M+2) x N, RIS -> receiver
    H_amp: float = 1.0
    D_amp: np.ndarray = 1.0       # (M+2) x 1 column, or a scalar
    R_amp: np.ndarray = 1.0

    @property
    def H(self) -> np.ndarray:
        return self.H_amp * self.H_fading

    @property
    def D(self) -> np.ndarray:
        return self.D_amp * self.D_fading

    @property
    def R(self) -> np.ndarray:
        return self.R_amp * self.R_fading


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


def _cn_samples(shape, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. circularly-symmetric complex Gaussian, unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def rician_channel(params: FadingParams, loss_db: float, N: int, L: int,
                   beta_b: float, beta_r: float, zeta_r: float,
                   rng: np.random.Generator) -> np.ndarray:
    """N x L Rician matrix: rank-1 LoS outer product plus i.i.d. NLoS,
    scaled by the linear amplitude of the loss."""
    F = params.rician_factor
    f_r = steering_ris(N, beta_r, zeta_r, params.d_r, params.wavelength, params.n_x)
    f_b = steering_bs(L, beta_b, params.d_0, params.wavelength)
    los = np.outer(f_r, f_b)
    nlos = _cn_samples((N, L), rng)
    mix = np.sqrt(F / (F + 1.0)) * los + np.sqrt(1.0 / (F + 1.0)) * nlos
    return loss_db_to_amplitude(loss_db) * mix


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


def generate_episode_channels(geometry: SystemGeometry, params: FadingParams,
                              L: int, N: int, T: int, seed) -> list:
    """One independent ChannelRealization per slot.

    BS->RIS is Rician; all other links are NLoS-only Rayleigh with their
    own path loss. Channel draws per link come from independent child
    streams of the given seed.
    """
    if T < 1:
        raise ChannelError("T must be >= 1")
    M = geometry.num_users
    losses = link_loss_table(geometry, params)
    beta_b, beta_r, zeta_r = geometry_angles(geometry)

    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    streams = {name: np.random.default_rng(child)
               for name, child in zip(_LINK_ORDER, ss.spawn(len(_LINK_ORDER)))}

    def column(*losses_db):
        return np.array([[loss_db_to_amplitude(x)] for x in losses_db])

    H_amp = loss_db_to_amplitude(losses["bs_ris"])
    D_amp = column(*losses["bs_lu"], losses["bs_eve"], losses["bs_st"])
    R_amp = column(*losses["ris_lu"], losses["ris_eve"], losses["ris_st"])

    out = []
    for t in range(T):
        H = rician_channel(
            params, 0.0, N, L, beta_b, beta_r, zeta_r, streams["bs_ris"])
        d_lu = [_cn_samples(L, streams["bs_lu"]) for _ in range(M)]
        r_lu = [_cn_samples(N, streams["ris_lu"]) for _ in range(M)]
        d_eve = _cn_samples(L, streams["bs_eve"])
        r_eve = _cn_samples(N, streams["ris_eve"])
        d_st = _cn_samples(L, streams["bs_st"])
        r_st = _cn_samples(N, streams["ris_st"])
        out.append(ChannelRealization(
            slot=t, H_fading=H,
            D_fading=np.array([*d_lu, d_eve, d_st]),
            R_fading=np.array([*r_lu, r_eve, r_st]),
            H_amp=H_amp, D_amp=D_amp, R_amp=R_amp))
    return out
