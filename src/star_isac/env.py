"""Episodic MDP wrapper around the physical layer.

One episode is T quasi-static fading slots. Actions are raw vectors in
[-1, 1]^dim; the environment decodes them into a power-feasible transmit
design plus a feasible surface configuration, computes the closed-form
receive filters, and scores the step with the constraint-aware reward.
Receive filters are never part of the action.
"""
from __future__ import annotations

import numpy as np

from . import physics, star_ris
from .channel import (ChannelRealization, FadingParams, SystemGeometry,
                      generate_episode_channels)
from .physics import SensingParams, StepOutcome

MODES = ("es", "ts")
VARIANTS = ("star", "spliced", "conventional")


class EnvError(RuntimeError):
    pass


def state_features(ch: ChannelRealization) -> np.ndarray:
    """Flattened real/imag parts of the unit-power fading: H, then the
    users' direct and RIS-side links, then Eve's and the target's."""
    D, R = ch.D_fading, ch.R_fading
    z = np.concatenate([ch.H_fading.ravel(), D[:-2].ravel(), R[:-2].ravel(),
                        D[-2], R[-2], D[-1], R[-1]])
    return np.concatenate([z.real, z.imag])


class SecureIsacEnv:
    """STAR-RIS aided ISAC secure-communication environment.

    variant selects the surface architecture: "star" is the coupled
    ES/TS model, "spliced" splits the elements into two reflect-only
    halves facing opposite sides, "conventional" is a reflect-only
    surface (users on the transmission side are reached via the direct
    BS links only). The non-STAR variants are defined for ES mode.
    """

    def __init__(self, geometry: SystemGeometry, fading: FadingParams,
                 sensing: SensingParams, L: int, N: int,
                 noise_power: float, p_max: float, r_min: float,
                 T: int, mode: str = "es", variant: str = "star",
                 seed: int = 0):
        if mode not in MODES:
            raise EnvError(f"unknown mode {mode!r}")
        if variant not in VARIANTS:
            raise EnvError(f"unknown variant {variant!r}")
        if variant != "star" and mode != "es":
            raise EnvError("spliced/conventional baselines are ES-only")
        if variant == "spliced" and N % 2 != 0:
            raise EnvError("spliced baseline needs an even element count")
        self.geometry = geometry
        self.fading = fading
        self.sensing = sensing
        self.L = L
        self.N = N
        self.M = geometry.num_users
        self.noise_power = noise_power
        self.p_max = p_max
        self.r_min = r_min
        self.T = T
        self.mode = mode
        self.variant = variant
        self._seed_seq = np.random.SeedSequence(seed)
        self._beam_len = 2 * L * (L + self.M)
        # per-entry magnitude caps for the beam coordinates: most of the
        # budget goes to the M communication columns, a smaller share to
        # the L radar/artificial-noise columns. With equal caps the L
        # noise columns would dwarf the users' streams with self-made
        # interference for almost every action, leaving the per-user
        # rate floor unreachable in practice.
        self._beam_scale_s = np.sqrt(0.8 * p_max / (L * self.M))
        self._beam_scale_w = np.sqrt(0.2 * p_max / (L * L))
        self.channels = None
        self.t = 0
        self._prev_action = np.zeros(self.action_dim)
        self._prev_reward = 0.0

    # ---- dimensions -----------------------------------------------------
    @property
    def ris_action_dim(self) -> int:
        if self.variant in ("spliced", "conventional"):
            return self.N
        if self.mode == "es":
            return 3 * self.N
        return 2 * self.N + 1

    @property
    def action_dim(self) -> int:
        return self._beam_len + self.ris_action_dim

    @property
    def state_dim(self) -> int:
        n_complex = (self.N * self.L + self.M * (self.L + self.N)
                     + 2 * (self.L + self.N))
        return 2 * n_complex + self.action_dim + 2

    # ---- episode control ------------------------------------------------
    def reset(self) -> np.ndarray:
        episode_seed = self._seed_seq.spawn(1)[0]
        self.channels = generate_episode_channels(
            self.geometry, self.fading, self.L, self.N, self.T, episode_seed)
        self.t = 0
        self._prev_action = np.zeros(self.action_dim)
        self._prev_reward = 0.0
        return self._state(0)

    def _state(self, t: int) -> np.ndarray:
        ch = self.channels[min(t, self.T - 1)]
        return np.concatenate([
            state_features(ch),
            self._prev_action,
            [self._prev_reward / 10.0, t / self.T],
        ])

    # ---- action decoding ------------------------------------------------
    def decode_action(self, raw: np.ndarray):
        """(power-feasible design, surface periods): the surface state is
        a list of (weight, Phi_A, Phi_B) periods, see ``physics``."""
        raw = np.clip(np.asarray(raw, float), -1.0, 1.0)
        if raw.size != self.action_dim:
            raise EnvError(f"action length {raw.size} != {self.action_dim}")
        nb = self._beam_len // 2
        K_raw = (raw[:nb] + 1j * raw[nb:self._beam_len]).reshape(
            self.L, self.L + self.M, order="F")
        K_raw[:, :self.M] *= self._beam_scale_s
        K_raw[:, self.M:] *= self._beam_scale_w
        design = physics.project_power(K_raw, self.M, self.p_max)
        ris_raw = raw[self._beam_len:]
        if self.variant == "star" and self.mode == "ts":
            return design, star_ris.ts_periods(
                star_ris.project_raw_action_ts(ris_raw))
        if self.variant == "star":
            phi_a, phi_b = star_ris.es_coefficients(
                star_ris.project_raw_action_es(ris_raw))
        elif self.variant == "spliced":
            half = self.N // 2
            phases = ris_raw * np.pi
            amp_a = np.concatenate([np.ones(half), np.zeros(self.N - half)])
            phi_a = amp_a * np.exp(1j * phases)
            phi_b = (1.0 - amp_a) * np.exp(1j * phases)
        else:  # conventional: reflect-only, no transmission-side cascade
            phi_a = np.exp(1j * ris_raw * np.pi)
            phi_b = np.zeros(self.N)
        return design, [(1.0, phi_a, phi_b)]

    # ---- stepping ---------------------------------------------------------
    def step(self, raw_action: np.ndarray) -> StepOutcome:
        if self.channels is None:
            raise EnvError("call reset() before step()")
        if self.t >= self.T:
            raise EnvError("episode finished; call reset()")
        design, periods = self.decode_action(raw_action)
        lu, eve, st, echo = physics.evaluate(
            self.channels[self.t], periods, design, self.noise_power,
            self.sensing)
        sec = np.array([physics.secrecy_rate(*r) for r in zip(lu, eve, st)])
        sum_sec = float(sec.sum())
        r = physics.reward(echo, lu, sum_sec, self.r_min, self.sensing.kappa_t)

        self.t += 1
        done = self.t >= self.T
        self._prev_action = np.clip(np.asarray(raw_action, float), -1.0, 1.0)
        self._prev_reward = r
        next_state = self._state(self.t)
        return StepOutcome(
            reward=r,
            lu_rates=lu,
            eve_rates=eve,
            st_rates=st,
            secrecy_rates=sec,
            sum_secrecy_rate=sum_sec,
            echo_snr=echo,
            snr_feasible=echo > self.sensing.kappa_t,
            rate_feasible=bool(np.all(lu >= self.r_min)),
            next_state=next_state,
            done=done,
        )
