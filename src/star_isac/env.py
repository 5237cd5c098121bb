"""Episodic MDP wrapper around the physical layer.

One episode is T quasi-static fading slots. Actions are raw vectors in
[-1, 1]^dim; the environment decodes them into a power-feasible beam
matrix K plus a feasible surface configuration, and scores the step with
the constraint-aware reward, the echo SNR taken at the closed-form
receive filters. Receive filters are never part of the action. The env
trusts its ``ScenarioConfig``, checked at load, and checks only what a
run can get wrong: step order, action shape and finiteness.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import physics, star_ris
from .channel import (EpisodeChannels, generate_episode_channels,
                      link_constants)
from .physics import SensingParams, StepOutcome

if TYPE_CHECKING:
    from .experiments import ScenarioConfig


class EnvError(RuntimeError):
    pass


class NonFiniteAction(EnvError):
    """An action entry that is NaN or infinite, with the slot it was
    given at."""

    def __init__(self, step: int, entry: int, value: float):
        super().__init__(f"non-finite action at step {step}: "
                         f"entry {entry} is {value}")
        self.step, self.entry, self.value = step, entry, value


def state_features(ch: EpisodeChannels) -> np.ndarray:
    """(T, F) matrix, one row per slot: the flattened real/imag parts of
    the unit-power fading, H, then the users' direct and RIS-side links,
    then Eve's and the target's."""
    H, D, R = ch.H_fading, ch.D_fading, ch.R_fading
    T = len(D)
    z = np.concatenate([H.reshape(T, -1), D[:, :-2].reshape(T, -1),
                        R[:, :-2].reshape(T, -1), D[:, -2], R[:, -2],
                        D[:, -1], R[:, -1]], axis=1)
    return np.concatenate([z.real, z.imag], axis=1)


class SecureIsacEnv:
    """STAR-RIS aided ISAC secure-communication environment of one
    scenario, its episodes' channels drawn from ``seed``.

    ``variant`` is the config's baseline ("star", "spliced" or
    "conventional") and ``mode`` its protocol ("es" or "ts"); the
    supported pairs are the keys of ``star_ris.SURFACES``.
    """

    def __init__(self, cfg: ScenarioConfig, seed: int):
        self.L = L = cfg.L
        self.N = cfg.N
        self.M = M = cfg.M
        self.T = cfg.T
        self.mode = cfg.protocol
        self.variant = cfg.baseline
        self.noise_power = cfg.noise_watt
        self.p_max = p_max = cfg.p0_watt
        self.r_min = cfg.r0
        self.sensing = SensingParams(
            tau=cfg.sensing_tau, P=cfg.sensing_slots,
            sigma_s2=cfg.noise_watt, kappa_t=cfg.kappa_linear)
        _, per_element, extra = star_ris.SURFACES[self.variant, self.mode]
        self.ris_action_dim = per_element * cfg.N + extra
        self._seed_seq = np.random.SeedSequence(seed)
        self._links = link_constants(cfg)
        self._beam_len = 2 * L * (L + M)
        # per-entry magnitude caps for the beam coordinates, one per
        # column: most of the budget goes to the M communication columns,
        # a smaller share to the L radar/artificial-noise columns. With
        # equal caps the L noise columns would dwarf the users' streams
        # with self-made interference for almost every action, leaving
        # the per-user rate floor unreachable in practice.
        self._beam_scale = np.repeat(
            [np.sqrt(0.8 * p_max / (L * M)),
             np.sqrt(0.2 * p_max / (L * L))], [M, L])
        # the episode's state, set by reset
        self.channels = None

    # ---- dimensions -----------------------------------------------------
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
        self.channels = generate_episode_channels(self._links, self.T,
                                                  episode_seed)
        self._features = state_features(self.channels)
        self._D_conj = self.channels.D.conj()
        self._R_conj = self.channels.R.conj()
        self.t = 0
        self._prev_action = np.zeros(self.action_dim)
        self._prev_reward = 0.0
        return self._state(0)

    def _state(self, t: int) -> np.ndarray:
        return np.concatenate([
            self._features[min(t, self.T - 1)],
            self._prev_action,
            [self._prev_reward / 10.0, t / self.T],
        ])

    # ---- action decoding ------------------------------------------------
    def decode_action(self, raw: np.ndarray):
        """(K, surface periods) for a raw action in [-1, 1]^action_dim, of
        the shape and range ``step`` checks and clips it to. K is the
        power-feasible L x (M+L) beam matrix, M communication columns then
        L radar columns, in column-major order; the surface state is a
        list of (weight, Phi_A, Phi_B) periods, see ``physics``."""
        nb = self._beam_len // 2
        # column-major: the products with K must run in this layout, as a
        # row-major copy of K moves the last bits of the rates
        K_raw = (raw[:nb] + 1j * raw[nb:self._beam_len]).reshape(
            self.L, self.L + self.M, order="F")
        K_raw *= self._beam_scale
        return (physics.project_power(K_raw, self.p_max),
                star_ris.decode(self.variant, self.mode, raw[self._beam_len:]))

    # ---- stepping ---------------------------------------------------------
    def step(self, raw_action: np.ndarray) -> StepOutcome:
        if self.channels is None:
            raise EnvError("call reset() before step()")
        if self.t >= self.T:
            raise EnvError("episode finished; call reset()")
        raw = np.asarray(raw_action, float)
        if raw.shape != (self.action_dim,):
            raise EnvError(f"action shape {raw.shape} != ({self.action_dim},)")
        # any NaN or inf entry makes raw.raw non-finite, and so does an
        # overflow of finite entries: only then are the entries searched
        if not math.isfinite(np.vdot(raw, raw)):
            finite = np.isfinite(raw)
            if not finite.all():
                bad = int(np.argmin(finite))
                raise NonFiniteAction(self.t, bad, float(raw[bad]))
        # np.clip on finite input, without its Python-level overhead
        raw = np.maximum(raw, -1.0)
        np.minimum(raw, 1.0, out=raw)
        K, periods = self.decode_action(raw)
        t = self.t
        lu, eve, st, echo = physics.evaluate(
            self.channels.H[t], self._D_conj[t], self._R_conj[t], periods, K,
            self.noise_power, self.sensing)
        out = physics.score(lu, eve, st, echo, self.r_min,
                            self.sensing.kappa_t)

        self.t += 1
        out.done = self.t >= self.T
        self._prev_action = raw
        self._prev_reward = out.reward
        out.next_state = self._state(self.t)
        return out
