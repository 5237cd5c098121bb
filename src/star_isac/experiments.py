"""Scenario configuration, baseline construction, training drivers,
sweeps, and CSV emission.

Config files are flat dotted-key text (``section.key = value``); unknown
keys are errors. dBm/dB inputs are converted to linear exactly once, at
load. All CSV floats are serialized with 17 significant digits so
summaries are recomputable bit-for-bit from the raw rows.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import ddpg, sac
from .channel import FadingParams, SystemGeometry, db_to_linear, dbm_to_watt
from .env import SecureIsacEnv
from .physics import SensingParams

FINAL_WINDOW = 50  # episodes averaged for summary statistics


class ConfigError(ValueError):
    pass


# Users and eavesdropper sit in the immediate vicinity of the surface
# (meters away), so the surface cascade dominates the long direct links
# from the base station and the surface architecture actually matters.
# The sensing target sits several meters out on the reflection side: its
# echo is then dominated by the direct base-station path, so serving the
# sensing constraint pulls transmit power away from the users' cascade
# and the sensing/communication trade-off is real. Side A (reflection,
# sensing target) faces the base station; side B (transmission, users
# and eavesdropper) faces away.
DEFAULT_GEOMETRY = {
    "bs": (0.0, 0.0, 5.0),
    "ris": (150.0, 150.0, 3.0),
    "lus": ((150.6, 150.8, 1.5), (150.8, 150.4, 1.5)),
    "eve": (154.5, 154.5, 1.5),
    "st": (145.5, 146.0, 1.5),
}


@dataclass(frozen=True)
class ScenarioConfig:
    L: int = 4
    N: int = 12
    M: int = 2
    protocol: str = "es"              # es | ts
    algorithm: str = "sac"            # ddpg | sac
    baseline: str = "star"            # star | spliced | conventional
    p0_dbm: float = 36.0
    noise_dbm: float = -90.0
    r0: float = 1.0                   # bps/Hz
    kappa_db: float = 1.0
    T: int = 30
    episodes: int = 300
    seeds: tuple = (0, 1, 2)
    lr: float = 1e-4
    gamma: float = 0.99
    batch_size: int = 64
    buffer_capacity: int = 1_000_000
    soft_rate: float = 5e-4
    hidden_units: int = 256
    hidden_layers: int = 2
    rician_db: float = 3.0
    freq_ghz: float = 2.0
    n_x: int = 4
    sensing_slots: int = 30
    sensing_tau: float = 3.0e4        # compound echo magnitude
    geometry: dict = field(default_factory=lambda: dict(DEFAULT_GEOMETRY))

    def __post_init__(self):
        for key, ok, need in _NUMERIC_CHECKS:
            value = getattr(self, key)
            if not ok(value):
                raise ConfigError(f"{key} = {value!r}: {need}")
        if self.buffer_capacity < 10 * self.batch_size:
            raise ConfigError("buffer_capacity must hold the 10 batches "
                              "that updates wait for (10 * batch_size)")
        if self.protocol not in ("es", "ts"):
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if self.algorithm not in ("ddpg", "sac"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.baseline not in ("star", "spliced", "conventional"):
            raise ConfigError(f"unknown baseline {self.baseline!r}")
        if self.baseline != "star" and self.protocol != "es":
            raise ConfigError(f"baseline {self.baseline!r} is ES-only")
        if self.baseline == "spliced" and self.N % 2:
            raise ConfigError("baseline 'spliced' needs an even N")
        if not self.seeds:
            raise ConfigError("at least one seed required")
        if not all(_is_int(s) and s >= 0 for s in self.seeds):
            raise ConfigError(f"seeds = {self.seeds!r}: need integers >= 0")
        if self.N % self.n_x != 0:
            raise ConfigError("n_x must divide N")
        if len(self.geometry["lus"]) != self.M:
            raise ConfigError("geometry must list M user positions")

    # linear-unit views
    @property
    def p0_watt(self) -> float:
        return dbm_to_watt(self.p0_dbm)

    @property
    def noise_watt(self) -> float:
        return dbm_to_watt(self.noise_dbm)

    @property
    def kappa_linear(self) -> float:
        return db_to_linear(self.kappa_db)

    @property
    def rician_linear(self) -> float:
        return db_to_linear(self.rician_db)

    def scenario_id(self) -> str:
        text = repr(sorted(self.as_flat_dict().items()))
        return hashlib.sha1(text.encode()).hexdigest()[:12]

    def as_flat_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "geometry":
                out["geometry.bs"] = _fmt_point(v["bs"])
                out["geometry.ris"] = _fmt_point(v["ris"])
                out["geometry.lus"] = ";".join(_fmt_point(p) for p in v["lus"])
                out["geometry.eve"] = _fmt_point(v["eve"])
                out["geometry.st"] = _fmt_point(v["st"])
            elif f.name == "seeds":
                out["seeds"] = ",".join(str(s) for s in v)
            else:
                out[f.name] = str(v)
        return out


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and math.isfinite(v))


# (key, test, requirement) for every numeric ScenarioConfig field
_NUMERIC_CHECKS = (
    *((k, lambda v: _is_int(v) and v >= 1, "need an integer >= 1")
      for k in ("L", "N", "M", "T", "episodes", "batch_size",
                "buffer_capacity", "hidden_units", "n_x", "sensing_slots")),
    ("hidden_layers", lambda v: _is_int(v) and v >= 0,
     "need an integer >= 0"),
    *((k, _is_real, "need a finite number")
      for k in ("p0_dbm", "noise_dbm", "kappa_db", "rician_db")),
    *((k, lambda v: _is_real(v) and v > 0, "need a finite number > 0")
      for k in ("lr", "freq_ghz", "sensing_tau")),
    ("r0", lambda v: _is_real(v) and v >= 0, "need a finite number >= 0"),
    ("gamma", lambda v: _is_real(v) and 0 <= v <= 1, "need 0 <= gamma <= 1"),
    ("soft_rate", lambda v: _is_real(v) and 0 < v <= 1,
     "need 0 < soft_rate <= 1"),
)


def _fmt_point(p) -> str:
    return ",".join(f"{x:g}" for x in p)


def _parse_point(s: str) -> tuple:
    return tuple(float(x) for x in s.split(","))


_INT_KEYS = {"L", "N", "M", "T", "episodes", "batch_size", "buffer_capacity",
             "hidden_units", "hidden_layers", "n_x", "sensing_slots"}
_FLOAT_KEYS = {"p0_dbm", "noise_dbm", "r0", "kappa_db", "lr", "gamma",
               "soft_rate", "rician_db", "freq_ghz", "sensing_tau"}
_STR_KEYS = {"protocol", "algorithm", "baseline"}
_GEOM_KEYS = {"geometry.bs", "geometry.ris", "geometry.lus", "geometry.eve",
              "geometry.st"}


def parse_config(text: str, **overrides) -> ScenarioConfig:
    """Parse flat dotted-key config text. '#' starts a comment; unknown
    keys fail fast."""
    kwargs: dict = {}
    geometry = dict(DEFAULT_GEOMETRY)
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in _INT_KEYS:
            kwargs[key] = int(value)
        elif key in _FLOAT_KEYS:
            kwargs[key] = float(value)
        elif key in _STR_KEYS:
            kwargs[key] = value
        elif key == "seeds":
            kwargs["seeds"] = tuple(int(s) for s in value.split(","))
        elif key in _GEOM_KEYS:
            name = key.split(".", 1)[1]
            if name == "lus":
                geometry["lus"] = tuple(_parse_point(p)
                                        for p in value.split(";") if p)
            else:
                geometry[name] = _parse_point(value)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    kwargs["geometry"] = geometry
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


def load_config(path, **overrides) -> ScenarioConfig:
    return parse_config(Path(path).read_text(), **overrides)


# ---------------------------------------------------------------------------
# environment / agent construction

def build_geometry(cfg: ScenarioConfig) -> SystemGeometry:
    g = cfg.geometry
    return SystemGeometry(
        bs_position=g["bs"], ris_position=g["ris"], lu_positions=g["lus"],
        eve_position=g["eve"], st_position=g["st"])


def build_baseline(cfg: ScenarioConfig, seed: int) -> SecureIsacEnv:
    """Environment for the configured surface variant; "star" is the
    full coupled model, the two baselines reduce its degrees of
    freedom."""
    fading = FadingParams(
        rician_factor=cfg.rician_linear, carrier_freq_ghz=cfg.freq_ghz,
        n_x=cfg.n_x)
    sensing = SensingParams(
        tau=cfg.sensing_tau, P=cfg.sensing_slots, sigma_s2=cfg.noise_watt,
        kappa_t=cfg.kappa_linear)
    return SecureIsacEnv(
        geometry=build_geometry(cfg), fading=fading, sensing=sensing,
        L=cfg.L, N=cfg.N, noise_power=cfg.noise_watt, p_max=cfg.p0_watt,
        r_min=cfg.r0, T=cfg.T, mode=cfg.protocol, variant=cfg.baseline,
        seed=seed)


def build_agent(cfg: ScenarioConfig, env: SecureIsacEnv, seed: int):
    hidden = tuple([cfg.hidden_units] * cfg.hidden_layers)
    common = dict(hidden=hidden, lr=cfg.lr, gamma=cfg.gamma,
                  soft_rate=cfg.soft_rate, buffer_capacity=cfg.buffer_capacity,
                  batch_size=cfg.batch_size, seed=seed)
    if cfg.algorithm == "ddpg":
        horizon = max(int(0.8 * cfg.episodes * cfg.T), 1)
        return ddpg.DdpgAgent(env.state_dim, env.action_dim,
                              noise_decay_steps=horizon, **common)
    return sac.SacAgent(env.state_dim, env.action_dim, **common)


def _trainer(cfg: ScenarioConfig):
    return ddpg.train if cfg.algorithm == "ddpg" else sac.train


# ---------------------------------------------------------------------------
# CSV output

def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def episode_columns(M: int):
    return (["scenario_id", "seed", "episode", "step", "reward",
             "sum_secrecy_rate"]
            + [f"lu_rate_{m}" for m in range(M)]
            + ["echo_snr", "snr_feasible", "rate_feasible"])


def run_seed(cfg: ScenarioConfig, seed: int):
    """Train one (config, seed) pair; returns (rows, per-episode wall ms)."""
    env = build_baseline(cfg, seed=2 * seed + 1)
    agent = build_agent(cfg, env, seed=2 * seed)
    sid = cfg.scenario_id()
    rows = []
    episode_ms = []
    t0 = time.perf_counter()
    current_episode = 0
    for rec in _trainer(cfg)(env, agent, cfg.episodes):
        if rec["episode"] != current_episode:
            now = time.perf_counter()
            episode_ms.append((now - t0) * 1e3)
            t0 = now
            current_episode = rec["episode"]
        rows.append([sid, seed, rec["episode"], rec["step"], rec["reward"],
                     rec["sum_secrecy_rate"], *rec["lu_rates"],
                     rec["echo_snr"], int(rec["snr_feasible"]),
                     int(rec["rate_feasible"])])
    episode_ms.append((time.perf_counter() - t0) * 1e3)
    return rows, episode_ms


def episode_returns(rows) -> np.ndarray:
    """Per-episode summed reward from raw step rows (single seed)."""
    by_ep: dict = {}
    for r in rows:
        by_ep.setdefault(r[2], 0.0)
        by_ep[r[2]] += r[4]
    return np.array([by_ep[e] for e in sorted(by_ep)])


def episode_secrecy(rows) -> np.ndarray:
    by_ep: dict = {}
    for r in rows:
        by_ep.setdefault(r[2], []).append(r[5])
    return np.array([np.mean(by_ep[e]) for e in sorted(by_ep)])


def seed_summary(rows) -> dict:
    ret = episode_returns(rows)
    sec = episode_secrecy(rows)
    w = min(FINAL_WINDOW, len(ret))
    return {
        "final_return": float(np.mean(ret[-w:])),
        "first_return": float(np.mean(ret[:w])),
        "final_secrecy": float(np.mean(sec[-w:])),
    }


def run_scenario(cfg: ScenarioConfig, out_dir) -> dict:
    """Train every configured seed; writes episodes.csv, summary.csv,
    timing.csv, and config.echo under out_dir.

    Wall-clock timings live in their own file so the training CSVs stay
    byte-identical across repeat runs of the same seeds.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sid = cfg.scenario_id()
    all_rows = {}
    timings = {}
    for seed in cfg.seeds:
        rows, episode_ms = run_seed(cfg, seed)
        all_rows[seed] = rows
        timings[seed] = episode_ms

    with open(out / "episodes.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(episode_columns(cfg.M))
        for seed in cfg.seeds:
            for row in all_rows[seed]:
                w.writerow([_fmt(x) for x in row])

    per_seed = {seed: seed_summary(rows) for seed, rows in all_rows.items()}
    finals = np.array([s["final_return"] for s in per_seed.values()])
    secs = np.array([s["final_secrecy"] for s in per_seed.values()])
    summary = {
        "scenario_id": sid,
        "final_return_mean": float(np.mean(finals)),
        "final_return_std": float(np.std(finals)),
        "final_secrecy_mean": float(np.mean(secs)),
        "final_secrecy_std": float(np.std(secs)),
        "per_seed": per_seed,
    }
    with open(out / "summary.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["scenario_id", "seed", "final_return", "first_return",
                    "final_secrecy"])
        for seed in cfg.seeds:
            s = per_seed[seed]
            w.writerow([sid, seed, _fmt(s["final_return"]),
                        _fmt(s["first_return"]), _fmt(s["final_secrecy"])])
        w.writerow([sid, "mean", _fmt(summary["final_return_mean"]),
                    "", _fmt(summary["final_secrecy_mean"])])

    with open(out / "timing.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["scenario_id", "seed", "episode", "wall_ms"])
        for seed in cfg.seeds:
            for ep, ms in enumerate(timings[seed]):
                w.writerow([sid, seed, ep, _fmt(ms)])

    with open(out / "config.echo", "w") as f:
        for k, v in sorted(cfg.as_flat_dict().items()):
            f.write(f"{k} = {v}\n")
    return summary


SWEEP_AXES = {
    "lr": ("lr", float),
    "N": ("N", int),
    "P_0": ("p0_dbm", float),
    "kappa_t": ("kappa_db", float),
    "algorithm": ("algorithm", str),
    "protocol": ("protocol", str),
    "baseline": ("baseline", str),
}


def sweep(cfg: ScenarioConfig, axis: str, values, out_dir) -> list:
    """One run_scenario per axis value; long-format sweep.csv keyed by
    the axis value."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unsupported sweep axis {axis!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    field_name, cast = SWEEP_AXES[axis]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = []
    for value in values:
        sub_cfg = replace(cfg, **{field_name: cast(value)})
        sub_dir = out / f"{axis}_{value}"
        summary = run_scenario(sub_cfg, sub_dir)
        for seed, s in summary["per_seed"].items():
            results.append({"axis": axis, "value": value, "seed": seed,
                            **{k: v for k, v in s.items()}})
        results.append({"axis": axis, "value": value, "seed": "mean",
                        "final_return": summary["final_return_mean"],
                        "first_return": "",
                        "final_secrecy": summary["final_secrecy_mean"]})
    with open(out / "sweep.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["axis", "value", "seed", "final_return", "first_return",
                    "final_secrecy"])
        for r in results:
            w.writerow([r["axis"], _fmt(r["value"]), r["seed"],
                        _fmt(r["final_return"]), _fmt(r["first_return"]),
                        _fmt(r["final_secrecy"])])
    return results


def measure_runtime(cfg: ScenarioConfig, episodes: int = 45,
                    warmup_episodes: int = 25) -> float:
    """Mean wall-clock milliseconds per training episode, excluding the
    leading episodes during which the replay buffer is still filling and
    no gradient updates run. Uses the first configured seed."""
    timed_cfg = replace(cfg, episodes=episodes,
                        seeds=(cfg.seeds[0],))
    _, episode_ms = run_seed(timed_cfg, timed_cfg.seeds[0])
    return float(np.mean(episode_ms[warmup_episodes:]))
