"""Scenario configuration, baseline construction, training drivers,
sweeps, and CSV emission.

Config files are flat ``key = value`` text, each key in its one text
form from ``KEYS``; unknown keys are errors. dBm/dB inputs are converted
to linear exactly once, at load. A ``ScenarioConfig`` checks every value
and linear view when it is made, each error starting ``<key> =
<value>``; the layers beneath trust it. All CSV floats are serialized
with 17 significant digits so summaries are recomputable bit-for-bit
from the raw rows.
"""
from __future__ import annotations

import csv
import hashlib
import math
import numbers
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import ddpg, sac, star_ris
from .env import SecureIsacEnv
from .rl_core import WARMUP_BATCHES

FINAL_WINDOW = 50  # episodes averaged for summary statistics

# algorithm -> (module whose ``train`` runs it, agent class)
AGENTS = {"ddpg": (ddpg, ddpg.DdpgAgent), "sac": (sac, sac.SacAgent)}


class ConfigError(ValueError):
    pass


class RunError(RuntimeError):
    """A training run produced a value it cannot record."""


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
    # Points (x, y, z) in meters. Users and Eve sit meters from the
    # surface, so its cascade dominates the long direct links from the
    # base station and the surface architecture actually matters. The
    # sensing target sits several meters out on the reflection side: its
    # echo is then dominated by the direct base-station path, so serving
    # the sensing constraint pulls transmit power away from the users'
    # cascade and the sensing/communication trade-off is real. Side A
    # (reflection, sensing target) faces the base station; side B
    # (transmission, users and Eve) faces away.
    bs: tuple = (0.0, 0.0, 5.0)
    ris: tuple = (150.0, 150.0, 3.0)
    lus: tuple = ((150.6, 150.8, 1.5), (150.8, 150.4, 1.5))  # one per user
    eve: tuple = (154.5, 154.5, 1.5)
    st: tuple = (145.5, 146.0, 1.5)

    def __post_init__(self):
        for key, ok, need in _NUMERIC_CHECKS:
            value = getattr(self, key)
            if not ok(value):
                raise ConfigError(f"{key} = {value!r}: {need}")
        for key, view, ok, need in _LINEAR_CHECKS:
            try:
                value = getattr(self, view)
            except OverflowError:
                value = math.inf
            if not ok(value):
                raise ConfigError(f"{key} = {getattr(self, key)!r}: {view} "
                                  f"is {value!r}; {need}")
        if self.buffer_capacity < WARMUP_BATCHES * self.batch_size:
            raise ConfigError(f"buffer_capacity = {self.buffer_capacity}: "
                              f"need {WARMUP_BATCHES * self.batch_size} = "
                              f"{WARMUP_BATCHES} * batch_size, the batches "
                              "updates wait for")
        for key, options in _CHOICES.items():
            value = getattr(self, key)
            if value not in options:
                raise ConfigError(f"{key} = {value!r}: need one of "
                                  f"{', '.join(options)}")
        if (self.baseline, self.protocol) not in star_ris.SURFACES:
            supported = ", ".join(f"{b}/{p}" for b, p in star_ris.SURFACES)
            raise ConfigError(f"baseline = {self.baseline!r}: not with "
                              f"protocol {self.protocol!r}; supported "
                              f"baseline/protocol pairs are {supported}")
        if self.baseline == "spliced" and self.N % 2:
            raise ConfigError(f"N = {self.N}: baseline 'spliced' needs an "
                              "even N")
        if not self.seeds:
            raise ConfigError(f"seeds = {self.seeds!r}: at least one seed "
                              "required")
        if not all(_is_int(s) and s >= 0 for s in self.seeds):
            raise ConfigError(f"seeds = {self.seeds!r}: need integers >= 0")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds = {self.seeds!r}: a seed repeats")
        if self.N % self.n_x != 0:
            raise ConfigError(f"n_x = {self.n_x}: n_x must divide N = {self.N}")
        if len(self.lus) != self.M:
            raise ConfigError(f"geometry.lus = {_fmt_points(self.lus)}: need "
                              f"M = {self.M} user positions")
        points = {"geometry.bs": self.bs, "geometry.ris": self.ris,
                  **{f"geometry.lus[{m}]": p for m, p in enumerate(self.lus)},
                  "geometry.eve": self.eve, "geometry.st": self.st}
        seen = {}
        for key, p in points.items():
            if len(p) != 3 or not all(_is_real(x) for x in p):
                raise ConfigError(f"{key} = {p!r}: need three finite "
                                  f"coordinates")
            if tuple(p) in seen:
                raise ConfigError(f"{key} = {_fmt_point(p)} coincides with "
                                  f"{seen[tuple(p)]}")
            seen[tuple(p)] = key
        # lists given for the tuple fields are stored as tuples, so equal
        # configs compare and hash alike
        for name in ("seeds", "bs", "ris", "eve", "st"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "lus", tuple(map(tuple, self.lus)))

    # linear-unit views
    @property
    def p0_watt(self) -> float:
        return 10.0 ** ((self.p0_dbm - 30.0) / 10.0)

    @property
    def noise_watt(self) -> float:
        return 10.0 ** ((self.noise_dbm - 30.0) / 10.0)

    @property
    def kappa_linear(self) -> float:
        return 10.0 ** (self.kappa_db / 10.0)

    @property
    def rician_linear(self) -> float:
        return 10.0 ** (self.rician_db / 10.0)

    def scenario_id(self) -> str:
        text = repr(sorted(self.as_flat_dict().items()))
        return hashlib.sha1(text.encode()).hexdigest()[:12]

    def as_flat_dict(self) -> dict:
        """Every config key with its value's text form."""
        return {key: fmt(getattr(self, name))
                for key, (name, _, fmt) in KEYS.items()}

    @property
    def replay_capacity(self) -> int:
        # a run stores episodes*T transitions; more is unused memory
        return min(self.buffer_capacity, self.episodes * self.T)


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
      for k in ("lr", "freq_ghz")),
    # the echo SNR scales with tau^2
    ("sensing_tau", lambda v: _is_real(v) and v > 0 and math.isfinite(v * v),
     "need a number > 0 whose square is finite"),
    ("r0", lambda v: _is_real(v) and v >= 0, "need a finite number >= 0"),
    ("gamma", lambda v: _is_real(v) and 0 <= v <= 1, "need 0 <= gamma <= 1"),
    ("soft_rate", lambda v: _is_real(v) and 0 < v <= 1,
     "need 0 < soft_rate <= 1"),
)


# (dB key, its linear view, test, requirement) for every dB field: the
# layers below read only the view. A power of 0 W is no budget and a noise
# variance of 0 divides the SINRs by zero; kappa = 0 and a Rician factor
# of 0 (Rayleigh fading) are valid.
_LINEAR_CHECKS = (
    *((k, view, lambda v: 0 < v < math.inf, "need a power > 0 W and finite")
      for k, view in (("p0_dbm", "p0_watt"), ("noise_dbm", "noise_watt"))),
    *((k, view, math.isfinite, "need a finite linear value")
      for k, view in (("kappa_db", "kappa_linear"),
                      ("rician_db", "rician_linear"))),
)

# text field -> the values it takes
_CHOICES = {"algorithm": tuple(AGENTS),
            "protocol": tuple(dict.fromkeys(p for _, p in star_ris.SURFACES)),
            "baseline": tuple(dict.fromkeys(b for b, _ in star_ris.SURFACES))}


def _fmt_coord(x) -> str:
    # short where that reads back to x, so distinct points print apart
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


def _fmt_point(p) -> str:
    return ",".join(_fmt_coord(x) for x in p)


def _parse_point(text: str) -> tuple:
    return tuple(float(x) for x in text.split(","))


def _fmt_points(points) -> str:
    return ";".join(_fmt_point(p) for p in points)


def _parse_seeds(text: str) -> tuple:
    seeds = []  # none for "", which the config rejects
    for place, entry in enumerate(text.split(",") if text else (), 1):
        try:
            seeds.append(int(entry))
        except ValueError:
            raise ValueError(f"entry {place}, {entry!r}, is not an "
                             "integer") from None
    return tuple(seeds)


def _scalar_form(kind) -> tuple:
    # formatted through the field's type, so 30 and 30.0 print alike
    return kind, lambda v: str(kind(v))


# config key -> (field, parse its text, format its value): the one text
# form of each key, which files, CLI options, sweep values, config.echo
# and scenario_id all use
KEYS = {
    **{f.name: (f.name, *_scalar_form(type(f.default)))
       for f in fields(ScenarioConfig)
       if type(f.default) in (int, float, str)},
    "seeds": ("seeds", _parse_seeds, lambda v: ",".join(map(str, v))),
    **{f"geometry.{name}": (name, _parse_point, _fmt_point)
       for name in ("bs", "ris", "eve", "st")},
    "geometry.lus": ("lus", lambda text: tuple(
        _parse_point(p) for p in text.split(";") if p), _fmt_points),
}


def parse_value(key: str, text: str):
    """(field, value) that ``key = text`` sets."""
    if key not in KEYS:
        raise ConfigError(f"unknown key {key!r}")
    name, parse, _ = KEYS[key]
    try:
        return name, parse(text)
    except ValueError as exc:
        raise ConfigError(f"{key} = {text!r}: {exc}") from exc


def parse_config(text: str) -> ScenarioConfig:
    """Parse flat dotted-key config text. '#' starts a comment; unknown
    keys fail fast."""
    kwargs = {}
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "=" not in line:
                raise ConfigError("expected 'key = value'")
            name, value = parse_value(*(s.strip() for s in line.split("=", 1)))
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
        kwargs[name] = value
    return ScenarioConfig(**kwargs)


def load_config(path) -> ScenarioConfig:
    return parse_config(Path(path).read_text())


# ---------------------------------------------------------------------------
# environment / agent construction

def build_baseline(cfg: ScenarioConfig, seed: int) -> SecureIsacEnv:
    """Environment for the configured surface variant; "star" is the
    full coupled model, the two baselines reduce its degrees of
    freedom."""
    return SecureIsacEnv(cfg, seed)


def build_agent(cfg: ScenarioConfig, env: SecureIsacEnv, seed: int):
    return AGENTS[cfg.algorithm][1](cfg, env.state_dim, env.action_dim, seed)


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


# per-seed statistics, the columns of summary.csv and sweep.csv
SUMMARY_COLUMNS = ("final_return", "first_return", "final_secrecy")


def run_seed(cfg: ScenarioConfig, seed: int):
    """Train one (config, seed) pair; returns (records, per-episode wall
    ms). ``records[episode, step]`` holds the columns of episodes.csv
    from reward on, the feasibility flags as 0.0 or 1.0. An episode's
    wall time runs from its own reset to its last step. Each step's
    record, then the losses of the update after it, must be finite: the
    first value that is not stops the run with ``RunError``."""
    env = build_baseline(cfg, seed=2 * seed + 1)
    agent = build_agent(cfg, env, seed=2 * seed)
    # looked up on the module at each call, so a rebound ``train`` runs
    outcomes = AGENTS[cfg.algorithm][0].train(env, agent, cfg.episodes)
    value_columns = episode_columns(cfg.M)[4:-2]
    rows, episode_ms = [], []
    for episode in range(cfg.episodes):
        t0 = time.perf_counter()
        # zip asks range first, so it pulls exactly T outcomes
        for step, (out, losses) in zip(range(cfg.T), outcomes):
            row = (out.reward, out.sum_secrecy_rate, *out.lu_rates,
                   out.echo_snr, out.snr_feasible, out.rate_feasible)
            for name, value in (*zip(value_columns, row), *losses.items()):
                if not math.isfinite(value):
                    raise RunError(f"non-finite {name} ({value}) at "
                                   f"episode {episode}, step {step}")
            rows.append(row)
        episode_ms.append((time.perf_counter() - t0) * 1e3)
    return np.array(rows, float).reshape(cfg.episodes, cfg.T, -1), episode_ms


def episode_returns(records) -> np.ndarray:
    """Per-episode summed reward, added up in step order."""
    return np.cumsum(records[:, :, 0], axis=1)[:, -1]


def seed_summary(records) -> dict:
    ret = episode_returns(records)
    sec = np.mean(records[:, :, 1], axis=1)
    w = min(FINAL_WINDOW, len(ret))
    return {
        "final_return": float(np.mean(ret[-w:])),
        "first_return": float(np.mean(ret[:w])),
        "final_secrecy": float(np.mean(sec[-w:])),
    }


def run_scenario(cfg: ScenarioConfig, out_dir) -> list:
    """Train every configured seed; writes episodes.csv, summary.csv,
    timing.csv, and config.echo under out_dir. Returns summary.csv's
    rows: one dict per seed, then the across-seed mean of every
    SUMMARY_COLUMNS entry but first_return, which is left blank.

    Wall-clock timings live in their own file so the training CSVs stay
    byte-identical across repeat runs of the same seeds.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sid = cfg.scenario_id()
    runs, timings = {}, {}
    for seed in cfg.seeds:
        runs[seed], timings[seed] = run_seed(cfg, seed)

    with open(out / "episodes.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(episode_columns(cfg.M))
        for seed, records in runs.items():
            for episode, steps in enumerate(records.tolist()):
                for step, (*values, snr_ok, rate_ok) in enumerate(steps):
                    w.writerow([sid, seed, episode, step, *map(_fmt, values),
                                int(snr_ok), int(rate_ok)])

    rows = [{"seed": seed, **seed_summary(records)}
            for seed, records in runs.items()]
    rows.append({"seed": "mean", **{c: float(np.mean([r[c] for r in rows]))
                                    for c in SUMMARY_COLUMNS},
                 "first_return": ""})
    with open(out / "summary.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["scenario_id", "seed", *SUMMARY_COLUMNS])
        for r in rows:
            w.writerow([sid, r["seed"], *(_fmt(r[c]) for c in SUMMARY_COLUMNS)])

    with open(out / "timing.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["scenario_id", "seed", "episode", "wall_ms"])
        for seed in cfg.seeds:
            for ep, ms in enumerate(timings[seed]):
                w.writerow([sid, seed, ep, _fmt(ms)])

    with open(out / "config.echo", "w") as f:
        for k, v in sorted(cfg.as_flat_dict().items()):
            f.write(f"{k} = {v}\n")
    return rows


# sweep axis -> the config key it varies
SWEEP_AXES = {"lr": "lr", "N": "N", "P_0": "p0_dbm", "kappa_t": "kappa_db",
              "algorithm": "algorithm", "protocol": "protocol",
              "baseline": "baseline"}


def sweep(cfg: ScenarioConfig, axis: str, values, out_dir) -> list:
    """One run_scenario per axis value, parsed as in a config file;
    long-format sweep.csv keyed by the axis value. Every value is checked
    before any is trained, and none may repeat once parsed; run dirs and
    sweep.csv name each value as parsed (``lr_0.0001`` for ``1e-4``)."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unsupported sweep axis {axis!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    field_name, parse, _ = KEYS[SWEEP_AXES[axis]]
    sub_cfgs = {}
    for value in values:
        try:
            parsed = parse(value)
            if parsed in sub_cfgs:
                raise ConfigError(f"{parsed!r} appears twice")
            sub_cfgs[parsed] = replace(cfg, **{field_name: parsed})
        except ValueError as exc:  # ConfigError, or a failed parse
            raise ConfigError(f"sweep axis {axis} = {value!r}: {exc}") from exc
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = []
    for value, sub_cfg in sub_cfgs.items():
        results += [{"axis": axis, "value": value, **r}
                    for r in run_scenario(sub_cfg, out / f"{axis}_{value}")]
    with open(out / "sweep.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["axis", "value", "seed", *SUMMARY_COLUMNS])
        for r in results:
            w.writerow([axis, r["value"], r["seed"],
                        *(_fmt(r[c]) for c in SUMMARY_COLUMNS)])
    return results

