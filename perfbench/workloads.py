"""The benchmark's workloads, their output checks and trajectory digests.

A workload is built from the benchmark seed alone: the program sees a
``ScenarioConfig`` and, for ``rollout-env``, pre-generated action arrays.
Every pass returns a ``Pass`` with the raw timings, the number of steps
attempted and failed, and a digest of the trajectory.
"""
from __future__ import annotations

import hashlib
import resource
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from star_isac import experiments, physics
from star_isac.env import SecureIsacEnv

clock = time.perf_counter

# captured at import, before any tracer rebinds physics.reward, so output
# checks never show up as physics spans
_reward = physics.reward

TRAIN = {"train-ddpg-es": "ddpg", "train-sac-es": "sac"}
ROLLOUT = "rollout-env"
WORKLOADS = (*TRAIN, ROLLOUT)

# nominal post-warm-up cost per episode, used only to turn --seconds into a
# fixed episode count: the count must not depend on the clock, so that two
# commits do the same work
NOMINAL_EPISODE_S = {"ddpg": 0.5, "sac": 0.6}
# nominal cost of one rollout round (one episode of each of the 8 configs)
NOMINAL_ROUND_S = 0.1
# both agents update once per step once the buffer holds 10 batches
WARMUP_BATCHES = 10
# run_scenario calls per train run; every call repeats the same inputs
TRAIN_CALLS = 6

ROLLOUT_VARIANTS = (
    ("star-es", {"baseline": "star", "protocol": "es"}),
    ("star-ts", {"baseline": "star", "protocol": "ts"}),
    ("spliced", {"baseline": "spliced", "protocol": "es"}),
    ("conventional", {"baseline": "conventional", "protocol": "es"}),
)
ROLLOUT_N = (12, 24)  # the default and the largest sweep value
ROLLOUT_LABELS = tuple(f"{v}-N{n}" for n in ROLLOUT_N for v, _ in ROLLOUT_VARIANTS)


@dataclass
class Pass:
    """Raw measurements of one pass over a workload's inputs. ``run_s``
    holds one duration per timed call. ``*_config`` name the config of each
    sample where a pass mixes configs (None: one config). ``step_labels``
    names the config of every ``env.step`` call, for the tracer's spans."""
    run_s: list
    steps: int  # env steps completed, warm-up included
    episode_s: list
    warmup_episode_s: list
    step_s: list
    reset_s: list
    attempted: int
    failed: int
    digest: str
    step_labels: list
    errors: list
    step_config: list | None = None
    reset_config: list | None = None
    episode_config: list | None = None


# ---------------------------------------------------------------------------
# output checks

RTOL = 1e-12  # float64 rounding, for quantities a refactor may reorder


def _close(a, b) -> bool:
    return float(np.max(np.abs(a - b))) <= RTOL * (1.0 + float(np.max(np.abs(b))))


def check_outcome(env: SecureIsacEnv, out) -> str | None:
    """None if the step's outputs are finite and self-consistent, else why
    not."""
    lu, eve, st, sec = out.lu_rates, out.eve_rates, out.st_rates, out.secrecy_rates
    values = np.concatenate([[out.reward, out.sum_secrecy_rate, out.echo_snr],
                             lu, eve, st, sec])
    if not np.isfinite(values).all():
        return "non-finite output"
    if not _close(sec, np.maximum(lu - eve, 0.0) + np.maximum(lu - st, 0.0)):
        return "secrecy rates differ from the hinge formula"
    if not _close(out.sum_secrecy_rate, sec.sum()):
        return "sum secrecy rate differs from the per-user sum"
    expected = _reward(out.echo_snr, lu, out.sum_secrecy_rate, env.r_min,
                       env.sensing.kappa_t)
    if out.reward != expected:
        return "reward differs from physics.reward"
    if bool(out.snr_feasible) != (out.echo_snr > env.sensing.kappa_t):
        return "snr_feasible flag wrong"
    if bool(out.rate_feasible) != bool((lu >= env.r_min).all()):
        return "rate_feasible flag wrong"
    return None


def digest(rows) -> str:
    """Hex digest of the (reward, sum secrecy, echo SNR) trajectory."""
    arr = np.ascontiguousarray(np.asarray(rows, dtype=np.float64).reshape(-1, 3))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def _row(out) -> tuple:
    return (out.reward, out.sum_secrecy_rate, out.echo_snr)


_FAILED_ROW = (np.nan, np.nan, np.nan)


# ---------------------------------------------------------------------------
# end-to-end metrics

def quantile(values, pct: float = 50.0) -> float:
    """Percentile of the samples; 0 when a failed run left none."""
    return float(np.percentile(values, pct)) if len(values) else 0.0


def config_median(values, configs) -> float:
    """Median over configs of each config's median. Every config weighs the
    same, and the result moves smoothly with each config's cost; a plain
    median of a mix of configs with different costs jumps between them."""
    if configs is None:
        return quantile(values)
    groups: dict = {}
    for v, c in zip(values, configs):
        groups.setdefault(c, []).append(v)
    return float(np.median([np.median(g) for g in groups.values()])) if groups else 0.0


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it: an integer
    percentile, at most 99: rarer tails only measure the neighbours of a
    shared machine."""
    return float(max(50, min(99, int(100 * (1 - 10 / n))))) if n else 50.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(p: Pass, setup_times) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced pass, and how they were sampled."""
    ep_pct, step_pct = tail_percentile(len(p.episode_s)), tail_percentile(len(p.step_s))
    m = {
        "setup_s": quantile(setup_times),
        "run_s": quantile(p.run_s),
        "episode_ms_p50": 1e3 * config_median(p.episode_s, p.episode_config),
        "episode_ms_tail": 1e3 * quantile(p.episode_s, ep_pct),
        "warmup_ms_per_episode": 1e3 * config_median(p.warmup_episode_s, p.episode_config),
        "env_steps_per_s": p.steps / max(sum(p.run_s), 1e-9),
        "step_us_p50": 1e6 * config_median(p.step_s, p.step_config),
        "step_us_tail": 1e6 * quantile(p.step_s, step_pct),
        "reset_ms_p50": 1e3 * config_median(p.reset_s, p.reset_config),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"episode_tail_percentile": ep_pct, "episodes_sampled": len(p.episode_s),
            "step_tail_percentile": step_pct, "steps_sampled": len(p.step_s),
            "warmup_episodes_sampled": len(p.warmup_episode_s),
            "setup_s_samples": list(setup_times)}
    return m, info


# ---------------------------------------------------------------------------
# training workloads

def train_config(workload: str, seed: int, episodes: int,
                 **overrides) -> experiments.ScenarioConfig:
    return experiments.ScenarioConfig(
        algorithm=TRAIN[workload], protocol="es", baseline="star",
        episodes=episodes, seeds=(seed,), **overrides)


def train_plan(workload: str, seconds: float) -> tuple[int, int]:
    """(episodes per run_scenario call, calls) for a train run. Each call
    holds the warm-up, its share of the post-warm-up episodes, and one more
    episode whose end the run cannot observe. Several short calls sample
    the warm-up at several points in time rather than once."""
    post = max(TRAIN_CALLS * 3, round(seconds / NOMINAL_EPISODE_S[TRAIN[workload]]))
    per_call = -(-post // TRAIN_CALLS)
    return post_warmup_start(experiments.ScenarioConfig()) + per_call + 1, TRAIN_CALLS


def first_update_step(cfg) -> int:
    """Zero-based global step at which the first gradient update runs."""
    return WARMUP_BATCHES * cfg.batch_size - 1


def post_warmup_start(cfg) -> int:
    """First episode in which every step runs an update."""
    step = first_update_step(cfg)
    return step // cfg.T + (step % cfg.T != 0)


class EnvProbe:
    """Times ``SecureIsacEnv.reset``/``step`` and keeps each outcome.

    Installed over whatever the class currently holds (a tracer's wrappers
    included), so it must be uninstalled before them.
    """

    def __init__(self):
        self.reset_start, self.reset_s, self.step_s = [], [], []
        self.outcomes, self.env = [], None
        self._saved = None

    def install(self):
        step, reset = SecureIsacEnv.step, SecureIsacEnv.reset
        self._saved = (step, reset)
        probe = self

        def timed_step(env, action):
            t0 = clock()
            out = step(env, action)
            probe.step_s.append(clock() - t0)
            probe.outcomes.append(out)
            return out

        def timed_reset(env):
            t0 = clock()
            probe.reset_start.append(t0)
            state = reset(env)
            probe.reset_s.append(clock() - t0)
            probe.env = env
            return state

        SecureIsacEnv.step, SecureIsacEnv.reset = timed_step, timed_reset
        return self

    def uninstall(self):
        SecureIsacEnv.step, SecureIsacEnv.reset = self._saved


def run_train(cfg, out_root, tracer=None, calls: int = 1) -> Pass:
    """``calls`` identical ``run_scenario`` calls, each into a temporary
    directory under ``out_root``; ``tracer`` (if given) is installed around
    them. The calls must produce the same trajectory."""
    run_s, episode_s, warmup_s, step_s, reset_s, digests = [], [], [], [], [], []
    errors, labels, ok, steps = [], [], 0, 0
    first, post = first_update_step(cfg) // cfg.T, post_warmup_start(cfg)
    for _ in range(calls):
        if tracer is not None:
            tracer.install()
        probe = EnvProbe().install()
        try:
            with tempfile.TemporaryDirectory(dir=out_root) as tmp:
                t0 = clock()
                try:
                    experiments.run_scenario(cfg, tmp)
                except Exception as exc:  # a failed run is counted, not fatal
                    errors.append(f"run_scenario: {exc!r}")
                run_s.append(clock() - t0)
        finally:
            probe.uninstall()
            if tracer is not None:
                tracer.uninstall()

        rows = []
        for out in probe.outcomes:
            problem = check_outcome(probe.env, out)
            if problem is None:
                ok += 1
            elif len(errors) < 5:
                errors.append(problem)
            rows.append(_row(out))
        rows += [_FAILED_ROW] * (cfg.episodes * cfg.T - len(rows))
        digests.append(digest(rows))

        starts = probe.reset_start
        episodes = [b - a for a, b in zip(starts, starts[1:])]
        episode_s += episodes[post:]
        warmup_s += episodes[:first]
        # a step or reset right after an update runs on cold caches and
        # costs about twice one in the warm-up: sample the updating phase
        # only, as a mix of the two would put the median between modes
        step_s += probe.step_s[post * cfg.T:]
        reset_s += probe.reset_s[post:]
        labels += [f"star-es-N{cfg.N}"] * len(probe.step_s)
        steps += len(probe.step_s)

    attempted = calls * cfg.episodes * cfg.T
    failed = attempted - ok
    if len(set(digests)) != 1:
        errors.append(f"repeated calls disagree: {sorted(set(digests))}")
        failed = attempted
    return Pass(run_s=run_s, steps=steps, episode_s=episode_s, warmup_episode_s=warmup_s,
                step_s=step_s, reset_s=reset_s, attempted=attempted,
                failed=failed, digest=digests[0], step_labels=labels,
                errors=errors)


# ---------------------------------------------------------------------------
# environment rollout

def rollout_rounds(seconds: float) -> int:
    return max(4, round(seconds / NOMINAL_ROUND_S))


def rollout_envs(seed: int) -> list:
    """(label, env) per config, built through the program's config path."""
    base = experiments.ScenarioConfig(seeds=(seed,))
    envs = []
    for n in ROLLOUT_N:
        for variant, fields in ROLLOUT_VARIANTS:
            cfg = replace(base, N=n, **fields)
            env_seed = seed * len(ROLLOUT_LABELS) + len(envs)
            envs.append((f"{variant}-N{n}", experiments.build_baseline(cfg, seed=env_seed)))
    return envs


def rollout_inputs(seed: int, rounds: int):
    """(label, env, actions) per config. Actions are uniform in [-1, 1],
    shaped (rounds, T, action_dim), drawn from the seed before timing."""
    inputs = []
    for c, (label, env) in enumerate(rollout_envs(seed)):
        rng = np.random.default_rng([seed, c])
        actions = rng.uniform(-1.0, 1.0, size=(rounds, env.T, env.action_dim))
        inputs.append((label, env, actions))
    return inputs


def run_rollout(inputs, tracer=None) -> Pass:
    """``env.reset`` + T x ``env.step`` per config per round, no agent.
    Only the reset and step calls are timed; checks run between them."""
    rounds = inputs[0][2].shape[0]
    attempted = sum(actions.shape[0] * actions.shape[1] for _, _, actions in inputs)
    episode_s, step_s, reset_s, rows, labels, errors = [], [], [], [], [], []
    step_config, reset_config, episode_config = [], [], []
    ok = 0
    if tracer is not None:
        tracer.install()
    try:
        for r in range(rounds):
            for label, env, actions in inputs:
                steps = actions[r]
                done = 0
                try:
                    t0 = clock()
                    env.reset()
                    t1 = clock()
                    reset_s.append(t1 - t0)
                    reset_config.append(env.N)
                    episode = t1 - t0
                    for a in steps:
                        labels.append(label)
                        t0 = clock()
                        out = env.step(a)
                        t1 = clock()
                        step_s.append(t1 - t0)
                        step_config.append(label)
                        episode += t1 - t0
                        done += 1
                        rows.append(_row(out))
                        problem = check_outcome(env, out)
                        if problem is None:
                            ok += 1
                        elif len(errors) < 5:
                            errors.append(f"{label}: {problem}")
                    episode_s.append(episode)
                    episode_config.append(label)
                except Exception as exc:  # counted as failed steps
                    if len(errors) < 5:
                        errors.append(f"{label}: {exc!r}")
                    rows += [_FAILED_ROW] * (len(steps) - done)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Pass(run_s=[float(np.sum(reset_s) + np.sum(step_s))], steps=len(step_s),
                episode_s=episode_s, warmup_episode_s=episode_s,
                step_s=step_s, reset_s=reset_s,
                attempted=attempted, failed=attempted - ok,
                digest=digest(rows), step_labels=labels, errors=errors,
                step_config=step_config, reset_config=reset_config,
                episode_config=episode_config)
