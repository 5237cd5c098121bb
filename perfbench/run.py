"""star-isac benchmark: one workload, one process, BLAS on one thread.

    python3 perfbench/run.py --workload train-sac-es --seed 3 --seconds 20 --trace 0

Run from the repository root. ``--trace 0`` measures the end-to-end
metrics untraced. ``--trace 1`` runs the same inputs untraced and then
traced, and reports the per-layer metrics (see README.md beside this
file). The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric by name with its unit, and the run environment. Details
and the spans of the last traced run go to ``perfbench/out/``.
"""
from __future__ import annotations

import os

# pin BLAS before numpy is first imported, here and in the set-up probes
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
WORKLOADS = ("train-ddpg-es", "train-sac-es", "rollout-env")

END_TO_END = {
    "setup_s": "s", "run_s": "s",
    "episode_ms_p50": "ms", "episode_ms_tail": "ms",
    "env_steps_per_s": "1/s", "step_us_p50": "us", "step_us_tail": "us",
    "peak_rss_mb": "MB",
}
# measured end to end, but on a shared machine they swing past any allowed
# bound between runs, so they are declared (ungated) with the per-layer
# metrics; --trace 0 still prints them
UNGATED = {"warmup_ms_per_episode": "ms", "reset_ms_p50": "ms"}
ROLLOUT_LABELS = tuple(f"{v}-N{n}" for n in (12, 24)
                       for v in ("star-es", "star-ts", "spliced", "conventional"))
PER_LAYER = {
    **UNGATED,
    "channel.generate_ms": "ms",
    "star_ris.decode_us_per_step": "us",
    "physics.us_per_step": "us", "physics.calls_per_step": "count",
    "env.step_self_us": "us", "env.reset_self_ms": "ms",
    **{f"env.step_us.{label}": "us" for label in ROLLOUT_LABELS},
    "rl_core.mlp_forward_us": "us", "rl_core.mlp_backward_us": "us",
    "rl_core.mlp_calls_per_update": "count",
    "rl_core.mlp_gflops_computed": "GFLOP/s",
    "rl_core.adam_ms": "ms", "rl_core.adam_calls_per_update": "count",
    "rl_core.adam_gbps_computed": "GB/s",
    "rl_core.soft_update_ms": "ms",
    "rl_core.buffer_sample_us": "us", "rl_core.buffer_add_us": "us",
    "ddpg.update_ms": "ms", "ddpg.update_self_ms": "ms", "ddpg.act_us": "us",
    "sac.update_ms": "ms", "sac.update_self_ms": "ms", "sac.act_us": "us",
    "experiments.loop_self_ms_per_episode": "ms", "experiments.emit_ms": "ms",
    "trace_overhead": "%",
    "trace.learner_self_pct": "%", "trace.env_side_self_pct": "%",
    "sac.act_us_isolated": "us", "sac.act_us_after_update": "us",
    "rl_core.adam_ms_isolated": "ms",
    "rl_core.mlp_forward_us_isolated.64x394x256": "us",
    "rl_core.mlp_backward_us_isolated.64x394x256": "us",
    "rl_core.mlp_forward_us_isolated.64x256x256": "us",
    "rl_core.mlp_backward_us_isolated.64x256x256": "us",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time one set-up and print it")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up

def build(workload: str, seed: int, workloads):
    """What a user builds before the first episode: the config, the
    environment(s) and, for training, the agent."""
    if workload in workloads.TRAIN:
        cfg = workloads.train_config(workload, seed, episodes=1)
        env = workloads.experiments.build_baseline(cfg, seed=2 * seed + 1)
        return env, workloads.experiments.build_agent(cfg, env, seed=2 * seed)
    return workloads.rollout_envs(seed)


def setup_probe(args) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy and star_isac
    build(args.workload, args.seed, workloads)
    print(repr(time.perf_counter() - t0))
    return 0


def measure_setup(args) -> list:
    """Set-up seconds of SETUP_REPEATS fresh processes, after one untimed
    process that fills the bytecode and file caches."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# run environment and digests

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_runtime_threads(np):
    """Thread count reported by the OpenBLAS numpy loaded, if it is one."""
    import ctypes
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_environment() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_threads": blas_runtime_threads(np),
        "numpy": np.__version__, "blas": blas,
        "nproc": os.cpu_count(), "cpus_usable": affinity,
        "cpu_model": cpu_model(), "python": platform.python_version(),
    }


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digest(key: str, value: str) -> bool:
    """Compare with the digest an earlier run of the same code and inputs
    stored; store it if there is none."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        return known[key] == value
    known[key] = value
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "star_isac" / "__init__.py").is_file():
        print(f"error: no star_isac sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    OUT.mkdir(exist_ok=True)
    setup_times = [] if args.trace else measure_setup(args)

    sys.path.insert(0, str(SRC))
    import star_isac
    if Path(star_isac.__file__).resolve().parent != SRC / "star_isac":
        print(f"error: star_isac imported from {star_isac.__file__}", file=sys.stderr)
        return 2
    import workloads as wl

    algorithm = wl.TRAIN.get(args.workload)
    if algorithm:
        episodes, calls = wl.train_plan(args.workload, args.seconds)
        cfg = wl.train_config(args.workload, args.seed, episodes)
        size = episodes
        # a traced run makes two passes (untraced, traced) of one call each
        calls = 1 if args.trace else calls

        def one_pass(tracer=None):
            return wl.run_train(cfg, OUT, tracer, calls)
    else:
        size = wl.rollout_rounds(args.seconds)
        if args.trace:  # two passes of a quarter of the rounds each
            size = max(4, size // 4)

        def one_pass(tracer=None):
            return wl.run_rollout(wl.rollout_inputs(args.seed, size), tracer)

    untraced = one_pass()
    passes = [untraced]
    if args.trace:
        import isolated
        import layers
        from tracing import Tracer
        tracer = Tracer(meters=layers.meters())
        traced = one_pass(tracer)
        passes.append(traced)
        spans = tracer.table()
        spans.save(OUT / f"spans-{args.workload}.npz")
        first = wl.post_warmup_start(cfg) if algorithm else None
        values = layers.layer_metrics(spans, traced.step_labels, algorithm, first)
        values["trace_overhead"] = 100.0 * (
            wl.quantile(traced.episode_s) / wl.quantile(untraced.episode_s) - 1.0)
        values.update(isolated.measure(algorithm, args.seed))
        e2e, _ = wl.end_to_end(untraced, [])
        values.update({k: e2e[k] for k in UNGATED})
        units = PER_LAYER
        info = {"spans": len(spans), "peak_rss_mb": wl.peak_rss_mb()}
    else:
        values, info = wl.end_to_end(untraced, setup_times)
        units = END_TO_END

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digest_key = f"{args.workload}|seed={args.seed}|size={size}|code={code_hash()}"
    digests_agree = (len({p.digest for p in passes}) == 1
                     and check_digest(digest_key, untraced.digest))
    if not digests_agree:
        failed = attempted
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": size, "digest": untraced.digest,
        "digests_agree": digests_agree, "failed_frac": failed / attempted,
        "errors": [e for p in passes for e in p.errors],
        "environment": run_environment(), "info": info,
        "metrics": metrics,
    }
    (OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1))

    for k, v in metrics.items():
        print(f"{args.workload} {k} {v['value']:.6g} {v['unit']}")
    for k in UNGATED.keys() - units.keys():
        print(f"{args.workload} {k} {values[k]:.6g} {UNGATED[k]} (not gated)")
    print(f"{args.workload} failed_frac {failed / attempted:.6g} ratio")
    print(f"{args.workload} digest {untraced.digest} agree={digests_agree}")
    for e in details["errors"]:
        print(f"{args.workload} error {e}")
    print("environment " + json.dumps(details["environment"]))
    print("info " + json.dumps(info))
    print(json.dumps({"correct": failed == 0 and digests_agree,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
