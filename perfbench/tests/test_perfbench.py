"""Tests of the benchmark itself: tracer hygiene, trace accounting, output
checks and digests, and the metric declarations."""
import inspect
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import layers
import run
import workloads as wl
from tracing import LAYERS, Tracer
from star_isac import ddpg, env, experiments, physics, sac

ROOT = Path(__file__).resolve().parents[2]


def _bindings():
    """Every name in every star_isac module and public class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "star_isac" or name.startswith("star_isac."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if inspect.isclass(value) and value.__module__ == name:
                    for member, v in vars(value).items():
                        out[(name, attr, member)] = v
    return out


def test_tracer_restores_every_patched_name():
    before = _bindings()
    original_generate = env.generate_episode_channels
    with Tracer() as tracer:
        assert env.generate_episode_channels is not original_generate
        assert ddpg.soft_update is not before[("star_isac.rl_core", "soft_update")]
        assert sac.soft_update is not before[("star_isac.rl_core", "soft_update")]
        assert physics.reward is not before[("star_isac.physics", "reward")]
        assert env.SecureIsacEnv.step is not before[("star_isac.env", "SecureIsacEnv", "step")]
        patched = len(tracer._patches)
    after = _bindings()
    assert patched > 50
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_tracer_wraps_every_public_physics_function():
    public = {n for n, v in vars(physics).items()
              if inspect.isfunction(v) and not n.startswith("_")
              and v.__module__ == physics.__name__}
    with Tracer() as tracer:
        names = {n.split(".", 1)[1] for n in tracer.names if n.startswith("physics.")}
    assert public <= names


def _small_train(workload, seed=3, post=8):
    cfg = wl.train_config(workload, seed, episodes=1, T=10, batch_size=8,
                          hidden_units=32)
    return replace(cfg, episodes=wl.post_warmup_start(cfg) + post + 1)


@pytest.mark.parametrize("workload", list(wl.TRAIN))
def test_traced_self_times_sum_to_episode_time(workload, tmp_path):
    cfg = _small_train(workload)
    untraced = wl.run_train(cfg, tmp_path)
    tracer = Tracer(meters=layers.meters())
    traced = wl.run_train(cfg, tmp_path, tracer)
    assert untraced.failed == traced.failed == 0
    assert untraced.digest == traced.digest

    spans = tracer.table()
    windows = layers.post_warmup_windows(spans, wl.post_warmup_start(cfg))
    assert len(windows) == len(traced.episode_s)
    by_layer, length = layers.window_self_by_layer(spans, windows)
    covered = sum(by_layer.values())
    # what the spans leave uncovered is untraced code inside the episode:
    # the benchmark's probe and the run_seed loop between records
    gap = (length - covered) / len(windows)
    overhead = abs(np.median(traced.episode_s) - np.median(untraced.episode_s))
    episode = length / len(windows)
    assert 0.0 <= gap <= max(overhead, 0.01 * episode)
    assert by_layer["experiments"] >= 0.0


def test_layer_metrics_on_small_train_run(tmp_path):
    cfg = _small_train("train-sac-es", post=3)
    tracer = Tracer(meters=layers.meters())
    traced = wl.run_train(cfg, tmp_path, tracer)
    m = layers.layer_metrics(tracer.table(), traced.step_labels, "sac",
                             wl.post_warmup_start(cfg))
    # twin critics: 3 forward passes for the target, 2 x (forward +
    # backward) for the critics, 3 forward + 3 backward for the policy
    assert m["rl_core.mlp_calls_per_update"] == 13
    assert m["rl_core.adam_calls_per_update"] == 4
    assert m["ddpg.update_ms"] == 0.0 and m["sac.update_ms"] > 0.0
    assert m["sac.act_us"] > 0.0 and m["experiments.emit_ms"] > 0.0
    assert m["rl_core.mlp_gflops_computed"] > 0.0


def test_rollout_records_zero_rl_core_time():
    tracer = Tracer(meters=layers.meters())
    traced = wl.run_rollout(wl.rollout_inputs(seed=2, rounds=1), tracer)
    assert traced.failed == 0
    spans = tracer.table()
    by_layer = spans.self_by_layer(np.ones(len(spans), dtype=bool))
    assert by_layer["rl_core"] == by_layer["ddpg"] == by_layer["sac"] == 0.0
    assert by_layer["physics"] > 0.0 and by_layer["channel"] > 0.0
    m = layers.layer_metrics(spans, traced.step_labels, None, None)
    assert all(m[f"env.step_us.{label}"] > 0.0 for label in wl.ROLLOUT_LABELS)
    assert m["rl_core.mlp_forward_us"] == 0.0
    assert m["trace.env_side_self_pct"] > 99.0


def test_rollout_digest_depends_only_on_seed():
    a = wl.run_rollout(wl.rollout_inputs(seed=4, rounds=1))
    b = wl.run_rollout(wl.rollout_inputs(seed=4, rounds=1))
    c = wl.run_rollout(wl.rollout_inputs(seed=5, rounds=1))
    assert a.digest == b.digest != c.digest
    assert a.attempted == len(wl.ROLLOUT_LABELS) * 30 and a.failed == 0


def test_checks_catch_inconsistent_outcomes():
    cfg = experiments.ScenarioConfig()
    e = experiments.build_baseline(cfg, seed=1)
    e.reset()
    out = e.step(np.zeros(e.action_dim))
    assert wl.check_outcome(e, out) is None
    assert wl.check_outcome(e, replace(out, reward=out.reward + 1.0)) is not None
    assert wl.check_outcome(e, replace(out, echo_snr=np.nan)) is not None
    bad = out.secrecy_rates + 0.5
    assert wl.check_outcome(e, replace(out, secrecy_rates=bad)) is not None


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (20, 33, 40, 200, 1200, 50_000):
        p = wl.tail_percentile(n)
        assert n * (1 - p / 100) >= 10 - 1e-9
    assert wl.tail_percentile(40) == 75
    assert wl.tail_percentile(50_000) == 99


def test_benchmark_json_declares_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == wl.WORKLOADS
    assert run.ROLLOUT_LABELS == wl.ROLLOUT_LABELS
    assert set(LAYERS) == {k.split(".")[0] for k in run.PER_LAYER if "." in k} - {"trace"}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rollout-env",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
