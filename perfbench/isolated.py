"""Isolated timings of learner kernels, next to their in-training spans.

They settle whether SAC's action selection is slower inside training than
on its own, and whether the preceding gradient update is the cause: the
same call on the same state is timed back to back, and right after one
``maybe_update``.
"""
from __future__ import annotations

import time

import numpy as np

from star_isac import experiments, rl_core

clock = time.perf_counter

LAYER_SHAPES = ((64, 394, 256), (64, 256, 256))  # batch x fan-in x fan-out
NAMES = ("sac.act_us_isolated", "sac.act_us_after_update", "rl_core.adam_ms_isolated",
         *(f"rl_core.mlp_{d}_us_isolated.{b}x{i}x{o}"
           for b, i, o in LAYER_SHAPES for d in ("forward", "backward")))


def measure(algorithm: str | None, seed: int) -> dict:
    """Every isolated metric: the learner kernels on a train workload, SAC
    acting on train-sac-es, 0 where the workload has no such layer."""
    m = dict.fromkeys(NAMES, 0.0)
    if algorithm:
        m.update(learner_kernels(np.random.default_rng(seed)))
    if algorithm == "sac":
        m.update(sac_acting(seed))
    return m


def per_call_s(fn, calls: int = 20, blocks: int = 15) -> float:
    """Median over blocks of the mean time of one call."""
    fn()
    times = []
    for _ in range(blocks):
        t0 = clock()
        for _ in range(calls):
            fn()
        times.append((clock() - t0) / calls)
    return float(np.median(times))


def learner_kernels(rng) -> dict:
    """One MLP layer's forward and backward passes at each shape in
    LAYER_SHAPES, and one Adam step over the default critic."""
    m = {}
    for batch, fan_in, fan_out in LAYER_SHAPES:
        net = rl_core.Mlp([fan_in, fan_out], "relu", rng)
        x = rng.standard_normal((batch, fan_in))
        _, cache = net.forward(x)
        dy = rng.standard_normal((batch, fan_out))
        shape = f"{batch}x{fan_in}x{fan_out}"
        m[f"rl_core.mlp_forward_us_isolated.{shape}"] = 1e6 * per_call_s(lambda: net.forward(x))
        m[f"rl_core.mlp_backward_us_isolated.{shape}"] = 1e6 * per_call_s(lambda: net.backward(cache, dy))

    cfg = experiments.ScenarioConfig()
    env = experiments.build_baseline(cfg, seed=1)
    hidden = [cfg.hidden_units] * cfg.hidden_layers
    critic = rl_core.Mlp([env.state_dim + env.action_dim, *hidden, 1], "linear", rng)
    opt = rl_core.Adam(critic.params, lr=cfg.lr)
    grads = [rng.standard_normal(p.shape) for p in critic.params]
    m["rl_core.adam_ms_isolated"] = 1e3 * per_call_s(lambda: opt.step(critic.params, grads))
    return m


def sac_acting(seed: int, after_update_calls: int = 40) -> dict:
    """``sample_action`` on one state: back to back, and right after a
    gradient update. The buffer is filled with random transitions so that
    ``maybe_update`` updates."""
    cfg = experiments.ScenarioConfig(algorithm="sac", seeds=(seed,))
    env = experiments.build_baseline(cfg, seed=2 * seed + 1)
    agent = experiments.build_agent(cfg, env, seed=2 * seed)
    state = env.reset()
    m = {"sac.act_us_isolated": 1e6 * per_call_s(lambda: agent.sample_action(state))}

    rng = np.random.default_rng(seed)
    for _ in range(10 * cfg.batch_size):
        agent.observe(rng.standard_normal(env.state_dim),
                      rng.uniform(-1.0, 1.0, env.action_dim), rng.normal(),
                      rng.standard_normal(env.state_dim), False)
    times = []
    for _ in range(after_update_calls):
        agent.maybe_update()
        t0 = clock()
        agent.sample_action(state)
        times.append(clock() - t0)
    m["sac.act_us_after_update"] = 1e6 * float(np.median(times))
    return m
