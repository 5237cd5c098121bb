"""Per-layer metrics derived from a traced pass's spans.

Every metric is defined on every workload; a layer a workload never calls
reports 0. Unless stated otherwise a per-call figure is the mean over the
calls inside gradient updates (total time over call count), so it can be
combined with the FLOP and byte meters.
"""
from __future__ import annotations

import numpy as np

from workloads import ROLLOUT_LABELS

MLP_FORWARD = "rl_core.Mlp.forward"
MLP_BACKWARD = "rl_core.Mlp.backward"
ADAM_STEP = "rl_core.Adam.step"
UPDATES = ("ddpg.DdpgAgent.maybe_update", "sac.SacAgent.maybe_update")
LOOPS = {"ddpg": "ddpg.train", "sac": "sac.train"}
ACTS = {"ddpg": "ddpg.DdpgAgent.select_action", "sac": "sac.SacAgent.sample_action"}
LEARNER = ("rl_core", "ddpg", "sac")
ENV_SIDE = ("channel", "star_ris", "physics", "env")


def _rows(x) -> int:
    return 1 if np.ndim(x) < 2 else np.shape(x)[0]


def _gemm_size(net) -> int:
    return sum(a * b for a, b in zip(net.sizes[:-1], net.sizes[1:]))


def meters() -> dict:
    """Work per call, from the argument shapes alone: 2*B*sum(in*out)
    FLOPs per forward pass, twice that per backward pass (weight and input
    gradients), and 7 float64 words per parameter per Adam step (read p,
    g, m, v; write p, m, v)."""
    return {
        MLP_FORWARD: lambda net, x: 2.0 * _rows(x) * _gemm_size(net),
        MLP_BACKWARD: lambda net, cache, dy: 4.0 * _rows(dy) * _gemm_size(net),
        ADAM_STEP: lambda opt, params, grads: 56.0 * sum(p.size for p in params),
    }


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _ratio(num, den) -> float:
    return float(num / den) if den else 0.0


def post_warmup_windows(spans, first_episode: int):
    """(start, end) of each post-warm-up episode, from env.reset spans: an
    episode runs from its reset to the next one."""
    resets = spans.start[spans.of("env.SecureIsacEnv.reset")]
    return list(zip(resets[first_episode:-1], resets[first_episode + 1:]))


def window_self_by_layer(spans, windows) -> tuple[dict, float]:
    """Self time per layer of the spans that start inside the windows, and
    the windows' total length."""
    mask = np.zeros(len(spans), dtype=bool)
    for a, b in windows:
        i, j = np.searchsorted(spans.start, [a, b])
        mask[i:j] = True
    return spans.self_by_layer(mask), float(sum(b - a for a, b in windows))


def layer_metrics(spans, step_labels, algorithm: str | None,
                  first_episode: int | None) -> dict:
    """Per-layer metrics in display units. ``algorithm`` is "ddpg", "sac"
    or None (no agent); ``first_episode`` is the first post-warm-up episode
    of a train pass."""
    m = {}
    dur, self_t = spans.dur, spans.self_time

    steps = spans.of("env.SecureIsacEnv.step")
    resets = spans.of("env.SecureIsacEnv.reset")
    n_steps, n_resets = int(steps.sum()), int(resets.sum())
    in_step, in_reset = spans.inside(steps), spans.inside(resets)

    m["channel.generate_ms"] = 1e3 * _median(dur[spans.of("channel.generate_episode_channels")])
    for layer, key, scale in (("star_ris", "star_ris.decode_us_per_step", 1e6),
                              ("physics", "physics.us_per_step", 1e6),
                              ("env", "env.step_self_us", 1e6)):
        mask = in_step & spans.of_layer(layer)
        m[key] = scale * _ratio(self_t[mask].sum(), n_steps)
    m["physics.calls_per_step"] = _ratio((in_step & spans.of_layer("physics")).sum(), n_steps)
    m["env.reset_self_ms"] = 1e3 * _ratio(self_t[in_reset & spans.of_layer("env")].sum(), n_resets)

    step_dur = dur[steps]
    labels = np.array(step_labels[:n_steps])
    for label in ROLLOUT_LABELS:
        m[f"env.step_us.{label}"] = 1e6 * _median(step_dur[labels == label]) if n_steps else 0.0

    updates = spans.of(*UPDATES) & (spans.child_count() > 0)
    n_upd = int(updates.sum())
    in_upd = spans.inside(updates)
    fwd, bwd = in_upd & spans.of(MLP_FORWARD), in_upd & spans.of(MLP_BACKWARD)
    mlp = fwd | bwd
    adam = in_upd & spans.of(ADAM_STEP)
    m["rl_core.mlp_forward_us"] = 1e6 * _mean(dur[fwd])
    m["rl_core.mlp_backward_us"] = 1e6 * _mean(dur[bwd])
    m["rl_core.mlp_calls_per_update"] = _ratio(mlp.sum(), n_upd)
    m["rl_core.mlp_gflops_computed"] = 1e-9 * _ratio(spans.work[mlp].sum(), dur[mlp].sum())
    m["rl_core.adam_ms"] = 1e3 * _mean(dur[adam])
    m["rl_core.adam_calls_per_update"] = _ratio(adam.sum(), n_upd)
    m["rl_core.adam_gbps_computed"] = 1e-9 * _ratio(spans.work[adam].sum(), dur[adam].sum())
    m["rl_core.soft_update_ms"] = 1e3 * _mean(dur[spans.of("rl_core.soft_update")])
    m["rl_core.buffer_sample_us"] = 1e6 * _mean(dur[spans.of("rl_core.ReplayBuffer.sample")])
    m["rl_core.buffer_add_us"] = 1e6 * _mean(dur[spans.of("rl_core.ReplayBuffer.add")])

    first_update = spans.start[updates][0] if n_upd else np.inf
    for algo in ("ddpg", "sac"):
        mine = algorithm == algo and n_upd > 0
        m[f"{algo}.update_ms"] = 1e3 * _median(dur[updates]) if mine else 0.0
        agent_self = self_t[in_upd & spans.of_layer(algo)].sum()
        m[f"{algo}.update_self_ms"] = 1e3 * _ratio(agent_self, n_upd) if mine else 0.0
        # acting from the training loop only, once updates run
        from_loop = np.isin(spans.parent_name(), spans.ids(LOOPS[algo]))
        acts = spans.of(ACTS[algo]) & from_loop & (spans.start >= first_update)
        m[f"{algo}.act_us"] = 1e6 * _median(dur[acts])

    run_seed = spans.of("experiments.run_seed")
    episodes = n_resets if run_seed.any() else 0
    m["experiments.loop_self_ms_per_episode"] = 1e3 * _ratio(self_t[run_seed].sum(), episodes)
    m["experiments.emit_ms"] = 1e3 * (dur[spans.of("experiments.run_scenario")].sum()
                                      - dur[run_seed].sum())

    if first_episode is not None:
        by_layer, length = window_self_by_layer(
            spans, post_warmup_windows(spans, first_episode))
    else:
        env_calls = steps | resets
        by_layer = spans.self_by_layer(spans.inside(env_calls))
        length = dur[env_calls].sum()
    m["trace.learner_self_pct"] = 100.0 * _ratio(sum(by_layer[k] for k in LEARNER), length)
    m["trace.env_side_self_pct"] = 100.0 * _ratio(sum(by_layer[k] for k in ENV_SIDE), length)
    return m
