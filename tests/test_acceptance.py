"""Acceptance gate: twelve numbered criteria, each printed as a single
pass/fail line.

Criteria 7-10 evaluate full training runs at the default scale; those
runs are expensive on one core, so their per-seed summaries come from
the on-disk cache in train_cache.py (run ``python3 tests/train_cache.py``
once to prepopulate; the tests will otherwise train on demand).
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from star_isac import physics
from star_isac.channel import ChannelRealization
from star_isac.ddpg import DdpgAgent
from star_isac.experiments import (ScenarioConfig, measure_runtime,
                                   run_scenario)
from star_isac.physics import SensingParams, TransmitDesign
from star_isac.sac import SacAgent
from star_isac.star_ris import (StarRisTsConfig, project_raw_action_es,
                                project_raw_action_ts, ts_coefficients,
                                ts_periods)

import train_cache
from oracles import (naive_echo_snr, naive_echo_snr_montecarlo,
                     naive_effective_channel, naive_sinr, random_instance)


def _report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {verdict} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _instance(rng):
    L = int(rng.integers(2, 5))
    N = int(rng.integers(2, 9))
    M = int(rng.integers(1, 4))
    inst = random_instance(rng, L=L, N=N, M=M)
    ch = ChannelRealization(
        slot=0, H_fading=inst["H"],
        D_fading=np.array([*inst["h_bm"], inst["h_be"], inst["g_bs"]]),
        R_fading=np.array([*inst["h_rm"], inst["h_re"], inst["g_rs"]]))
    design = TransmitDesign(K_s=inst["K_s"], K_w=inst["K_w"])
    return inst, ch, design, L, N, M


def _channels(ch, phi_a, phi_b):
    """Effective channels of every receiver (users, Eve, target) for
    surfaces given as coefficient vectors."""
    return physics.effective_channels(ch.D, ch.R, ch.H, phi_a, phi_b)


def _target(ch, inst):
    """The sensing channel g_s under the instance's ES surfaces, which
    the oracle instances hold as diagonal matrices."""
    return _channels(ch, np.diag(inst["phi_a"]), np.diag(inst["phi_b"]))[-1].conj()


def test_criterion_01_physics_oracles():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    sensing = SensingParams(tau=1.3, P=5, sigma_s2=0.7, kappa_t=1.0)
    for _ in range(100):
        inst, ch, design, L, N, M = _instance(rng)
        phi_a, phi_b = inst["phi_a"], inst["phi_b"]
        sigma2 = float(rng.uniform(0.5, 2.0))
        h_eff = _channels(ch, np.diag(phi_a), np.diag(phi_b))
        sinr = physics.sinrs(h_eff, design, sigma2)
        for m in range(M):
            pairs = [
                (sinr[m, m],
                 naive_sinr(naive_effective_channel(
                     inst["h_bm"][m], inst["h_rm"][m], phi_b, inst["H"]),
                     inst["K_s"], inst["K_w"], m, sigma2)),
                (sinr[M, m],
                 naive_sinr(naive_effective_channel(
                     inst["h_be"], inst["h_re"], phi_b, inst["H"]),
                     inst["K_s"], inst["K_w"], m, sigma2)),
                (sinr[M + 1, m],
                 naive_sinr(naive_effective_channel(
                     inst["g_bs"], inst["g_rs"], phi_a, inst["H"]),
                     inst["K_s"], inst["K_w"], m, sigma2)),
            ]
            for got, want in pairs:
                worst = max(worst, abs(got - want.real))
                worst = max(worst, abs(physics.rate(got)
                                       - np.log2(1 + want.real)))
            r = [physics.rate(p[0]) for p in pairs]
            sec = physics.secrecy_rate(*r)
            worst = max(worst, abs(sec - (max(r[0] - r[1], 0)
                                          + max(r[0] - r[2], 0))))
        g_s = h_eff[-1].conj()
        u = rng.standard_normal(L * (L + M)) \
            + 1j * rng.standard_normal(L * (L + M))
        got = physics.echo_snr_lower_bound(g_s, design, u, sensing)
        want = naive_echo_snr(g_s, design.K, u, sensing.P, sensing.tau,
                              sensing.sigma_s2)
        worst = max(worst, abs(got - want) / max(abs(want), 1.0))
    _report(1, "physics oracle suite", worst < 1e-10,
            f"max deviation {worst:.2e} over 100 instances, "
            f"{time.time() - t0:.1f}s")


def test_criterion_02_coupling_invariants():
    rng = np.random.default_rng(102)
    worst_sum, worst_cos = 0.0, 0.0
    for _ in range(10_000):
        cfg = project_raw_action_es(rng.uniform(-1, 1, 3 * 8))
        worst_sum = max(worst_sum, float(np.max(np.abs(
            cfg.alpha_a_sq + cfg.alpha_b_sq - 1.0))))
        worst_cos = max(worst_cos, float(np.max(np.abs(
            np.cos(cfg.phi_a - cfg.phi_b)))))
    worst_pi, worst_mod = 0.0, 0.0
    for _ in range(10_000):
        cfg = project_raw_action_ts(rng.uniform(-1, 1, 2 * 8 + 1))
        worst_pi = max(worst_pi, abs(cfg.pi_1 + cfg.pi_2 - 1.0))
        pa, pb = ts_coefficients(cfg)
        worst_mod = max(worst_mod, float(np.max(np.abs(np.abs(pa) - 1.0))),
                        float(np.max(np.abs(np.abs(pb) - 1.0))))
    ok = (worst_sum == 0.0 and worst_cos < 1e-12
          and worst_pi == 0.0 and worst_mod < 1e-12)
    _report(2, "coupling invariants", ok,
            f"ES sum err {worst_sum:.1e} (exact), phase cos {worst_cos:.1e}; "
            f"TS fraction err {worst_pi:.1e}, modulus err {worst_mod:.1e}; "
            f"10^4 actions each")


def test_criterion_03_filter_optimality():
    rng = np.random.default_rng(103)
    sensing = SensingParams(tau=1.3, P=5, sigma_s2=0.7, kappa_t=1.0)
    violations = 0
    worst_scale = 0.0
    for _ in range(100):
        inst, ch, design, L, N, M = _instance(rng)
        g_s = _target(ch, inst)
        star = physics.optimal_filter(g_s, design)
        best = physics.echo_snr_lower_bound(g_s, design, star, sensing)
        n = star.size
        draws = rng.standard_normal((1000, n)) \
            + 1j * rng.standard_normal((1000, n))
        for u in draws:
            if physics.echo_snr_lower_bound(g_s, design, u, sensing) \
                    > best * (1 + 1e-12):
                violations += 1
        scaled = physics.echo_snr_lower_bound(g_s, design, 7.3 * star, sensing)
        worst_scale = max(worst_scale, abs(scaled - best) / max(best, 1.0))
    # TS filters: each term's closed form dominates the same random draws
    ts_violations = 0
    for _ in range(20):
        rng2 = np.random.default_rng(int(rng.integers(1 << 31)))
        inst, ch, design, L, N, M = _instance(rng2)
        cfg = StarRisTsConfig(float(rng2.uniform()),
                              rng2.uniform(0, 2 * np.pi, N),
                              rng2.uniform(0, 2 * np.pi, N))
        periods = ts_periods(cfg)
        best = physics.evaluate(ch, periods, design, 1.0, sensing)[3]
        targets = [(w, _channels(ch, pa, pb)[-1].conj())
                   for w, pa, pb in periods]
        n = design.K.size
        for _ in range(1000):
            v1 = rng2.standard_normal(n) + 1j * rng2.standard_normal(n)
            v2 = rng2.standard_normal(n) + 1j * rng2.standard_normal(n)
            got = sum(w * physics.echo_snr_lower_bound(g, design, v, sensing)
                      for (w, g), v in zip(targets, (v1, v2)))
            if got > best * (1 + 1e-12):
                ts_violations += 1
    ok = violations == 0 and ts_violations == 0 and worst_scale < 1e-12
    _report(3, "filter optimality", ok,
            f"ES violations {violations}/100000, TS violations "
            f"{ts_violations}/20000, scale-invariance err {worst_scale:.1e}")


def test_criterion_04_jensen_bound():
    rng = np.random.default_rng(104)
    violations = 0
    min_margin = np.inf
    for _ in range(100):
        inst, ch, design, L, N, M = _instance(rng)
        g_s = _target(ch, inst)
        u = physics.optimal_filter(g_s, design)
        bound = physics.echo_snr_lower_bound(
            g_s, design, u, SensingParams(1.3, 5, 0.7, 1.0))
        mc = naive_echo_snr_montecarlo(g_s, design.K, u, 5, 1.3, 0.7,
                                       draws=1000, rng=rng)
        slack = 1e-9 * max(bound, 1.0)
        min_margin = min(min_margin, (mc - bound) / max(bound, 1e-12))
        if mc < bound - slack:
            violations += 1
    _report(4, "Jensen lower bound", violations == 0,
            f"violations {violations}/100, min relative margin "
            f"{min_margin:.3f} (10^3 draws each)")


def _fd_check(get_loss, flat_get, flat_set, analytic, rng, n_coords=30,
              h=1e-5):
    base = flat_get()
    worst = 0.0
    idx = rng.choice(base.size, min(n_coords, base.size), replace=False)
    for i in idx:
        p = base.copy()
        p[i] += h
        flat_set(p)
        up = get_loss()
        p[i] -= 2 * h
        flat_set(p)
        dn = get_loss()
        num = (up - dn) / (2 * h)
        worst = max(worst, abs(analytic[i] - num) / max(abs(num), 1e-6))
    flat_set(base)
    return worst


def test_criterion_05_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(105)
    batch = {
        "states": rng.standard_normal((6, 4)),
        "actions": rng.uniform(-1, 1, (6, 3)),
        "rewards": rng.standard_normal(6),
        "next_states": rng.standard_normal((6, 4)),
        "dones": np.zeros(6),
    }
    worst = 0.0

    dagent = DdpgAgent(4, 3, hidden=(10, 10), buffer_capacity=8,
                       batch_size=4, seed=1)
    _, cgrads = dagent.critic_loss_and_grads(batch)
    worst = max(worst, _fd_check(
        lambda: dagent.critic_loss_and_grads(batch)[0],
        dagent.critic.get_flat, dagent.critic.set_flat,
        np.concatenate([g.ravel() for g in cgrads]), rng))
    _, agrads = dagent.actor_objective_and_grads(batch)
    worst = max(worst, _fd_check(
        lambda: dagent.actor_objective_and_grads(batch)[0],
        dagent.actor.get_flat, dagent.actor.set_flat,
        np.concatenate([g.ravel() for g in agrads]), rng))

    sagent = SacAgent(4, 3, hidden=(10, 10), buffer_capacity=8,
                      batch_size=4, seed=2)
    eps = rng.standard_normal((6, 3))
    _, pgrads, _ = sagent.policy_loss_and_grads(batch, eps=eps)
    worst = max(worst, _fd_check(
        lambda: sagent.policy_loss_and_grads(batch, eps=eps)[0],
        sagent.policy.get_flat, sagent.policy.set_flat,
        np.concatenate([g.ravel() for g in pgrads]), rng))
    y = sagent.soft_q_target(batch, eps=eps)
    _, c1grads = sagent.critic_loss_and_grads(sagent.critic1, batch, y)
    worst = max(worst, _fd_check(
        lambda: sagent.critic_loss_and_grads(sagent.critic1, batch, y)[0],
        sagent.critic1.get_flat, sagent.critic1.set_flat,
        np.concatenate([g.ravel() for g in c1grads]), rng))

    lp = rng.standard_normal(6)
    _, tg = sagent.temperature_loss_and_grad(lp)
    h = 1e-6
    la0 = sagent.log_alpha[0]
    sagent.log_alpha[0] = la0 + h
    up, _ = sagent.temperature_loss_and_grad(lp)
    sagent.log_alpha[0] = la0 - h
    dn, _ = sagent.temperature_loss_and_grad(lp)
    sagent.log_alpha[0] = la0
    worst = max(worst, abs(tg[0] - (up - dn) / (2 * h))
                / max(abs((up - dn) / (2 * h)), 1e-6))

    _report(5, "gradient correctness", worst < 1e-4,
            f"max relative FD error {worst:.2e}, {time.time() - t0:.1f}s")


def test_criterion_06_reward_branches():
    r1 = physics.reward(0.5, np.array([1.5, 2.0]), 3.0, 1.0, 1.0)
    r2 = physics.reward(5.0, np.array([1.5, 2.0]), 3.0, 1.0, 1.0)
    r3 = physics.reward(5.0, np.array([0.5, 2.0]), 3.0, 1.0, 1.0)
    exact = (r1 == 0.5 and r2 == 6.0 and r3 == 2.5)
    # boundary: with zero rates/secrecy the reward is continuous at
    # SNR_0 = kappa_t
    zero = np.zeros(2)
    at = physics.reward(1.0, zero, 0.0, 1.0, 1.0)
    above = physics.reward(1.0 + 1e-9, zero, 0.0, 1.0, 1.0)
    below = physics.reward(1.0 - 1e-9, zero, 0.0, 1.0, 1.0)
    continuous = (at == 1.0 and abs(above - at) < 1e-8
                  and abs(below - at) < 1e-8)
    _report(6, "reward branches", exact and continuous,
            f"branch values ({r1}, {r2}, {r3}) vs (0.5, 6, 2.5); "
            f"boundary gap {max(abs(above - at), abs(below - at)):.1e}")


# ---------------------------------------------------------------------------
# training-run criteria (per-seed summaries via the on-disk cache)

def test_criterion_07_learning_progress():
    detail = []
    ok = True
    for cfg in (train_cache.default_ddpg(), train_cache.default_sac()):
        sums = train_cache.cached_summaries(cfg)
        wins = sum(s["final_return"] > s["first_return"] for s in sums)
        ok = ok and wins >= 2
        detail.append(f"{cfg.algorithm} improved in {wins}/{len(sums)} seeds")
    _report(7, "learning progress", ok, "; ".join(detail))


def test_criterion_08_algorithm_ordering():
    seeds = train_cache.default_sac().seeds
    ddpg = train_cache.cached_summaries(train_cache.default_ddpg())
    sac = train_cache.cached_summaries(train_cache.default_sac())
    wins = sum(s["final_return"] >= d["final_return"]
               for s, d in zip(sac, ddpg))
    per_seed = ", ".join(
        f"seed {seed} {s['final_return']:.2f}/{d['final_return']:.2f}"
        for seed, s, d in zip(seeds, sac, ddpg))
    _report(8, "algorithm ordering (SAC >= DDPG)", wins >= 2,
            f"SAC >= DDPG in {wins}/{len(sac)} seeds; final returns "
            f"SAC/DDPG {per_seed}")


def test_criterion_09_architecture_ordering():
    sac = train_cache.default_sac()
    means = {}
    for baseline in ("star", "spliced", "conventional"):
        sums = train_cache.cached_summaries(replace(sac, baseline=baseline))
        means[baseline] = float(np.mean([s["final_secrecy"] for s in sums]))
    ok = means["star"] >= means["spliced"] >= means["conventional"]
    _report(9, "architecture ordering", ok,
            "mean secrecy " + ", ".join(f"{k}={v:.3f}"
                                        for k, v in means.items()))


def _mean_secrecy(cfg):
    sums = train_cache.cached_summaries(cfg)
    return float(np.mean([s["final_secrecy"] for s in sums]))


def _monotone(vals, increasing, tol=0.05):
    """At most one adjacent-pair violation of <= tol relative size."""
    soft = 0
    for a, b in zip(vals, vals[1:]):
        if (b >= a) == increasing or b == a:
            continue
        if abs(b - a) / max(abs(a), 1e-12) <= tol:
            soft += 1
        else:
            return False
    return soft <= 1


def test_criterion_10_monotone_trends():
    base = train_cache.default_sac()
    n_curve = [_mean_secrecy(replace(base, N=n)) for n in (8, 12, 24)]
    p_curve = [_mean_secrecy(replace(base, p0_dbm=p)) for p in (30.0, 33.0, 36.0)]
    k_curve = [_mean_secrecy(replace(base, kappa_db=k))
               for k in (1.0, 4.0, 8.0, 12.0)]
    ok = (_monotone(n_curve, True) and _monotone(p_curve, True)
          and _monotone(k_curve, False))
    fmt = lambda c: "[" + ", ".join(f"{v:.3f}" for v in c) + "]"
    _report(10, "monotone trends", ok,
            f"secrecy vs N {fmt(n_curve)}, vs P0 {fmt(p_curve)}, "
            f"vs kappa {fmt(k_curve)}")


def test_criterion_11_runtime_ordering():
    episodes, warmup = 32, 24
    ddpg_ms = measure_runtime(ScenarioConfig(algorithm="ddpg"),
                              episodes=episodes, warmup_episodes=warmup)
    sac_ms = measure_runtime(ScenarioConfig(algorithm="sac"),
                             episodes=episodes, warmup_episodes=warmup)
    _report(11, "runtime ordering (SAC slower)", sac_ms > ddpg_ms,
            f"SAC {sac_ms:.0f} ms/episode vs DDPG {ddpg_ms:.0f} ms/episode")


def test_criterion_12_determinism(tmp_path):
    cfg = ScenarioConfig(episodes=4, seeds=(0,))
    run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg, tmp_path / "b")
    same = all(
        (tmp_path / "a" / name).read_bytes()
        == (tmp_path / "b" / name).read_bytes()
        for name in ("episodes.csv", "summary.csv", "config.echo"))
    _report(12, "determinism", same,
            "episodes.csv/summary.csv/config.echo byte-identical on rerun")
