"""The acceptance cache key follows the behaviour of each entry's own
config, not only the config, and the committed cache holds exactly the
live entries."""
from dataclasses import replace

import numpy as np
import pytest

from star_isac import env, physics, sac, star_ris

import train_cache


def test_committed_cache_holds_exactly_the_live_entries():
    # an orphaned entry would otherwise sit beside the live ones; this
    # checks names only, not that the current code reproduces a file
    live = {train_cache.cache_path(cfg, s).name
            for cfg in train_cache.acceptance_configs() for s in cfg.seeds}
    assert len(live) == 33
    assert {p.name for p in train_cache.CACHE_DIR.iterdir()} == live


def test_probe_runs_an_episode_of_full_updates():
    # a longer replay warm-up must not leave the probes, and so the keys,
    # blind to the updates
    for cfg in train_cache.acceptance_configs():
        assert (train_cache.PROBE_EPISODES
                > train_cache.full_update_episode(cfg))


def test_digest_ignores_last_bits_but_not_real_changes():
    values = np.random.default_rng(0).standard_normal(50) * 1e3
    base = train_cache.digest(values)
    assert train_cache.digest(values * (1 + 1e-13)) == base
    moved = values.copy()
    moved[17] *= 1 + 1e-4
    assert train_cache.digest(moved) != base


def _fresh_digests(cfgs):
    """Digests of fresh probes of cfgs, from the code as patched now."""
    return [train_cache.digest(train_cache.probe_values(c)) for c in cfgs]


def _digests(cfgs):
    """Digests of the code as committed, from the shared digest cache."""
    return [train_cache.behaviour_digest(c) for c in cfgs]


@pytest.mark.parametrize("name,value", [("INIT_ALPHA", 0.02),
                                        ("INIT_LOG_STD", -1.6)])
def test_changed_sac_default_changes_only_sac_keys(monkeypatch, name, value):
    cfgs = [train_cache.default_sac(), train_cache.default_ddpg()]
    before = _digests(cfgs)
    monkeypatch.setattr(sac, name, value)
    after = _fresh_digests(cfgs)
    assert after[0] != before[0]
    assert after[1] == before[1]


def test_change_seen_only_at_n24_moves_only_the_n24_key(monkeypatch):
    base = train_cache.default_sac()
    cfgs = [replace(base, N=24), base, replace(base, N=8),
            train_cache.default_ddpg()]
    before = _digests(cfgs)
    generate = env.generate_episode_channels

    def perturbed(links, T, seed):
        ch = generate(links, T, seed)
        n_elements = links.los.shape[0]   # the LoS term is N x L
        return replace(ch, H=ch.H * 1.01) if n_elements == 24 else ch

    monkeypatch.setattr(env, "generate_episode_channels", perturbed)
    after = _fresh_digests(cfgs)
    assert after[0] != before[0]
    # fresh probes of the other configs reproduce their earlier digests
    assert after[1:] == before[1:]


def test_secrecy_change_moves_the_kappa8_key(monkeypatch):
    # no slot of this probe meets the echo-SNR constraint, so the reward
    # never reads the secrecy rate; the kappa = 12 dB probe is the same
    cfgs = [replace(train_cache.default_sac(), kappa_db=8.0)]
    before = _digests(cfgs)
    secrecy_rate = physics.secrecy_rate
    monkeypatch.setattr(physics, "secrecy_rate",
                        lambda *rates: secrecy_rate(*rates) * 1.01)
    assert _fresh_digests(cfgs) != before


def test_ts_only_change_moves_no_key(monkeypatch):
    # no acceptance run trains in TS, so its probe must not touch it
    cfgs = [replace(train_cache.default_sac(), baseline=b)
            for b in ("star", "spliced", "conventional")]
    before = _digests(cfgs)

    def broken_ts(raw):
        raise AssertionError("a probe decoded a TS action")

    ts = ("star", "ts")
    monkeypatch.setitem(star_ris.SURFACES, ts,
                        (broken_ts, *star_ris.SURFACES[ts][1:]))
    assert _fresh_digests(cfgs) == before
