"""The acceptance cache key follows the code's behaviour, not only the
config."""
from dataclasses import replace

import numpy as np
import pytest

from star_isac import sac

import train_cache


@pytest.mark.parametrize("algorithm", ["ddpg", "sac"])
def test_probe_digest_is_reproducible(algorithm):
    assert (train_cache.digest(train_cache.probe_values(algorithm))
            == train_cache.behaviour_digest(algorithm))


def test_digest_ignores_last_bits_but_not_real_changes():
    values = np.random.default_rng(0).standard_normal(50) * 1e3
    base = train_cache.digest(values)
    assert train_cache.digest(values * (1 + 1e-13)) == base
    moved = values.copy()
    moved[17] *= 1 + 1e-4
    assert train_cache.digest(moved) != base


@pytest.mark.parametrize("name,value", [("INIT_ALPHA", 0.02),
                                        ("INIT_LOG_STD", -1.6)])
def test_changed_sac_default_changes_only_sac_keys(monkeypatch, name, value):
    sac_cfg, ddpg_cfg = train_cache.default_sac(), train_cache.default_ddpg()
    before = [train_cache.cache_path(sac_cfg, s) for s in sac_cfg.seeds]
    ddpg_before = train_cache.cache_path(ddpg_cfg, 0)
    monkeypatch.setattr(sac, name, value)
    train_cache.behaviour_digest.cache_clear()
    try:
        after = [train_cache.cache_path(sac_cfg, s) for s in sac_cfg.seeds]
        ddpg_after = train_cache.cache_path(ddpg_cfg, 0)
    finally:
        # drop the digest of the patched agent before other tests read keys
        train_cache.behaviour_digest.cache_clear()
    assert set(after).isdisjoint(before)
    assert ddpg_after == ddpg_before


def test_probe_plays_every_acceptance_environment_and_ts():
    probed = train_cache.probe_env_configs()
    ids = {c.scenario_id() for c in probed}
    for cfg in train_cache.acceptance_configs():
        assert replace(cfg, algorithm="sac").scenario_id() in ids
    assert any(c.protocol == "ts" for c in probed)
