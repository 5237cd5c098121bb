"""Behaviour lock for the environment: per-step outputs of one seeded
random-action episode in every surface variant and protocol, at three
surface sizes, compared against committed values.

The golden file holds, per config and step, the reward, the sum secrecy
rate, the echo SNR, and the per-user LU, Eve and target rates. Run this
module directly to regenerate it (``PYTHONPATH=src python3
tests/test_env_golden.py``); regenerate only for an intended change of
behaviour, and say so where the change is recorded.
"""
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from star_isac.experiments import ScenarioConfig, build_baseline

GOLDEN = Path(__file__).resolve().parent / "env_golden.json"

# (protocol, baseline) per surface variant
VARIANTS = {
    "star-es": ("es", "star"),
    "star-ts": ("ts", "star"),
    "spliced": ("es", "spliced"),
    "conventional": ("es", "conventional"),
}
SIZES = (8, 12, 24)
T = 30
# float64 results of reordered reductions agree to a few ulps; 1e-12
# leaves three orders of headroom and still catches any change of model
RTOL = 1e-12


def config_names() -> list:
    return [f"{v}-N{n}" for v in VARIANTS for n in SIZES]


def episode(name: str) -> dict:
    """Per-step outputs of one random-action episode of a named config."""
    variant, n = name.rsplit("-N", 1)
    protocol, baseline = VARIANTS[variant]
    cfg = replace(ScenarioConfig(), protocol=protocol, baseline=baseline,
                  N=int(n), T=T)
    env = build_baseline(cfg, seed=7)
    rng = np.random.default_rng(11)
    env.reset()
    keys = ("reward", "sum_secrecy_rate", "echo_snr", "lu_rates",
            "eve_rates", "st_rates")
    out = {k: [] for k in keys}
    for _ in range(env.T):
        step = env.step(rng.uniform(-1.0, 1.0, env.action_dim))
        for k in keys:
            out[k].append(np.asarray(getattr(step, k), float).tolist())
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_config(golden):
    assert sorted(golden) == sorted(config_names())


@pytest.mark.parametrize("name", config_names())
def test_episode_matches_golden(golden, name):
    got = episode(name)
    for key, want in golden[name].items():
        np.testing.assert_allclose(got[key], want, rtol=RTOL, atol=0.0,
                                   err_msg=f"{name}: {key}")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: episode(name)
                                  for name in config_names()}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
