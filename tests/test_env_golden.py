"""Behaviour lock for the environment: per-step outputs of one seeded
random-action episode in every surface variant and protocol, at three
surface sizes, compared against committed values.

The golden file holds, per config and step, the reward, the sum secrecy
rate, the echo SNR, and the per-user LU, Eve and target rates. Run this
module directly to regenerate it (``python3 tests/test_env_golden.py``),
or with ``--check`` to compare every value at ``==`` (see
``goldens.py``); regenerate only for an intended change of behaviour,
and say so where the change is recorded.
"""
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from star_isac.experiments import ScenarioConfig, build_baseline  # noqa: E402

import goldens  # noqa: E402

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


def test_check_names_the_first_differing_step():
    name = config_names()[0]
    want = {name: episode(name)}
    total = sum(np.size(v) for v in want[name].values())
    assert goldens.compare(want, episode) == (None, 0, total, 0.0)
    rates = want[name]["lu_rates"][7]
    rates[1] = math.nextafter(rates[1], 0.0)
    want[name]["lu_rates"][9][0] *= 1.0 + 1e-6
    first, differ, compared, largest = goldens.compare(want, episode)
    assert first.startswith(f"{name}: lu_rates, step 7: ")
    assert (differ, compared) == (2, total)
    assert largest == pytest.approx(1e-6, rel=1e-3)


if __name__ == "__main__":
    sys.exit(goldens.main(GOLDEN, config_names(), episode))
