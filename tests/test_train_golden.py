"""Behaviour lock for training: per-step outputs of short seeded training
runs of each agent and surface variant, compared against committed values.

Each run trains past the end of replay warm-up, so the first gradient
updates and their effect on the actions are pinned too. The golden file
holds, per run and environment step, the reward, the sum secrecy rate and
the echo SNR. Run this module directly to regenerate it (``python3
tests/test_train_golden.py``), or with ``--check`` to compare every value
at ``==`` (see ``goldens.py``); regenerate only for an intended change of
behaviour, and say so where the change is recorded. Run directly, the
script pins BLAS to one thread, as the test session (``conftest.py``) and
the acceptance-cache refill (``train_cache.py``) do; the file was made on
one thread, so the pytest run compares the same kernels' bits.
"""
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

# after the first update the values' last bits depend on the BLAS thread
# count, so the script pins it before numpy is first imported
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from star_isac.experiments import (ScenarioConfig,  # noqa: E402
                                   episode_columns, run_seed)
from star_isac.rl_core import WARMUP_BATCHES  # noqa: E402

import goldens  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "train_golden.json"

# config overrides per run
RUNS = {
    "ddpg-es": {"algorithm": "ddpg"},
    "sac-es": {},
    "sac-ts": {"protocol": "ts"},
    "sac-spliced": {"baseline": "spliced"},
    "sac-conventional": {"baseline": "conventional"},
}
EPISODES = 25
T = 30
KEYS = ("reward", "sum_secrecy_rate", "echo_snr")
# both agents update once the buffer holds WARMUP_BATCHES batches, after
# the step that stores transition 640; the steps before it depend only on
# the environment and the initial networks
WARMUP = WARMUP_BATCHES * ScenarioConfig().batch_size
# Same code, BLAS kernel and machine give identical bits. Across four
# OpenBLAS kernels and numpy without its AVX2/AVX-512 loops, one machine
# spread the values by up to 1.5e-12 relative before the first update (a
# secrecy rate of 4e-4, the difference of two rates near 1) and 9.2e-12
# after it; a change of numerics moves them by far more than either bound
RTOL_BEFORE_UPDATES = 1e-11
RTOL = 1e-9


def config(name: str) -> ScenarioConfig:
    return replace(ScenarioConfig(), episodes=EPISODES, T=T, seeds=(0,),
                   **RUNS[name])


def run(name: str) -> dict:
    """Per-step outputs of seed 0 (environment seed 1, agent seed 0) of a
    named config, as run_seed records them."""
    cfg = config(name)
    records, _ = run_seed(cfg, 0)
    columns = episode_columns(cfg.M)[4:]
    return {k: records[:, :, columns.index(k)].ravel().tolist()
            for k in KEYS}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(RUNS)
    for values in golden.values():
        assert all(len(v) == EPISODES * T > WARMUP for v in values.values())


@pytest.mark.parametrize("name", list(RUNS))
def test_run_matches_golden(golden, name):
    got = run(name)
    for key, want in golden[name].items():
        have = np.array(got[key])
        want = np.array(want)
        np.testing.assert_allclose(have[:WARMUP], want[:WARMUP],
                                   rtol=RTOL_BEFORE_UPDATES, atol=0.0,
                                   err_msg=f"{name}: {key} before updates")
        np.testing.assert_allclose(have[WARMUP:], want[WARMUP:], rtol=RTOL,
                                   atol=0.0, err_msg=f"{name}: {key}")


if __name__ == "__main__":
    sys.exit(goldens.main(GOLDEN, list(RUNS), run))
