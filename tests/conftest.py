"""Test-session setup.

BLAS runs on one thread unless the caller set otherwise, as it does in
the benchmark (``perfbench``) and the acceptance-cache refill
(``tests/train_cache.py``), so the suite trains on the same kernels.
The variables must be set before numpy is first imported, which is why
this happens here, at conftest import.
"""
import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# read now: importing perfbench/run.py later overwrites the variables
_BLAS_THREADS = os.environ["OPENBLAS_NUM_THREADS"]


@pytest.fixture
def blas_threads_set():
    """OPENBLAS_NUM_THREADS as set before numpy was first imported."""
    return _BLAS_THREADS
