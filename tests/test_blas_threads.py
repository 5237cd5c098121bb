import ctypes
from pathlib import Path

import numpy as np
import pytest


def openblas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def test_blas_runs_on_the_pinned_thread_count(blas_threads_set):
    """1 thread in a plain run of the suite: tests/conftest.py pins the
    variable unless the caller set it, which takes only if numpy was not
    imported before the conftest."""
    threads = openblas_threads()
    if threads is None:
        pytest.skip("numpy does not bundle OpenBLAS")
    assert threads == int(blas_threads_set)
