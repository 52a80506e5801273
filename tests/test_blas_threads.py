import ctypes

import numpy as np  # noqa: F401  (loads the BLAS this test inspects)
import pytest


def _openblas_threads():
    """Thread count of the loaded OpenBLAS, or None when none is found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def test_conftest_pins_one_blas_thread():
    # conftest sets OPENBLAS_NUM_THREADS before numpy loads; a second BLAS
    # thread contending for a busy core slows the large-n soliton tests 5-22x
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS thread-count symbol in this process")
    assert threads == 1
