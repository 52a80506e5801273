"""Process set-up shared by the benchmark's entry points.

`prepare()` must run before numpy is imported anywhere in the process:
OpenBLAS reads its thread count once, when the library loads.
"""

import ctypes
import os
import pathlib
import platform
import sys

# One BLAS thread: BLAS threads alone change certify at n = 14 by 1.5x, and
# one thread keeps every item inside one process on any machine with nproc >= 1.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# scratch space for generated inputs and program outputs, inside the checkout
WORK = ROOT / ".perfbench_work"


def prepare():
    """Pin BLAS threads and import solvflow from this checkout's sources.

    Exits with status 2 when the checkout holds no solvflow sources, so a
    benchmark copied without its program never reports a result.
    """
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "solvflow" / "__init__.py").is_file():
        print(f"perfbench: no solvflow sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def blas_threads_in_use():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
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
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def describe():
    """The facts a reader needs to compare two runs of the benchmark."""
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "machine": platform.machine(),
    }
