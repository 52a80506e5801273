import ctypes
import json
import os
import pathlib
import subprocess
import sys

import numpy as np  # loads the BLAS these tests inspect
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


_CHILD = """
import sys
from solvflow import cli
work, threads = sys.argv[1:]
for n in (16, 24):
    for cmd in ("classify", "curvature"):
        argv = [cmd, "--config", f"{work}/{n}.config.json",
                "--out", f"{work}/{threads}/{cmd}-{n}"]
        if cli.main(argv) != 0:
            sys.exit(f"{cmd} on n = {n} failed")
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # riem_norm took a BLAS dot, whose last digits followed the thread count
    rng = np.random.default_rng(0)
    for n in (16, 24):
        (tmp_path / f"{n}.json").write_text(
            json.dumps({"matrix": rng.standard_normal((n, n)).tolist()}))
        (tmp_path / f"{n}.config.json").write_text(
            json.dumps({"input": str(tmp_path / f"{n}.json")}))
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    procs = []
    for threads in ("1", "2"):  # the two processes run side by side
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = threads
        procs.append(subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(tmp_path), threads], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True))
    for proc in procs:
        assert proc.wait(timeout=120) == 0, proc.stderr.read()
    for n in (16, 24):
        for cmd in ("classify", "curvature"):
            one, two = (tmp_path / t / f"{cmd}-{n}" / f"{cmd}.json"
                        for t in ("1", "2"))
            assert one.read_bytes() == two.read_bytes(), (cmd, n)
