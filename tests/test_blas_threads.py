import ctypes
import json
import os
import pathlib
import subprocess
import sys

import numpy as np  # loads the BLAS these tests inspect
import pytest

from solvflow import mu_of_a


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
work, threads, *names = sys.argv[1:]
for name in names:
    for cmd in ("classify", "curvature"):
        argv = [cmd, "--config", f"{work}/{name}.config.json",
                "--out", f"{work}/{threads}/{cmd}-{name}"]
        if cli.main(argv) != 0:
            sys.exit(f"{cmd} on {name} failed")
"""


def _rotated_triples(rng, n):
    """The triples of mu_of_a of a random n x n matrix in the basis of a
    random orthogonal Q: every structure constant is nonzero."""
    q, _ = np.linalg.qr(rng.standard_normal((n + 1, n + 1)))
    dense = np.einsum("abc,ai,bj,ck->ijk",
                      mu_of_a(rng.standard_normal((n, n))).c, q, q, q,
                      optimize=True)
    return [[i, j, k, float(dense[i, j, k])] for i in range(n + 1)
            for j in range(i + 1, n + 1) for k in range(n + 1)]


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # riem_norm took a BLAS dot, and the sectional numerators a GEMM against
    # the curvature operator on bivectors: the last digits of both followed
    # the thread count (the sectional extremes from n = 32 on)
    rng = np.random.default_rng(0)
    inputs = {f"matrix-{n}": {"matrix": rng.standard_normal((n, n)).tolist()}
              for n in (16, 24, 32, 48)}
    # rotated constants at 48 and across the dims 3-15 that `perfbench`'s
    # certify workload classifies
    for dim in (48, 3, 7, 11, 15):
        inputs[f"rotated-{dim}"] = {
            "dim": dim, "structure_constants": _rotated_triples(rng, dim - 1)}
    for name, payload in inputs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
        (tmp_path / f"{name}.config.json").write_text(
            json.dumps({"input": str(tmp_path / f"{name}.json")}))
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    procs = []
    for threads in ("1", "2"):  # the two processes run side by side
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = threads
        procs.append(subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(tmp_path), threads, *inputs],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True))
    for proc in procs:
        assert proc.wait(timeout=120) == 0, proc.stderr.read()
    for name in inputs:
        for cmd in ("classify", "curvature"):
            one, two = (tmp_path / t / f"{cmd}-{name}" / f"{cmd}.json"
                        for t in ("1", "2"))
            assert one.read_bytes() == two.read_bytes(), (cmd, name)
