import os

# One BLAS thread unless the caller chose otherwise.  OpenBLAS reads this
# once, when numpy loads it, so it is set before the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import functools  # noqa: E402
import re  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from solvflow import validate  # noqa: E402
from solvflow.geometry import MetricLieAlgebra  # noqa: E402

# the acceptance criteria c01-... to c12-... among the registry entries
CRITERION = re.compile(r"c\d\d-")
# registry checks at seed 0, each run once per test session
registry_run = functools.cache(validate.run_check)
# one part of a multi-part check's detail: "<label> <residual> (tol <tol>)"
_PART = re.compile(r"(.+) (\S+) \(tol (\S+)\)")


def assert_check_passes(name):
    check = registry_run(name)
    assert check.name == name
    assert check.passed, (f"residual {check.residual:.3g} > tolerance "
                          f"{check.tolerance:.3g}: {check.detail}")


def check_parts(detail):
    """A check's detail as {label: (residual, tolerance)}, one per part."""
    return {m[1]: (float(m[2]), float(m[3])) for m in
            map(_PART.fullmatch, detail.split("; ")) if m}


def assert_parts_pass(name, *labels):
    """Assert that the parts `labels` of registry check `name` pass."""
    parts = check_parts(registry_run(name).detail)
    for label in labels:
        residual, tolerance = parts[label]
        assert residual <= tolerance, f"{name}: {label} {residual:.3g}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_matrix(rng, n):
    return rng.standard_normal((n, n))


def random_skew(rng, n):
    a = rng.standard_normal((n, n))
    return a - a.T


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return a + a.T


def e12(n=2):
    a = np.zeros((n, n))
    a[0, 1] = 1.0
    return a


def so3():
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k], c[j, i, k] = 1.0, -1.0
    return MetricLieAlgebra(c)


def direct_sum(*algebras):
    d = sum(g.dim for g in algebras)
    c = np.zeros((d, d, d))
    o = 0
    for g in algebras:
        c[o:o + g.dim, o:o + g.dim, o:o + g.dim] = g.c
        o += g.dim
    return MetricLieAlgebra(c)


def rotated(g, rng):
    """g in the orthonormal basis of a random orthogonal Q: dense constants."""
    q, _ = np.linalg.qr(rng.standard_normal((g.dim, g.dim)))
    return MetricLieAlgebra(
        np.einsum("abc,ai,bj,ck->ijk", g.c, q, q, q, optimize=True))


def filiform(d):
    """The model filiform algebra: [e_0, e_i] = e_(i+1) for 0 < i < d - 1."""
    c = np.zeros((d, d, d))
    for i in range(1, d - 1):
        c[0, i, i + 1], c[i, 0, i + 1] = 1.0, -1.0
    return MetricLieAlgebra(c)


# the nonzero-trace start that validate's single-limit-window check draws at
# seed 60, before normalization
SEED60_START = np.array([[0.26227535976613325, -3.5458223596647778],
                         [0.026598049543281793, 0.8666230819957111]])
