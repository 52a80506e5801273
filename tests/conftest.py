import os

# One BLAS thread unless the caller chose otherwise.  OpenBLAS reads this
# once, when numpy loads it, so it is set before the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


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


# the nonzero-trace start that validate's single-limit-window check draws at
# seed 60, before normalization
SEED60_START = np.array([[0.26227535976613325, -3.5458223596647778],
                         [0.026598049543281793, 0.8666230819957111]])
