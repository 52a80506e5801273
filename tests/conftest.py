import numpy as np
import pytest


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
