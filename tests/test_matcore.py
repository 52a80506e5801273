import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from solvflow import (
    MatrixClass,
    admits_negative_curvature,
    as_matrix,
    classify_matrix,
    commutator,
    eigenvalues,
    frob_inner,
    frob_norm,
    skew_part,
    spectrum_distance,
    sym_part,
)
from solvflow.validate import _random_normal_matrix
from conftest import e12, random_matrix, random_skew


def matrices(max_n=6):
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=n * n, max_size=n * n
        ).map(lambda v: np.array(v).reshape(n, n))
    )


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_sym_skew_decomposition(rng):
    a = random_matrix(rng, 5)
    assert np.allclose(sym_part(a) + skew_part(a), a)
    assert np.allclose(sym_part(a), sym_part(a).T)
    assert np.allclose(skew_part(a), -skew_part(a).T)


def test_frob_inner_matches_trace(rng):
    x, y = random_matrix(rng, 4), random_matrix(rng, 4)
    assert np.isclose(frob_inner(x, y), np.trace(x @ y.T))
    assert np.isclose(frob_norm(x) ** 2, frob_inner(x, x))


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_commutator_is_traceless(a):
    b = np.roll(a, 1, axis=0)
    scale = max(frob_norm(a) * frob_norm(b), 1.0)
    assert abs(np.trace(commutator(a, b))) <= 1e-12 * scale


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_skew_pairing_vanishes(a):
    nrm = frob_norm(a)
    if nrm == 0.0:
        return
    assert abs(frob_inner(a, commutator(a, a.T))) <= 1e-10 * nrm**3


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_bracket_pairing_identity(a):
    comm = commutator(a, a.T)
    lhs = frob_inner(a, commutator(a, comm))
    assert abs(lhs + frob_norm(comm) ** 2) <= 1e-8 * max(frob_norm(comm) ** 2, 1.0)


def test_eigenvalues_known_cases():
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    spec = eigenvalues(rot)
    assert np.allclose(sorted(v.imag for v in spec), [-1.0, 1.0])
    assert np.allclose([v.real for v in spec], 0.0)

    spec = eigenvalues(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(spec, [-1.0, 2.0, 3.0])

    assert np.allclose(eigenvalues(e12()), 0.0)


def test_eigenvalues_canonical_order_is_input_independent(rng):
    a = random_matrix(rng, 5)
    p = np.eye(5)[rng.permutation(5)]
    b = p @ a @ p.T
    assert spectrum_distance(eigenvalues(a), eigenvalues(b)) <= 1e-8


def test_spectrum_distance_zero_on_self(rng):
    spec = eigenvalues(random_matrix(rng, 6))
    assert spectrum_distance(spec, spec) == 0.0


def test_classify_basic_cases(rng):
    assert classify_matrix(random_skew(rng, 4)) is MatrixClass.SKEW
    assert classify_matrix(np.eye(3)) is MatrixClass.NORMAL
    assert classify_matrix(e12()) is MatrixClass.NILPOTENT
    assert classify_matrix(np.array([[0.0, 2.0], [1.0, 1.0]])) is MatrixClass.GENERIC


def test_classify_prefers_skew_over_normal(rng):
    # skew matrices are normal too; the finer label wins
    s = random_skew(rng, 3)
    assert classify_matrix(s) is MatrixClass.SKEW
    assert classify_matrix(_random_normal_matrix(rng, 4) + 0.0) in (
        MatrixClass.NORMAL,
        MatrixClass.SKEW,
    )


@given(matrices(4), st.floats(1e-3, 1e4))
@settings(max_examples=150, deadline=None)
def test_classify_scale_invariant(a, c):
    if frob_norm(a) == 0.0:
        return
    assert classify_matrix(a) is classify_matrix(c * a)


def test_classify_scale_invariant_tiny_entries():
    # the squares of these entries underflow; the class must not change
    a = np.diag([0.0, 2.6317808537667644e-162])
    assert classify_matrix(a) is MatrixClass.NORMAL
    assert classify_matrix(0.5 * a) is MatrixClass.NORMAL


def test_eigenvalues_of_large_finite_matrices_do_not_warn():
    # det(A) and ||A||^8 overflow here; the det check runs at unit scale
    a = np.full((8, 8), 1e39) + np.diag(np.full(8, 9e39))
    spec = eigenvalues(a)
    assert spectrum_distance(spec, [9e39] * 7 + [1.7e40]) <= 1e-14 * 1.7e40
    assert admits_negative_curvature(1e40 * np.eye(8))


def test_eigenvalues_of_a_stack_match_one_by_one(rng):
    stack = np.stack([random_matrix(rng, 4) for _ in range(7)])
    spectra = eigenvalues(stack)
    assert spectra.shape == (7, 4)
    for a, spec in zip(stack, spectra):
        assert spectrum_distance(spec, eigenvalues(a)) <= 1e-13 * frob_norm(a)


def test_eigenvalues_stack_checks_every_member(rng, monkeypatch):
    stack = np.stack([random_matrix(rng, 3) for _ in range(5)])
    eigvals = np.linalg.eigvals

    def unconverged(a):
        vals = eigvals(a)
        vals[..., 3, 0] += 1.0  # one member comes back wrong
        return vals

    monkeypatch.setattr(np.linalg, "eigvals", unconverged)
    with pytest.raises(ArithmeticError):
        eigenvalues(stack)
    bad = stack.copy()
    bad[2, 0, 0] = np.nan
    monkeypatch.undo()
    with pytest.raises(ValueError):
        eigenvalues(bad)
