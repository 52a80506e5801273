import dataclasses

import numpy as np
import pytest

from solvflow import (
    MetricLieAlgebra,
    admits_negative_curvature,
    commutator,
    frob_norm,
    heintze_check,
    mu_of_a,
    ricci_block,
    ricci_from_riemann,
    ricci_general,
    riem_norm,
    riemann_tensor,
    sample_sectional,
    sectional_curvature,
    sym_part,
    type3_monitor,
    FlowKind,
    FlowSpec,
    integrate,
)
from solvflow import flow, geometry
from solvflow.validate import _random_normal_matrix
from conftest import e12, random_matrix, random_skew


# ---------------------------------------------------------------------------
# structure constants


def test_algebra_constructor_enforces_antisymmetry():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # not antisymmetric: missing the [1,0] counterpart
    with pytest.raises(ValueError):
        MetricLieAlgebra(c)


def test_algebra_constructor_enforces_jacobi():
    # [e0,e1] = e2 and [e1,e2] = e1 leave [[e1,e2],e0] = -e2 uncancelled
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    c[1, 2, 1], c[2, 1, 1] = 1.0, -1.0
    with pytest.raises(ValueError):
        MetricLieAlgebra(c)


def test_algebra_constructor_takes_one_bracket(rng):
    c = mu_of_a(random_matrix(rng, 3)).c
    with pytest.raises(ValueError):
        MetricLieAlgebra(np.stack([c, c]))


def test_triples_round_trip(rng):
    g = mu_of_a(random_matrix(rng, 3))
    triples = [(i, j, k, v) for (i, j, k), v in np.ndenumerate(g.c)
               if i < j and v != 0.0]
    g2 = MetricLieAlgebra.from_triples(g.dim, triples)
    assert np.allclose(g.c, g2.c)


def test_mu_of_a_bracket_relations(rng):
    a = random_matrix(rng, 3)
    g = mu_of_a(a)
    assert g.dim == 4
    # [e0, ei] = A acting on the ideal, [ei, ej] = 0
    for i in range(3):
        assert np.allclose(g.c[0, 1 + i, 1:], a[:, i])
        assert g.c[0, 1 + i, 0] == 0.0
    assert np.allclose(g.c[1:, 1:, :], 0.0)


# ---------------------------------------------------------------------------
# Ricci


def test_ricci_block_structure(rng):
    a = random_matrix(rng, 4)
    ric = ricci_block(a)
    s = sym_part(a)
    assert np.isclose(ric[0, 0], -float(np.sum(s * s)))
    assert np.allclose(ric[0, 1:], 0.0)
    expected = 0.5 * commutator(a, a.T) - np.trace(a) * s
    assert np.allclose(ric[1:, 1:], expected)


def test_ricci_from_riemann_agrees(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        g = mu_of_a(random_matrix(rng, n))
        direct = ricci_general(g)
        contracted = ricci_from_riemann(g)
        assert frob_norm(direct - contracted) <= 1e-9 * max(frob_norm(direct), 1.0)


# ---------------------------------------------------------------------------
# Riemann tensor


def test_flat_iff_skew(rng):
    s = random_skew(rng, 4)
    assert riem_norm(mu_of_a(s)) <= 1e-10 * frob_norm(s) ** 2
    a = random_matrix(rng, 4)
    assert riem_norm(mu_of_a(a)) > 1e-8 * frob_norm(a) ** 2


def test_identity_generator_gives_constant_negative_curvature(rng):
    # A = I makes the metric a real hyperbolic space: K = -1 on every plane
    for n in (2, 3, 4):
        g = mu_of_a(np.eye(n))
        ks = sample_sectional(g, num_planes=200, seed=7)
        assert np.max(np.abs(ks + 1.0)) <= 1e-10
        x = np.zeros(n + 1)
        y = np.zeros(n + 1)
        x[0] = 1.0
        y[1] = 1.0
        assert abs(sectional_curvature(g, x, y) + 1.0) <= 1e-12


@pytest.mark.parametrize("n", [2, 4, 8, 14])
def test_sectional_matches_five_operand_einsum(n):
    rng = np.random.default_rng(n)
    g = mu_of_a(random_matrix(rng, n))
    riem = riemann_tensor(g)
    # the planes sample_sectional draws for seed 3
    planes = np.random.default_rng(3)
    xs = planes.standard_normal((300, n + 1))
    ys = planes.standard_normal((300, n + 1))
    nums = np.einsum("ijkl,pi,pj,pk,pl->p", riem, xs, ys, ys, xs)
    grams = (np.sum(xs * xs, axis=1) * np.sum(ys * ys, axis=1)
             - np.sum(xs * ys, axis=1) ** 2)
    keep = grams > 1e-8
    oracle = nums[keep] / grams[keep]
    scale = np.max(np.abs(oracle))
    ks = sample_sectional(g, num_planes=300, seed=3, riem=riem)
    assert ks.shape == oracle.shape
    assert np.max(np.abs(ks - oracle)) <= 1e-12 * scale
    for x, y, k in zip(xs[keep][:20], ys[keep][:20], oracle):
        assert abs(sectional_curvature(g, x, y, riem=riem) - k) <= 1e-12 * scale


def test_sectional_curvature_rejects_degenerate_plane():
    g = mu_of_a(np.eye(2))
    x = np.array([1.0, 2.0, 0.0])
    with pytest.raises(ValueError):
        sectional_curvature(g, x, -3.0 * x)


# ---------------------------------------------------------------------------
# negativity tests


def test_heintze_known_cases():
    assert heintze_check(np.diag([1.0, 2.0])).negative
    # tr A < 0 orients e_0 the other way
    assert heintze_check(np.diag([-1.0, -2.0])).negative
    assert not heintze_check(np.diag([1.0, -1.0])).negative
    assert not heintze_check(e12()).negative
    v = heintze_check(np.eye(3))
    assert v.cond_a and v.cond_b and v.cond_c and v.negative
    # ||A||^8 and det A overflow; the invertibility test does not
    assert heintze_check(1e40 * np.eye(8)).cond_a


def _two_sign_verdict(a):
    """Heintze's conditions with both orientations of e_0 tried, ranked
    by (negative, cond_b, tr(sign*A) >= 0), ties to +1."""
    s, m = geometry._transversal_block(a)
    cond_a = bool(geometry._invertible(a))
    cond_c, margin_c = geometry._posdef(m)
    verdicts = []
    for sign in (1, -1):
        cond_b, margin_b = geometry._posdef(sign * s)
        verdicts.append(geometry.HeintzeVerdict(
            sign=sign, cond_a=cond_a, cond_b=bool(cond_b), cond_c=bool(cond_c),
            negative=bool(cond_a and cond_b and cond_c),
            margin_b=float(margin_b), margin_c=float(margin_c)))
    return max(verdicts, key=lambda v: (v.negative, v.cond_b,
                                        float(np.trace(v.sign * a)) >= 0.0))


def _heintze_cases(rng, n):
    a = random_matrix(rng, n)
    singular = a.copy()
    singular[:, 0] = 0.0
    return [a, a + 2.0 * np.eye(n), a - 2.0 * np.eye(n),
            a - np.trace(a) / n * np.eye(n), a - a.T, singular,
            np.zeros((n, n))]


def test_heintze_trace_sign_equals_two_sign_ranking():
    rng = np.random.default_rng(15)
    for _ in range(300):  # 2,100 matrices
        for a in _heintze_cases(rng, int(rng.integers(1, 9))):
            a = a * 10.0 ** rng.uniform(-8, 8)
            assert heintze_check(a) == _two_sign_verdict(a)


@pytest.mark.parametrize("n", range(1, 9))
def test_heintze_stack_equals_per_matrix(n):
    rng = np.random.default_rng(n)
    stack = np.stack(_heintze_cases(rng, n) + _heintze_cases(rng, n))
    whole = heintze_check(stack)
    for f in dataclasses.fields(whole):
        assert getattr(whole, f.name).shape == (len(stack),)
    for i, a in enumerate(stack):
        single = heintze_check(a)
        for f in dataclasses.fields(single):
            assert getattr(whole, f.name)[i] == getattr(single, f.name)
            assert type(getattr(whole, f.name)[i].item()) is type(
                getattr(single, f.name))
    one, first = heintze_check(stack[:1]), heintze_check(stack[0])
    for f in dataclasses.fields(one):
        assert getattr(one, f.name).tolist() == [getattr(first, f.name)]


def test_admits_negative_curvature_cases(rng):
    assert admits_negative_curvature(np.eye(3))
    assert admits_negative_curvature(-2.0 * np.eye(3))
    assert not admits_negative_curvature(np.diag([1.0, -1.0]))
    assert not admits_negative_curvature(e12())  # not invertible
    # mixed: spectrum 1, 1, -2 has both signs
    assert not admits_negative_curvature(np.diag([1.0, 1.0, -2.0]))


# ---------------------------------------------------------------------------
# type-III products


def test_type3_bounded_product():
    a0 = np.diag([1.0, -1.0])
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=100.0,
                    sample_stride=1.0)
    report = type3_monitor(integrate(spec))
    assert np.isfinite(report.sup)
    assert report.sup <= 2.0
    # the product approaches a limit from below; the running sup flattens
    running = np.maximum.accumulate(report.products)
    assert running[-1] == report.sup


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_type3_batched_products_match_per_sample(n):
    rng = np.random.default_rng(n)
    a0 = _random_normal_matrix(rng, n)
    a0 = a0 + a0.T  # symmetric, so tr(A0^2) > 0
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=20.0, sample_stride=0.1)
    traj = integrate(spec)
    report = type3_monitor(traj)
    kept = [(t, a) for t, a in zip(traj.times, traj.states)
            if t >= geometry._TYPE3_START]
    assert len(report.products) == len(kept) > 0
    for (t, a), t_rep, prod in zip(kept, report.times, report.products):
        expected = float(t) * riem_norm(mu_of_a(a))
        assert t_rep == t
        assert abs(prod - expected) <= 1e-12 * max(expected, 1e-300)
    assert report.sup == float(np.max(report.products))


@pytest.mark.parametrize("n", [2, 5])
def test_type3_blocks_equal_one_block(n, monkeypatch):
    # blocks of 7 kept samples, the last one short, against one block
    rng = np.random.default_rng(n)
    a0 = _random_normal_matrix(rng, n)
    traj = integrate(FlowSpec(kind=FlowKind.BRACKET, a0=a0 + a0.T,
                              t_end=5.0, sample_stride=0.1))
    monkeypatch.setattr(flow, "_DIAG_BLOCK", len(traj.times))
    whole = type3_monitor(traj)
    monkeypatch.setattr(flow, "_DIAG_BLOCK", 7)
    blocked = type3_monitor(traj)
    assert len(whole.products) > 7 and len(whole.products) % 7
    np.testing.assert_array_equal(blocked.times, whole.times)
    np.testing.assert_array_equal(blocked.products, whole.products)
    assert blocked.sup == whole.sup


def test_type3_empty_window():
    # a skew start is stationary at t = 0, so no sample reaches t_start
    a0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=1.0,
                    sample_stride=0.1, stop_when_stationary=1e-10)
    report = type3_monitor(integrate(spec))
    assert report.sup == 0.0
    assert report.products.size == 0 and report.times.size == 0


def test_type3_rejects_negative_trace_square(rng):
    a0 = np.array([[0.1, 2.0], [-2.0, 0.1]])  # tr(A0^2) < 0, not skew
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=1.0, sample_stride=0.1)
    traj = integrate(spec)
    with pytest.raises(ValueError):
        type3_monitor(traj)


def test_type3_allows_flat_skew_start():
    a0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=1.0, sample_stride=0.1)
    report = type3_monitor(integrate(spec))
    assert report.sup == 0.0
