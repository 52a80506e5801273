import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from solvflow import (
    MetricLieAlgebra,
    admits_negative_curvature,
    build_curvature_report,
    commutator,
    frob_norm,
    heintze_check,
    mu_of_a,
    ricci_block,
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
from conftest import (direct_sum, e12, filiform, random_matrix, random_skew,
                      rotated, so3)


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


@pytest.mark.parametrize("s", [1.0, 1e-3, 1e-6, 1e-100])
def test_jacobi_check_does_not_depend_on_scale(s, rng):
    # [e0,e1] = e2 and [e0,e2] = e0 is no Lie algebra at any scale; its
    # defect is quadratic in s, so an absolute tolerance let it load
    # below s = 1e-5.  A Lie algebra at the same scale loads.
    with pytest.raises(ValueError, match="Jacobi"):
        MetricLieAlgebra.from_triples(3, [[0, 1, 2, s], [0, 2, 0, s]])
    mu_of_a(s * random_matrix(rng, 3))


@pytest.mark.parametrize("factor, loads", [(0.5, True), (2.0, False)])
def test_jacobi_check_cuts_at_its_tolerance(factor, loads):
    # [e0,e1] = e2 and [e1,e2] = 4 delta e1 at unit scale (largest entry
    # 1/2) leave the Jacobi sum of (e0, e1, e2) at exactly -delta e2
    delta = factor * geometry.JACOBI_TOL
    triples = [[0, 1, 2, 1.0], [1, 2, 1, 4.0 * delta]]
    if loads:
        MetricLieAlgebra.from_triples(3, triples)
    else:
        with pytest.raises(ValueError, match="Jacobi"):
            MetricLieAlgebra.from_triples(3, triples)


def _whole_p_jacobi_defect(u):
    """Oracle: the Jacobi defect from one m^4 GEMM P = u u, with u as (m^2, m)
    and (m, m^2) matrices, P[i,j,k,r] = sum_l u[i,j,l] u[l,k,r], read in
    the three cyclic orders and reduced one slice i at a time."""
    m = u.shape[0]
    p = (u.reshape(m * m, m) @ u.reshape(m, m * m)).reshape(m, m, m, m)
    worst = 0.0
    for i in range(m):
        # (j, k, r): P[i,j,k,r] + P[j,k,i,r] + P[k,i,j,r]
        jac = p[i] + p[:, :, i]
        jac += p[:, i].swapaxes(0, 1)
        worst = max(worst, float(np.abs(jac, out=jac).max()))
    return worst


def _rotated_constants(rng, d):
    """mu_of_a of a random (d-1)-square matrix, rotated: dense constants."""
    return rotated(mu_of_a(random_matrix(rng, d - 1)), rng).c


def _bracket(dim, triples):
    """Structure constants of `triples` as from_triples adds them, unchecked."""
    c = np.zeros((dim, dim, dim))
    for i, j, k, v in triples:
        c[i, j, k] += v
        c[j, i, k] -= v
    return c


@pytest.mark.parametrize("case", [
    pytest.param(lambda n=n: mu_of_a(random_matrix(np.random.default_rng(n), n)).c,
                 id=f"mu-of-random-n{n}") for n in range(1, 9)] + [
    pytest.param(lambda d=d: _rotated_constants(np.random.default_rng(d), d),
                 id=f"rotated-dim{d}") for d in (9, 17)] + [
    pytest.param(lambda: so3().c, id="so3"),
    pytest.param(lambda: filiform(6).c, id="filiform-6"),
    pytest.param(lambda: direct_sum(so3(), mu_of_a(np.eye(2))).c,
                 id="so3+affine"),
    pytest.param(lambda: _bracket(3, [[0, 1, 2, 1.0], [1, 2, 1, 1.0]]),
                 id="non-lie-e1"),
    pytest.param(lambda: _bracket(3, [[0, 1, 2, 1e-100], [0, 2, 0, 1e-100]]),
                 id="non-lie-e0-at-1e-100"),
] + [
    pytest.param(lambda f=f: _bracket(3, [[0, 1, 2, 1.0],
                                          [1, 2, 1, 4.0 * f * geometry.JACOBI_TOL]]),
                 id=f"non-lie-at-{f}-tol") for f in (0.5, 2.0)
])
def test_jacobi_defect_equals_the_whole_p_form(case):
    # as the constructor checks it: antisymmetrized, at unit scale
    c = case()
    u = geometry.unit_scale(0.5 * (c - c.swapaxes(0, 1)))[0]
    got, want = geometry._jacobi_defect(u), _whole_p_jacobi_defect(u)
    assert abs(got - want) <= 1e-13
    assert (got > geometry.JACOBI_TOL) == (want > geometry.JACOBI_TOL)


def test_jacobi_check_holds_d3_arrays():
    # one delta_mu(ad e_i) at a time; the whole P of d^4 doubles took 44 MB
    # at d = 48
    MetricLieAlgebra(mu_of_a(np.eye(2)).c)  # first-call imports stay outside
    d = 48
    c = _rotated_constants(np.random.default_rng(24), d)
    assert _traced_peak(MetricLieAlgebra, c) <= 4 * d**3 * 8


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-12, 1e-20, 1e-100])
def test_antisymmetry_check_does_not_depend_on_scale(s):
    # a bracket symmetric in (i, j); against max(1, scale) it loaded at
    # s = 1e-20, antisymmetrized to the zero bracket
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = c[1, 0, 2] = s
    with pytest.raises(ValueError, match="not antisymmetric"):
        MetricLieAlgebra(c)
    c[1, 0, 2] = -s
    assert MetricLieAlgebra(c).c[0, 1, 2] == s


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


@pytest.mark.parametrize("triple, message", [
    # read through int() and float() as [e0, e1] = 2.5 e1
    ([0, 1.9, True, "2.5"], "1.9 is not an integer in triple"),
    ([0, 1, True, 2.5], "True is not an integer in triple"),
    ([0, 1, 2, "2.5"], "'2.5' is not a number in triple"),
    ([0, 1, 2, 1j], "1j is not a number in triple"),
    ([0, float("nan"), 2, 1.0], "nan is not an integer in triple"),
    ([0, 1, 2, 10**400], "is beyond the range of doubles"),
    (5, r"triple 5 is not \(i, j, k, value\)"),
    # JSON's NaN and Infinity, which json.load reads
    ([0, 1, 2, math.nan], "non-finite structure constants"),
    ([0, 1, 2, -math.inf], "non-finite structure constants"),
    ([0, 3, 1, 1.0], "indices out of range"),
    ([0, 1, 3, 1.0], "indices out of range"),
    ([-1, 1, 0, 1.0], "indices out of range"),
    ([1, 1, 0, 1.0], "indices out of range"),
    ([2, 1, 0, 1.0], "indices out of range"),
], ids=["index-1.9-true-and-string", "boolean-index", "string-value",
        "complex-value", "nan-index", "value-beyond-doubles",
        "entry-not-a-sequence", "nan-value", "infinite-value",
        "j-out-of-range", "k-out-of-range", "negative-i", "i-equals-j",
        "i-above-j"])
def test_triples_are_typed_as_in_a_config_file(triple, message):
    with pytest.raises(ValueError, match=message):
        MetricLieAlgebra.from_triples(3, [triple])


def test_triples_take_integral_floats_and_numpy_scalars():
    g = MetricLieAlgebra.from_triples(
        3, [[0, 1.0, np.int64(2), np.float64(2.5)]])
    assert g.c[0, 1, 2] == 2.5 and g.c[1, 0, 2] == -2.5
    assert np.count_nonzero(g.c) == 2


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
    # third route to Ricci: contract the full tensor
    for _ in range(10):
        n = int(rng.integers(2, 5))
        g = mu_of_a(random_matrix(rng, n))
        direct = ricci_general(g)
        contracted = np.einsum("ijki->jk", riemann_tensor(g))
        assert frob_norm(direct - contracted) <= 1e-9 * max(frob_norm(direct), 1.0)


# ---------------------------------------------------------------------------
# Riemann tensor


def _koszul_riemann(c):
    """Oracle: the Koszul-connection Riemann tensor as three einsums."""
    gamma = 0.5 * (c - np.einsum("ikj->ijk", c) - np.einsum("jki->ijk", c))
    return (np.einsum("jkm,iml->ijkl", gamma, gamma)
            - np.einsum("ikm,jml->ijkl", gamma, gamma)
            - np.einsum("ijm,mkl->ijkl", c, gamma))


@pytest.mark.parametrize("case", [
    pytest.param(lambda n=n: mu_of_a(random_matrix(np.random.default_rng(n), n)),
                 id=f"mu-of-random-n{n}") for n in (2, 8, 16)] + [
    pytest.param(lambda: filiform(6), id="filiform-6"),
    pytest.param(lambda: direct_sum(so3(), MetricLieAlgebra(np.zeros((1, 1, 1)))),
                 id="so3+r"),
])
def test_riemann_gemms_match_the_koszul_einsums(case, monkeypatch):
    g = case()
    oracle = _koszul_riemann(g.c)
    scale = np.max(np.abs(oracle))
    assert scale > 0.0
    assert np.max(np.abs(riemann_tensor(g) - oracle)) <= 1e-14 * scale
    # blocks of one row i each, and of rows that do not divide the dimension
    m = g.dim
    for rows in (1, 4):
        monkeypatch.setattr(geometry, "_RIEMANN_BLOCK_BYTES", rows * 8 * m**3)
        assert np.max(np.abs(riemann_tensor(g) - oracle)) <= 1e-14 * scale


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
    got = geometry._plane_numerators(g.c, xs, ys)
    assert np.max(np.abs(got - nums)) <= 1e-13 * np.max(np.abs(nums))
    grams = (np.sum(xs * xs, axis=1) * np.sum(ys * ys, axis=1)
             - np.sum(xs * ys, axis=1) ** 2)
    keep = grams > 1e-8
    oracle = nums[keep] / grams[keep]
    scale = np.max(np.abs(oracle))
    ks = sample_sectional(g, num_planes=300, seed=3)
    assert ks.shape == oracle.shape
    assert np.max(np.abs(ks - oracle)) <= 1e-12 * scale
    for x, y, k in zip(xs[keep][:20], ys[keep][:20], oracle):
        assert abs(sectional_curvature(g, x, y) - k) <= 1e-12 * scale


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_sectional_temporaries_are_planes_by_d_squared():
    # d = 15, 512 planes: a (planes, d^3) temporary alone would be 13.8 MB
    rng = np.random.default_rng(0)
    assert _traced_peak(sample_sectional, mu_of_a(random_matrix(rng, 14)),
                        512, 0) < 4e6
    # d = 48: one d^4 array alone is 42 MB, and a report that held the
    # curvature tensor peaked at 72 MB
    assert _traced_peak(build_curvature_report,
                        mu_of_a(random_matrix(rng, 47))) < 16e6


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


@pytest.mark.parametrize("s", [1.0, 1e-4, 1e-7, 1e-20, 1e-100])
def test_type3_regime_check_does_not_depend_on_scale(s):
    # tr(A0^2) < 0 and not skew; against max(1, ||A0||^2) it passed at
    # s = 1e-7.  A skew start passes at every scale.
    def traj(a0):
        return integrate(FlowSpec(kind=FlowKind.BRACKET, a0=s * np.array(a0),
                                  t_end=1.0, sample_stride=0.1))

    with pytest.raises(ValueError, match="needs tr"):
        type3_monitor(traj([[0.3, 1.0], [-1.0, 0.0]]))
    assert type3_monitor(traj([[0.0, 1.0], [-1.0, 0.0]])).sup == 0.0


def test_type3_allows_flat_skew_start():
    a0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=1.0, sample_stride=0.1)
    report = type3_monitor(integrate(spec))
    assert report.sup == 0.0
