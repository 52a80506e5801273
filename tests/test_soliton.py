import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from solvflow import (
    NILPOTENT_SOLITON,
    NORMAL_SOLITON,
    NOT_SOLITON,
    FlowKind,
    FlowSpec,
    Terminal,
    certify_algebraic_soliton,
    classify_soliton,
    derivation_basis,
    derivation_defect,
    frob_norm,
    integrate,
    monitor_suite,
    mu_of_a,
    omega_limit,
    ricci_block,
    ricci_general,
    riem_norm,
)
from solvflow import soliton
from solvflow.flow import diagnostic_row
from solvflow.geometry import MetricLieAlgebra
from solvflow.soliton import _defect_of, _runs_of
from solvflow.validate import _random_normal_matrix
from conftest import (SEED60_START, direct_sum, e12, filiform, matrices,
                      random_matrix, random_skew, random_symmetric, rotated,
                      so3)


# ---------------------------------------------------------------------------
# verdict construction


def test_nilpotent_soliton_e12():
    a = e12()
    v = classify_soliton(a)
    assert v.accepted
    assert v.label == NILPOTENT_SOLITON
    assert np.isclose(v.c, -2.0)
    assert np.isclose(v.soliton_constant, -1.5)
    assert np.allclose(v.derivation, np.diag([1.0, 2.0, 1.0]))
    assert v.residuals["ric_decomposition"] <= 1e-12
    # Ric = const*I + D holds against the block formula
    ric = ricci_block(a)
    recon = v.soliton_constant * np.eye(3) + v.derivation
    assert np.allclose(ric, recon)


def test_normal_soliton_diagonal():
    v = classify_soliton(np.diag([1.0, 2.0, 3.0]))
    assert v.accepted
    assert v.label == NORMAL_SOLITON
    assert v.c is None
    assert np.isclose(v.soliton_constant, -14.0)
    assert np.allclose(v.derivation, np.diag([0.0, 8.0, 2.0, -4.0]))


def test_nilpotent_soliton_full_jordan_block():
    j3 = np.zeros((3, 3))
    j3[0, 1] = j3[1, 2] = 1.0
    v = classify_soliton(j3)
    assert v.accepted
    assert v.label == NILPOTENT_SOLITON
    assert np.isclose(v.c, -1.0)
    assert np.isclose(v.soliton_constant, -1.5)


def test_not_a_soliton():
    v = classify_soliton(np.array([[0.0, 2.0], [1.0, 0.0]]))
    assert not v.accepted
    assert v.label == NOT_SOLITON
    assert v.residuals["normality"] > 0.5
    assert v.residuals["nilpotency"] > 0.5


def test_classify_rejects_zero_matrix():
    with pytest.raises(ValueError):
        classify_soliton(np.zeros((2, 2)))


@given(matrices(4), st.floats(1e-3, 1e4))
@example(e12(), 1e-3)
@settings(max_examples=150, deadline=None)
def test_classify_scale_invariant(a, c):
    if frob_norm(a) == 0.0:
        return
    assert classify_soliton(a).label == classify_soliton(c * a).label


def test_classify_scale_invariant_tiny_entries():
    # the squares of these entries underflow; the label must not change
    a = np.diag([0.0, 2.6317808537667644e-162])
    assert classify_soliton(a).label == NORMAL_SOLITON
    assert classify_soliton(0.5 * a).label == NORMAL_SOLITON


def test_skew_and_symmetric_are_normal_solitons(rng):
    assert classify_soliton(random_skew(rng, 3)).label == NORMAL_SOLITON
    assert classify_soliton(random_symmetric(rng, 3)).label == NORMAL_SOLITON


def test_derivation_is_a_derivation(rng):
    for a in (e12(), np.diag([1.0, 2.0, 3.0]), random_symmetric(rng, 3)):
        v = classify_soliton(a)
        assert v.accepted
        g = mu_of_a(a)
        defect = derivation_defect(g, v.derivation)
        assert frob_norm(defect) <= 1e-10 * max(1.0, frob_norm(v.derivation))


# ---------------------------------------------------------------------------
# structure-constant route


def test_certify_constructed_soliton():
    v = certify_algebraic_soliton(mu_of_a(e12()))
    assert v.accepted
    assert v.label == NILPOTENT_SOLITON
    assert v.residuals["ric_decomposition"] <= 1e-12


def test_certify_rejects_non_soliton():
    v = certify_algebraic_soliton(mu_of_a(np.array([[0.0, 2.0], [1.0, 0.0]])))
    assert not v.accepted


def test_certify_tests_nilpotency_only_for_an_accepted_label(rng, monkeypatch):
    calls = []
    real = soliton._algebra_is_nilpotent
    monkeypatch.setattr(soliton, "_algebra_is_nilpotent",
                        lambda g: calls.append(g) or real(g))
    assert not certify_algebraic_soliton(mu_of_a(random_matrix(rng, 5))).accepted
    assert len(calls) == 0
    got = certify_algebraic_soliton(mu_of_a(_random_normal_matrix(rng, 5)))
    assert got.label == NORMAL_SOLITON and len(calls) == 1
    flat = certify_algebraic_soliton(mu_of_a(random_skew(rng, 3)))
    assert flat.soliton_constant == 0.0 and len(calls) == 2


def test_certify_flat_algebra(rng):
    s = random_skew(rng, 3)
    v = certify_algebraic_soliton(mu_of_a(s))
    assert v.accepted
    assert v.soliton_constant == 0.0
    assert riem_norm(mu_of_a(s)) <= 1e-10 * frob_norm(s) ** 2


def test_derivation_basis_spans_derivations(rng):
    g = mu_of_a(e12())
    basis = derivation_basis(g)
    assert len(basis) > 0
    for d in basis:
        assert frob_norm(derivation_defect(g, d)) <= 1e-10


def test_derivation_basis_of_abelian_is_everything():
    g = MetricLieAlgebra(np.zeros((3, 3, 3)))
    assert len(derivation_basis(g)) == 9


def _defect_matrix(c):
    """Oracle: the whole d^3 x d^2 defect matrix, by einsum.

    Row (i, j, k), column p*d + q holds the coefficient of D[p, q] in
    delta_mu(D)[i, j, k].
    """
    d = c.shape[0]
    eye = np.eye(d)
    big = (np.einsum("pjk,iq->ijkpq", c, eye)
           + np.einsum("ipk,jq->ijkpq", c, eye)
           - np.einsum("ijq,kp->ijkpq", c, eye))
    return big.reshape(d**3, d**2)


def _full_defect_nullspace(g, sv_tol=1e-10):
    """Oracle: nullspace rows of the whole defect matrix, by SVD.

    The matrix has d^3 >= d^2 rows, so the reduced SVD's vt is square.
    """
    _, svals, vt = np.linalg.svd(_defect_matrix(g.c), full_matrices=False)
    rank = int(np.sum(svals > sv_tol * (svals[0] if svals.size else 0.0)))
    return vt[rank:]


_BASIS_CASES = {
    "abelian-1": lambda rng: MetricLieAlgebra(np.zeros((1, 1, 1))),
    "abelian-2": lambda rng: MetricLieAlgebra(np.zeros((2, 2, 2))),
    "affine-2": lambda rng: mu_of_a(np.array([[1.0]])),
    "abelian-3": lambda rng: MetricLieAlgebra(np.zeros((3, 3, 3))),
    "heisenberg-3": lambda rng: mu_of_a(e12()),
    "so3": lambda rng: so3(),
    "mu-of-random-n2": lambda rng: mu_of_a(random_matrix(rng, 2)),
    "mu-of-random-n4": lambda rng: mu_of_a(random_matrix(rng, 4)),
    "mu-of-random-n8": lambda rng: mu_of_a(random_matrix(rng, 8)),
    "mu-of-random-n14": lambda rng: mu_of_a(random_matrix(rng, 14)),
    "mu-of-random-n6-rotated": lambda rng: rotated(
        mu_of_a(random_matrix(rng, 6)), rng),
    "heisenberg-3+affine-2": lambda rng: direct_sum(mu_of_a(e12()),
                                                    mu_of_a(np.eye(1))),
    # its affine block's singular values fall below the cutoff of the whole
    "heisenberg-3+affine-2-at-1e-12": lambda rng: direct_sum(
        mu_of_a(e12()), mu_of_a(np.full((1, 1), 1e-12))),
    "filiform-6": lambda rng: filiform(6),
    "so3+r": lambda rng: direct_sum(so3(), MetricLieAlgebra(np.zeros((1, 1, 1)))),
}


@pytest.mark.parametrize("case", list(_BASIS_CASES))
def test_derivation_basis_matches_full_svd_nullspace(case, rng):
    g = _BASIS_CASES[case](rng)
    d = g.dim
    basis = np.array([b.ravel() for b in derivation_basis(g)]).reshape(-1, d * d)
    oracle = _full_defect_nullspace(g)
    assert basis.shape == oracle.shape
    if case.startswith("abelian"):
        assert len(basis) == d * d
    assert np.max(np.abs(basis.T @ basis - oracle.T @ oracle)) <= 1e-10


@pytest.mark.parametrize("case", list(_BASIS_CASES))
def test_defect_of_columns_equal_the_whole_matrix_gather(case, rng):
    # derivation_basis decomposes these columns, kept on their rows i < j
    g = _BASIS_CASES[case](rng)
    d = g.dim
    units = np.eye(d * d).reshape(d * d, d, d)
    columns = np.stack([_defect_of(g.c, e).ravel() for e in units], axis=1)
    np.testing.assert_array_equal(columns, _defect_matrix(g.c))


def _lstsq_certify(g, tol=1e-8):
    """Oracle: Ric by least squares over span(I) + derivation_basis(g).

    Returns (accepted, soliton constant, residual ||Ric - c I - D|| / ||Ric||)
    on g at unit scale, the constant scaled back.
    """
    g, k = g.unit_scaled()
    ric = ricci_general(g)
    d = g.dim
    basis = derivation_basis(g)
    design = np.stack([np.eye(d).ravel()] + [b.ravel() for b in basis], axis=1)
    theta, *_ = np.linalg.lstsq(design, ric.ravel(), rcond=None)
    resid = frob_norm(ric.ravel() - design @ theta) / frob_norm(ric)
    return resid <= tol, theta[0] * 4.0**k, resid


def _oracle_cases():
    # the benchmark's certify inputs n = 2..16 (a normal and a generic A)
    # and e12(n); brackets that are no mu_of_a; dense constants at dim 16.
    # All are far from the tolerance; near it the routes may part, see
    # test_certify_accepts_a_bracket_within_tol_of_a_soliton
    rng = np.random.default_rng(7)
    for n in range(2, 17):
        for a in (_random_normal_matrix(rng, n), random_matrix(rng, n), e12(n)):
            yield mu_of_a(a)
    for case in ("filiform-6", "heisenberg-3+affine-2", "so3+r"):
        yield _BASIS_CASES[case](rng)
    for a in (_random_normal_matrix(rng, 15), random_matrix(rng, 15)):
        yield rotated(mu_of_a(a), rng)


def test_certify_ladder_matches_least_squares_over_derivation_basis():
    rejected = 0
    for g in _oracle_cases():
        got = certify_algebraic_soliton(g)
        accepted, constant, resid = _lstsq_certify(g)
        assert got.accepted == accepted
        if not accepted:
            rejected += 1
            ratio = got.residuals["ric_decomposition"] / resid
            assert 0.1 <= ratio <= 10.0
            continue
        assert abs(got.soliton_constant - constant) <= 1e-12 * abs(constant)
        assert got.label == (NILPOTENT_SOLITON if soliton._algebra_is_nilpotent(g)
                             else NORMAL_SOLITON)
        # D = Ric - c I is a derivation within the documented residual
        ric = ricci_general(g)
        bound = 1e-8 * frob_norm(ric) * g.bracket_norm()
        assert frob_norm(derivation_defect(g, got.derivation)) <= bound
        assert np.allclose(got.derivation + constant * np.eye(g.dim), ric,
                           rtol=0.0, atol=1e-12 * abs(constant))
    assert rejected >= 15


@pytest.mark.parametrize("noise, accepted", [(1e-6, False), (1e-11, True)])
def test_certify_on_a_perturbed_normal_soliton(noise, accepted):
    # both routes; nearer the 1e-8 tolerance their verdicts may differ
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = _random_normal_matrix(rng, 6)
        g = mu_of_a(a + noise * frob_norm(a) * rng.standard_normal((6, 6)))
        assert certify_algebraic_soliton(g).accepted is accepted
        assert _lstsq_certify(g)[0] is accepted


@pytest.mark.parametrize("a, accepted, lstsq_accepted", [
    (1e-6, False, False), (1e-9, True, False), (1e-11, True, True)])
def test_certify_accepts_a_bracket_within_tol_of_a_soliton(
        a, accepted, lstsq_accepted):
    # heisenberg-3 + affine-2 with the affine bracket at a is no soliton
    # for a > 0: (c + a^2) I is no derivation of the affine block.  Its
    # bracket-flow velocity is sqrt(3) a from c mu (relative), so the
    # delta route accepts for a up to about tol / sqrt(3) = 5.8e-9, with a
    # D that is that close to a derivation.  Least squares over
    # derivation_basis rejects at O(1) until the affine block's singular
    # values fall below the basis cutoff, near a = 2e-10; in between the
    # two routes disagree, and this test pins that they do.
    g = direct_sum(mu_of_a(e12()), mu_of_a(np.full((1, 1), a)))
    got = certify_algebraic_soliton(g)
    resid = got.residuals["ric_decomposition"]
    assert resid == pytest.approx(np.sqrt(3.0) * a, rel=1e-6)
    assert got.accepted is accepted
    lstsq_ok, _, lstsq_resid = _lstsq_certify(g)
    assert lstsq_ok is lstsq_accepted
    assert lstsq_ok or lstsq_resid > 0.5
    if accepted:
        assert got.soliton_constant == pytest.approx(-1.5, rel=1e-12)
        scale = frob_norm(ricci_general(g)) * g.bracket_norm()
        defect = frob_norm(derivation_defect(g, got.derivation)) / scale
        assert defect == pytest.approx(resid, rel=1e-6)


def test_certify_memory_is_a_fraction_of_d4_on_dense_constants():
    # a derivation basis by SVD holds the whole defect matrix, d^4 (d-1)/2
    # doubles; rotated constants are dense, so no entry of it is zero
    certify_algebraic_soliton(mu_of_a(np.eye(2)))  # first-call imports
    d = 24
    rng = np.random.default_rng(24)
    g = rotated(mu_of_a(random_matrix(rng, d - 1)), rng)
    tracemalloc.start()
    try:
        certify_algebraic_soliton(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * d**4 * 8


@pytest.mark.parametrize("n", [10, 12, 14, 16])
def test_certify_agrees_with_classify_at_large_n(n):
    rng = np.random.default_rng(n)
    for a in (_random_normal_matrix(rng, n), random_matrix(rng, n), e12(n)):
        expected = classify_soliton(a)
        got = certify_algebraic_soliton(mu_of_a(a))
        assert got.label == expected.label
        if expected.accepted:
            gap = abs(got.soliton_constant - expected.soliton_constant)
            assert gap <= 1e-6 * abs(expected.soliton_constant)


# ---------------------------------------------------------------------------
# monitors


def _clean_run(rng, kind=FlowKind.BRACKET):
    n = 3
    a0 = random_matrix(rng, n)
    if kind is not FlowKind.BRACKET:
        a0 /= frob_norm(a0)
    spec = FlowSpec(kind=kind, a0=a0, t_end=3.0, sample_stride=0.05)
    return integrate(spec)


def test_monitor_clean_runs(rng):
    for kind in (FlowKind.BRACKET, FlowKind.NORMALIZED, FlowKind.GRADIENT):
        assert monitor_suite(_clean_run(rng, kind)) == []


def test_runs_of_matches_a_loop(rng):
    def loop(flags, min_len=3):
        idx, run = [], []
        for i, flag in enumerate(list(flags) + [False]):
            if flag:
                run.append(i)
            else:
                idx += run if len(run) >= min_len else []
                run = []
        return idx

    for _ in range(500):
        flags = rng.random(int(rng.integers(1, 40))) < rng.random()
        assert _runs_of(flags) == loop(flags)


def _corrupted(traj, name, edit):
    """`traj` with one diagnostics column replaced by edit(copy of it)."""
    column = getattr(traj.diagnostics, name).copy()
    edit(column)
    copy = dataclasses.replace(traj)
    copy.diagnostics = dataclasses.replace(traj.diagnostics, **{name: column})
    return copy


def test_monitor_flags_persistent_norm_growth(rng):
    traj = _clean_run(rng)

    def grow(norm_sq):
        # five consecutive samples with compounding norm growth
        norm_sq[20:25] = norm_sq[19] * 1.1 ** np.arange(1, 6)

    hits = monitor_suite(_corrupted(traj, "norm_sq", grow))
    assert any(rule == "norm_sq_increase" for _, rule, _ in hits)


def test_monitor_ignores_isolated_glitches(rng):
    traj = _clean_run(rng)

    def glitch(norm_sq):
        norm_sq[20] *= 1.1

    bad = _corrupted(traj, "norm_sq", glitch)
    assert not any(rule == "norm_sq_increase"
                   for _, rule, _ in monitor_suite(bad))


def test_monitor_flags_trace_sign_flip(rng):
    traj = _clean_run(rng)

    def flip(tr_a):
        tr_a[30:35] = -np.sign(tr_a[0])

    bad = _corrupted(traj, "tr_a", flip)
    assert any(rule == "tr_sign_flip" for _, rule, _ in monitor_suite(bad))


# ---------------------------------------------------------------------------
# omega limits


def test_omega_limit_decaying_bracket_run():
    a0 = np.array([[1.0, 2.0], [0.3, 0.7]])
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=1e12,
                    sample_stride=2e10)
    report = omega_limit(spec)
    assert report.converged
    assert report.skew_residual <= 1e-5
    assert report.spectra_agree
    assert report.t_stop > 1e6


def test_omega_limit_skew_attractor():
    a0 = np.array([[0.0, 2.0], [-1.0, 0.0]])
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=1e12,
                    sample_stride=2e10, rel_tol=1e-8)
    report = omega_limit(spec)
    assert report.converged
    assert frob_norm(report.a_inf) > 0.1
    assert report.skew_residual <= 1e-5


def test_omega_limit_normalized_finds_soliton():
    a0 = np.array([[0.0, 2.0], [1.0, 0.0]])
    b0 = a0 / frob_norm(a0)
    spec = FlowSpec(kind=FlowKind.NORMALIZED, a0=b0, t_end=50.0,
                    sample_stride=0.5)
    report = omega_limit(spec)
    assert report.converged
    assert report.verdict is not None and report.verdict.accepted
    expected = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)
    assert frob_norm(report.a_inf - expected) <= 1e-6
    # the limit is symmetric, not flat
    assert report.skew_residual > 0.5


def test_omega_limit_converges_on_the_seed60_start():
    # one pass to t_end = 200 ends in its transient, with ||rhs|| levelling
    # off near 1e-10 above the 1e-12 threshold
    b0 = SEED60_START / frob_norm(SEED60_START)
    spec = FlowSpec(kind=FlowKind.NORMALIZED, a0=b0,
                    t_end=200.0, sample_stride=1.0, stop_when_stationary=1e-12)
    report = omega_limit(spec)
    assert report.converged
    assert report.terminal is Terminal.STATIONARY
    assert report.eps_achieved <= 1e-12
    # the endpoint's ||rhs|| is the diagnostics' own, bit for bit
    assert report.eps_achieved == (
        diagnostic_row(report.a_inf, FlowKind.NORMALIZED).rhs_norm[0]
        / max(1.0, frob_norm(report.a_inf)))
    assert report.t_stop > spec.t_end
    assert report.verdict.accepted and report.spectra_agree
    res = report.normality_residuals
    assert max(res) - min(res) <= 1e-5


def test_omega_limit_of_a_start_at_rest():
    # a skew start is a fixed point: the run stops at t = 0, there is no
    # span to resample, and the late window is the start itself
    a0 = np.array([[0.0, 2.0], [-2.0, 0.0]])
    report = omega_limit(FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=10.0))
    assert report.t_stop == 0.0
    assert report.terminal is Terminal.STATIONARY
    assert report.converged and report.spectra_agree
    assert len(report.late_samples) == 1
    np.testing.assert_array_equal(report.late_samples[0], a0)
    assert report.normality_residuals == [0.0]
    assert report.eps_achieved == 0.0


def test_omega_limit_rejects_gradient_kind(rng):
    a0 = random_matrix(rng, 2)
    spec = FlowSpec(kind=FlowKind.GRADIENT, a0=a0, t_end=10.0)
    with pytest.raises(ValueError):
        omega_limit(spec)
