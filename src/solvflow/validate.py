"""Self-check suite: every library invariant as a named, machine-checkable case.

`_CHECKS` is the one registry: `solvflow validate` runs it, and the test
suite runs it check by check.  Each check returns its worst-case residual,
the contract tolerance and a description.  Each draws its matrices from
its own generator, seeded by the run's seed and the check's function
name, so its inputs do not depend on which other checks run.  The suite
is deliberately desk-scale (seconds, small n) so it can gate a build.

Checks call flow/geometry/soliton routines through their modules (e.g.
``flow.gradient_rhs``) so a deliberately broken routine is picked up by the
corresponding check and nothing else.
"""

import dataclasses
import math
import zlib

import numpy as np

from . import flow
from . import geometry
from . import soliton as soliton_mod
from .casebook import (
    Phase2DPoint,
    ejsol_algebra,
    ejsol_exact,
    ejsol_initial,
    ejsol_k13,
    phase2d_rhs,
    soliton_alpha,
)
from .flow import FlowKind, FlowSpec
from .geometry import mu_of_a
from .matcore import (
    MatrixClass,
    classify_matrix,
    commutator,
    eigenvalues,
    frob_inner,
    frob_norm,
    skew_part,
    spectrum_distance,
    sym_part,
)


@dataclasses.dataclass
class ValidationCheck:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


@dataclasses.dataclass
class ValidationReport:
    seed: int
    checks: list
    passed: bool = dataclasses.field(init=False)

    def __post_init__(self):
        self.passed = all(c.passed for c in self.checks)

    @property
    def failures(self):
        return [c for c in self.checks if not c.passed]


def _random_matrix(rng, n):
    return rng.standard_normal((n, n))


# ---------------------------------------------------------------------------
# core matrix identities


def check_trace_of_commutator(rng, trials=1000):
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        x, y = _random_matrix(rng, n), _random_matrix(rng, n)
        worst = max(worst, abs(np.trace(commutator(x, y)))
                    / (frob_norm(x) * frob_norm(y)))
    return worst, 1e-12, f"{trials} random pairs, n <= 8"


def check_skew_pairing(rng, trials=1000):
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        a = _random_matrix(rng, n)
        worst = max(worst,
                    abs(frob_inner(a, commutator(a, a.T))) / frob_norm(a) ** 3)
    return worst, 1e-10, "<A,[A,At]> vanishes for every A"


def check_bracket_pairing(rng, trials=1000):
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        a = _random_matrix(rng, n)
        comm = commutator(a, a.T)
        lhs = frob_inner(a, commutator(a, comm))
        worst = max(worst, abs(lhs + frob_norm(comm) ** 2)
                    / max(frob_norm(comm) ** 2, 1e-300))
    return worst, 1e-8, "<A,[A,[A,At]]> = -||[A,At]||^2"


def check_eigenvalue_conjugation(rng, trials=200):
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        a = _random_matrix(rng, n)
        while True:
            p = _random_matrix(rng, n)
            if np.linalg.cond(p) < 1e3:
                break
        b = p @ a @ np.linalg.inv(p)
        worst = max(worst, spectrum_distance(eigenvalues(a), eigenvalues(b))
                    / max(1.0, frob_norm(a)))
    return worst, 1e-7, "canonical spectra are conjugation invariants"


def check_classify_scale_invariance(rng, trials=200):
    mismatches = 0
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        a = _random_matrix(rng, n)
        label = classify_matrix(a)
        for c in (1e-3, 7.0, 2e4):
            if classify_matrix(c * a) is not label:
                mismatches += 1
    return mismatches, 0, "label(A) == label(cA) for c > 0"


# ---------------------------------------------------------------------------
# flow identities and trajectory behaviour


def check_norm_decay_identity(rng, trials=1000):
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        a = _random_matrix(rng, n)
        comm = commutator(a, a.T)
        tr_s2 = frob_norm(sym_part(a)) ** 2
        lhs = 2.0 * frob_inner(flow.bracket_rhs(a), a)
        rhs = -2.0 * tr_s2 * frob_norm(a) ** 2 - frob_norm(comm) ** 2
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return worst, 1e-8, "2<RHS,A> = -2tr(S^2)||A||^2 - ||[A,At]||^2"


def check_trace_square_identity(rng, trials=1000):
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        a = _random_matrix(rng, n)
        tr_s2 = frob_norm(sym_part(a)) ** 2
        lhs = 2.0 * frob_inner(flow.bracket_rhs(a), a.T)
        rhs = -2.0 * tr_s2 * np.trace(a @ a)
        worst = max(worst, abs(lhs - rhs) / max(1.0, frob_norm(a) ** 4))
    return worst, 1e-8, "d/dt tr(A^2) = -2 tr(S^2) tr(A^2)"


def check_gradient_finite_difference(rng, trials=200):
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        a = _random_matrix(rng, n)
        grad = -flow.gradient_rhs(a)  # gradient_rhs integrates downhill
        step = 1e-5 * frob_norm(a)
        fd = np.zeros_like(a)
        for i in range(n):
            for j in range(n):
                e = np.zeros_like(a)
                e[i, j] = step
                fd[i, j] = (soliton_mod.F(a + e) - soliton_mod.F(a - e)) / (2 * step)
        worst = max(worst, frob_norm(grad - fd) / max(frob_norm(fd), 1e-300))
    return worst, 1e-4, "gradient flow RHS is -grad of F = ||[A,At]||^2"


def _bracket_trajectories(rng, count=6, t_end=5.0):
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 5))
        a0 = _random_matrix(rng, n)
        spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=t_end)
        out.append(flow.integrate(spec))
    return out


def check_bracket_monitors(rng):
    trajs = _bracket_trajectories(rng)
    bad = sum(len(soliton_mod.monitor_suite(tr)) for tr in trajs)
    return bad, 0, "monotone quantities stay monotone along random runs"


def check_symmetric_decay_bound(rng):
    worst = 0.0
    for tr in _bracket_trajectories(rng, count=4):
        tr_s2 = tr.diagnostics.tr_s2
        if tr_s2[0] <= 0.0:
            continue
        worst = max(worst, float(np.max(
            tr_s2 * (2.0 * tr.times + 1.0 / tr_s2[0]) - 1.0)))
    return worst, 1e-6, "tr(S(A(t))^2) <= 1/(2t + tr(S(A0)^2)^-1)"


def check_spectrum_scaling(rng, count=6):
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 5))
        a0 = _random_matrix(rng, n)
        spec0 = eigenvalues(a0)
        tr0 = float(np.trace(a0))
        spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=2.0,
                        sample_stride=0.1)
        states = flow.integrate(spec).states
        spec_t = eigenvalues(states)
        if abs(tr0) > 1e-8:
            scale = np.trace(states, axis1=1, axis2=2) / tr0
        else:  # least-squares a(t) from the spectra themselves
            scale = (np.real(spec_t @ spec0.conj())
                     / np.real(np.vdot(spec0, spec0)))
        dist = np.max(np.abs(spec_t - scale[:, None] * spec0), axis=1)
        worst = max(worst, float(np.max(
            dist / np.maximum(1.0, np.abs(scale) * frob_norm(a0)))))
    return worst, 1e-5, "Spec(A(t)) = a(t) Spec(A0) at every sample"


def check_normalized_monitors(rng, count=3):
    bad = 0
    for _ in range(count):
        n = int(rng.integers(2, 4))
        b0 = _random_matrix(rng, n)
        b0 /= frob_norm(b0)
        spec = FlowSpec(kind=FlowKind.NORMALIZED, a0=b0, t_end=3.0,
                        sample_stride=0.05)
        bad += len(soliton_mod.monitor_suite(flow.integrate(spec)))
    return bad, 0, "unit norm held, F non-increasing on normalized runs"


def check_normalized_evolution_laws(rng, count=3):
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 4))
        b0 = _random_matrix(rng, n)
        b0 /= frob_norm(b0)
        spec = FlowSpec(kind=FlowKind.NORMALIZED, a0=b0, t_end=2.0,
                        sample_stride=0.02)
        traj = flow.integrate(spec)
        d = traj.diagnostics
        tr_b, tr_b2, f = d.tr_a, d.tr_a2, d.f_normalized
        scale = max(1.0, float(np.max(np.abs(f))))
        # central differences at the interior samples
        dt, mid = traj.times[2:] - traj.times[:-2], slice(1, -1)
        res1 = (tr_b[2:] - tr_b[:-2]) / dt - f[mid] * tr_b[mid]
        res2 = (tr_b2[2:] - tr_b2[:-2]) / dt - 2.0 * f[mid] * tr_b2[mid]
        worst = max(worst, float(np.max(np.abs([res1, res2]) / scale,
                                        initial=0.0)))
    return worst, 5e-3, "d/ds tr(B) = F tr(B), d/ds tr(B^2) = 2F tr(B^2)"


def check_gradient_flow_limits(rng, count=4):
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 4))
        a0 = _random_matrix(rng, n)
        spec = FlowSpec(kind=FlowKind.GRADIENT, a0=a0, t_end=200.0,
                        sample_stride=1.0, stop_when_stationary=1e-12)
        traj = flow.integrate(spec)
        a_inf = traj.states[-1]
        drive = frob_norm(commutator(a_inf, commutator(a_inf, a_inf.T)))
        worst = max(worst, drive / max(1.0, frob_norm(a0) ** 3))
        if soliton_mod.monitor_suite(traj):
            worst = max(worst, 1.0)
    return (worst, 1e-6,
            "descent runs end where [A,[A,At]] = 0 (a normal matrix)")


# ---------------------------------------------------------------------------
# geometry


def check_ricci_dual_route(rng, trials=500):
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        a = _random_matrix(rng, n)
        block = geometry.ricci_block(a)
        general = geometry.ricci_general(mu_of_a(a))
        worst = max(worst, frob_norm(block - general)
                    / max(frob_norm(block), 1e-300))
    return worst, 1e-10, "structure-constant Ricci equals the block formula"


def check_scalar_curvature_formula(rng, trials=500):
    worst = 0.0
    positive = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        a = _random_matrix(rng, n)
        sc = geometry.scalar_curvature(mu_of_a(a))
        expected = -frob_norm(sym_part(a)) ** 2 - float(np.trace(a)) ** 2
        worst = max(worst, abs(sc - expected) / max(abs(expected), 1e-300))
        positive = max(positive, sc)
    return (max(worst, positive), 1e-10,
            "scalar = -tr(S^2) - tr(A)^2 and is never positive")


def _symmetry_residual(g):
    riem = geometry.riemann_tensor(g)
    scale = max(float(np.max(np.abs(riem))), 1e-300)
    res = max(
        float(np.max(np.abs(riem + np.einsum("ijkl->jikl", riem)))),
        float(np.max(np.abs(riem + np.einsum("ijkl->ijlk", riem)))),
        float(np.max(np.abs(riem - np.einsum("ijkl->klij", riem)))),
        float(np.max(np.abs(riem + np.einsum("ijkl->iklj", riem)
                            + np.einsum("ijkl->iljk", riem)))),
    )
    return res / scale


def check_riemann_symmetries(rng, trials=16):
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        worst = max(worst, _symmetry_residual(mu_of_a(_random_matrix(rng, n))))
    worst = max(worst, _symmetry_residual(ejsol_algebra(0.2, 1.0, 1.0)))
    worst = max(worst, _symmetry_residual(ejsol_algebra(1.0, 0.5, 2.0)))
    return worst, 1e-9, "pair antisymmetries, pair exchange, first Bianchi sum"


def check_riemann_scaling(rng, trials=50):
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        a = _random_matrix(rng, n)
        base = geometry.riem_norm(mu_of_a(a))
        for c in (0.5, 2.0, 10.0):
            scaled = geometry.riem_norm(mu_of_a(c * a))
            worst = max(worst, abs(scaled - c * c * base) / (c * c * base))
    return worst, 1e-8, "riem_norm(mu_{cA}) = c^2 riem_norm(mu_A)"


def _witness_curvatures(a, g, riem):
    """Curvatures of two planes that certify a failed Heintze condition.

    With D, S the symmetric and skew parts of A: K(e_0, v) = -lambda_min
    for v the lowest eigenvector of D^2 + [D, S], positive when condition
    (c) fails, and the plane of the extreme eigenvectors of D, for
    condition (b).  Both are the same for A and -A.  Random planes miss a
    positive curvature that is small or confined to a thin set of planes.
    """
    d0 = sym_part(a)
    _, v_c = np.linalg.eigh(sym_part(d0 @ d0 + commutator(d0, skew_part(a))))
    _, v_b = np.linalg.eigh(d0)

    def lift(v):  # the ideal is spanned by e_1, ..., e_n
        return np.concatenate([[0.0], v])

    e0 = np.eye(a.shape[0] + 1)[0]
    return [geometry.sectional_curvature(g, e0, lift(v_c[:, 0]), riem=riem),
            geometry.sectional_curvature(g, lift(v_b[:, 0]), lift(v_b[:, -1]),
                                         riem=riem)]


def _heintze_agrees_with_sample(a, plane_seed):
    g = mu_of_a(a)
    riem = geometry.riemann_tensor(g)
    sampled = geometry.sample_sectional(g, num_planes=1000, seed=plane_seed,
                                        riem=riem)
    k_max = max(float(np.max(sampled)), *_witness_curvatures(a, g, riem))
    return geometry.heintze_check(a).negative == (k_max < 0.0)


def check_heintze_vs_sampled(rng, trials=100):
    mismatches = 0
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        while True:
            a = _random_matrix(rng, n)
            if abs(np.linalg.det(a)) > 1e-2:
                break
        if not _heintze_agrees_with_sample(a, int(rng.integers(0, 2**31))):
            mismatches += 1
    return (mismatches, 0, "closed-form verdict matches the curvature of "
            "1000 random planes and two witness planes")


def _random_normal_matrix(rng, n):
    """Random normal matrix: orthogonal conjugate of a block-diagonal form."""
    blocks = np.zeros((n, n))
    i = 0
    while i < n:
        if i + 1 < n and rng.random() < 0.6:
            re, im = rng.standard_normal(), rng.standard_normal()
            blocks[i, i] = blocks[i + 1, i + 1] = re
            blocks[i, i + 1] = im
            blocks[i + 1, i] = -im
            i += 2
        else:
            blocks[i, i] = rng.standard_normal()
            i += 1
    q, _ = np.linalg.qr(_random_matrix(rng, n))
    return q @ blocks @ q.T


def check_normal_heintze_equivalence(rng, trials=50):
    mismatches = 0
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        while True:
            a = _random_normal_matrix(rng, n)
            if abs(np.linalg.det(a)) > 1e-2:
                break
        if geometry.heintze_check(a).negative != geometry.admits_negative_curvature(a):
            mismatches += 1
    return (mismatches, 0,
            "for normal invertible A the two negativity tests agree")


# ---------------------------------------------------------------------------
# soliton detection


def _constructed_solitons(rng):
    e12_2, e12_3 = np.zeros((2, 2)), np.zeros((3, 3))
    e12_2[0, 1] = e12_3[0, 1] = 1.0
    sym = _random_matrix(rng, 3)
    sym = sym + sym.T
    skew = _random_matrix(rng, 3)
    skew = skew - skew.T
    return [e12_2, e12_3, sym, skew, np.eye(2), np.diag([1.0, 2.0, 3.0])]


def check_fixed_point_vs_classify(rng, trials=200):
    mismatches = 0
    cases = [_random_matrix(rng, int(rng.integers(2, 5)))
             for _ in range(trials)]
    cases += _constructed_solitons(rng)
    for a in cases:
        b = a / frob_norm(a)
        stationary = frob_norm(flow.normalized_rhs(b)) <= 1e-8
        accepted = soliton_mod.classify_soliton(b).accepted
        if stationary != accepted:
            mismatches += 1
    return (mismatches, 0,
            "normalized-flow fixed points are exactly the solitons")


def check_certify_vs_classify(rng, trials=200):
    mismatches = 0
    cases = [_random_matrix(rng, int(rng.integers(2, 5)))
             for _ in range(trials)]
    cases += _constructed_solitons(rng)
    for a in cases:
        via_matrix = soliton_mod.classify_soliton(a).accepted
        via_algebra = soliton_mod.certify_algebraic_soliton(mu_of_a(a)).accepted
        if via_matrix != via_algebra:
            mismatches += 1
    return mismatches, 0, "matrix-level and structure-constant detection agree"


def check_flat_iff_skew(rng, trials=100):
    mismatches = 0
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        a = _random_matrix(rng, n)
        s = skew_part(a)
        if frob_norm(s) > 1e-6:
            if geometry.riem_norm(mu_of_a(s)) > 1e-8 * frob_norm(s) ** 2:
                mismatches += 1
        if classify_matrix(a) is not MatrixClass.SKEW:
            if geometry.riem_norm(mu_of_a(a)) <= 1e-8 * frob_norm(a) ** 2:
                mismatches += 1
    return mismatches, 0, "riem_norm vanishes exactly on skew generators"


def check_normalized_limit_flatness(rng):
    mismatches = 0
    for sigma in (0.0, 0.15, -0.15, 0.3):
        a0 = np.array([[sigma, 2.0], [-1.0, sigma]])
        on_axis = max(abs(v.real) for v in eigenvalues(a0)) <= 1e-12
        spec = FlowSpec(kind=FlowKind.NORMALIZED, a0=a0 / frob_norm(a0),
                        t_end=60.0, sample_stride=1.0,
                        stop_when_stationary=1e-12)
        b_inf = flow.integrate(spec).states[-1]
        is_skew = frob_norm(sym_part(b_inf)) <= 1e-6
        if is_skew != on_axis:
            mismatches += 1
    return (mismatches, 0,
            "unit-norm limit is skew exactly for imaginary spectra")


def check_single_limit_window(rng, count=3):
    worst = 0.0
    for k in range(count):
        n = int(rng.integers(2, 4))
        a0 = _random_matrix(rng, n)
        if k % 2 == 0:
            a0 -= np.trace(a0) / n * np.eye(n)  # traceless case
        spec = FlowSpec(kind=FlowKind.NORMALIZED, a0=a0 / frob_norm(a0),
                        t_end=200.0, sample_stride=1.0,
                        stop_when_stationary=1e-12)
        report = soliton_mod.omega_limit(spec)
        if abs(np.trace(a0)) <= 1e-12:
            samples = np.stack(report.late_samples)
            pairs = samples[:, None] - samples[None]
            worst = max(worst,
                        float(np.max(np.linalg.norm(pairs, axis=(2, 3)))))
        else:
            if not report.spectra_agree:
                worst = max(worst, 1.0)
            res = report.normality_residuals
            worst = max(worst, float(np.max(res) - np.min(res)))
    return (worst, 1e-5,
            "late normalized samples form one point (traceless) or "
            "one orthogonal orbit")


# ---------------------------------------------------------------------------
# worked families


def check_phase_specialization(rng):
    worst = 0.0
    for _ in range(100):
        p = Phase2DPoint(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        rhs = phase2d_rhs(p)
        full = flow.bracket_rhs(p.embed())
        worst = max(worst, abs(full[0, 1] - rhs.x), abs(full[1, 0] - rhs.y),
                    abs(full[0, 0]), abs(full[1, 1]))
    return worst, 1e-12, "planar system equals the full RHS on antidiagonals"


def check_antidiagonal_closure(rng, trials=100):
    worst = 0.0
    for _ in range(trials):
        a = np.zeros((2, 2))
        a[0, 1], a[1, 0] = rng.standard_normal(2)
        rhs = flow.bracket_rhs(a)
        worst = max(worst, abs(rhs[0, 0]), abs(rhs[1, 1]))
    return worst, 1e-12, "the antidiagonal family is invariant under the flow"


def _flow_constants(c0, times, rel_tol):
    """Lauret's bracket flow mu' = -pi(Ric_mu) mu on structure constants.

    The velocity is delta_mu(Ric_mu) = -pi(Ric_mu) mu, from the private
    array forms of `geometry.ricci_general` and `soliton.derivation_defect`,
    so stage states skip the Jacobi check.  Returns the constants at
    `times` (times[0] = 0).
    """
    def rhs(c):
        return soliton_mod._defect_of(c, geometry._ricci_of(c))

    _, states, terminal, _ = flow._adaptive(rhs, c0, times, rel_tol, 1e-15)
    if terminal is not flow.Terminal.REACHED_T_END:
        raise ArithmeticError(
            f"structure-constant flow stopped early: {terminal}")
    return states


def check_bracket_vs_structure_flow(rng, count=3):
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 9))
        spec = FlowSpec(kind=FlowKind.BRACKET, a0=_random_matrix(rng, n),
                        t_end=2.0, sample_stride=0.1, rel_tol=1e-12,
                        abs_tol=1e-15)
        traj = flow.integrate(spec)
        flowed = _flow_constants(mu_of_a(spec.a0).c, traj.times, 1e-12)
        for a, c in zip(traj.states, flowed):
            worst = max(worst, frob_norm(mu_of_a(a).c - c)
                        / max(frob_norm(c), 1e-300))
    return (worst, 1e-10,
            "matrix flow of A is the bracket flow of mu_A at every sample")


def check_family_exact_vs_ode(rng):
    worst = 0.0
    times = np.array([0.0, 1.0, 10.0, 100.0])
    for lam in (0.2, 1.0):
        state0 = ejsol_initial(lam, soliton_alpha(lam))
        flowed = _flow_constants(ejsol_algebra(lam, state0.alpha).c, times,
                                 1e-12)
        for t, c in zip(times[1:], flowed[1:]):
            exact = ejsol_exact(state0, t)
            member = ejsol_algebra(lam, exact.alpha, exact.h).c
            # alpha is the e_3 entry of ad(e_0), h the bracket [e_1, e_2]
            worst = max(worst, abs(c[0, 3, 3] - exact.alpha) / exact.alpha,
                        abs(c[1, 2, 3] - exact.h) / exact.h,
                        frob_norm(c - member) / frob_norm(member))
    return (worst, 1e-8, "closed-form alpha(t), h(t) match the bracket flow "
            "of the structure constants, which stay in the family")


def check_negative_curvature_family(rng):
    worst = 0.0
    lam_max = 2.0 - math.sqrt(3.0)
    for lam in (0.1, lam_max):
        alpha_star = soliton_alpha(lam)
        verdict = soliton_mod.certify_algebraic_soliton(
            ejsol_algebra(lam, alpha_star, 1.0))
        if not verdict.accepted:
            worst = max(worst, 1.0)
        # negative-curvature members exist at large alpha
        g_neg = ejsol_algebra(lam, 4.0, 1.0)
        sampled = geometry.sample_sectional(g_neg, num_planes=512,
                                            seed=int(rng.integers(0, 2**31)))
        worst = max(worst, float(np.max(sampled)))
        # while along the soliton run the watched plane turns non-negative
        state0 = ejsol_initial(lam, alpha_star)
        for t in np.linspace(4.0, 50.0, 12):
            worst = max(worst, -ejsol_k13(ejsol_exact(state0, t)) - 1e-12)
    return (max(worst, 0.0), 0,
            "soliton certified; negative members exist; watched plane "
            "is eventually non-negative")


_CHECKS = {
    "trace-of-commutator": check_trace_of_commutator,
    "skew-pairing": check_skew_pairing,
    "bracket-pairing": check_bracket_pairing,
    "eigenvalue-conjugation": check_eigenvalue_conjugation,
    "classify-scale-invariance": check_classify_scale_invariance,
    "norm-decay-identity": check_norm_decay_identity,
    "trace-square-identity": check_trace_square_identity,
    "gradient-vs-finite-difference": check_gradient_finite_difference,
    "bracket-monitors": check_bracket_monitors,
    "symmetric-decay-bound": check_symmetric_decay_bound,
    "spectrum-scaling": check_spectrum_scaling,
    "normalized-monitors": check_normalized_monitors,
    "normalized-evolution-laws": check_normalized_evolution_laws,
    "gradient-flow-limits": check_gradient_flow_limits,
    "ricci-dual-route": check_ricci_dual_route,
    "scalar-curvature-formula": check_scalar_curvature_formula,
    "riemann-symmetries": check_riemann_symmetries,
    "riemann-scaling": check_riemann_scaling,
    "heintze-vs-sampled-curvature": check_heintze_vs_sampled,
    "normal-heintze-equivalence": check_normal_heintze_equivalence,
    "fixed-point-vs-classify": check_fixed_point_vs_classify,
    "certify-vs-classify": check_certify_vs_classify,
    "flat-iff-skew": check_flat_iff_skew,
    "normalized-limit-flatness": check_normalized_limit_flatness,
    "single-limit-window": check_single_limit_window,
    "phase-specialization": check_phase_specialization,
    "antidiagonal-closure": check_antidiagonal_closure,
    "bracket-vs-structure-flow": check_bracket_vs_structure_flow,
    "family-exact-vs-ode": check_family_exact_vs_ode,
    "negative-curvature-family": check_negative_curvature_family,
}


def run_check(name, seed=0):
    """Run the registered check `name` with its own generator.

    The generator depends only on the seed and the check, so a check gives
    the same result alone as in a full run.
    """
    fn = _CHECKS[name]
    rng = np.random.default_rng([seed, zlib.crc32(fn.__name__.encode())])
    residual, tolerance, detail = fn(rng)
    residual = float(residual)
    return ValidationCheck(name=name, passed=residual <= tolerance,
                           residual=residual, tolerance=tolerance,
                           detail=detail)


def run_validation(seed=0):
    """Run every registered check, in registry order; deterministic per seed."""
    return ValidationReport(seed=int(seed),
                            checks=[run_check(name, seed) for name in _CHECKS])
