"""Self-check suite: every library invariant as a named, machine-checkable case.

`_CHECKS` is the one registry: `solvflow validate` runs it, and the test
suite runs it check by check.  It opens with the twelve acceptance
criteria `c01-...` to `c12-...`, the paper's claims end to end, each
recomputing its expected values from closed forms or cross-routes.  Each
check returns its worst-case residual, the contract tolerance and a
description.  A check with several parts returns the largest
residual / tolerance ratio against tolerance 1.0, with each part's own
value and tolerance in its description (`_parts`).  Each draws its
matrices from its own generator, seeded by the run's seed and the
check's function name, so its inputs do not depend on which other checks
run.  The suite is deliberately desk-scale (seconds, small n) so it can
gate a build.

Checks call flow/geometry/soliton routines through their modules (e.g.
``flow.gradient_rhs``) so a deliberately broken routine is picked up by the
corresponding check and nothing else.
"""

import dataclasses
import math
import zlib

import numpy as np

from . import casebook
from . import flow
from . import geometry
from . import soliton as soliton_mod
from .casebook import (
    Phase2DPoint,
    c_lambda,
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


def _parts(*parts):
    """(label, residual, tolerance) parts as one residual at tolerance 1.0.

    The residual is the largest residual / tolerance.  A failing part
    counts above 1.0 however it rounds, and as inf when its tolerance is 0
    or its residual NaN, so the check passes exactly when every part does.
    """
    worst = 0.0
    for _, res, tol in parts:
        if res <= tol:
            ratio = res / tol if tol > 0 else 0.0
        elif tol > 0 and res > tol:
            ratio = max(res / tol, math.nextafter(1.0, 2.0))
        else:
            ratio = math.inf
        worst = max(worst, ratio)
    return worst, 1.0, "; ".join(f"{label} {float(res):.17g} (tol {tol:g})"
                                 for label, res, tol in parts)


_E12 = np.array([[0.0, 1.0], [0.0, 0.0]])


# ---------------------------------------------------------------------------
# acceptance criteria


def check_c01_closed_form_decay(rng):
    # both starts are solitons: the run, the closed form and the law agree
    cases = [(np.diag([1.0, -1.0]), lambda t: (4.0 * t + 1.0) ** -0.5),
             (_E12, lambda t: (3.0 * t + 1.0) ** -0.5)]
    worst = worst_closed = 0.0
    for a0, law in cases:
        traj = flow.integrate(FlowSpec(kind=FlowKind.BRACKET, a0=a0,
                                       t_end=10.0, sample_stride=0.25))
        for t, a in zip(traj.times, traj.states):
            exact = law(float(t)) * a0
            closed = soliton_mod.closed_form_soliton(a0, float(t))
            worst = max(worst, frob_norm(a - exact) / frob_norm(exact))
            worst_closed = max(worst_closed,
                               frob_norm(closed - exact) / frob_norm(exact))
    return _parts(("run vs law, max rel err", worst, 1e-6),
                  ("closed_form_soliton vs law", worst_closed, 1e-12))


def _fd_gradient(a, step):
    """Central differences of F = ||[A,At]||^2 at `a`, entry by entry."""
    fd = np.zeros_like(a)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            e = np.zeros_like(a)
            e[i, j] = step
            fd[i, j] = (soliton_mod.F(a + e) - soliton_mod.F(a - e)) / (2 * step)
    return fd


def check_c02_algebraic_identities(rng):
    # one draw loop for c02 and the trace-of-commutator, skew-pairing,
    # bracket-pairing and norm-decay-identity checks; each quotient whose
    # scale is max(1, ||A||)^4 is c02's, the other the check's.  c02's
    # |<A,[A,At]>| / max(1, ||A||)^4 <= 1e-8 follows from skew-pairing's
    # |<A,[A,At]>| <= 1e-10 ||A||^3, so only the latter is computed
    w = dict.fromkeys(("trace", "skew", "pair", "pair4", "decay", "decay4",
                       "fd", "fd1"), 0.0)
    for _ in range(5000):
        n = int(rng.integers(2, 9))
        a, y = _random_matrix(rng, n), _random_matrix(rng, n)
        nrm = frob_norm(a)
        scale4 = max(1.0, nrm) ** 4
        comm = commutator(a, a.T)
        f = frob_norm(comm) ** 2
        pair = frob_inner(a, commutator(a, comm)) + f
        s = sym_part(a)
        velocity = 2.0 * frob_inner(flow.bracket_rhs(a), a)
        rhs = -2.0 * frob_norm(s) ** 2 * nrm ** 2 - f
        w["trace"] = max(w["trace"], abs(np.trace(commutator(a, y)))
                         / (nrm * frob_norm(y)))
        w["skew"] = max(w["skew"], abs(frob_inner(a, comm)) / nrm ** 3)
        w["pair"] = max(w["pair"], abs(pair) / max(f, 1e-300))
        w["pair4"] = max(w["pair4"], abs(pair) / scale4)
        w["decay"] = max(w["decay"],
                         abs(velocity - rhs) / max(abs(rhs), 1e-300))
        w["decay4"] = max(w["decay4"], abs(
            velocity + 2.0 * float(np.sum(s * s)) * nrm ** 2 + f) / scale4)
    for _ in range(400):
        n = int(rng.integers(2, 5))
        a = _random_matrix(rng, n)
        nrm = frob_norm(a)
        grad = -flow.gradient_rhs(a)  # gradient_rhs integrates downhill
        fd = _fd_gradient(a, 1e-5 * nrm)
        w["fd"] = max(w["fd"], frob_norm(grad - fd) / max(frob_norm(fd), 1e-300))
        fd = fd if nrm >= 1.0 else _fd_gradient(a, 1e-5)  # c02's step
        w["fd1"] = max(w["fd1"], frob_norm(grad - fd) / max(1.0, frob_norm(fd)))
    return _parts(
        ("|tr[X,Y]|/(||X|| ||Y||)", w["trace"], 1e-12),
        ("|<A,[A,At]>|/||A||^3", w["skew"], 1e-10),
        ("<A,[A,[A,At]]> + ||[A,At]||^2 over ||[A,At]||^2", w["pair"], 1e-8),
        ("the same over max(1,||A||)^4", w["pair4"], 1e-8),
        ("2<RHS,A> = -2tr(S^2)||A||^2 - ||[A,At]||^2, relative", w["decay"],
         1e-8),
        ("the same over max(1,||A||)^4", w["decay4"], 1e-8),
        ("gradient flow RHS vs -grad F by differences", w["fd"], 1e-4),
        ("the same, step and scale at least 1", w["fd1"], 1e-4))


def check_c03_monotone_quantities(rng):
    # c03's 50 starts, each run by both flows at rel_tol 1e-8 to t = 5 and
    # sampled every 0.1, then the starts of the bracket-monitors and
    # symmetric-decay-bound checks (10 bracket runs) and of the
    # normalized-monitors check (3 normalized runs to t = 3), at the default
    # rel_tol 1e-10, sampled every 0.05.  Every rule runs on every run of
    # its flow; c03's allows a rise of 10 rel_tol max(1, previous)
    both = (FlowKind.BRACKET, FlowKind.NORMALIZED)
    starts = ([(both, 5.0, 1e-8, 0.1)] * 50
              + [((FlowKind.BRACKET,), 5.0, 1e-10, 0.05)] * 10
              + [((FlowKind.NORMALIZED,), 3.0, 1e-10, 0.05)] * 3)
    flagged = dict.fromkeys(both, 0)
    worst_rise = worst_bound = 0.0
    for kinds, t_end, rel_tol, stride in starts:
        n = int(rng.integers(2, 6))
        a0 = _random_matrix(rng, n)
        for kind in kinds:
            b0 = a0 if kind is FlowKind.BRACKET else a0 / frob_norm(a0)
            traj = flow.integrate(FlowSpec(kind=kind, a0=b0, t_end=t_end,
                                           rel_tol=rel_tol,
                                           sample_stride=stride))
            flagged[kind] += len(soliton_mod.monitor_suite(traj))
            d = traj.diagnostics
            watched = ((d.norm_sq, d.tr_s2) if kind is FlowKind.BRACKET
                       else (d.f_normalized,))
            for values in watched:
                prev = values[:-1]
                worst_rise = max(worst_rise, float(np.max(
                    (values[1:] - prev) / np.maximum(1.0, prev))) / (10 * rel_tol))
            if kind is FlowKind.BRACKET and d.tr_s2[0] > 0.0:
                worst_bound = max(worst_bound, float(np.max(
                    d.tr_s2 * (2.0 * traj.times + 1.0 / d.tr_s2[0]) - 1.0)))
    return _parts(("monitor_suite flags, bracket runs",
                   flagged[FlowKind.BRACKET], 0),
                  ("monitor_suite flags, normalized runs",
                   flagged[FlowKind.NORMALIZED], 0),
                  ("rise of ||A||^2, tr S^2 or F over max(1, previous), "
                   "in units of 10 rel_tol", worst_rise, 1.0),
                  ("tr(S^2)(2t + 1/tr(S(A0)^2)) - 1", worst_bound, 1e-6))


def check_c04_spectrum_scaling(rng):
    # c04's 20 starts with |tr A0| >= 0.5, the spectrum-scaling check's six
    # free and two traceless starts; each run is sampled every 0.05 on
    # [0, 5], which holds both sample grids
    worst = worst_c04 = 0.0
    for i in range(28):
        n = int(rng.integers(2, 6))
        a0 = _random_matrix(rng, n)
        while i < 20 and abs(np.trace(a0)) < 0.5:
            a0 = _random_matrix(rng, n)
        if i >= 26:  # the two traceless starts
            a0 -= np.trace(a0) / n * np.eye(n)
        spec0, tr0 = eigenvalues(a0), float(np.trace(a0))
        states = flow.integrate(FlowSpec(kind=FlowKind.BRACKET, a0=a0,
                                         t_end=5.0, sample_stride=0.05)).states
        spec_t = eigenvalues(states)
        if abs(tr0) > 1e-8:
            scale = np.trace(states, axis1=1, axis2=2) / tr0
        else:  # least-squares a(t) from the spectra themselves
            scale = (np.real(spec_t @ spec0.conj())
                     / np.real(np.vdot(spec0, spec0)))
        dist = np.max(np.abs(spec_t - scale[:, None] * spec0), axis=1)
        worst = max(worst, float(np.max(
            dist / np.maximum(1.0, np.abs(scale) * frob_norm(a0)))))
        if abs(tr0) >= 0.5:
            scale0 = float(np.max(np.abs(spec0)))
            for spec, factor in zip(spec_t, scale):
                worst_c04 = max(worst_c04, spectrum_distance(
                    spec, factor * spec0) / max(1e-30, abs(factor) * scale0))
    return _parts(("Spec(A(t)) - a(t) Spec(A0) over max(1, |a| ||A0||)",
                   worst, 1e-5),
                  ("the same over |a| max|Spec(A0)|, |tr A0| >= 0.5",
                   worst_c04, 1e-5))


def check_c05_ricci_cross_validation(rng):
    # c05 with the ricci-dual-route and scalar-curvature-formula checks;
    # the route difference over ||Ric|| bounds c05's over max(1, ||Ric||)
    worst_route = worst_scalar = worst_scalar1 = 0.0
    max_scalar = -math.inf
    for _ in range(1500):
        n = int(rng.integers(2, 7))
        a = _random_matrix(rng, n)
        g = mu_of_a(a)
        block = geometry.ricci_block(a)
        worst_route = max(worst_route, frob_norm(block - geometry.ricci_general(g))
                          / max(frob_norm(block), 1e-300))
        sc = geometry.scalar_curvature(g)
        s, tr2 = sym_part(a), float(np.trace(a)) ** 2
        expected = -frob_norm(s) ** 2 - tr2
        worst_scalar = max(worst_scalar,
                           abs(sc - expected) / max(abs(expected), 1e-300))
        expected = -float(np.sum(s * s)) - tr2
        worst_scalar1 = max(worst_scalar1,
                            abs(sc - expected) / max(1.0, -expected))
        max_scalar = max(max_scalar, sc)
    return _parts(("Ricci block vs structure-constant route", worst_route,
                   1e-10),
                  ("scalar vs -tr(S^2) - tr(A)^2, relative", worst_scalar,
                   1e-10),
                  ("the same over max(1, |expected|)", worst_scalar1, 1e-10),
                  ("largest scalar curvature", max_scalar, 0))


def check_c06_flatness_and_skew_limits(rng):
    # flat exactly on skew generators (c06 with the flat-iff-skew check),
    # and bracket runs settle on skew limits
    mismatches = 0
    for _ in range(120):
        n = int(rng.integers(2, 6))
        a = _random_matrix(rng, n)
        s = skew_part(a)
        ns = frob_norm(s)
        flat = geometry.riem_norm(mu_of_a(s))
        mismatches += bool(flat > 1e-8 * max(1.0, ns ** 2)
                           or (ns > 1e-6 and flat > 1e-8 * ns ** 2)
                           or np.any(flow.bracket_rhs(s) != 0.0))
        if classify_matrix(a) is not MatrixClass.SKEW:
            mismatches += geometry.riem_norm(mu_of_a(a)) <= 1e-8 * frob_norm(a) ** 2
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 5))
        spec = FlowSpec(kind=FlowKind.BRACKET, a0=_random_matrix(rng, n),
                        t_end=1e12, rel_tol=1e-8, abs_tol=1e-13,
                        sample_stride=2e10, stop_when_stationary=1e-16)
        a_inf = flow.settle(spec, rest_tol=1e-6)[0].states[-1]
        worst = max(worst, frob_norm(a_inf + a_inf.T) / max(1.0, frob_norm(a_inf)))
    return _parts(("flat-iff-skew mismatches", mismatches, 0),
                  ("limit skew residual", worst, 1e-5))


def check_c07_normalized_limits(rng):
    b0 = np.array([[0.0, 2.0], [1.0, 0.0]])
    b0 /= frob_norm(b0)
    b_inf = flow.integrate(FlowSpec(kind=FlowKind.NORMALIZED, a0=b0,
                                    t_end=120.0, sample_stride=1.0)).states[-1]
    verdict = soliton_mod.classify_soliton(b_inf)
    failed = not (verdict.accepted
                  and frob_norm(b_inf + b_inf.T) > 0.5 * frob_norm(b_inf))
    # perturbations of a rotation that keep the spectrum purely imaginary
    family = [
        np.array([[0.0, 1.3], [-1.0 / 1.3, 0.0]]),
        np.array([[0.2, 1.0], [-1.2, -0.2]]),
        np.array([[-0.15, 0.8], [-0.9, 0.15]]),
        np.array([[0.1, 2.0], [-0.6, -0.1]]),
    ]
    worst = 0.0
    for m in family:
        failed += float(np.max(np.real(eigenvalues(m)))) >= 1e-12
        spec = FlowSpec(kind=FlowKind.NORMALIZED, a0=m / frob_norm(m),
                        t_end=120.0, sample_stride=1.0)
        b_inf = flow.integrate(spec).states[-1]
        worst = max(worst, frob_norm(b_inf + b_inf.T))
    ratio, tol, detail = _parts(
        ("real case not a soliton with a large symmetric part, or a "
         "family spectrum off the imaginary axis", failed, 0),
        ("imaginary family skew residual", worst, 1e-6))
    return ratio, tol, f"real case {verdict.label}; {detail}"


def check_c08_solvable_family_numbers(rng):
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    e3 = np.array([0.0, 0.0, 0.0, 1.0])
    worst_k = 0.0
    for lam in (0.1, 0.2, 0.5, 1.0, 3.8):
        g = ejsol_algebra(lam, soliton_alpha(lam))
        expect = 0.25 - 3.0 * lam / (2.0 * c_lambda(lam))
        worst_k = max(worst_k, abs(geometry.sectional_curvature(g, e1, e3)
                                   - expect))
    lo, hi = 2.0 - math.sqrt(3.0), 2.0 + math.sqrt(3.0)
    sign_errors = 0
    for lam in (0.1, 0.26, 0.28, 0.5, 1.0, 3.7, 3.8):
        g = ejsol_algebra(lam, soliton_alpha(lam))
        k = geometry.sectional_curvature(g, e1, e3)
        sign_errors += (k >= -1e-12) != (lam <= lo or lam >= hi)

    # Lauret's bracket flow of the structure constants (with the
    # family-exact-vs-ode check's soliton starts): alpha(t) and h(t) are
    # read off the flowed constants, which must also stay on the family
    worst_ode = 0.0
    times = np.array([0.0, 1.0, 10.0, 100.0])
    for lam in (0.2, 1.0):
        c = c_lambda(lam)
        for alpha0 in (1.0, soliton_alpha(lam)):
            flowed = _flow_constants(ejsol_algebra(lam, alpha0).c, times, 1e-12)
            for t, mu in zip(times[1:], flowed[1:]):
                exact_a = (2.0 * c * t + alpha0 ** -2.0) ** -0.5
                exact_h = (3.0 * t + 1.0) ** -0.5
                member = ejsol_algebra(lam, exact_a, exact_h).c
                # alpha is the e_3 entry of ad(e_0), h the bracket [e_1, e_2]
                worst_ode = max(worst_ode, abs(mu[0, 3, 3] - exact_a) / exact_a,
                                abs(mu[1, 2, 3] - exact_h) / exact_h,
                                frob_norm(mu - member) / frob_norm(member))

    # crossing time bracketed by the computed curvature's sign change
    lam, alpha0, step = 0.2, 10.0, 0.01
    t0 = casebook.ejsol_curvature_crossing(lam, alpha0)
    miss = math.inf
    for t in np.arange(0.0, 2.0, step):
        alpha = (2.0 * c_lambda(lam) * t + alpha0 ** -2.0) ** -0.5
        hh = (3.0 * t + 1.0) ** -0.5
        g = ejsol_algebra(lam, alpha, hh)
        if geometry.sectional_curvature(g, e1, e3) >= 0.0:
            miss = abs(float(t) - t0)
            break
    return _parts(("K(e1,e3) at the soliton scale", worst_k, 1e-10),
                  ("K(e1,e3) sign errors", sign_errors, 0),
                  ("bracket flow vs exact alpha(t), h(t)", worst_ode, 1e-8),
                  ("crossing time vs first non-negative K", miss, step))


def _antiskew_limit(x0, y0):
    """|x| at the limit on y = -x of the antidiagonal start (x0, y0), with
    x0 y0 < 0.  The planar flow keeps I = (x - y)^2 / (x y)^3, which is
    -4 / x^4 on that line."""
    return (-4.0 * (x0 * y0) ** 3 / (x0 - y0) ** 2) ** 0.25


def check_c09_phase_plane_atlas(rng):
    rows = casebook.phase2d_sweep(casebook.default_phase_grid(), t_end=1e12)
    labels = {}
    worst_line = 0.0
    off_sign_rule = 0
    worst_limit = 0.0
    for row in rows:
        labels[row.label] = labels.get(row.label, 0) + 1
        worst_line = max(worst_line, abs(row.x_inf + row.y_inf))
        antiskew = row.label == "antiskew"
        off_sign_rule += antiskew != (row.x0 * row.y0 < 0.0)
        if antiskew:
            r = _antiskew_limit(row.x0, row.y0)
            worst_limit = max(worst_limit, abs(abs(row.x_inf) - r) / r)
    unclean = labels.get("undecided", 0) + labels.get("step_failure", 0)
    target = np.array([[0.0, 1.0], [1.0, 0.0]]) / math.sqrt(2.0)
    worst_dir = 0.0
    for x, y in ((1.0, 2.0), (2.0, 0.5), (1.0, 1.0), (0.3, 1.7)):
        b0 = np.array([[0.0, x], [y, 0.0]])
        b0 /= frob_norm(b0)
        spec = FlowSpec(kind=FlowKind.NORMALIZED, a0=b0, t_end=120.0,
                        sample_stride=1.0)
        worst_dir = max(worst_dir,
                        frob_norm(flow.integrate(spec).states[-1] - target))
    ratio, tol, detail = _parts(
        ("undecided or step_failure points", unclean, 0),
        ("max |x+y| of the limits", worst_line, 1e-5),
        ("first-quadrant direction error", worst_dir, 1e-4),
        ("antiskew labels off the rule x0*y0 < 0", off_sign_rule, 0),
        ("antiskew |x_inf| vs the first integral, relative", worst_limit,
         1e-5))
    return ratio, tol, f"{len(rows)} points {labels}; {detail}"


def check_c10_reparameterization_bridge(rng):
    worst = 0.0
    bad_steps = 0
    for _ in range(10):
        n = int(rng.integers(2, 5))
        a0 = _random_matrix(rng, n)
        a0 -= np.trace(a0) / n * np.eye(n)
        rep = flow.reparam_bridge(a0, 10.0)
        worst = max(worst, rep.max_residual)
        # the time change is strictly increasing and slows down
        bad_steps += int(np.sum(~(np.diff(rep.tau) > 0))
                         + np.sum(~(np.diff(rep.c) <= 1e-12)))
    return _parts(("bracket run vs c W(tau)", worst, 1e-4),
                  ("samples where tau stalls or c rises by over 1e-12",
                   bad_steps, 0))


def check_c11_type3_decay(rng):
    sups, spreads = [], []
    failed = 0
    for a0 in (np.diag([1.0, -1.0]), _E12, np.eye(2)):
        traj = flow.integrate(FlowSpec(kind=FlowKind.BRACKET, a0=a0,
                                       t_end=1000.0, sample_stride=0.1))
        rep = geometry.type3_monitor(traj)
        window = rep.products[rep.times >= 100.0]
        spread = (np.max(window) - np.min(window)) / np.max(window)
        failed += not (np.isfinite(rep.sup) and rep.sup > 0.0 and spread < 0.01)
        sups.append(rep.sup)
        spreads.append(spread)
    return failed, 0, (
        "starts without a finite positive sup t|Riem| and a late spread "
        "under 0.01; sup = " + ", ".join(f"{s:.17g}" for s in sups)
        + "; spread = " + ", ".join(f"{s:.17g}" for s in spreads))


def check_c12_negativity_in_finite_time(rng):
    failed = 0
    first_times = []
    for _ in range(10):
        n = int(rng.integers(2, 5))
        r = _random_matrix(rng, n)
        # shift the spectrum to Re >= 2: admissible, and the negativity
        # conditions switch on well inside the watched window
        a0 = r + (2.0 - float(np.min(np.real(eigenvalues(r))))) * np.eye(n)
        if not geometry.admits_negative_curvature(a0):
            failed += 1
            continue
        w = casebook.curvature_watch(a0, t_end=100.0)
        failed += not (not w.inconclusive and w.persistent
                       and w.first_negative_time is not None
                       and np.isfinite(w.first_negative_time)
                       and w.sectional_max < 0.0)
        first_times.append(w.first_negative_time)
    return failed, 0, (
        "starts not persistently negative by t = 100; first negative times "
        + ", ".join("n/a" if t is None else f"{t:.17g}" for t in first_times))


# ---------------------------------------------------------------------------
# core matrix identities


def check_eigenvalue_conjugation(rng):
    worst = 0.0
    for _ in range(200):
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


def check_classify_scale_invariance(rng):
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        a = _random_matrix(rng, n)
        label = classify_matrix(a)
        for c in (1e-3, 7.0, 2e4):
            if classify_matrix(c * a) is not label:
                mismatches += 1
    return mismatches, 0, "label(A) == label(cA) for c > 0"


# ---------------------------------------------------------------------------
# flow identities and trajectory behaviour


def check_trace_square_identity(rng):
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        a = _random_matrix(rng, n)
        tr_s2 = frob_norm(sym_part(a)) ** 2
        lhs = 2.0 * frob_inner(flow.bracket_rhs(a), a.T)
        rhs = -2.0 * tr_s2 * np.trace(a @ a)
        worst = max(worst, abs(lhs - rhs) / max(1.0, frob_norm(a) ** 4))
    return worst, 1e-8, "d/dt tr(A^2) = -2 tr(S^2) tr(A^2)"


def check_normalized_evolution_laws(rng):
    worst = 0.0
    for _ in range(3):
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


def check_gradient_flow_limits(rng):
    worst = 0.0
    for _ in range(4):
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


def check_pullback_reconstruction(rng):
    # A(t) = (1/b) phi A0 phi^{-1}: for diag(1,-1) phi commutes with A0 and
    # b = (4t+1)^(1/2); for E12, b' = tr(S^2) b with tr(S^2) = 1/(2(3t+1))
    # gives b = (3t+1)^(1/6)
    parts = []
    for start, a0, law, relative in (
            ("diag(1,-1)", np.diag([1.0, -1.0]),
             lambda t: (4.0 * t + 1.0) ** 0.5, True),
            ("E12", _E12, lambda t: (3.0 * t + 1.0) ** (1.0 / 6.0), False)):
        path = flow.cointegrate_pullback(flow.integrate(FlowSpec(
            kind=FlowKind.BRACKET, a0=a0, t_end=5.0, sample_stride=0.25)))
        b = law(path.times)
        err = np.abs(path.b - b) / (b if relative else 1.0)
        parts += [(f"{start}: truncated", path.truncated, 0),
                  (f"{start}: b vs its law", float(np.max(err)), 1e-7),
                  (f"{start}: reconstruction residual", path.max_residual,
                   1e-7)]
    worst_random = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 5))
        spec = FlowSpec(kind=FlowKind.BRACKET, a0=_random_matrix(rng, n),
                        t_end=3.0, sample_stride=0.25)
        worst_random = max(worst_random, flow.cointegrate_pullback(
            flow.integrate(spec)).max_residual)
    return _parts(*parts, ("reconstruction residual, random starts",
                           worst_random, 1e-6))


# ---------------------------------------------------------------------------
# geometry


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


def check_riemann_symmetries(rng):
    worst = 0.0
    for _ in range(16):
        n = int(rng.integers(2, 6))
        worst = max(worst, _symmetry_residual(mu_of_a(_random_matrix(rng, n))))
    worst = max(worst, _symmetry_residual(ejsol_algebra(0.2, 1.0, 1.0)))
    worst = max(worst, _symmetry_residual(ejsol_algebra(1.0, 0.5, 2.0)))
    return worst, 1e-9, "pair antisymmetries, pair exchange, first Bianchi sum"


def check_riemann_scaling(rng):
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        a = _random_matrix(rng, n)
        base = geometry.riem_norm(mu_of_a(a))
        for c in (0.5, 2.0, 10.0):
            scaled = geometry.riem_norm(mu_of_a(c * a))
            worst = max(worst, abs(scaled - c * c * base) / (c * c * base))
    return worst, 1e-8, "riem_norm(mu_{cA}) = c^2 riem_norm(mu_A)"


def _witness_curvatures(a, g):
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
    return [geometry.sectional_curvature(g, e0, lift(v_c[:, 0])),
            geometry.sectional_curvature(g, lift(v_b[:, 0]), lift(v_b[:, -1]))]


def _heintze_agrees_with_sample(a, plane_seed):
    g = mu_of_a(a)
    sampled = geometry.sample_sectional(g, num_planes=1000, seed=plane_seed)
    k_max = max(float(np.max(sampled)), *_witness_curvatures(a, g))
    return geometry.heintze_check(a).negative == (k_max < 0.0)


def check_heintze_vs_sampled(rng):
    mismatches = 0
    for _ in range(100):
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


def check_normal_heintze_equivalence(rng):
    mismatches = 0
    for _ in range(50):
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
    e12_3 = np.zeros((3, 3))
    e12_3[0, 1] = 1.0
    sym = _random_matrix(rng, 3)
    sym = sym + sym.T
    skew = _random_matrix(rng, 3)
    skew = skew - skew.T
    return [_E12, e12_3, sym, skew, np.eye(2), np.diag([1.0, 2.0, 3.0])]


def check_fixed_point_vs_classify(rng):
    mismatches = 0
    cases = [_random_matrix(rng, int(rng.integers(2, 5)))
             for _ in range(200)]
    cases += _constructed_solitons(rng)
    for a in cases:
        b = a / frob_norm(a)
        stationary = frob_norm(flow.normalized_rhs(b)) <= 1e-8
        accepted = soliton_mod.classify_soliton(b).accepted
        if stationary != accepted:
            mismatches += 1
    return (mismatches, 0,
            "normalized-flow fixed points are exactly the solitons")


def check_certify_vs_classify(rng):
    mismatches = 0
    cases = [_random_matrix(rng, int(rng.integers(2, 5)))
             for _ in range(200)]
    cases += _constructed_solitons(rng)
    for a in cases:
        via_matrix = soliton_mod.classify_soliton(a).accepted
        via_algebra = soliton_mod.certify_algebraic_soliton(mu_of_a(a)).accepted
        if via_matrix != via_algebra:
            mismatches += 1
    return mismatches, 0, "matrix-level and structure-constant detection agree"


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


def check_single_limit_window(rng):
    worst = 0.0
    for k in range(3):
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
    # with c09's 200 points on [-3, 3]^2
    worst = 0.0
    for _ in range(300):
        p = Phase2DPoint(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
        rhs = phase2d_rhs(p)
        full = flow.bracket_rhs(p.embed())
        worst = max(worst, abs(full[0, 1] - rhs.x), abs(full[1, 0] - rhs.y),
                    abs(full[0, 0]), abs(full[1, 1]))
    return worst, 1e-12, "planar system equals the full RHS on antidiagonals"


def check_antidiagonal_closure(rng):
    worst = 0.0
    for _ in range(100):
        a = np.zeros((2, 2))
        a[0, 1], a[1, 0] = rng.standard_normal(2)
        rhs = flow.bracket_rhs(a)
        worst = max(worst, abs(rhs[0, 0]), abs(rhs[1, 1]))
    return worst, 1e-12, "the antidiagonal family is invariant under the flow"


def _flow_constants(c0, times, rel_tol):
    """Lauret's bracket flow mu' = -pi(Ric_mu) mu on structure constants.

    The velocity is delta_mu(Ric_mu) = -pi(Ric_mu) mu, from the private
    array forms of `geometry.ricci_general` and `geometry.derivation_defect`
    (the delta_mu formula that also runs the Jacobi check), so stage
    states skip that check.  Returns the constants at `times` (times[0] = 0).
    """
    def rhs(c):
        return geometry._defect_of(c, geometry._ricci_of(c))

    _, states, terminal, _ = flow._adaptive(rhs, c0, times, rel_tol, 1e-15)
    if terminal is not flow.Terminal.REACHED_T_END:
        raise ArithmeticError(
            f"structure-constant flow stopped early: {terminal}")
    return states


def check_bracket_vs_structure_flow(rng):
    worst = 0.0
    for _ in range(3):
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


def check_negative_curvature_family(rng):
    # shares no formula with c12, which watches random admissible starts
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
    "c01-closed-form-decay": check_c01_closed_form_decay,
    "c02-algebraic-identities": check_c02_algebraic_identities,
    "c03-monotone-quantities": check_c03_monotone_quantities,
    "c04-spectrum-scaling": check_c04_spectrum_scaling,
    "c05-ricci-cross-validation": check_c05_ricci_cross_validation,
    "c06-flatness-and-skew-limits": check_c06_flatness_and_skew_limits,
    "c07-normalized-limits": check_c07_normalized_limits,
    "c08-solvable-family-numbers": check_c08_solvable_family_numbers,
    "c09-phase-plane-atlas": check_c09_phase_plane_atlas,
    "c10-reparameterization-bridge": check_c10_reparameterization_bridge,
    "c11-type3-decay": check_c11_type3_decay,
    "c12-negativity-in-finite-time": check_c12_negativity_in_finite_time,
    "eigenvalue-conjugation": check_eigenvalue_conjugation,
    "classify-scale-invariance": check_classify_scale_invariance,
    "trace-square-identity": check_trace_square_identity,
    "normalized-evolution-laws": check_normalized_evolution_laws,
    "gradient-flow-limits": check_gradient_flow_limits,
    "pullback-reconstruction": check_pullback_reconstruction,
    "riemann-symmetries": check_riemann_symmetries,
    "riemann-scaling": check_riemann_scaling,
    "heintze-vs-sampled-curvature": check_heintze_vs_sampled,
    "normal-heintze-equivalence": check_normal_heintze_equivalence,
    "fixed-point-vs-classify": check_fixed_point_vs_classify,
    "certify-vs-classify": check_certify_vs_classify,
    "normalized-limit-flatness": check_normalized_limit_flatness,
    "single-limit-window": check_single_limit_window,
    "phase-specialization": check_phase_specialization,
    "antidiagonal-closure": check_antidiagonal_closure,
    "bracket-vs-structure-flow": check_bracket_vs_structure_flow,
    "negative-curvature-family": check_negative_curvature_family,
}


def run_check(name, seed=0):
    """Run the registered check `name` with its own generator.

    The generator depends only on the seed and the check, so a check gives
    the same result alone as in a full run.  A check that raises fails,
    with residual inf and the exception in its detail.
    """
    fn = _CHECKS[name]
    rng = np.random.default_rng([seed, zlib.crc32(fn.__name__.encode())])
    try:
        residual, tolerance, detail = fn(rng)
    except Exception as exc:
        return ValidationCheck(name=name, passed=False, residual=math.inf,
                               tolerance=math.nan,
                               detail=f"{type(exc).__name__}: {exc}")
    residual = float(residual)
    return ValidationCheck(name=name, passed=residual <= tolerance,
                           residual=residual, tolerance=tolerance,
                           detail=detail)


def run_validation(seed=0):
    """Run every registered check, in registry order; deterministic per seed."""
    return ValidationReport(seed=int(seed),
                            checks=[run_check(name, seed) for name in _CHECKS])
