"""Acceptance gate: twelve end-to-end checks, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines; each
check recomputes its expected values from closed forms or cross-routes,
never from the code under test.
"""

import math

import numpy as np

from solvflow import (
    FlowKind,
    FlowSpec,
    admits_negative_curvature,
    bracket_rhs,
    c_lambda,
    classify_soliton,
    commutator,
    curvature_watch,
    default_phase_grid,
    eigenvalues,
    ejsol_algebra,
    ejsol_curvature_crossing,
    frob_inner,
    frob_norm,
    gradient_rhs,
    integrate,
    mu_of_a,
    phase2d_rhs,
    phase2d_sweep,
    reparam_bridge,
    ricci_block,
    ricci_general,
    riem_norm,
    scalar_curvature,
    sectional_curvature,
    settle,
    skew_part,
    soliton_alpha,
    spectrum_distance,
    sym_part,
    type3_monitor,
    validate,
)
from solvflow.soliton import F


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


E12 = np.array([[0.0, 1.0], [0.0, 0.0]])


def _run(a0, t_end, kind=FlowKind.BRACKET, rel_tol=1e-10, stride=None,
         stop=None):
    spec = FlowSpec(kind=kind, a0=a0, t_end=t_end, rel_tol=rel_tol,
                    abs_tol=1e-13,
                    sample_stride=stride if stride is not None else t_end / 50,
                    stop_when_stationary=stop)
    return integrate(spec)


def test_c01_closed_form_decay():
    cases = [
        (np.diag([1.0, -1.0]), lambda t: (4.0 * t + 1.0) ** -0.5),
        (E12, lambda t: (3.0 * t + 1.0) ** -0.5),
    ]
    worst = 0.0
    for a0, law in cases:
        traj = _run(a0, 10.0, stride=0.25)
        for t, a in zip(traj.times, traj.states):
            exact = law(float(t)) * a0
            worst = max(worst, frob_norm(a - exact) / frob_norm(exact))
    report(1, "closed-form decay", worst <= 1e-6, f"max rel err {worst:.3g}")


def test_c02_algebraic_identities():
    rng = np.random.default_rng(201)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n))
        br = commutator(a, a.T)
        f = frob_norm(br) ** 2
        s = sym_part(a)
        tr_s2 = float(np.sum(s * s))
        nrm2 = frob_norm(a) ** 2
        scale = max(1.0, frob_norm(a)) ** 4
        r1 = abs(frob_inner(a, br)) / scale
        r2 = abs(frob_inner(a, commutator(a, br)) + f) / scale
        r3 = abs(2.0 * frob_inner(bracket_rhs(a), a)
                 + 2.0 * tr_s2 * nrm2 + f) / scale
        worst = max(worst, r1, r2, r3)
    worst_fd = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        a = rng.standard_normal((n, n))
        eps = 1e-5 * max(1.0, frob_norm(a))
        fd = np.zeros_like(a)
        for i in range(n):
            for j in range(n):
                e = np.zeros_like(a)
                e[i, j] = eps
                fd[i, j] = -(F(a + e) - F(a - e)) / (2.0 * eps)
        g = gradient_rhs(a)
        worst_fd = max(worst_fd, frob_norm(g - fd) / max(1.0, frob_norm(fd)))
    ok = worst <= 1e-8 and worst_fd <= 1e-4
    report(2, "algebraic identities", ok,
           f"identity rel {worst:.3g}, gradient-vs-FD rel {worst_fd:.3g}")


def test_c03_monotone_quantities():
    rng = np.random.default_rng(202)
    rel_tol = 1e-8
    slack = 10.0 * rel_tol
    ok = True
    worst_bound = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        a0 = rng.standard_normal((n, n))
        traj = _run(a0, 5.0, rel_tol=rel_tol, stride=0.1)
        d = traj.diagnostics
        for values in (d.norm_sq, d.tr_s2):
            prev = values[:-1]
            ok &= bool(np.all(values[1:]
                              <= prev + slack * np.maximum(1.0, prev)))
        worst_bound = max(worst_bound, float(np.max(
            d.tr_s2 * (2.0 * traj.times + 1.0 / d.tr_s2[0]))))
        b0 = a0 / frob_norm(a0)
        f = _run(b0, 5.0, kind=FlowKind.NORMALIZED, rel_tol=rel_tol,
                 stride=0.1).diagnostics.f_normalized
        ok &= bool(np.all(f[1:] <= f[:-1] + slack * np.maximum(1.0, f[:-1])))
    ok = ok and worst_bound <= 1.0 + 1e-6
    report(3, "monotone quantities", ok,
           f"symmetric decay bound max {worst_bound:.9f}")


def test_c04_spectrum_scaling():
    rng = np.random.default_rng(203)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a0 = rng.standard_normal((n, n))
        while abs(np.trace(a0)) < 0.5:
            a0 = rng.standard_normal((n, n))
        spec0 = eigenvalues(a0)
        tr0 = float(np.trace(a0))
        traj = _run(a0, 5.0, stride=0.25)
        scale0 = float(np.max(np.abs(spec0)))
        for a in traj.states:
            factor = float(np.trace(a)) / tr0
            dist = spectrum_distance(eigenvalues(a), factor * spec0)
            worst = max(worst, dist / max(1e-30, abs(factor) * scale0))
    report(4, "spectrum scaling", worst <= 1e-5, f"max rel err {worst:.3g}")


def test_c05_ricci_cross_validation():
    rng = np.random.default_rng(204)
    worst = 0.0
    worst_scalar = 0.0
    max_scalar = -math.inf
    for _ in range(500):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n))
        block = ricci_block(a)
        general = ricci_general(mu_of_a(a))
        scale = max(1.0, frob_norm(block))
        worst = max(worst, frob_norm(block - general) / scale)
        s = sym_part(a)
        expect = -float(np.sum(s * s)) - float(np.trace(a)) ** 2
        got = scalar_curvature(mu_of_a(a))
        worst_scalar = max(worst_scalar, abs(got - expect) / max(1.0, -expect))
        max_scalar = max(max_scalar, got)
    ok = worst <= 1e-10 and worst_scalar <= 1e-10 and max_scalar <= 0.0
    report(5, "ricci cross-validation", ok,
           f"route diff {worst:.3g}, scalar diff {worst_scalar:.3g}, "
           f"max scalar {max_scalar:.3g}")


def test_c06_flatness_and_skew_limits():
    rng = np.random.default_rng(205)
    flat_ok = True
    for _ in range(20):
        n = int(rng.integers(2, 6))
        s = rng.standard_normal((n, n))
        s = skew_part(s)
        flat_ok &= riem_norm(mu_of_a(s)) <= 1e-8 * max(1.0, frob_norm(s) ** 2)
        flat_ok &= bool(np.all(bracket_rhs(s) == 0.0))
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 5))
        a0 = rng.standard_normal((n, n))
        spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=1e12,
                        rel_tol=1e-8, abs_tol=1e-13, sample_stride=2e10,
                        stop_when_stationary=1e-16)
        traj, _ = settle(spec, rest_tol=1e-6)
        a_inf = traj.states[-1]
        res = frob_norm(a_inf + a_inf.T) / max(1.0, frob_norm(a_inf))
        worst = max(worst, res)
    ok = flat_ok and worst <= 1e-5
    report(6, "flat skew limits", ok, f"max limit skew residual {worst:.3g}")


def test_c07_normalized_limits():
    b0 = np.array([[0.0, 2.0], [1.0, 0.0]])
    b0 /= frob_norm(b0)
    traj = _run(b0, 120.0, kind=FlowKind.NORMALIZED, stride=1.0)
    b_inf = traj.states[-1]
    verdict = classify_soliton(b_inf)
    real_ok = (verdict.accepted
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
        assert float(np.max(np.real(eigenvalues(m)))) < 1e-12
        b = m / frob_norm(m)
        traj = _run(b, 120.0, kind=FlowKind.NORMALIZED, stride=1.0)
        b_inf = traj.states[-1]
        worst = max(worst, frob_norm(b_inf + b_inf.T))
    ok = real_ok and worst <= 1e-6
    report(7, "normalized-flow limits", ok,
           f"real case {verdict.label}, imaginary family skew "
           f"residual {worst:.3g}")


def test_c08_solvable_family_numbers():
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    e3 = np.array([0.0, 0.0, 0.0, 1.0])
    worst_k = 0.0
    for lam in (0.1, 0.2, 0.5, 1.0, 3.8):
        g = ejsol_algebra(lam, soliton_alpha(lam))
        k = sectional_curvature(g, e1, e3)
        expect = 0.25 - 3.0 * lam / (2.0 * c_lambda(lam))
        worst_k = max(worst_k, abs(k - expect))

    lo, hi = 2.0 - math.sqrt(3.0), 2.0 + math.sqrt(3.0)
    signs_ok = True
    for lam in (0.1, 0.26, 0.28, 0.5, 1.0, 3.7, 3.8):
        g = ejsol_algebra(lam, soliton_alpha(lam))
        k = sectional_curvature(g, e1, e3)
        expect_nonneg = lam <= lo or lam >= hi
        signs_ok &= (k >= -1e-12) == expect_nonneg

    # Lauret's bracket flow of the structure constants, through the
    # package's one stepper; alpha(t) and h(t) are read off the flowed
    # constants, which must also stay on the family
    worst_ode = 0.0
    times = np.array([0.0, 1.0, 10.0, 100.0])
    for lam in (0.2, 1.0):
        c = c_lambda(lam)
        flowed = validate._flow_constants(ejsol_algebra(lam, 1.0).c, times,
                                          1e-12)
        for t, mu in zip(times[1:], flowed[1:]):
            exact_a = (2.0 * c * t + 1.0) ** -0.5
            exact_h = (3.0 * t + 1.0) ** -0.5
            member = ejsol_algebra(lam, exact_a, exact_h).c
            worst_ode = max(worst_ode, abs(mu[0, 3, 3] - exact_a) / exact_a,
                            abs(mu[1, 2, 3] - exact_h) / exact_h,
                            frob_norm(mu - member) / frob_norm(member))

    # crossing time bracketed by the computed curvature's sign change
    lam, alpha0 = 0.2, 10.0
    t0 = ejsol_curvature_crossing(lam, alpha0)
    step = 0.01
    t_first = None
    for t in np.arange(0.0, 2.0, step):
        alpha = (2.0 * c_lambda(lam) * t + alpha0 ** -2.0) ** -0.5
        hh = (3.0 * t + 1.0) ** -0.5
        k = sectional_curvature(ejsol_algebra(lam, alpha, hh), e1, e3)
        if k >= 0.0:
            t_first = float(t)
            break
    cross_ok = t_first is not None and abs(t_first - t0) <= step

    ok = worst_k <= 1e-10 and signs_ok and worst_ode <= 1e-8 and cross_ok
    report(8, "solvable family numbers", ok,
           f"K err {worst_k:.3g}, ODE err {worst_ode:.3g}, "
           f"crossing {t0:.4f} vs first nonneg {t_first}")


def test_c09_phase_plane_atlas():
    rng = np.random.default_rng(209)
    worst_spec = 0.0
    for _ in range(200):
        x, y = rng.uniform(-3.0, 3.0, size=2)
        v = phase2d_rhs((x, y))
        m = bracket_rhs(np.array([[0.0, x], [y, 0.0]]))
        worst_spec = max(worst_spec, abs(v.x - m[0, 1]), abs(v.y - m[1, 0]))

    rows = phase2d_sweep(default_phase_grid(), t_end=1e12)
    labels = {}
    worst_line = 0.0
    for row in rows:
        labels[row.label] = labels.get(row.label, 0) + 1
        worst_line = max(worst_line, abs(row.x_inf + row.y_inf))
    clean = not set(labels) & {"undecided", "step_failure"}

    target = np.array([[0.0, 1.0], [1.0, 0.0]]) / math.sqrt(2.0)
    worst_dir = 0.0
    for x, y in ((1.0, 2.0), (2.0, 0.5), (1.0, 1.0), (0.3, 1.7)):
        b0 = np.array([[0.0, x], [y, 0.0]])
        b0 /= frob_norm(b0)
        traj = _run(b0, 120.0, kind=FlowKind.NORMALIZED, stride=1.0)
        worst_dir = max(worst_dir, frob_norm(traj.states[-1] - target))

    ok = (worst_spec <= 1e-12 and clean and worst_line <= 1e-5
          and worst_dir <= 1e-4)
    report(9, "phase-plane atlas", ok,
           f"specialization {worst_spec:.3g}, {len(rows)} points {labels}, "
           f"max |x+y| {worst_line:.3g}, first-quadrant dir err "
           f"{worst_dir:.3g}")


def test_c10_reparameterization_bridge():
    rng = np.random.default_rng(210)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 5))
        a0 = rng.standard_normal((n, n))
        a0 -= np.trace(a0) / n * np.eye(n)
        rep = reparam_bridge(a0, 10.0)
        worst = max(worst, rep.max_residual)
    report(10, "reparameterization bridge", worst <= 1e-4,
           f"max residual {worst:.3g}")


def test_c11_type3_decay():
    sups = []
    ok = True
    for a0 in (np.diag([1.0, -1.0]), E12, np.eye(2)):
        traj = _run(a0, 1000.0, rel_tol=1e-10, stride=0.1)
        rep = type3_monitor(traj)
        window = rep.products[rep.times >= 100.0]
        spread = (np.max(window) - np.min(window)) / np.max(window)
        ok &= bool(np.isfinite(rep.sup)) and rep.sup > 0.0 and spread < 0.01
        sups.append(rep.sup)
    report(11, "type-III decay", ok,
           "sup t*|Riem| = " + ", ".join(f"{s:.6f}" for s in sups))


def test_c12_negativity_in_finite_time():
    rng = np.random.default_rng(212)
    ok = True
    first_times = []
    for _ in range(10):
        n = int(rng.integers(2, 5))
        r = rng.standard_normal((n, n))
        # shift the spectrum to Re >= 2: admissible, and the negativity
        # conditions switch on well inside the watched window
        shift = 2.0 - float(np.min(np.real(eigenvalues(r))))
        a0 = r + shift * np.eye(n)
        assert admits_negative_curvature(a0)
        w = curvature_watch(a0, t_end=100.0)
        ok &= (not w.inconclusive) and w.persistent
        ok &= w.first_negative_time is not None and np.isfinite(
            w.first_negative_time)
        ok &= w.sectional_max < 0.0
        first_times.append(w.first_negative_time)
    report(12, "negativity in finite time", ok,
           "first negative times "
           + ", ".join("n/a" if t is None else f"{t:.2f}"
                       for t in first_times))
