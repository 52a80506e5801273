import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from solvflow import (
    FlowKind,
    FlowSpec,
    Phase2DPoint,
    Terminal,
    bracket_rhs,
    closed_form_soliton,
    cointegrate_pullback,
    commutator,
    curvature_watch,
    default_phase_grid,
    eigenvalues,
    frob_inner,
    frob_norm,
    gradient_rhs,
    integrate,
    normalized_rhs,
    phase2d_sweep,
    reparam_bridge,
    settle,
    spectrum_distance,
    sym_part,
    type3_monitor,
)
from solvflow import cli, flow
from solvflow.flow import (
    _DP_A, _DP_E, _DP_P, _UNDERFLOW, _adaptive, _nrm, diagnostic_row,
)
from solvflow.geometry import mu_of_a
from solvflow.validate import _flow_constants, _random_normal_matrix
from conftest import SEED60_START, e12, random_matrix, random_skew


def matrices(max_n=6):
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(
            st.floats(-5, 5, allow_nan=False), min_size=n * n, max_size=n * n
        ).map(lambda v: np.array(v).reshape(n, n))
    )


# ---------------------------------------------------------------------------
# right-hand sides


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_norm_decay_identity(a):
    comm = commutator(a, a.T)
    tr_s2 = frob_norm(sym_part(a)) ** 2
    lhs = 2.0 * frob_inner(bracket_rhs(a), a)
    rhs = -2.0 * tr_s2 * frob_norm(a) ** 2 - frob_norm(comm) ** 2
    assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1.0)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_trace_square_identity(a):
    tr_s2 = frob_norm(sym_part(a)) ** 2
    lhs = 2.0 * frob_inner(bracket_rhs(a), a.T)
    rhs = -2.0 * tr_s2 * float(np.trace(a @ a))
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, frob_norm(a) ** 4)


def test_bracket_rhs_vanishes_on_skew(rng):
    # exactly, in the one-matrix form and the stacked one (c05 relies on it)
    for n in range(1, 9):
        s = random_skew(rng, n)
        assert frob_norm(bracket_rhs(s)) == 0.0
        assert frob_norm(bracket_rhs(s[None])[0]) == 0.0


@pytest.mark.parametrize("n", range(1, 9))
def test_one_matrix_bracket_rhs_matches_stacked_form(n):
    # one matrix takes its own arithmetic; the stacked form is the reference
    rng = np.random.default_rng(n)
    inputs = [rng.standard_normal((n, n)), np.zeros((n, n)),
              1e3 * rng.standard_normal((n, n))]
    if n >= 2:
        inputs += [e12(n), np.eye(n, k=1)]  # nilpotent: E12 and J_n
    if n == 2:
        # the closed form: phase-plane points, a non-contiguous view, ints
        inputs += [Phase2DPoint(x, y).embed() for x, y in
                   ((1.0, 2.0), (-1.5, 0.25), (0.3, -0.3), (2.0, 0.0))]
        inputs += [rng.standard_normal((2, 2)).T,
                   np.array([[3, -1], [2, 5]])]
    for a in inputs:
        got = bracket_rhs(a)
        want = bracket_rhs(a[None])[0]
        assert got.shape == (n, n)
        assert frob_norm(got - want) <= 1e-14 * max(1.0, frob_norm(a) ** 3)
    # entries near 1e200 overflow: no exception, non-finite where the
    # reference is
    for a in (1e200 * rng.standard_normal((n, n)), np.full((n, n), 1e200),
              1e200 * np.eye(n), 1e200 * np.eye(n, k=min(1, n - 1))):
        with np.errstate(over="ignore", invalid="ignore"):
            got = bracket_rhs(a)
            want = bracket_rhs(a[None])[0]
        np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))


def test_phase_plane_sweep_same_with_stacked_reference_rhs(monkeypatch):
    # every 2x2 step takes the closed form; the broadcast form must settle
    # the same grid to the same labels and limits
    grid = default_phase_grid(points=9)
    rows = phase2d_sweep(grid, 1e12)
    monkeypatch.setitem(flow._RHS, FlowKind.BRACKET,
                        lambda a: bracket_rhs(a[None])[0])
    ref_rows = phase2d_sweep(grid, 1e12)
    assert [r.label for r in rows] == [r.label for r in ref_rows]
    for row, ref in zip(rows, ref_rows):
        assert abs(row.x_inf - ref.x_inf) <= 1e-9
        assert abs(row.y_inf - ref.y_inf) <= 1e-9


# ---------------------------------------------------------------------------
# the step against its reference arithmetic


def _float_sum(start, weights, rows):
    """start + w_0 rows[0] + w_1 rows[1] + ..., summed left to right on
    Python floats, one entry at a time, skipping zero weights."""
    out = list(start)
    for w, row in zip(weights.tolist(), rows.tolist()):
        if w:
            out = [o + w * r for o, r in zip(out, row)]
    return np.array(out)


def _float_nrm(v):
    """Euclidean norm with the squares summed left to right from 0."""
    total = 0.0
    for x in v.tolist():
        total += x * x
    return math.sqrt(total)


def _reference_adaptive(rhs, y0, sample_times, rel_tol, abs_tol,
                        post_accept=None, eps_fix=None):
    """flow._adaptive's algorithm in plain arithmetic, the reference for
    its two trial-step kernels.

    Every stage sum and the error vector are fresh arrays; a new state is
    finite when np.isfinite says so; ||y|| is taken where it is used; the
    rhs is always called on a reshaped state; each step that reaches
    samples evaluates them as y + sum_i (h b_i(s)) k_i, b_i in Horner form,
    elementwise; and the samples are stacked at the end.  The sums are
    y + (h A)[i, :i] @ k[:i] and (h E) @ k, and the norms
    np.linalg.norm's, except for the library's bracket rhs on a 2x2 state:
    there each entry is summed over the tableau left to right on Python
    floats, skipping zero weights, the error from 0, and a norm sums its
    squares the same way.
    """
    shape = np.shape(y0)
    y = np.array(y0, dtype=float).ravel()
    sample_times = np.asarray(sample_times, dtype=float)
    t, t_final = 0.0, float(sample_times[-1])
    flat = rhs is bracket_rhs and shape == (2, 2)
    nrm = _float_nrm if flat else _nrm

    def f_of(z):
        return rhs(z.reshape(shape)).ravel()

    n_rec, rec = 1, [y[None]]
    t_next = float(sample_times[1]) if len(sample_times) > 1 else math.inf
    stats = {"accepted": 0, "rejected": 0, "rejected_error": 0,
             "rejected_nonfinite": 0, "rejected_drift": 0, "rhs_evals": 1}
    k = np.empty((7, y.size))
    k[0] = f_of(y)
    terminal = None
    if eps_fix is not None and nrm(k[0]) <= eps_fix * max(1.0, nrm(y)):
        terminal = Terminal.STATIONARY
        stats["stationary_reason"] = "threshold"
    if terminal is None:
        h = flow._initial_step(f_of, y, k[0], rel_tol, abs_tol, t_final)
        stats["rhs_evals"] += 1
        fac_old, just_rejected, stall = 1e-4, False, 0
        h_min, h_max = math.inf, 0.0
        while True:
            if t >= t_final:
                terminal = Terminal.REACHED_T_END
                break
            if not h >= _UNDERFLOW * max(1.0, abs(t)):
                terminal = Terminal.STEP_FAILURE
                break
            last = h >= t_final - t
            h_try = t_final - t if last else h
            weights = h_try * _DP_A
            for i in range(1, 7):
                if flat:
                    y_new = _float_sum(y, weights[i, :i], k[:i])
                else:
                    y_new = y + weights[i, :i] @ k[:i]
                k[i] = f_of(y_new)
            stats["rhs_evals"] += 6
            if flat:
                err = _float_sum(np.zeros(4), h_try * _DP_E, k)
                err_norm = _float_nrm(err)
            else:
                err_norm = _nrm((h_try * _DP_E) @ k)
            tol = max(abs_tol, rel_tol * nrm(y))
            bad = not (math.isfinite(err_norm) and np.isfinite(y_new).all())
            if bad:
                q = math.inf
            else:
                q = stats["q_last"] = err_norm / tol
            if q > 1.0:
                h = h_try * (0.1 if bad else
                             max(flow._FAC_MIN, flow._SAFETY * q**-0.2))
                just_rejected, stall = True, 0
                stats["rejected"] += 1
                stats["rejected_nonfinite" if bad else "rejected_error"] += 1
                continue
            f_new = k[6]
            if post_accept is not None:
                projected = post_accept(y_new.reshape(shape), tol)
                if projected is None:
                    h, just_rejected = 0.5 * h_try, True
                    stats["rejected"] += 1
                    stats["rejected_drift"] += 1
                    continue
                y_new = np.ravel(projected)
                f_new = f_of(y_new)
                stats["rhs_evals"] += 1
            t_new = t_final if last else t + h_try
            if t_new >= t_next:
                j = int(np.searchsorted(sample_times, t_new, side="right"))
                s = (sample_times[n_rec:j] - t) / h_try
                block = y[None]
                for i, col in enumerate(_DP_P.T.tolist()):
                    if any(col):
                        p1, p2, p3, p4 = col
                        b = s * (p1 + s * (p2 + s * (p3 + s * p4)))
                        block = block + (h_try * b)[:, None] * k[i]
                if sample_times[j - 1] == t_new:
                    block[-1] = y_new
                rec.append(block)
                n_rec = j
                t_next = (float(sample_times[j]) if j < len(sample_times)
                          else math.inf)
            t, y = t_new, y_new
            k[0] = f_new
            stats["accepted"] += 1
            h_min, h_max = min(h_min, h_try), max(h_max, h_try)
            q = max(q, 1e-10)
            factor = flow._SAFETY * q**-flow._EXPO * fac_old**flow._BETA
            factor = min(1.0 if just_rejected else flow._FAC_MAX,
                         max(flow._FAC_MIN, factor))
            h = h_try * factor
            fac_old, just_rejected = max(q, 1e-4), False
            if eps_fix is not None:
                f_nrm, y_nrm = nrm(k[0]), nrm(y)
                if f_nrm <= eps_fix * max(1.0, y_nrm):
                    terminal = Terminal.STATIONARY
                    stats["stationary_reason"] = "threshold"
                    break
                if not last:
                    budget = abs_tol + rel_tol * y_nrm
                    slow = h_try * f_nrm <= flow._STALL_SLACK * budget
                    stall = stall + 1 if slow else 0
                    if stall >= flow._STALL_RUN:
                        terminal = Terminal.STATIONARY
                        stats["stationary_reason"] = "stall"
                        break
        stats["h_next"] = h
        if stats["accepted"]:
            stats["h_min"], stats["h_max"] = h_min, h_max
    stats["t_stop"] = t
    times = sample_times[:n_rec].copy()
    if t > times[-1]:
        times = np.append(times, t)
        rec.append(y[None])
    states = np.concatenate(rec).reshape((len(times),) + shape)
    return times, states, terminal, stats


def _assert_same_run(got, want):
    np.testing.assert_array_equal(got.times, want.times)
    np.testing.assert_array_equal(got.states, want.states)
    # the zeros too, which compare equal whatever their sign
    np.testing.assert_array_equal(np.signbit(got.states),
                                  np.signbit(want.states))
    assert got.terminal is want.terminal
    assert got.stats == want.stats


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("kind", list(FlowKind))
def test_step_matches_reference_arithmetic(kind, n, monkeypatch):
    # bit for bit: the numpy kernel does the reference's arithmetic, and
    # neither one state norm per step nor the 2x2 kernel's unrolled float
    # sums change any operation of the reference
    rng = np.random.default_rng(10 * n)
    a0 = rng.standard_normal((n, n))
    if kind is FlowKind.NORMALIZED:
        a0 /= frob_norm(a0)
    specs = [FlowSpec(kind=kind, a0=a0, t_end=5.0, sample_stride=0.1),
             FlowSpec(kind=kind, a0=a0, t_end=20.0, sample_stride=0.7,
                      rel_tol=1e-6, stop_when_stationary=1e-8)]
    if kind is FlowKind.BRACKET and n == 2:
        # c11's antidiagonal run, on the antidiagonal kernel
        specs.append(FlowSpec(kind=kind, a0=e12(), t_end=1000.0,
                              sample_stride=0.1))
    runs = [integrate(spec) for spec in specs]
    monkeypatch.setattr(flow, "_adaptive", _reference_adaptive)
    for spec, got in zip(specs, runs):
        _assert_same_run(got, integrate(spec))


@pytest.mark.parametrize("a0, rel_tol, eps", [
    # a c09 grid point under the sweep's settings, a start that takes
    # several stages, and two more antidiagonal starts: one on the axis
    # x = 0 and one with y = -0.0
    (Phase2DPoint(-1.5, 1.7).embed(), 1e-6, 1e-16),
    (np.array([[1.0, 2.0], [0.3, 0.7]]), 1e-10, None),
    (Phase2DPoint(0.0, 1.3).embed(), 1e-6, 1e-16),
    (Phase2DPoint(1.2, -0.0).embed(), 1e-6, 1e-16),
])
def test_settle_matches_reference_arithmetic(a0, rel_tol, eps, monkeypatch):
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=1e12,
                    sample_stride=2e10, rel_tol=rel_tol,
                    stop_when_stationary=eps)
    got, t_got = settle(spec, rest_tol=1e-5)
    monkeypatch.setattr(flow, "_adaptive", _reference_adaptive)
    want, t_want = settle(spec, rest_tol=1e-5)
    assert t_got == t_want
    _assert_same_run(got, want)


def _pullback_run():
    a0 = np.random.default_rng(31).standard_normal((3, 3))
    traj = integrate(FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=2.0,
                              sample_stride=0.1))
    return lambda: cointegrate_pullback(traj)


def _bridge_run():
    a0 = np.random.default_rng(32).standard_normal((3, 3))
    a0 -= np.trace(a0) / 3.0 * np.eye(3)
    return lambda: reparam_bridge(a0, 2.0)


def _structure_constants_run():
    c0 = mu_of_a(np.random.default_rng(33).standard_normal((3, 3))).c
    return lambda: _flow_constants(c0, np.linspace(0.0, 2.0, 21), 1e-12)


@pytest.mark.parametrize("make_run", [
    _pullback_run, _bridge_run, _structure_constants_run,
], ids=["pullback", "bridge", "structure-constants"])
def test_other_rhs_and_shapes_match_reference_arithmetic(make_run,
                                                         monkeypatch):
    # the numpy kernel on rhs functions that are none of the three flows,
    # with states flattened from shapes (19,), (20,) and (4, 4, 4)
    run = make_run()
    recorded = []

    def spy(adaptive):
        def recording(*args, **kwargs):
            recorded.append(adaptive(*args, **kwargs))
            return recorded[-1]
        return recording

    for adaptive in (_adaptive, _reference_adaptive):
        monkeypatch.setattr(flow, "_adaptive", spy(adaptive))
        run()
    (times, states, terminal, stats), want = recorded
    np.testing.assert_array_equal(times, want[0])
    np.testing.assert_array_equal(states, want[1])
    assert terminal is want[2] is Terminal.REACHED_T_END
    assert stats == want[3]
    assert stats["accepted"] > 0


def _unit(a):
    return a / frob_norm(a)


@pytest.mark.parametrize("spec", [
    FlowSpec(kind=FlowKind.BRACKET, t_end=5.0, sample_stride=0.01,
             a0=np.random.default_rng(5).standard_normal((2, 2))),
    # projected onto the unit sphere after every step
    FlowSpec(kind=FlowKind.NORMALIZED, t_end=20.0, sample_stride=0.01,
             a0=_unit(np.random.default_rng(6).standard_normal((3, 3)))),
    # steps up to 140 long on a unit stride: one step covers many blocks
    # of 1 and of 7 samples
    FlowSpec(kind=FlowKind.BRACKET, a0=np.diag([1.0, -1.0]), t_end=1e3,
             sample_stride=1.0, rel_tol=1e-6),
    # stops at t = 834.7, between samples of its grid
    FlowSpec(kind=FlowKind.BRACKET, a0=[[0.1, 1.0], [-1.0, 0.2]], t_end=1e3,
             sample_stride=0.5, stop_when_stationary=1e-4),
    FlowSpec(kind=FlowKind.GRADIENT, t_end=3.0, sample_stride=0.1,
             a0=np.random.default_rng(7).standard_normal((3, 3))),
], ids=["bracket-2x2", "normalized-3x3", "steps-over-a-block",
        "stationary-partway", "lands-on-t-end"])
def test_samples_do_not_depend_on_fill_block(spec, monkeypatch):
    runs = []
    for block in (1, 7, flow._DIAG_BLOCK):
        monkeypatch.setattr(flow, "_DIAG_BLOCK", block)
        runs.append(integrate(spec))
    for run in runs[:-1]:
        np.testing.assert_array_equal(run.times, runs[-1].times)
        np.testing.assert_array_equal(run.states, runs[-1].states)
    run = runs[-1]
    if spec.stop_when_stationary:
        assert run.terminal is Terminal.STATIONARY
        t_stop = run.stats["t_stop"]
        assert run.times[-2] < t_stop == run.times[-1] < spec.t_end
        return
    assert run.terminal is Terminal.REACHED_T_END
    assert run.times[-1] == run.stats["t_stop"] == spec.t_end
    assert len(run.times) > 7
    if spec.sample_stride == 1.0:
        assert run.stats["h_max"] > 100 * spec.sample_stride
    # the step sizes do not depend on the grid, so the last sample is the
    # state the landing step reached, as in a run sampled at t_end alone
    alone = integrate(dataclasses.replace(spec, sample_stride=spec.t_end))
    np.testing.assert_array_equal(run.states[-1], alone.states[-1])


@pytest.mark.parametrize("n", [2, 3])
def test_start_whose_rhs_norm_overflows_is_a_step_failure(n):
    # ||A0||^2 is finite, ||rhs(A0)|| is not: the first step estimate is
    # NaN rather than a division by zero
    with np.errstate(over="ignore", invalid="ignore"):
        traj = integrate(FlowSpec(kind=FlowKind.BRACKET,
                                  a0=np.full((n, n), 1e100), t_end=1.0))
    assert traj.terminal is Terminal.STEP_FAILURE
    assert traj.stats["accepted"] == traj.stats["rejected"] == 0
    assert math.isnan(traj.stats["h_next"])


def test_state_with_overflowing_norm_is_nonfinite():
    # every entry is finite, but ||y||^2 overflows: a tolerance built from
    # it would be inf and pass every step with error ratio 0
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, terminal, stats = _adaptive(lambda y: np.ones_like(y),
                                          np.full(2, 1e155), [0.0, 1.0],
                                          1e-8, 1e-12)
    assert terminal is Terminal.STEP_FAILURE
    assert stats["accepted"] == 0
    assert stats["rejected_nonfinite"] == stats["rejected"] > 0


# Each function below sets up one run and returns a run() giving (times,
# states, terminal, stats); run() calls flow._adaptive by name, so
# test_exit_paths_match_reference_arithmetic can put the reference in its
# place.


def _nan_stage(monkeypatch):
    # the rhs turns NaN at one stage of the second attempted step; the
    # first step is 0.1, estimated without an rhs call
    monkeypatch.setattr(flow, "_initial_step", lambda *args: 0.1)

    def run():
        calls = []

        def rhs(y):
            calls.append(1)
            return np.full_like(y, np.nan) if len(calls) == 12 else -y

        return flow._adaptive(rhs, np.ones((2, 2)), [0.0, 1.0], 1e-8, 1e-12)
    return run


def test_nan_stage_counts_as_nonfinite(monkeypatch):
    _, states, terminal, stats = _nan_stage(monkeypatch)()
    assert terminal is Terminal.REACHED_T_END
    assert stats["rejected_nonfinite"] == 1
    assert stats["rejected"] == stats["rejected_error"] + 1
    np.testing.assert_allclose(states[-1], np.exp(-1.0) * np.ones((2, 2)),
                               rtol=1e-7)


@pytest.mark.parametrize("a0", [
    # every entry is finite, but ||y||^2 overflows, and so does the rhs of
    # the first start; the skew one has rhs 0, so only its norm is bad
    np.full((2, 2), 1e155),
    np.array([[0.0, 1e155], [-1e155, 0.0]]),
])
def test_2x2_state_with_overflowing_norm_is_nonfinite(a0, monkeypatch):
    # through the four-float kernel, from a first step of 0.1.  integrate
    # estimates the first step, which is NaN here and must stop the run
    # rather than loop forever.
    with np.errstate(over="ignore", invalid="ignore"):
        traj = integrate(FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=1.0))
        monkeypatch.setattr(flow, "_initial_step", lambda *args: 0.1)
        _, _, terminal, stats = _adaptive(bracket_rhs, a0, [0.0, 1.0], 1e-8,
                                          1e-12)
    assert terminal is Terminal.STEP_FAILURE
    assert stats["accepted"] == 0
    assert stats["rejected_nonfinite"] == stats["rejected"] > 0
    assert traj.terminal is Terminal.STEP_FAILURE
    assert traj.stats["accepted"] == 0


def _closed_form_nan_stage(a0):
    # the closed form turns NaN at one stage of the second attempted step;
    # one count over both closed forms, since the antidiagonal kernel
    # takes its start's rhs from the full one and the reference takes all
    def setup(monkeypatch):
        monkeypatch.setattr(flow, "_initial_step", lambda *args: 0.1)
        calls = []

        def nan_at_12(closed_form):
            def rhs(*entries):
                calls.append(1)
                if len(calls) == 12:
                    return (math.nan,) * len(entries)
                return closed_form(*entries)
            return rhs

        for name in ("_bracket_rhs_2x2", "_bracket_rhs_antidiag"):
            monkeypatch.setattr(flow, name, nan_at_12(getattr(flow, name)))

        def run():
            calls.clear()
            return flow._adaptive(bracket_rhs, a0, [0.0, 1.0], 1e-8, 1e-12)
        return run
    return setup


_nan_stage_2x2 = _closed_form_nan_stage(np.diag([1.0, -1.0]))
_nan_stage_antidiag = _closed_form_nan_stage(e12())


def test_2x2_nan_stage_counts_as_nonfinite(monkeypatch):
    # A0 = diag(1, -1) flows as A0 / sqrt(4t + 1)
    a0 = np.diag([1.0, -1.0])
    _, states, terminal, stats = _nan_stage_2x2(monkeypatch)()
    assert terminal is Terminal.REACHED_T_END
    assert stats["rejected_nonfinite"] == 1
    assert stats["rejected"] == stats["rejected_error"] + 1
    np.testing.assert_allclose(states[-1], a0 / math.sqrt(5.0), rtol=1e-7)


# More runs for the reference comparison.  The reference tests a new state
# entrywise with np.isfinite, so finite starts whose rhs is finite but
# whose squared norm overflows (the skew 1e155 start, ones_like at 1e155)
# are outside it.


def _run_of(traj):
    return traj.times, traj.states, traj.terminal, traj.stats


def _overflowing_rhs(a0):
    # ||y||^2 and the rhs overflow: every trial from a first step of 0.1
    # is non-finite until the step size underflows
    def setup(monkeypatch):
        monkeypatch.setattr(flow, "_initial_step", lambda *args: 0.1)
        return lambda: flow._adaptive(bracket_rhs, a0, [0.0, 1.0], 1e-8,
                                      1e-12)
    return setup


def _overflowing_start(n):
    # ||rhs(A0)|| overflows: the first step estimate is NaN
    def setup(monkeypatch):
        spec = FlowSpec(kind=FlowKind.BRACKET, a0=np.full((n, n), 1e100),
                        t_end=1.0)
        return lambda: _run_of(integrate(spec))
    return setup


def _blow_up(monkeypatch):
    # y' = y^2 from y(0) = 1/4 blows up at t = 4, where the step floor is
    # _UNDERFLOW * t
    return lambda: flow._adaptive(lambda y: y * y, np.full(1, 0.25),
                                  [0.0, 8.0], 1e-8, 1e-12)


def _drift(monkeypatch):
    # with the drift bound fixed at MAX_RENORM_DRIFT, 30 of 70 attempted
    # steps of this normalized run fail the projection
    monkeypatch.setattr(flow, "_DRIFT_PER_TOL", 0.0)
    b0 = random_matrix(np.random.default_rng(0), 3)
    spec = FlowSpec(kind=FlowKind.NORMALIZED, a0=b0 / frob_norm(b0),
                    t_end=5.0, sample_stride=0.1, rel_tol=1e-4)
    return lambda: _run_of(integrate(spec))


@pytest.mark.parametrize("setup, terminal, counter", [
    (_overflowing_rhs(np.full((2, 2), 1e155)), Terminal.STEP_FAILURE,
     "rejected_nonfinite"),
    (_overflowing_rhs(np.full((3, 3), 1e155)), Terminal.STEP_FAILURE,
     "rejected_nonfinite"),
    (_overflowing_rhs(Phase2DPoint(1e155, 2e155).embed()),
     Terminal.STEP_FAILURE, "rejected_nonfinite"),
    (_nan_stage, Terminal.REACHED_T_END, "rejected_nonfinite"),
    (_nan_stage_2x2, Terminal.REACHED_T_END, "rejected_nonfinite"),
    (_nan_stage_antidiag, Terminal.REACHED_T_END, "rejected_nonfinite"),
    (_overflowing_start(2), Terminal.STEP_FAILURE, None),
    (_overflowing_start(3), Terminal.STEP_FAILURE, None),
    (_blow_up, Terminal.STEP_FAILURE, "accepted"),
    (_drift, Terminal.REACHED_T_END, "rejected_drift"),
], ids=["nonfinite-2x2", "nonfinite-3x3", "nonfinite-antidiagonal",
        "nan-stage", "nan-stage-2x2", "nan-stage-antidiagonal",
        "overflowing-start-2x2", "overflowing-start-3x3", "blow-up",
        "drift"])
def test_exit_paths_match_reference_arithmetic(setup, terminal, counter,
                                               monkeypatch):
    # bit for bit on the paths the other reference tests do not take: every
    # counter, q_last and h_next as the reference leaves them.  `counter`
    # is a count the run must move, None for a run that takes no step
    run = setup(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        got = run()
        monkeypatch.setattr(flow, "_adaptive", _reference_adaptive)
        want = run()
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2] is want[2] is terminal
    stats = got[3]
    np.testing.assert_equal(stats, want[3])  # h_next may be NaN on both
    if counter is None:
        assert stats["accepted"] == stats["rejected"] == 0
    else:
        assert stats[counter] > 0


def test_trial_2x2_matches_numpy_stage_arithmetic():
    # the unrolled float sums against the numpy kernel's dot products, at
    # steps the error control would take (h ||y||^2 <= 0.1): the new state,
    # its norm and the error norm within 4 ulps * max(1, ||y||), the stage
    # derivatives, cubic in the state, within 16 ulps * max(1, ||y||)^3
    rng = np.random.default_rng(11)
    ulp = np.finfo(float).eps
    for _ in range(200):
        y = rng.standard_normal(4) * 10.0 ** rng.uniform(-1, 1)
        scale = max(1.0, _nrm(y))
        h = 10.0 ** rng.uniform(-4, -1) / scale**2
        k = np.empty((7, 4))
        k[0] = bracket_rhs(y.reshape(2, 2)).ravel()
        w = h * _DP_A
        for i in range(1, 7):
            z = np.dot(w[i, :i], k[:i]) + y
            k[i] = bracket_rhs(z.reshape(2, 2)).ravel()
        y_new, ks, err_norm, new_nrm = flow._trial_2x2(
            tuple(y.tolist()), tuple(k[0].tolist()), h)
        tol = 4 * ulp * scale
        assert np.abs(np.array(y_new) - z).max() <= tol
        assert abs(new_nrm - _nrm(z)) <= tol
        assert abs(err_norm - _nrm(np.dot(h * _DP_E, k))) <= tol
        assert np.abs(np.array(ks) - k).max() <= 16 * ulp * scale**3


def _bits(values):
    """Each float's bit pattern, with every NaN read as one NaN."""
    a = np.asarray(values, dtype=float).ravel()
    return np.where(np.isnan(a), np.nan, a).view(np.uint64)


def test_antidiag_kernel_is_the_2x2_kernel_on_a_zero_diagonal():
    # the rhs at special values: where the full closed form's off-diagonal
    # is finite, the same bits, and +0.0, -0.0 on its diagonal; where any
    # entry of it is not finite, an entry of the antidiagonal form is not
    specials = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.7, -1.3, 1e150,
                -1e155, 1e200, 1.7e308, -1.7e308, math.inf, -math.inf,
                math.nan]
    for x in specials:
        for y in specials:
            full = flow._bracket_rhs_2x2(0.0, x, y, 0.0)
            got = flow._bracket_rhs_antidiag(x, y)
            finite = np.isfinite(got)
            np.testing.assert_array_equal(finite, np.isfinite(full[1:3]))
            np.testing.assert_array_equal(_bits(got)[finite],
                                          _bits(full[1:3])[finite])
            if finite.all():
                assert _bits(full[::3]).tolist() == _bits([0.0, -0.0]).tolist()
            else:
                assert not np.isfinite(full).all()
    # the trial step on random states, zero entries of either sign among
    # them: every result the full kernel's off-diagonal, bit for bit
    rng = np.random.default_rng(12)
    for i in range(300):
        x, y = rng.standard_normal(2) * 10.0 ** rng.uniform(-1, 1, 2)
        x, y = [(x, y), (0.0, y), (-0.0, y), (x, 0.0), (x, -0.0)][i % 5]
        h = 10.0 ** rng.uniform(-4, 0) / max(1.0, x * x + y * y)
        full = flow._trial_2x2((0.0, x, y, 0.0),
                               flow._bracket_rhs_2x2(0.0, x, y, 0.0), h)
        got = flow._trial_antidiag((x, y), flow._bracket_rhs_antidiag(x, y),
                                   h)
        assert _bits(got[0]).tolist() == _bits(full[0][1:3]).tolist()
        assert _bits(full[0][::3]).tolist() == _bits([0.0, 0.0]).tolist()
        assert (_bits(np.array(got[1])).tolist()
                == _bits(np.array(full[1])[:, 1:3]).tolist())
        assert got[2:] == full[2:]


def test_2x2_kernel_runs_for_the_library_bracket_rhs_only(monkeypatch):
    # the float kernels: _trial_antidiag for an antidiagonal start with a
    # +0.0 diagonal, _trial_2x2 for any other 2x2 bracket start, neither
    # for other rhs functions or sizes
    calls = {}

    def counted(name):
        kernel = getattr(flow, name)

        def count(*args):
            calls[name] += 1
            return kernel(*args)
        return count

    for name in ("_trial_2x2", "_trial_antidiag"):
        monkeypatch.setattr(flow, name, counted(name))

    def trials(run, spec):
        calls.update(_trial_2x2=0, _trial_antidiag=0)
        out = run(spec)
        traj = out[0] if isinstance(out, tuple) else out
        return (calls["_trial_2x2"], calls["_trial_antidiag"]), traj

    def attempts(traj):
        n = traj.stats["accepted"] + traj.stats["rejected"]
        assert n > 0
        return n

    rng = np.random.default_rng(4)
    a2 = rng.standard_normal((2, 2))
    bracket = FlowSpec(kind=FlowKind.BRACKET, a0=a2, t_end=2.0)
    staged = FlowSpec(kind=FlowKind.BRACKET,
                      a0=Phase2DPoint(-1.5, 1.7).embed(), t_end=1e12,
                      sample_stride=2e10, rel_tol=1e-6,
                      stop_when_stationary=1e-16)
    for run, spec, kernel in [
        (integrate, bracket, 0),
        (settle, staged, 1),
        (integrate, FlowSpec(kind=FlowKind.BRACKET, a0=e12(), t_end=2.0), 1),
        # a -0.0 diagonal entry, on either side
        (integrate, FlowSpec(kind=FlowKind.BRACKET, t_end=2.0,
                             a0=[[-0.0, 1.2], [-0.7, 0.0]]), 0),
        (integrate, FlowSpec(kind=FlowKind.BRACKET, t_end=2.0,
                             a0=[[0.0, 1.2], [-0.7, -0.0]]), 0),
        (integrate, FlowSpec(kind=FlowKind.BRACKET, t_end=2.0,
                             a0=[[1e-300, 1.2], [-0.7, 0.0]]), 0),
    ]:
        counts, traj = trials(run, spec)
        want = [0, 0]
        want[kernel] = attempts(traj)
        assert counts == tuple(want)
    others = [
        FlowSpec(kind=FlowKind.NORMALIZED, a0=a2 / frob_norm(a2), t_end=2.0),
        FlowSpec(kind=FlowKind.NORMALIZED, t_end=2.0,
                 a0=Phase2DPoint(0.6, 0.8).embed()),
        FlowSpec(kind=FlowKind.GRADIENT, a0=a2, t_end=2.0),
        FlowSpec(kind=FlowKind.BRACKET, a0=rng.standard_normal((3, 3)),
                 t_end=2.0),
        FlowSpec(kind=FlowKind.BRACKET, a0=e12(3), t_end=2.0),
    ]
    for spec in others:
        assert trials(integrate, spec)[0] == (0, 0)
    monkeypatch.setitem(flow._RHS, FlowKind.BRACKET,
                        lambda a: bracket_rhs(a[None])[0])
    assert trials(integrate, bracket)[0] == (0, 0)
    assert trials(settle, staged)[0] == (0, 0)


def test_nrm_is_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(3)
    for size in (1, 2, 4, 9, 16, 64, 65, 130):
        for scale in (1e-3, 1.0, 1e3):
            y = scale * rng.standard_normal(size)
            assert _nrm(y) == float(np.linalg.norm(y))


def _pullback_sample_loop(traj, ys):
    """cointegrate_pullback's checks one sample at a time, on the states
    `ys` of its joint integration: (truncated, b, phi, residuals)."""
    a0 = traj.states[0]
    n = a0.shape[0]
    sz = n * n
    bs, phis, residuals = [], [], []
    truncated = False
    for k in range(len(traj.times)):
        b = float(ys[k][sz])
        phi = ys[k][sz + 1:].reshape(n, n)
        if np.linalg.cond(phi) > 1e12:
            truncated = True
            break
        bs.append(b)
        phis.append(phi)
        recon = phi @ a0 @ np.linalg.inv(phi) / b
        a_ref = traj.states[k]
        residuals.append(frob_norm(a_ref - recon)
                         / max(frob_norm(a_ref), 1e-300))
    return truncated, np.array(bs), np.stack(phis), np.array(residuals)


@pytest.mark.parametrize("block", [flow._DIAG_BLOCK, 64])
@pytest.mark.parametrize("a0, t_end, stride, truncated", [
    # a random 3x3 run, and diag(1, 10), whose frame passes cond 1e12 at
    # sample 152 of 401
    (np.random.default_rng(8).standard_normal((3, 3)), 3.0, 0.01, False),
    (np.diag([1.0, 10.0]), 4e22, 1e20, True),
])
def test_pullback_blocks_equal_sample_loop(a0, t_end, stride, truncated,
                                           block, monkeypatch):
    traj = integrate(FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=t_end,
                              sample_stride=stride))
    joint = []

    def recorded(*args, **kwargs):
        out = _adaptive(*args, **kwargs)
        joint.append(out[1])
        return out

    monkeypatch.setattr(flow, "_adaptive", recorded)
    monkeypatch.setattr(flow, "_DIAG_BLOCK", block)
    path = cointegrate_pullback(traj)
    want_truncated, b, phi, residuals = _pullback_sample_loop(traj, joint[0])
    assert path.truncated is want_truncated is truncated
    m = len(b)
    assert 0 < m == len(path.times) == len(path.b) == len(path.residuals)
    assert m < len(traj.times) if truncated else m == len(traj.times)
    np.testing.assert_array_equal(path.times, traj.times[:m])
    np.testing.assert_allclose(path.b, b, rtol=0, atol=1e-12)
    np.testing.assert_allclose(path.phi, phi, rtol=0, atol=1e-12)
    np.testing.assert_allclose(path.residuals, residuals, rtol=0, atol=1e-12)


def test_normalized_rhs_requires_unit_norm(rng):
    with pytest.raises(ValueError):
        normalized_rhs(2.0 * np.eye(2))


# ---------------------------------------------------------------------------
# closed-form oracles


def test_closed_form_diag_case():
    a0 = np.diag([1.0, -1.0])
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=10.0, sample_stride=0.1)
    traj = integrate(spec)
    worst = 0.0
    for t, a in zip(traj.times, traj.states):
        exact = (4.0 * t + 1.0) ** -0.5 * a0
        worst = max(worst, frob_norm(a - exact) / frob_norm(exact))
    assert worst <= 1e-6


def test_closed_form_nilpotent_case():
    a0 = e12()
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=10.0, sample_stride=0.1)
    traj = integrate(spec)
    worst = 0.0
    for t, a in zip(traj.times, traj.states):
        exact = (3.0 * t + 1.0) ** -0.5 * a0
        worst = max(worst, frob_norm(a - exact) / frob_norm(exact))
    assert worst <= 1e-6


def test_closed_form_matches_random_normal(rng):
    a0 = _random_normal_matrix(rng, 4)
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=5.0, sample_stride=0.25)
    traj = integrate(spec)
    for t, a in zip(traj.times, traj.states):
        exact = closed_form_soliton(a0, float(t))
        assert frob_norm(a - exact) <= 1e-7 * max(frob_norm(exact), 1e-12)


def test_closed_form_soliton_rejects_generic(rng):
    with pytest.raises(ValueError):
        closed_form_soliton(np.array([[0.0, 2.0], [1.0, 1.0]]), 1.0)


def test_closed_form_soliton_holds_only_on_its_interval():
    # A0 = I has c = -2: the closed form holds where 1 + 4 t > 0
    assert np.allclose(closed_form_soliton(np.eye(2), -0.1875), 2.0 * np.eye(2))
    for t in (-1.0, -0.25, float("nan")):
        with pytest.raises(ValueError, match="1 - 2 c t > 0"):
            closed_form_soliton(np.eye(2), t)


def test_closed_form_full_jordan_block():
    # J3 satisfies [A,[A,At]] = cA with c = -1, so it also has a closed form
    j3 = np.zeros((3, 3))
    j3[0, 1] = j3[1, 2] = 1.0
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=j3, t_end=5.0, sample_stride=0.25)
    traj = integrate(spec)
    for t, a in zip(traj.times, traj.states):
        exact = closed_form_soliton(j3, float(t))
        assert frob_norm(a - exact) <= 1e-7


# ---------------------------------------------------------------------------
# cross-check against an independent integrator


@pytest.mark.parametrize("kind", [FlowKind.BRACKET, FlowKind.GRADIENT])
def test_against_dop853(kind, rng):
    n = 3
    a0 = random_matrix(rng, n)
    rhs = bracket_rhs if kind is FlowKind.BRACKET else gradient_rhs
    spec = FlowSpec(kind=kind, a0=a0, t_end=3.0, sample_stride=0.5,
                    rel_tol=1e-11, abs_tol=1e-13)
    traj = integrate(spec)

    sol = solve_ivp(
        lambda t, y: rhs(y.reshape(n, n)).ravel(),
        (0.0, 3.0),
        a0.ravel(),
        method="DOP853",
        t_eval=traj.times,
        rtol=1e-11,
        atol=1e-13,
    )
    assert sol.success
    for k in range(len(traj.times)):
        ref = sol.y[:, k].reshape(n, n)
        assert frob_norm(traj.states[k] - ref) <= 1e-7 * max(1.0, frob_norm(ref))


def test_samples_inside_steps_match_dop853_dense_output():
    a0 = np.diag([1.0, -1.0])
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=10.0,
                    sample_stride=0.01, rel_tol=1e-11, abs_tol=1e-13)
    traj = integrate(spec)
    sol = solve_ivp(lambda t, y: bracket_rhs(y.reshape(2, 2)).ravel(),
                    (0.0, 10.0), a0.ravel(), method="DOP853",
                    dense_output=True, rtol=1e-11, atol=1e-13)
    assert sol.success
    for t, a in zip(traj.times, traj.states):
        ref = sol.sol(t).reshape(2, 2)
        assert frob_norm(a - ref) <= 1e-7 * max(1.0, frob_norm(ref))


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-8, 1e-11])
def test_interpolated_samples_match_closed_form(rel_tol):
    # a stride far below the step size puts most samples inside a step,
    # where they come from the continuous extension; an interpolant
    # without its quartic term would miss by 170x-4000x rel_tol here
    a0 = np.diag([1.0, -1.0])
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=10.0,
                    sample_stride=0.01, rel_tol=rel_tol, abs_tol=1e-13)
    traj = integrate(spec)
    assert len(traj.times) == 1001
    assert traj.stats["accepted"] < len(traj.times) // 2
    exact = (4.0 * traj.times + 1.0)[:, None, None] ** -0.5 * a0
    err = (np.linalg.norm(traj.states - exact, axis=(1, 2))
           / np.linalg.norm(exact, axis=(1, 2)))
    assert np.max(err) <= min(1e-6, 10.0 * rel_tol)  # c01 bound, or tighter


def test_blocked_diagnostics_equal_one_block(rng, monkeypatch):
    # a stack whose first block has a real spectrum only, then flow samples
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
    stacks = [(FlowKind.BRACKET,
               np.stack([np.diag([1.0, 2.0, -1.0])] * 5 + [rot] * 4))]
    for kind, n in [(FlowKind.BRACKET, 3), (FlowKind.BRACKET, 8),
                    (FlowKind.GRADIENT, 3)]:
        spec = FlowSpec(kind=kind, a0=random_matrix(rng, n), t_end=2.0,
                        sample_stride=0.1)
        stacks.append((kind, integrate(spec).states))
    stacks.append((FlowKind.BRACKET, integrate(FlowSpec(
        kind=FlowKind.BRACKET, a0=e12(3) + e12(3).T, t_end=2.0,
        sample_stride=0.1)).states))  # tr A0 = 0: a(t) from the spectra
    for kind, states in stacks:
        monkeypatch.setattr(flow, "_DIAG_BLOCK", len(states))
        whole = diagnostic_row(states, kind)
        monkeypatch.setattr(flow, "_DIAG_BLOCK", 5)
        blocked = diagnostic_row(states, kind)
        for f in dataclasses.fields(whole):
            np.testing.assert_array_equal(getattr(blocked, f.name),
                                          getattr(whole, f.name), f.name)
        assert blocked.spectra.dtype == whole.spectra.dtype


def test_stacked_diagnostics_match_diagnostic_row(rng):
    for kind, a0 in [(FlowKind.BRACKET, random_matrix(rng, 3)),
                     (FlowKind.BRACKET, e12(3) + e12(3).T),  # tr A0 = 0
                     (FlowKind.GRADIENT, random_matrix(rng, 3))]:
        spec = FlowSpec(kind=kind, a0=a0, t_end=2.0, sample_stride=0.1)
        traj = integrate(spec)
        spec0 = eigenvalues(a0)
        d = traj.diagnostics
        names = ("norm_sq", "tr_a", "tr_a2", "tr_s2", "f_normalized",
                 "rhs_norm")
        for name in names + ("spectra", "a_of_t"):
            assert len(getattr(d, name)) == len(traj.times), name
        assert d.spectra.shape == (len(traj.times), 3)
        for k, a in enumerate(traj.states):
            ref = diagnostic_row(a, kind)
            for name in names:
                got, want = getattr(d, name)[k], getattr(ref, name)[0]
                assert abs(got - want) <= 1e-13 * max(abs(want), 1e-300), name
            assert spectrum_distance(d.spectra[k], ref.spectra[0]) \
                <= 1e-13 * max(1.0, frob_norm(a))
            # and both agree with the single-matrix formulas
            rhs = bracket_rhs if kind is FlowKind.BRACKET else gradient_rhs
            scale = max(1.0, frob_norm(a) ** 4)
            direct = {
                "norm_sq": frob_norm(a) ** 2,
                "tr_a": float(np.trace(a)),
                "tr_a2": float(np.trace(a @ a)),
                "tr_s2": frob_norm(sym_part(a)) ** 2,
                "f_normalized": (frob_norm(commutator(a, a.T)) ** 2
                                 / frob_norm(a) ** 4),
                "rhs_norm": frob_norm(rhs(a)),
            }
            for name, want in direct.items():
                assert abs(getattr(d, name)[k] - want) <= 1e-12 * scale, name
            if abs(np.trace(a0)) > 1e-8:
                a_of_t = float(np.trace(a)) / float(np.trace(a0))
            else:
                a_of_t = (float(np.real(np.vdot(spec0, eigenvalues(a))))
                          / float(np.sum(np.abs(spec0) ** 2)))
            assert abs(d.a_of_t[k] - a_of_t) <= 1e-13 * max(1.0, abs(a_of_t))


def test_normalized_against_dop853(rng):
    n = 3
    b0 = random_matrix(rng, n)
    b0 /= frob_norm(b0)
    spec = FlowSpec(kind=FlowKind.NORMALIZED, a0=b0, t_end=2.0,
                    sample_stride=0.25, rel_tol=1e-11, abs_tol=1e-13)
    traj = integrate(spec)

    def rhs(t, y):
        b = y.reshape(n, n)
        cb = commutator(b, b.T)
        out = (commutator(b, cb) - np.trace(b) * cb
               + frob_norm(cb) ** 2 * b)
        return out.ravel()

    sol = solve_ivp(rhs, (0.0, 2.0), b0.ravel(), method="DOP853",
                    t_eval=traj.times, rtol=1e-11, atol=1e-13)
    assert sol.success
    for k in range(len(traj.times)):
        ref = sol.y[:, k].reshape(n, n)
        assert frob_norm(traj.states[k] - ref) <= 1e-7


# ---------------------------------------------------------------------------
# trajectory-level invariants


def test_monotone_quantities(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        a0 = random_matrix(rng, n)
        spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=3.0,
                        sample_stride=0.05)
        traj = integrate(spec)
        slack = 10.0 * spec.rel_tol
        for values in (traj.diagnostics.norm_sq, traj.diagnostics.tr_s2):
            assert np.all(values[1:] <= values[:-1] * (1.0 + slack))


def test_trace_signs_never_flip(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        a0 = random_matrix(rng, n)
        spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=4.0,
                        sample_stride=0.1)
        traj = integrate(spec)
        floor = 1e3 * (spec.rel_tol * max(1.0, frob_norm(a0) ** 2) + spec.abs_tol)
        for values in (traj.diagnostics.tr_a, traj.diagnostics.tr_a2):
            if abs(values[0]) > floor:
                big = np.abs(values) > floor
                assert np.all(np.sign(values[big]) == np.sign(values[0]))


def test_symmetric_decay_bound(rng):
    for _ in range(8):
        n = int(rng.integers(2, 5))
        a0 = random_matrix(rng, n)
        spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=10.0,
                        sample_stride=0.1)
        traj = integrate(spec)
        tr_s2 = traj.diagnostics.tr_s2
        assert tr_s2[0] > 0.0
        assert np.all(tr_s2 * (2.0 * traj.times + 1.0 / tr_s2[0]) <= 1.0 + 1e-6)


def test_spectrum_scaling_along_flow(rng):
    for _ in range(5):
        n = int(rng.integers(2, 5))
        a0 = random_matrix(rng, n)
        spec0 = eigenvalues(a0)
        tr0 = float(np.trace(a0))
        spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=2.0,
                        sample_stride=0.1)
        traj = integrate(spec)
        for a, a_of_t in zip(traj.states, traj.diagnostics.a_of_t):
            assert a_of_t > 0.0
            if abs(tr0) > 1e-8:
                scale = float(np.trace(a)) / tr0
                assert abs(scale - a_of_t) <= 1e-5 * max(1.0, abs(scale))
            dist = spectrum_distance(eigenvalues(a), a_of_t * spec0)
            assert dist <= 1e-5 * max(1.0, frob_norm(a0))


def test_normalized_run_keeps_unit_norm(rng):
    b0 = random_matrix(rng, 3)
    b0 /= frob_norm(b0)
    spec = FlowSpec(kind=FlowKind.NORMALIZED, a0=b0, t_end=5.0,
                    sample_stride=0.1)
    traj = integrate(spec)
    assert np.all(np.abs(traj.diagnostics.norm_sq - 1.0) <= 1e-9)
    f = traj.diagnostics.f_normalized
    assert np.all(f[1:] <= f[:-1] + 1e-9)


def test_normalized_interpolated_samples_and_rejection_reasons(rng):
    # loose tolerance and a fine stride: long steps, most samples
    # interpolated, and the drift bound follows rel_tol, so projection
    # rejects no step that passed the error test
    b0 = random_matrix(rng, 3)
    b0 /= frob_norm(b0)
    spec = FlowSpec(kind=FlowKind.NORMALIZED, a0=b0, t_end=5.0,
                    sample_stride=0.01, rel_tol=1e-4, abs_tol=1e-10)
    traj = integrate(spec)
    assert traj.stats["accepted"] < len(traj.times)
    norms = np.linalg.norm(traj.states, axis=(1, 2))
    assert np.max(np.abs(norms - 1.0)) <= 1e-9
    stats = traj.stats
    assert stats["rejected_drift"] == 0
    assert stats["rejected"] == (stats["rejected_error"]
                                 + stats["rejected_nonfinite"]
                                 + stats["rejected_drift"])


@pytest.mark.parametrize("rel_tol", [1e-4, 1e-6])
def test_renorm_drift_bound_scales_with_rel_tol(rng, rel_tol):
    # with a fixed 1e-9 bound this run lost 20 of 52 steps at 1e-4 and
    # 8 of 41 at 1e-6 to drift, none to the error test
    b0 = random_matrix(rng, 3)
    b0 /= frob_norm(b0)
    spec = FlowSpec(kind=FlowKind.NORMALIZED, a0=b0, t_end=5.0,
                    sample_stride=0.1, rel_tol=rel_tol)
    traj = integrate(spec)
    assert traj.terminal is Terminal.REACHED_T_END
    assert traj.stats["rejected_drift"] == 0
    norms = np.linalg.norm(traj.states, axis=(1, 2))
    assert np.max(np.abs(norms - 1.0)) <= 1e-9


def test_projection_rejections_count_as_drift():
    calls = []

    def reject_first(y, tol):
        calls.append(tol)
        return None if len(calls) == 1 else y

    _, _, terminal, stats = _adaptive(lambda y: -y, np.ones((2, 2)),
                                      [0.0, 1.0], 1e-8, 1e-12,
                                      post_accept=reject_first)
    assert terminal is Terminal.REACHED_T_END
    assert stats["rejected_drift"] == 1
    assert stats["rejected"] == stats["rejected_error"] + 1


def test_normalized_evolution_laws_fd(rng):
    b0 = random_matrix(rng, 3)
    b0 /= frob_norm(b0)
    spec = FlowSpec(kind=FlowKind.NORMALIZED, a0=b0, t_end=1.5,
                    sample_stride=0.01)
    traj = integrate(spec)
    d = traj.diagnostics
    tr_b, tr_b2, f = d.tr_a, d.tr_a2, d.f_normalized
    ts = traj.times
    for k in range(1, len(ts) - 1):
        dt = ts[k + 1] - ts[k - 1]
        fd1 = (tr_b[k + 1] - tr_b[k - 1]) / dt
        fd2 = (tr_b2[k + 1] - tr_b2[k - 1]) / dt
        assert abs(fd1 - f[k] * tr_b[k]) <= 5e-3
        assert abs(fd2 - 2.0 * f[k] * tr_b2[k]) <= 5e-3


def test_gradient_run_is_monotone_and_normalizing(rng):
    a0 = random_matrix(rng, 3)
    spec = FlowSpec(kind=FlowKind.GRADIENT, a0=a0, t_end=100.0,
                    sample_stride=1.0, stop_when_stationary=1e-12)
    traj = integrate(spec)
    norms = traj.diagnostics.norm_sq
    assert np.all(norms[1:] <= norms[:-1] * (1.0 + 1e-9) + 1e-12)
    a_inf = traj.states[-1]
    drive = commutator(a_inf, commutator(a_inf, a_inf.T))
    assert frob_norm(drive) <= 1e-6 * max(1.0, frob_norm(a0) ** 3)


# ---------------------------------------------------------------------------
# stationarity handling


def test_skew_start_is_stationary_at_t_zero():
    a0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=100.0,
                    sample_stride=1.0, stop_when_stationary=1e-10)
    traj = integrate(spec)
    assert traj.terminal is Terminal.STATIONARY
    assert traj.times[-1] == 0.0
    assert traj.stats["stationary_reason"] == "threshold"


def test_settle_decaying_run():
    a0 = np.array([[1.0, 2.0], [0.3, 0.7]])
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=1e12,
                    sample_stride=2e10)
    traj, t_total = settle(spec)
    a_inf = traj.states[-1]
    assert frob_norm(sym_part(a_inf)) <= 1e-6 * max(1.0, frob_norm(a_inf))
    assert t_total > 1e6
    assert np.all(np.diff(traj.times) > 0)


def test_settle_skew_attractor_stalls_not_hangs():
    # the limit here is a nonzero skew matrix, where truncation noise sets
    # a floor on the computed RHS; the stall detector must end the run
    a0 = np.array([[0.0, 2.0], [-1.0, 0.0]])
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=1e12,
                    sample_stride=2e10, rel_tol=1e-8)
    traj, t_total = settle(spec)
    a_inf = traj.states[-1]
    assert frob_norm(a_inf) > 0.1
    assert frob_norm(sym_part(a_inf)) <= 1e-6 * frob_norm(a_inf)
    assert traj.terminal is Terminal.STATIONARY


def test_stall_after_rejected_step():
    # A rejected step must restart from the rhs at the current state.  If
    # that rhs were left aliased to the last stage of the rejected attempt,
    # this antiskew-bound sweep point would grind on instead of stalling
    # (at t_end = 1e12 it would not finish; here it would reach t_end).
    a0 = np.array([[0.0, -1.8688], [0.2277, 0.0]])
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=1e3,
                    sample_stride=20.0, rel_tol=1e-6,
                    stop_when_stationary=1e-16)
    traj = integrate(spec)
    assert traj.stats["rejected"] > 0
    assert traj.terminal is Terminal.STATIONARY
    assert traj.stats["stationary_reason"] == "stall"
    assert traj.stats["accepted"] <= 100


def test_step_stats_of_settle_stages(monkeypatch):
    # extremes over the stages, termination values from the last stage
    stages = []

    def recorded(spec):
        traj = integrate(spec)
        stages.append(traj.stats)
        return traj

    monkeypatch.setattr(flow, "integrate", recorded)
    spec = FlowSpec(kind=FlowKind.BRACKET,
                    a0=np.array([[1.0, 2.0], [0.3, 0.7]]), t_end=1e12,
                    sample_stride=2e10)
    traj, t_total = settle(spec)
    stats = traj.stats
    assert stats["stages"] == len(stages) > 1
    assert stats["h_min"] == min(st["h_min"] for st in stages)
    assert stats["h_max"] == max(st["h_max"] for st in stages)
    assert stats["accepted"] == sum(st["accepted"] for st in stages)
    for key in ("h_next", "q_last", "stationary_reason"):
        assert stats.get(key) == stages[-1].get(key)
    assert stats["t_stop"] == t_total == traj.times[-1]
    for st in stages:
        assert 0.0 < st["h_min"] <= st["h_max"]
        assert 0.0 <= st["q_last"] <= 1.0


def test_step_failure_stats_show_where_it_stopped():
    # y' = y^2 from y(0) = 1 blows up at t = 1
    _, _, terminal, stats = _adaptive(lambda y: y * y, np.ones(1),
                                      [0.0, 2.0], 1e-8, 1e-12)
    assert terminal is Terminal.STEP_FAILURE
    assert abs(stats["t_stop"] - 1.0) < 1e-3
    assert stats["h_next"] < _UNDERFLOW * max(1.0, stats["t_stop"])
    assert 0.0 < stats["h_min"] <= stats["h_max"]
    assert np.isfinite(stats["q_last"])


def test_settle_stops_at_the_threshold_floor():
    # diag(1, -1) decays as (1 + 4t)^(-1/2); ||rhs|| <= 1e-21 stops it near
    # ||A|| = 1e-7, short of rest at 1e-9, and the floor ends the staging
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=np.diag([1.0, -1.0]),
                    t_end=1e16, stop_when_stationary=1e-21)
    traj, _ = settle(spec, rest_tol=1e-9)
    assert traj.stats["stationary_reason"] == "threshold"
    assert "stages" not in traj.stats  # one stage
    assert frob_norm(traj.states[-1]) > 1e-9


def test_settle_stops_on_a_stall_at_the_tolerance_floor():
    # a small start stalls on abs_tol; with rel_tol above its 1e-13 floor
    # the next stage tightens both tolerances, at the floor staging ends
    a0 = np.array([[5e-8, 3.5e-7], [-3.5e-7, 5e-8]])
    runs = {}
    for rel_tol in (1e-12, 1e-13):
        spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=1e14,
                        rel_tol=rel_tol, stop_when_stationary=1e-300)
        assert integrate(spec).stats["stationary_reason"] == "stall"
        runs[rel_tol], _ = settle(spec, rest_tol=1e-300)
    assert runs[1e-12].stats["stages"] > 1
    assert "stages" not in runs[1e-13].stats  # one stage
    assert runs[1e-13].stats["stationary_reason"] == "stall"


def test_settle_rejects_gradient(rng):
    spec = FlowSpec(kind=FlowKind.GRADIENT, a0=random_matrix(rng, 2),
                    t_end=10.0)
    with pytest.raises(ValueError):
        settle(spec)


def test_settle_normalized_ends_on_its_threshold():
    # at t_end = 200 this start is still in its transient; later stages
    # run on with tightened tolerances until the threshold stops one
    b0 = SEED60_START / frob_norm(SEED60_START)
    spec = FlowSpec(kind=FlowKind.NORMALIZED, a0=b0, t_end=200.0,
                    sample_stride=1.0, stop_when_stationary=1e-12)
    first = integrate(spec)
    assert first.terminal is Terminal.REACHED_T_END
    traj, t_total = settle(spec)
    assert traj.terminal is Terminal.STATIONARY
    assert traj.stats["stationary_reason"] == "threshold"
    assert traj.stats["stages"] > 1
    assert t_total > spec.t_end
    b_inf = traj.states[-1]
    assert frob_norm(normalized_rhs(b_inf)) <= 1e-12 * max(1.0, frob_norm(b_inf))
    assert np.all(np.diff(traj.times) > 0)


def test_stitched_columns_equal_diagnostics_of_stitched_states():
    # runs that need several stages, a(t) from the trace and (traceless
    # start) from the spectrum; the columns must be exactly those of one
    # pass over the stitched states, a(t) relative to the very first state
    runs = [FlowSpec(kind=FlowKind.BRACKET, a0=np.array(a0), t_end=1e12,
                     sample_stride=2e10)
            for a0 in ([[1.0, 2.0], [0.3, 0.7]], [[1.0, 2.0], [0.3, -1.0]])]
    runs.append(FlowSpec(kind=FlowKind.NORMALIZED,
                         a0=SEED60_START / frob_norm(SEED60_START),
                         t_end=200.0, sample_stride=1.0,
                         stop_when_stationary=1e-12))
    for spec in runs:
        traj, _ = settle(spec)
        assert traj.stats["stages"] > 1
        want = diagnostic_row(traj.states, spec.kind)
        got = traj.diagnostics
        assert got.a_of_t is not None
        for f in dataclasses.fields(want):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), \
                f.name


def _count_diagnostics(monkeypatch):
    """A list that grows by the sample count of each flow.diagnostic_row
    call."""
    calls = []

    def counted(states, kind):
        calls.append(len(states))
        return diagnostic_row(states, kind)

    monkeypatch.setattr(flow, "diagnostic_row", counted)
    return calls


def test_diagnostics_are_computed_on_first_read_only(monkeypatch):
    calls = _count_diagnostics(monkeypatch)
    type3_monitor(integrate(FlowSpec(kind=FlowKind.BRACKET,
                                     a0=np.eye(2) + e12(2), t_end=2.0,
                                     sample_stride=0.1)))
    curvature_watch(np.eye(2), t_end=1.0)
    traj, _ = settle(FlowSpec(kind=FlowKind.BRACKET,
                              a0=np.array([[1.0, 2.0], [0.3, 0.7]]),
                              t_end=1e12, sample_stride=2e10))
    assert traj.stats["stages"] > 1
    assert calls == []
    first = traj.diagnostics
    assert traj.diagnostics is first
    assert calls == [len(traj.times)]


def test_simulate_computes_diagnostics_once(monkeypatch, tmp_path):
    calls = _count_diagnostics(monkeypatch)
    (tmp_path / "m.json").write_text('{"matrix": [[1, 2], [0.3, 0.7]]}')
    (tmp_path / "cfg.json").write_text(
        '{"input": "m.json", "flow": {"t_end": 1.0}}')
    assert cli.main(["simulate", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# serialization


def test_to_csv_round_trip(tmp_path):
    a0 = np.diag([1.0, -1.0])
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=1.0, sample_stride=0.25)
    traj = integrate(spec)
    path = tmp_path / "traj.csv"
    with open(path, "w", newline="") as fh:
        traj.to_csv(fh)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,a11,a12,a21,a22,norm_sq,tr_A,tr_A2,tr_S2,F,rhs_norm"
    assert len(lines) == len(traj.times) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0


def test_negative_zero_diagonal_start_keeps_its_sign():
    # -0.0 == 0.0, but the antidiagonal kernel writes +0.0 on the diagonal:
    # a start with a -0.0 diagonal entry takes the full kernel, and its
    # first state and CSV row keep the sign
    for a0 in ([[-0.0, 1.2], [-0.7, 0.0]], [[0.0, 1.2], [-0.7, -0.0]]):
        traj = integrate(FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=1.0,
                                  sample_stride=0.25))
        np.testing.assert_array_equal(np.signbit(traj.states[0]),
                                      np.signbit(a0))
        fh = io.StringIO()
        traj.to_csv(fh)
        first = fh.getvalue().splitlines()[1].split(",")
        assert first[1:5] == ["%.17g" % v for v in np.ravel(a0)]
        assert "-0" in first[1:5]


def test_to_csv_header_names_are_unique_at_every_n():
    # a{i}{j} up to n = 9; from n = 10 on a111 would name both A[0, 10]
    # and A[10, 0], and the entries are a{i}_{j}
    rng = np.random.default_rng(9)
    for n, first, last in ((3, "a11", "a33"), (9, "a11", "a99"),
                           (10, "a1_1", "a10_10"), (12, "a1_1", "a12_12")):
        traj = integrate(FlowSpec(kind=FlowKind.BRACKET,
                                  a0=0.1 * rng.standard_normal((n, n)),
                                  t_end=0.1, sample_stride=0.05))
        got = io.StringIO()
        traj.to_csv(got)
        names = got.getvalue().split("\n", 1)[0].split(",")
        assert len(set(names)) == len(names) == 1 + n * n + 6
        assert (names[1], names[n * n]) == (first, last)
    assert len(names) == 151


def test_to_csv_solves_no_eigenproblem(monkeypatch, tmp_path):
    # the CSV's scalar columns never need a spectrum, and writing one does
    # not leave the diagnostics computed
    def refuse(a):
        raise AssertionError("eigenvalues called")

    monkeypatch.setattr(flow, "eigenvalues", refuse)
    rows = phase2d_sweep(default_phase_grid(points=4), 1e12,
                         out_dir=tmp_path)
    assert len(list(tmp_path.glob("traj_*.csv"))) == len(rows) == 12
    traj = integrate(FlowSpec(kind=FlowKind.BRACKET, t_end=2.0,
                              a0=random_matrix(np.random.default_rng(4), 3)))
    traj.to_csv(io.StringIO())
    assert "diagnostics" not in traj.__dict__
    with pytest.raises(AssertionError, match="eigenvalues called"):
        traj.diagnostics


def test_to_csv_blocks_equal_one_table(monkeypatch):
    # rows written 8 at a time, the last block short, against the one
    # table np.savetxt writes for the whole run: 3x3 and 2x2 runs written
    # before their diagnostics are read, and a 3x3 run written after
    runs = []
    for n, read_first in ((3, False), (2, False), (3, True)):
        spec = FlowSpec(kind=FlowKind.BRACKET, a0=random_matrix(
            np.random.default_rng(4), n), t_end=2.0, sample_stride=0.1)
        runs.append(integrate(spec))
        if read_first:
            runs[-1].diagnostics
    monkeypatch.setattr(flow, "_CSV_ROWS", 8)
    for traj in runs:
        got = io.StringIO()
        traj.to_csv(got)
        d = traj.diagnostics
        table = np.column_stack([
            traj.times, traj.states.reshape(len(traj.times), -1), d.norm_sq,
            d.tr_a, d.tr_a2, d.tr_s2, d.f_normalized, d.rhs_norm])
        header = got.getvalue().split("\n", 1)[0]
        want = io.StringIO()
        np.savetxt(want, table, fmt="%.17g", delimiter=",", header=header,
                   comments="")
        assert len(traj.times) > 8 and len(traj.times) % 8
        assert got.getvalue() == want.getvalue()


def test_flowspec_validation(rng):
    with pytest.raises(ValueError):
        FlowSpec(kind=FlowKind.BRACKET, a0=np.eye(2), t_end=-1.0)
    with pytest.raises(ValueError):
        FlowSpec(kind=FlowKind.BRACKET, a0=np.eye(2), t_end=1.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        # normalized runs must start on the unit sphere
        FlowSpec(kind=FlowKind.NORMALIZED, a0=2.0 * np.eye(2), t_end=1.0)


def test_default_sample_stride_is_a_hundredth_of_t_end():
    # a fixed default stride would ask 1e10 samples of a run to t = 1e9
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=np.eye(2), t_end=1e9)
    assert spec.sample_stride == 1e7
    traj = integrate(spec)
    assert traj.terminal is Terminal.REACHED_T_END
    np.testing.assert_array_equal(traj.times, np.linspace(0.0, 1e9, 101))
