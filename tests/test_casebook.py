import builtins
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvflow import (
    EjsolState,
    FlowKind,
    FlowSpec,
    Phase2DPoint,
    Terminal,
    Trajectory,
    bracket_rhs,
    c_lambda,
    certify_algebraic_soliton,
    curvature_watch,
    default_phase_grid,
    ejsol_algebra,
    ejsol_curvature_crossing,
    ejsol_exact,
    ejsol_initial,
    ejsol_k13,
    phase2d_rhs,
    phase2d_sweep,
    sectional_curvature,
    soliton_alpha,
)
from solvflow import casebook, flow
from solvflow.casebook import _classify_endpoint, _sweep_one

coords = st.floats(min_value=-5.0, max_value=5.0,
                   allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# planar reduction


@settings(max_examples=150, deadline=None)
@given(coords, coords)
def test_planar_rhs_matches_matrix_flow(x, y):
    v = phase2d_rhs(Phase2DPoint(x, y))
    m = bracket_rhs(np.array([[0.0, x], [y, 0.0]]))
    scale = max(1.0, (abs(x) + abs(y)) ** 3)
    assert abs(v.x - m[0, 1]) <= 1e-12 * scale
    assert abs(v.y - m[1, 0]) <= 1e-12 * scale
    # the antidiagonal slice is invariant
    assert m[0, 0] == 0.0 and m[1, 1] == 0.0


def test_planar_rhs_known_point():
    v = phase2d_rhs((1.0, 1.0))
    assert v.x == -2.0 and v.y == -2.0


def test_default_grid():
    grid = default_phase_grid()
    assert len(grid) == 41 * 41 - 41
    assert all(p.x + p.y != 0.0 for p in grid)
    assert max(abs(p.x) for p in grid) == 2.0


def test_sweep_labels_and_outputs(tmp_path):
    grid = [(1.0, 1.0), (0.5, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)]
    rows = phase2d_sweep(grid, t_end=1e12, out_dir=tmp_path)
    labels = [r.label for r in rows]
    assert labels == ["diagonal", "antiskew", "x_axis", "y_axis", "diagonal"]
    anti = rows[1]
    r = math.hypot(anti.x_inf, anti.y_inf)
    assert r > 1e-4
    assert abs(anti.x_inf + anti.y_inf) <= 1e-5 * r
    for row in (rows[0], rows[2], rows[3], rows[4]):
        assert math.hypot(row.x_inf, row.y_inf) <= 1e-4

    atlas = (tmp_path / "atlas.csv").read_text().splitlines()
    assert atlas[0] == "x0,y0,class,x_inf,y_inf,t_stationary"
    assert len(atlas) == 1 + len(grid)
    for idx in range(len(grid)):
        assert (tmp_path / f"traj_{idx:05d}.csv").exists()
    assert (tmp_path / "phase_plane.gp").exists()


def test_pooled_sweep_writes_the_serial_files(tmp_path):
    grid = [(1.0, 1.0), (0.5, -1.0), (1.0, 0.0)]
    serial = phase2d_sweep(grid, t_end=1e12, out_dir=tmp_path / "serial")
    pooled = phase2d_sweep(grid, t_end=1e12, out_dir=tmp_path / "pooled",
                           workers=2)
    assert pooled == serial
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "pooled").iterdir())
    assert len(names) == len(grid) + 2
    for name in names:
        assert ((tmp_path / "pooled" / name).read_bytes()
                == (tmp_path / "serial" / name).read_bytes())


def test_sweep_files_are_each_points_to_csv(tmp_path, monkeypatch):
    # the sweep writes its trajectory CSVs a block of points at a time;
    # each file must hold the bytes of Trajectory.to_csv of that point's
    # settle run, serial or pooled, with blocks far smaller than the grid
    grid = [(1.0, 1.0), (0.5, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, -1.0),
            (-1.5, 0.4), (0.0, -2.0), (1.2, -0.3), (-0.7, 0.0)]
    settled, blocks = [], []
    settle, csv_rows = casebook.settle, flow._csv_rows

    def recorded_settle(spec, **kwargs):
        out = settle(spec, **kwargs)
        settled.append(out[0])
        return out

    def recorded_rows(times, states, kind):
        blocks.append(len(times))
        return csv_rows(times, states, kind)

    monkeypatch.setattr(flow, "_CSV_ROWS", 5)
    with monkeypatch.context() as m:
        m.setattr(casebook, "settle", recorded_settle)
        m.setattr(flow, "_csv_rows", recorded_rows)
        phase2d_sweep(grid, t_end=1e12, out_dir=tmp_path / "serial")
    phase2d_sweep(grid, t_end=1e12, out_dir=tmp_path / "pooled", workers=2)
    # every sample in one of several blocks, and a point that crossed the
    # block size closed one
    assert len(settled) == len(grid)
    assert sum(blocks) == sum(len(t.times) for t in settled)
    assert len(blocks) > 1 and max(blocks) > 5
    for idx, traj in enumerate(settled):
        want = io.StringIO()
        traj.to_csv(want)
        for name in ("serial", "pooled"):
            got = (tmp_path / name / f"traj_{idx:05d}.csv").read_bytes()
            assert got == want.getvalue().encode(), (name, idx)


def test_sweep_one_writes_nothing(tmp_path, monkeypatch):
    # a pool worker settles its point and returns the samples; the files
    # are the parent's
    def refuse(*args, **kwargs):
        raise AssertionError("a worker opened a file")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(builtins, "open", refuse)
    row, times, states = _sweep_one((Phase2DPoint(0.5, -1.0), 1e12, 1e-6))
    monkeypatch.undo()
    assert row.label == "antiskew" and len(times) == len(states) > 1
    assert states.shape[1:] == (2, 2)
    assert list(tmp_path.iterdir()) == []


def test_sweep_labels_off_the_soliton_loci():
    # far too large to step, stopped short of rest, and at rest at the
    # origin from the start
    grid = [(1e20, 1e20), (1.0, 0.5), (0.0, 0.0)]
    rows = phase2d_sweep(grid, t_end=1e-3)
    assert [r.label for r in rows] == ["step_failure", "undecided", "origin"]
    assert rows[0].t_stationary == 0.0 and rows[2].t_stationary == 0.0
    assert abs(rows[1].x_inf + rows[1].y_inf) > 0.1


def test_endpoint_near_the_origin_off_every_locus_is_origin():
    # decay into the origin along (0.6, 0.8): not the diagonal, not an axis
    states = np.array([[[0.0, 0.6 * r], [0.8 * r, 0.0]] for r in (1.0, 1e-5)])
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=states[0], t_end=1.0)
    traj = Trajectory(spec=spec, times=np.array([0.0, 1.0]), states=states,
                      terminal=Terminal.STATIONARY, stats={})
    assert _classify_endpoint(traj)[0] == "origin"


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        phase2d_sweep([], t_end=1.0)


# ---------------------------------------------------------------------------
# the two-parameter solvable family


def test_family_constants():
    assert c_lambda(0.2) == pytest.approx(1.68)
    # the soliton scale balances the two structure-constant norms
    for lam in (0.1, 0.5, 1.0, 3.0):
        assert 2.0 * c_lambda(lam) * soliton_alpha(lam) ** 2 == pytest.approx(3.0)


def test_family_algebra_brackets():
    lam, alpha, h = 0.2, 0.7, 1.3
    g = ejsol_algebra(lam, alpha, h)
    c = g.c
    assert c[0, 1, 1] == pytest.approx(lam * alpha)
    assert c[0, 2, 2] == pytest.approx((1.0 - lam) * alpha)
    assert c[0, 3, 3] == pytest.approx(alpha)
    assert c[1, 2, 3] == pytest.approx(h)
    assert c[1, 2, 0] == 0.0


def test_k13_matches_full_curvature_tensor():
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    e3 = np.array([0.0, 0.0, 0.0, 1.0])
    for lam, alpha, h in [(0.2, 1.0, 1.0), (1.0, 0.5, 2.0), (3.8, 0.3, 0.4)]:
        g = ejsol_algebra(lam, alpha, h)
        state = EjsolState(lam=lam, alpha0=alpha, alpha=alpha, h=h, t=0.0)
        k_engine = sectional_curvature(g, e1, e3)
        assert ejsol_k13(state) == pytest.approx(k_engine, abs=1e-12)


def test_soliton_scale_is_certified():
    for lam in (0.1, 0.2, 2.0 - math.sqrt(3.0), 1.0):
        good = certify_algebraic_soliton(ejsol_algebra(lam, soliton_alpha(lam)))
        assert good.accepted
        bad = certify_algebraic_soliton(
            ejsol_algebra(lam, 2.0 * soliton_alpha(lam)))
        assert not bad.accepted


def test_exact_solution_values():
    state = ejsol_initial(1.0, 1.0)
    out = ejsol_exact(state, 1.0)
    assert out.alpha == pytest.approx(1.0 / math.sqrt(5.0))
    assert out.h == pytest.approx(0.5)
    start = ejsol_exact(state, 0.0)
    assert start.alpha == 1.0 and start.h == 1.0
    with pytest.raises(ValueError):
        ejsol_exact(state, -0.1)


def test_exact_solution_satisfies_odes():
    state = ejsol_initial(0.4, 2.0)
    eps = 1e-6
    for t in (0.5, 3.0):
        lo, hi = ejsol_exact(state, t - eps), ejsol_exact(state, t + eps)
        mid = ejsol_exact(state, t)
        da = (hi.alpha - lo.alpha) / (2.0 * eps)
        dh = (hi.h - lo.h) / (2.0 * eps)
        assert da == pytest.approx(-c_lambda(0.4) * mid.alpha ** 3, rel=1e-6)
        assert dh == pytest.approx(-1.5 * mid.h ** 3, rel=1e-6)


def test_curvature_crossing_cases():
    lam = 0.2
    assert ejsol_curvature_crossing(lam, soliton_alpha(lam)) == 0.0

    t0 = ejsol_curvature_crossing(lam, 10.0)
    assert t0 == pytest.approx(0.79 / 0.96)
    state = ejsol_initial(lam, 10.0)
    assert ejsol_k13(ejsol_exact(state, t0 - 0.1)) < 0.0
    assert ejsol_k13(ejsol_exact(state, t0)) == pytest.approx(0.0, abs=1e-12)
    assert ejsol_k13(ejsol_exact(state, t0 + 0.1)) > 0.0

    boundary = 2.0 - math.sqrt(3.0)
    assert ejsol_curvature_crossing(boundary, soliton_alpha(boundary)) == 0.0
    assert ejsol_curvature_crossing(boundary, 10.0) is None

    for bad in (0.0, -1.0, 0.5):
        with pytest.raises(ValueError):
            ejsol_curvature_crossing(bad, 1.0)


# ---------------------------------------------------------------------------
# negativity switching on along the flow


def test_watch_already_negative():
    w = curvature_watch(np.eye(2), t_end=1.0)
    assert w.first_negative_time == 0.0
    assert w.persistent and not w.inconclusive
    assert w.sectional_max < 0.0


def test_watch_shear_turns_negative():
    a0 = np.array([[1.0, 5.0], [0.0, 1.0]])
    w = curvature_watch(a0, t_end=50.0)
    assert not w.inconclusive and w.persistent
    assert w.first_negative_time == pytest.approx(2.75, abs=0.26)
    assert w.sectional_max < 0.0
    assert len(w.times) == len(w.negative_flags)


def test_watch_is_inconclusive_until_negativity_switches_on():
    a0 = np.array([[1.0, 10.0], [0.0, 1.0]])
    short = curvature_watch(a0, t_end=1e-3)
    assert short.inconclusive and not short.persistent
    assert short.first_negative_time is None
    assert not any(short.negative_flags)
    w = curvature_watch(a0, t_end=100.0)
    assert not w.inconclusive and w.persistent
    assert w.first_negative_time == 6.0


def test_watch_rejects_impossible_spectrum():
    with pytest.raises(ValueError):
        curvature_watch(np.diag([1.0, -1.0]), t_end=1.0)
