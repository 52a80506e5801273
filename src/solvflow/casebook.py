"""Two worked case studies, executable end to end.

The first is the 2x2 antidiagonal family A = [[0, x], [y, 0]]: the flow
preserves it, reduces to a planar polynomial system, and every trajectory
lands on the antiskew line y = -x or slides into the origin along one of
the soliton directions (the diagonal y = x or a coordinate axis).
`phase2d_sweep` maps a whole grid and can emit the atlas as CSV files
plus a gnuplot script.

The second is a 4-dimensional two-parameter family with brackets
mu(e_0, e_i) = alpha * diag(lam, 1-lam, 1) e_i and mu(e_1, e_2) = h e_3.
The flow closes on (alpha, h) with exact solutions, and the distinguished
plane (e_1, e_3) has K = h^2/4 - lam * alpha^2, which changes sign in
finite time for small lam even though negatively curved metrics exist in
the same family.  `curvature_watch` runs the complementary direction:
follow a matrix flow and wait for the negativity conditions to switch on.
"""

import concurrent.futures
import contextlib
import csv
import dataclasses
import math
import pathlib

import numpy as np

from . import flow
from .flow import FlowKind, FlowSpec, Terminal, integrate, settle
from .geometry import (
    MetricLieAlgebra,
    admits_negative_curvature,
    heintze_check,
    mu_of_a,
    sample_sectional,
)
from .matcore import as_matrix

__all__ = [
    "Phase2DPoint",
    "phase2d_rhs",
    "AtlasRow",
    "phase2d_sweep",
    "default_phase_grid",
    "c_lambda",
    "soliton_alpha",
    "EjsolState",
    "ejsol_initial",
    "ejsol_algebra",
    "ejsol_exact",
    "ejsol_k13",
    "ejsol_curvature_crossing",
    "CurvatureWatch",
    "curvature_watch",
]


# ---------------------------------------------------------------------------
# the antidiagonal phase plane


@dataclasses.dataclass(frozen=True)
class Phase2DPoint:
    """A point (x, y) standing for the matrix [[0, x], [y, 0]]."""

    x: float
    y: float

    def embed(self):
        return np.array([[0.0, self.x], [self.y, 0.0]])


def _as_point(p):
    if isinstance(p, Phase2DPoint):
        return p
    x, y = p
    return Phase2DPoint(float(x), float(y))


def phase2d_rhs(p):
    """The planar system x' = x(x+y)(-3x/2 + y/2), y' = y(x+y)(x/2 - 3y/2).

    This is the antidiagonal restriction of the matrix flow; tests check
    the specialization exactly.  Fixed points are the line x + y = 0.
    """
    p = _as_point(p)
    x, y = p.x, p.y
    u = x + y
    return Phase2DPoint(x * u * (-1.5 * x + 0.5 * y),
                        y * u * (0.5 * x - 1.5 * y))


@dataclasses.dataclass
class AtlasRow:
    """One sweep outcome: where the trajectory from (x0, y0) ended up."""

    x0: float
    y0: float
    label: str
    x_inf: float
    y_inf: float
    t_stationary: float


# limits smaller than this (absolute) count as the origin
_ORIGIN_TOL = 1e-4
# relative skew residual certifying a nonzero limit sits on y = -x
_LINE_TOL = 1e-5
# tolerance on the normalized approach direction for the soliton loci
_DIR_TOL = 1e-3
# random planes behind the sectional cross-check of curvature_watch
_WATCH_PLANES = 256
# absolute error tolerance of every sweep run
_SWEEP_ABS_TOL = 1e-13
# most points a pool worker settles per task.  A finished task's rows and
# samples wait in this process until they are written, so this bounds that
# memory at any grid size; 64 points of 2-3 samples are about one block of
# flow._CSV_ROWS
_POOL_CHUNK = 64


def _classify_endpoint(traj):
    a_inf = traj.states[-1]
    x_inf, y_inf = float(a_inf[0, 1]), float(a_inf[1, 0])
    if traj.terminal is Terminal.STEP_FAILURE:
        return "step_failure", x_inf, y_inf
    r = math.hypot(x_inf, y_inf)
    if r > _ORIGIN_TOL:
        if abs(x_inf + y_inf) <= _LINE_TOL * max(1.0, r):
            return "antiskew", x_inf, y_inf
        return "undecided", x_inf, y_inf
    for state in reversed(traj.states):
        rr = math.hypot(state[0, 1], state[1, 0])
        if rr > 0.0:
            ux, uy = state[0, 1] / rr, state[1, 0] / rr
            break
    else:
        return "origin", x_inf, y_inf
    if abs(ux - uy) <= _DIR_TOL:
        return "diagonal", x_inf, y_inf
    if abs(uy) <= _DIR_TOL:
        return "x_axis", x_inf, y_inf
    if abs(ux) <= _DIR_TOL:
        return "y_axis", x_inf, y_inf
    return "origin", x_inf, y_inf


def default_phase_grid(half_width=2.0, points=41):
    """The 41x41 grid over [-2,2]^2, skipping the fixed line x + y = 0.

    The skip is within rounding tolerance relative to half_width: linspace
    pairs meant to cancel can miss exact zero by an ulp, and such points
    are fixed anyway.
    """
    axis = np.linspace(-half_width, half_width, points)
    tol = 1e-12 * half_width
    return [Phase2DPoint(float(x), float(y))
            for x in axis for y in axis if abs(x + y) > tol]


def _sweep_one(args):
    """Settle one grid point: its atlas row, and the stitched samples."""
    p, t_end, rel_tol = args
    # A tight stationarity threshold lets decay-to-origin points come to
    # rest in a single stage; points with a nonzero limit stop via the
    # step-stall detector well before the threshold matters.
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=p.embed(), t_end=t_end,
                    rel_tol=rel_tol, abs_tol=_SWEEP_ABS_TOL,
                    sample_stride=t_end / 50.0,
                    stop_when_stationary=1e-16)
    traj, t_total = settle(spec, rest_tol=_LINE_TOL)
    label, x_inf, y_inf = _classify_endpoint(traj)
    row = AtlasRow(x0=p.x, y0=p.y, label=label,
                   x_inf=x_inf, y_inf=y_inf, t_stationary=t_total)
    return row, traj.times, traj.states


def _write_trajectories(out, block):
    """Write the trajectory CSV of each (idx, times, states) in `block`:
    one scalar pass and one format over the block's stacked samples, then
    one write per file.  The bytes are Trajectory.to_csv's."""
    lines = flow._csv_rows(np.concatenate([times for _, times, _ in block]),
                           np.concatenate([states for _, _, states in block]),
                           FlowKind.BRACKET)
    header = flow._csv_header(2)
    lo = 0
    for idx, times, _ in block:
        hi = lo + len(times)
        with open(out / f"traj_{idx:05d}.csv", "w", newline="") as fh:
            fh.write(header + "".join(lines[lo:hi]))
        lo = hi


def phase2d_sweep(grid, t_end, out_dir=None, rel_tol=1e-6, workers=None):
    """Settle every grid point and classify its limit.

    Labels: `antiskew` (nonzero limit on y = -x), `diagonal` / `x_axis` /
    `y_axis` (decay to the origin along a soliton locus), `origin`,
    `undecided` (did not come to rest by t_end), `step_failure`.  A step
    failure is recorded and the sweep continues.

    With `out_dir` set, writes one trajectory CSV per grid index, the
    summary `atlas.csv` (x0, y0, class, x_inf, y_inf, t_stationary), and
    a gnuplot script `phase_plane.gp` that renders the portrait.

    `workers` > 1 fans the points out over a process pool.  Each point
    returns its atlas row and samples, and this process takes them in grid
    order, so the output is identical to a serial run.  This process
    writes the trajectory CSVs, with Trajectory.to_csv's bytes, a block of
    points at a time: a block closes once its samples reach
    flow._CSV_ROWS, so one block is held however large the grid.
    """
    if not grid:
        raise ValueError("empty sweep grid")
    points = [_as_point(p) for p in grid]
    out = pathlib.Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    jobs = [(p, t_end, rel_tol) for p in points]
    rows, block, block_rows = [], [], 0
    with contextlib.ExitStack() as stack:
        if workers is not None and workers > 1 and len(jobs) > 1:
            pool = stack.enter_context(
                concurrent.futures.ProcessPoolExecutor(workers))
            results = pool.map(_sweep_one, jobs, chunksize=max(1, min(
                len(jobs) // (4 * workers), _POOL_CHUNK)))
        else:
            results = map(_sweep_one, jobs)
        for idx, (row, times, states) in enumerate(results):
            rows.append(row)
            if out is None:
                continue
            block.append((idx, times, states))
            block_rows += len(times)
            if block_rows >= flow._CSV_ROWS:
                _write_trajectories(out, block)
                block, block_rows = [], 0

    if out is not None:
        if block:
            _write_trajectories(out, block)
        with open(out / "atlas.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x0", "y0", "class", "x_inf", "y_inf",
                             "t_stationary"])
            for row in rows:
                writer.writerow([f"{row.x0:.17g}", f"{row.y0:.17g}",
                                 row.label, f"{row.x_inf:.17g}",
                                 f"{row.y_inf:.17g}",
                                 f"{row.t_stationary:.17g}"])
        _write_gnuplot(out, points, len(rows))
    return rows


def _write_gnuplot(out, points, n_rows):
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    pad = 0.1 * max(max(map(abs, xs)), max(map(abs, ys)), 1.0)
    lo = min(min(xs), min(ys)) - pad
    hi = max(max(xs), max(ys)) + pad
    lines = [
        "# render the phase-plane sweep: gnuplot phase_plane.gp",
        "set terminal pngcairo size 900,900 enhanced",
        "set output 'phase_plane.png'",
        "set datafile separator comma",
        "set size square",
        "set xlabel 'x'",
        "set ylabel 'y'",
        f"set xrange [{lo:g}:{hi:g}]",
        f"set yrange [{lo:g}:{hi:g}]",
        "set key off",
        "plot \\",
        "    -x with lines dashtype 2 linecolor rgb 'gray40', \\",
        "     x with lines dashtype 3 linecolor rgb 'gray70', \\",
    ]
    for idx in range(n_rows):
        lines.append(f"    'traj_{idx:05d}.csv' skip 1 using 3:4 "
                     "with lines linecolor rgb '#3466aa', \\")
    lines.append("    'atlas.csv' skip 1 using 1:2 with points "
                 "pointtype 7 pointsize 0.25 linecolor rgb 'black'")
    (out / "phase_plane.gp").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# the 4-dimensional counterexample family


def c_lambda(lam):
    """The family constant lam^2 + (1-lam)^2 + 1."""
    return lam * lam + (1.0 - lam) ** 2 + 1.0


def soliton_alpha(lam):
    """The unique alpha making the (lam, alpha, h=1) metric a soliton."""
    return math.sqrt(3.0) / math.sqrt(2.0 * c_lambda(lam))


@dataclasses.dataclass(frozen=True)
class EjsolState:
    """Family parameters (lam, alpha0) and the scales (alpha, h) at time t.

    The family is normalized to h(0) = 1, so alpha0 alone fixes the run.
    """

    lam: float
    alpha0: float
    alpha: float
    h: float
    t: float

    def __post_init__(self):
        if not (self.alpha0 > 0.0 and self.alpha > 0.0 and self.h > 0.0):
            raise ValueError("alpha and h stay positive along the family")
        if self.t < 0.0:
            raise ValueError("the exact solutions are for t >= 0")


def ejsol_initial(lam, alpha0):
    return EjsolState(lam=lam, alpha0=alpha0, alpha=alpha0, h=1.0, t=0.0)


def ejsol_algebra(lam, alpha, h=1.0):
    """Structure constants mu(e_0,e_i) = alpha diag(lam,1-lam,1) e_i,
    mu(e_1,e_2) = h e_3 on R^4."""
    c = np.zeros((4, 4, 4))
    diag = alpha * np.array([lam, 1.0 - lam, 1.0])
    for i in range(3):
        c[0, 1 + i, 1 + i] = diag[i]
        c[1 + i, 0, 1 + i] = -diag[i]
    c[1, 2, 3] = h
    c[2, 1, 3] = -h
    return MetricLieAlgebra(c)


def ejsol_exact(state, t):
    """Exact flow of the family: alpha(t) = (2 c_lam t + alpha0^-2)^(-1/2),
    h(t) = (3t + 1)^(-1/2).

    `t` is absolute time from the normalized start (alpha0, h=1); the ODEs
    alpha' = -c_lam alpha^3 and h' = -(3/2) h^3 hold by substitution.
    """
    if t < 0.0:
        raise ValueError("the exact solutions are for t >= 0")
    lam, a0 = state.lam, state.alpha0
    alpha = (2.0 * c_lambda(lam) * t + a0 ** -2.0) ** -0.5
    h = (3.0 * t + 1.0) ** -0.5
    return EjsolState(lam=lam, alpha0=a0, alpha=alpha, h=h, t=t)


def ejsol_k13(state):
    """Sectional curvature of the plane (e_1, e_3): h^2/4 - lam alpha^2."""
    return 0.25 * state.h ** 2 - state.lam * state.alpha ** 2


_LAM_MAX = 2.0 - math.sqrt(3.0)


def ejsol_curvature_crossing(lam, alpha0):
    """First time from which K(e_1, e_3) stays nonnegative.

    Defined for 0 < lam <= 2 - sqrt(3), where the sign condition
    (2 c_lam - 12 lam) t >= 4 lam - alpha0^-2 eventually holds; the
    crossing is t0 = max(0, (4 lam - alpha0^-2) / (2 c_lam - 12 lam)).
    At the boundary lam = 2 - sqrt(3) the coefficient vanishes: K keeps
    a single sign, and the result is 0.0 when 4 lam <= alpha0^-2 and
    None otherwise (never nonnegative).
    """
    if not (0.0 < lam <= _LAM_MAX + 1e-12):
        raise ValueError("the crossing exists only for 0 < lam <= 2 - sqrt(3)")
    if not alpha0 > 0.0:
        raise ValueError("alpha0 must be positive")
    c = c_lambda(lam)
    denom = 2.0 * c - 12.0 * lam
    rhs = 4.0 * lam - alpha0 ** -2.0
    if denom <= 1e-12 * max(1.0, c):
        return 0.0 if rhs <= 1e-12 * max(1.0, 4.0 * lam) else None
    return max(0.0, rhs / denom)


# ---------------------------------------------------------------------------
# watching negativity switch on along a matrix flow


@dataclasses.dataclass
class CurvatureWatch:
    """When did the flowed metric turn verifiably negatively curved?

    `first_negative_time` is the first sample where the solvable
    negative-curvature conditions all hold; None makes the report
    inconclusive (the guarantee is eventual, with no bound on when).
    `sectional_max` is the largest random-plane curvature at that sample
    (at t_end when inconclusive) -- the independent cross-check.
    `negative_flags` holds the verdict at each of `times`.
    """

    first_negative_time: float | None
    persistent: bool
    inconclusive: bool
    sectional_max: float
    times: list
    negative_flags: list
    terminal: Terminal


def curvature_watch(a0, t_end):
    """Flow A0 and report when the negativity conditions switch on.

    Requires admits_negative_curvature(A0): the spectrum of A0 must allow
    a negatively curved metric at all.  The bracket flow runs with
    FlowSpec's default tolerances, sampled 200 times.  One heintze_check
    call tests the stack of all samples; the first all-conditions sample
    is cross-checked by the sectional curvatures of _WATCH_PLANES random
    planes (seed 0).
    """
    a0 = as_matrix(a0)
    if not admits_negative_curvature(a0):
        raise ValueError("Spec(A0) does not admit negative curvature")
    spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=t_end,
                    sample_stride=t_end / 200.0)
    traj = integrate(spec)
    flags = heintze_check(traj.states).negative
    first = int(np.argmax(flags)) if flags.any() else None
    if first is None:
        probe = traj.states[-1]
        persistent = False
    else:
        probe = traj.states[first]
        persistent = bool(flags[first:].all())
    sect = sample_sectional(mu_of_a(probe), num_planes=_WATCH_PLANES, seed=0)
    return CurvatureWatch(
        first_negative_time=None if first is None else float(traj.times[first]),
        persistent=persistent,
        inconclusive=first is None,
        sectional_max=float(np.max(sect)),
        times=list(map(float, traj.times)),
        negative_flags=flags.tolist(),
        terminal=traj.terminal,
    )
