"""Matrix ODE flows and their adaptive integrator.

The central object is the bracket flow

    dA/dt = -tr(S(A)^2) A + 1/2 [A, [A, A^T]] - 1/2 tr(A) [A, A^T]

with S(A) = (A + A^T)/2, an ODE on n x n matrices.  Each state A encodes a
solvable metric Lie algebra (see solvflow.geometry.mu_of_a), so a solution
is a curve of homogeneous geometries.  Two companion flows live here as
well: the norm-one rescaling of the same curve in its own time variable,
and the negative gradient flow of F(A) = ||[A, A^T]||^2.

The norm-one flow's velocity is taken at B / ||B||, where it is tangent to
every sphere, so the exact flow keeps ||B|| and its integration needs no
projection: the integrator steps it as a plain right-hand side, as it does
the other two flows.

Integration uses an embedded Dormand-Prince 5(4) pair with PI step-size
control.  It is written out explicitly (rather than delegating to an ODE
library) because the flows need what a generic solver does not expose:
stationarity detection from the already-computed right-hand side, a
trial-step kernel chosen per run, and bit-reproducible output for a fixed
spec.

Step sizes come from error control alone; the sample grid never shortens a
step, except that the last one lands on t_end.  A sample inside a step is
interpolated with the free 4th-order continuous extension of the pair
(Hairer, Norsett & Wanner, Solving ODEs I, II.6), and samples of the
norm-one flow, off the unit sphere by about the tolerance, are divided by
their norms.  The per-sample diagnostics are computed on first read and
kept, a block of stacked samples at a time.  A trajectory's CSV computes
its scalar columns alone: it holds no spectrum.

The bracket right-hand side has three arithmetic forms.  One 2x2 matrix
is read as four Python floats and its velocity comes from one closed form,
`_bracket_rhs_2x2`, which public `bracket_rhs` wraps.  Any other single
matrix uses in-place 2-D products and Python-float traces.  A (k, n, n)
stack, the diagnostics' case, uses the broadcast form, which is the
reference both one-matrix forms are tested against.

The integrator's trial step has three kernels, chosen once per run from
its rhs and start.  When the rhs is the library's `bracket_rhs` and the
state is 2x2, `_trial_2x2` takes the whole step on four Python floats: the
stage sums, the closed form at each stage, the error norm and the new
state's norm, with no numpy call.  2x2 is the paper's three-dimensional
case, the semidirect product of Re0 with R^2, which the phase plane (c09)
and the type-III decay (c11) integrate, and numpy calls on four numbers
cost more than the arithmetic.  The state and its rhs stay 4-tuples
between steps.  A 2x2 start whose diagonal entries are both +0.0, the
antidiagonal family [[0, x], [y, 0]] of the phase plane, E12 among them,
takes `_trial_antidiag` instead, which does `_trial_2x2`'s operations on
the two off-diagonal entries alone.  The bits are the same: a +0.0
diagonal gets stage sums +0.0 + w (+-0.0) = +0.0 at every stage, so each
dropped term is an exact zero (`_bracket_rhs_antidiag` keeps the sign of
a zero result).  A -0.0 diagonal entry would come out +0.0, so such a
start takes `_trial_2x2`.  Any other rhs or size takes the plain numpy
step on the flattened state: a fresh array of stage derivatives per
trial, each stage state y + (h A)[i, :i] @ k[:i] and the error norm of
(h E) @ k.  In all kernels the new state's norm, taken once, is the
non-finite test, the next step's tolerance and the stall budget.  Around
the trial step the loop keeps its counters in locals and writes the
stats once, at the end.

No step evaluates the dense output.  A step that reaches a sample keeps a
row (its start, size, state, stage derivatives and the samples it covers),
and `_fill` writes the samples of the kept rows into one array sized from
the sample grid, a block of samples at a time with elementwise arithmetic,
so each sample is the same whatever the block.
"""

import bisect
import dataclasses
import enum
import functools
import itertools
import math

import numpy as np

from .matcore import (
    as_matrix, commutator, eigenvalues, frob_norm, pow2, sym_part, unit_scale,
)

__all__ = [
    "FlowKind",
    "Terminal",
    "FlowSpec",
    "Diagnostics",
    "Trajectory",
    "PullbackPath",
    "BridgeReport",
    "bracket_rhs",
    "normalized_rhs",
    "gradient_rhs",
    "integrate",
    "settle",
    "cointegrate_pullback",
    "reparam_bridge",
]

# settle() gives up after this many stages
_MAX_STAGES = 4
# settle's stationarity threshold when its spec sets none
_EPS_FIX = 1e-10
# tolerances and sample stride of reparam_bridge's joint integration
_BRIDGE_REL_TOL = 1e-10
_BRIDGE_ABS_TOL = 1e-13
_BRIDGE_STRIDE = 0.25


class FlowKind(str, enum.Enum):
    BRACKET = "bracket"
    NORMALIZED = "normalized"
    GRADIENT = "gradient"


class Terminal(str, enum.Enum):
    REACHED_T_END = "reached_t_end"
    STATIONARY = "stationary"
    STEP_FAILURE = "step_failure"


# ---------------------------------------------------------------------------
# right-hand sides


def _bracket_rhs_2x2(a11, a12, a21, a22):
    """The bracket flow's velocity at a 2x2 matrix, entries in row order.

    C = [A, A^T] = [[p, q], [q, -p]], and [A, C] is traceless.  Only *, +
    and - here: they overflow to inf as numpy does, where ** raises.
    """
    u = a12 - a21
    p = u * (a12 + a21)
    q = u * (a22 - a11)
    tr_s2 = a11 * a11 + a22 * a22 + 0.5 * (a12 + a21) * (a12 + a21)
    half_tr = 0.5 * (a11 + a22)
    m11 = 0.5 * q * u - half_tr * p
    m12 = 0.5 * q * (a11 - a22) - a12 * p - half_tr * q
    m21 = 0.5 * q * (a22 - a11) + a21 * p - half_tr * q
    return (m11 - tr_s2 * a11, m12 - tr_s2 * a12,
            m21 - tr_s2 * a21, -m11 - tr_s2 * a22)


def _bracket_rhs_antidiag(x, y):
    """`_bracket_rhs_2x2`'s off-diagonal entries at [[+0.0, x], [y, +0.0]].

    The same operations in the same order, with the diagonal terms
    dropped: with a +0.0 diagonal each is an exact zero, q among them, and
    tr S^2 loses two +0.0 summands.  The 0.0 that starts m12 and m21 keeps
    the sign the full form gives a zero result; where q is NaN (x - y not
    finite) the full form is NaN and this one non-finite too.
    """
    u = x - y
    p = u * (x + y)
    tr_s2 = 0.5 * (x + y) * (x + y)
    return 0.0 - x * p - tr_s2 * x, 0.0 + y * p - tr_s2 * y


def bracket_rhs(a):
    """Velocity of the bracket flow at A, or at each matrix of a stack.

    One 2x2 matrix takes the closed form on Python floats, any other single
    matrix in-place 2-D arithmetic, and a (k, n, n) stack the broadcast form
    that is the reference for both (see the module docstring).
    """
    a = np.asarray(a, dtype=float)
    if a.shape == (2, 2):
        (a11, a12), (a21, a22) = a.tolist()
        return np.array(_bracket_rhs_2x2(a11, a12, a21, a22)).reshape(2, 2)
    if a.ndim == 2:
        at = a.T
        s2 = (a + at).ravel()  # 2 S, so tr S^2 = |2 S|^2 / 4
        c = np.dot(a, at)
        c -= np.dot(at, a)
        out = np.dot(a, c)
        out -= np.dot(c, a)
        out *= 0.5
        out -= (0.25 * float(np.dot(s2, s2))) * a
        out -= (0.5 * math.fsum(a.diagonal().tolist())) * c
        return out
    at = a.swapaxes(-1, -2)
    s = 0.5 * (a + at)
    c = a @ at - at @ a
    tr_s2 = (s * s).sum(axis=(-2, -1), keepdims=True)
    tr_a = a.trace(axis1=-2, axis2=-1)[..., None, None]
    return -tr_s2 * a + 0.5 * (a @ c - c @ a) - 0.5 * tr_a * c


def normalized_rhs(b):
    """Velocity of the norm-one flow in rescaled time, taken at U = B / ||B||
    with one norm per matrix of a (k, n, n) stack.

    With C = [U, U^T] it is [U, C] - tr(U) C + ||C||^2 U, whose inner
    product with U is -||C||^2 + 0 + ||C||^2 = 0: it is tangent to every
    sphere, so the exact flow keeps ||B||, and homogeneous of degree 0 in
    B, bit for bit at powers of two that keep the squares of the entries
    normal floats.  A zero matrix raises ValueError; a non-finite entry
    gives a non-finite velocity.
    """
    b = np.asarray(b, dtype=float)
    nrm = np.sqrt((b * b).sum(axis=(-2, -1), keepdims=True))
    if not nrm.all():
        raise ValueError("normalized_rhs needs a nonzero matrix")
    u = b / nrm
    ut = u.swapaxes(-1, -2)
    c = u @ ut - ut @ u
    tr_u = u.trace(axis1=-2, axis2=-1)[..., None, None]
    f = (c * c).sum(axis=(-2, -1), keepdims=True)
    return (u @ c - c @ u) - tr_u * c + f * u


def gradient_rhs(a):
    """Velocity of the negative gradient flow of F(A) = ||[A, A^T]||^2."""
    a = np.asarray(a, dtype=float)
    at = a.swapaxes(-1, -2)
    c = a @ at - at @ a
    return 4.0 * (a @ c - c @ a)


# ---------------------------------------------------------------------------
# spec / trajectory containers


@dataclasses.dataclass
class FlowSpec:
    """Everything needed to reproduce one integration run."""

    kind: FlowKind
    a0: np.ndarray
    t_end: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    sample_stride: float | None = None  # None: t_end / 100
    stop_when_stationary: float | None = None

    def __post_init__(self):
        self.kind = FlowKind(self.kind)
        self.a0 = as_matrix(self.a0)
        if not (0.0 < self.t_end < math.inf):
            raise ValueError("t_end must be positive and finite")
        for name in ("rel_tol", "abs_tol"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.sample_stride is None:
            self.sample_stride = self.t_end / 100.0
        if not (0.0 < self.sample_stride < math.inf):
            raise ValueError("sample_stride must be positive and finite")
        if self.stop_when_stationary is not None and not (
            0.0 < self.stop_when_stationary < 1.0
        ):
            raise ValueError("stop_when_stationary must be a small positive threshold")
        if self.kind is FlowKind.NORMALIZED:
            nrm = frob_norm(self.a0)
            if abs(nrm - 1.0) > 1e-6:
                raise ValueError("normalized runs need a unit-norm initial matrix")

    @property
    def dim(self):
        return self.a0.shape[0]


@dataclasses.dataclass
class Diagnostics:
    """Observables along a trajectory: one array per observable, one entry
    per sample.

    `spectra` holds the canonically ordered spectrum of each sample, shape
    (k, n).  `a_of_t` is the factor with Spec A(t) = a(t) Spec A0, or None
    when A0 is nilpotent.
    """

    norm_sq: np.ndarray
    tr_a: np.ndarray
    tr_a2: np.ndarray
    tr_s2: np.ndarray
    f_normalized: np.ndarray
    rhs_norm: np.ndarray
    spectra: np.ndarray
    a_of_t: np.ndarray | None


@dataclasses.dataclass
class Trajectory:
    spec: FlowSpec
    times: np.ndarray
    states: np.ndarray
    terminal: Terminal
    stats: dict

    @functools.cached_property
    def diagnostics(self):
        """The observables of every sample, computed on first read and kept."""
        return diagnostic_row(self.states, self.spec.kind)

    def to_csv(self, fh):
        """Write samples as CSV: t, the entries of A, then the scalar columns.

        Entry (i, j) is column a{i}{j}, or a{i}_{j} from n = 10 on, where
        a111 would name both A[0, 10] and A[10, 0].  The scalar columns
        are computed on their own, so writing a trajectory solves no
        eigenproblem.  Every value is written as %.17g.
        """
        fh.write(_csv_header(self.spec.dim))
        # a table of _CSV_ROWS rows at a time, not one of the whole run
        for lo in range(0, len(self.times), _CSV_ROWS):
            rows = slice(lo, lo + _CSV_ROWS)
            fh.write("".join(_csv_rows(self.times[rows], self.states[rows],
                                      self.spec.kind)))


def _csv_header(n):
    """The header line of a trajectory CSV of n x n states."""
    sep = "_" if n >= 10 else ""
    cols = ["t"]
    cols += [f"a{i + 1}{sep}{j + 1}" for i in range(n) for j in range(n)]
    cols += ["norm_sq", "tr_A", "tr_A2", "tr_S2", "F", "rhs_norm"]
    return ",".join(cols) + "\n"


def _csv_rows(times, states, kind):
    """The CSV lines of samples `times` (k,) and `states` (k, n, n), one
    per sample, with one scalar pass over the stack.  The samples may come
    from several runs of one `kind`: every column is per sample."""
    scalars = _scalar_block(states, kind)
    table = np.column_stack([times, states.reshape(len(times), -1),
                             *scalars.values()])
    fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return [fmt % tuple(r) for r in table.tolist()]


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) with PI step control

# Row i of _DP_A holds the weights of stage i.  Row 6 is also the 5th-order
# solution, so stage 7 is the rhs at the new state (first same as last).
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
# difference between the 5th and the embedded 4th order weights
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])
# Free 4th-order continuous extension (Shampine, Math. Comp. 46, 1986; the
# interpolant of scipy's RK45): inside a step of size h from y,
#   y(t + s h) = y + sum_i (h b_i(s)) K_i,
#   b_i(s) = (s, s^2, s^3, s^4) @ _DP_P[:, i].
_DP_P = np.array([
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [-8048581381 / 2820520608, 0.0, 131558114200 / 32700410799,
     -1754552775 / 470086768, 127303824393 / 49829197408,
     -282668133 / 205662961, 40617522 / 29380423],
    [8663915743 / 2820520608, 0.0, -68118460800 / 10900136933,
     14199869525 / 1410260304, -318862633887 / 49829197408,
     2019193451 / 616988883, -110615467 / 29380423],
    [-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
     -10690763975 / 1880347072, 701980252875 / 199316789632,
     -1453857185 / 822651844, 69997945 / 29380423],
])
# the nonzero columns of _DP_P on Python floats, (i, (p1, p2, p3, p4)), so
# that b_i(s) = s (p1 + s (p2 + s (p3 + s p4)))
_DP_B = [(i, tuple(col)) for i, col in enumerate(_DP_P.T.tolist()) if any(col)]

_SAFETY = 0.9
_BETA = 0.04
_EXPO = 0.2 - 0.75 * _BETA
_FAC_MIN = 0.2
_FAC_MAX = 10.0
_UNDERFLOW = 1e-14
# a step moves the state by ~h*||f||; once that stays below a few error
# budgets for several consecutive free steps, further motion is not
# resolvable at the requested tolerance and the state is at rest.
_STALL_SLACK = 4.0
_STALL_RUN = 8


def _nrm(y):
    """Euclidean norm of a 1-D array, bit for bit np.linalg.norm's."""
    return math.sqrt(np.dot(y, y))


def _nrm2(v):
    """Euclidean norm of two floats."""
    v0, v1 = v
    return math.sqrt(v0 * v0 + v1 * v1)


def _nrm4(v):
    """Euclidean norm of four floats, the squares summed in order."""
    v0, v1, v2, v3 = v
    return math.sqrt(v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3)


# the weights of _trial_2x2: rows 1-6 of _DP_A and _DP_E as Python floats.
# _B2 = _E2 = 0, and _trial_2x2 skips those terms.
((_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
 (_A61, _A62, _A63, _A64, _A65), (_B1, _B2, _B3, _B4, _B5, _B6)) = [
    row[:i] for i, row in enumerate(_DP_A.tolist()) if i]
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _DP_E.tolist()


def _trial_2x2(y, k1, h):
    """One Dormand-Prince trial step of the 2x2 bracket flow on floats.

    `y` and `k1`, the state and its rhs, are 4-tuples of the entries in
    row order.  Returns (y_new, ks, err_norm, new_nrm): the 5th-order
    state, the seven stage derivatives (ks[6] is the rhs at y_new, first
    same as last), the norm of the error estimate and ||y_new||.

    Each stage state is summed left to right, y + (h a_i1) k1 + (h a_i2) k2
    + ..., skipping zero weights, and the error the same way from 0.  Only
    *, + and -, so a NaN stays NaN and an overflow is inf, and a norm whose
    squares overflow is inf too.
    """
    y0, y1, y2, y3 = y
    a0, a1, a2, a3 = k1
    w1 = h * _A21
    k2 = b0, b1, b2, b3 = _bracket_rhs_2x2(
        y0 + w1 * a0, y1 + w1 * a1, y2 + w1 * a2, y3 + w1 * a3)
    w1, w2 = h * _A31, h * _A32
    k3 = c0, c1, c2, c3 = _bracket_rhs_2x2(
        y0 + w1 * a0 + w2 * b0, y1 + w1 * a1 + w2 * b1,
        y2 + w1 * a2 + w2 * b2, y3 + w1 * a3 + w2 * b3)
    w1, w2, w3 = h * _A41, h * _A42, h * _A43
    k4 = d0, d1, d2, d3 = _bracket_rhs_2x2(
        y0 + w1 * a0 + w2 * b0 + w3 * c0, y1 + w1 * a1 + w2 * b1 + w3 * c1,
        y2 + w1 * a2 + w2 * b2 + w3 * c2, y3 + w1 * a3 + w2 * b3 + w3 * c3)
    w1, w2, w3, w4 = h * _A51, h * _A52, h * _A53, h * _A54
    k5 = e0, e1, e2, e3 = _bracket_rhs_2x2(
        y0 + w1 * a0 + w2 * b0 + w3 * c0 + w4 * d0,
        y1 + w1 * a1 + w2 * b1 + w3 * c1 + w4 * d1,
        y2 + w1 * a2 + w2 * b2 + w3 * c2 + w4 * d2,
        y3 + w1 * a3 + w2 * b3 + w3 * c3 + w4 * d3)
    w1, w2, w3, w4, w5 = h * _A61, h * _A62, h * _A63, h * _A64, h * _A65
    k6 = f0, f1, f2, f3 = _bracket_rhs_2x2(
        y0 + w1 * a0 + w2 * b0 + w3 * c0 + w4 * d0 + w5 * e0,
        y1 + w1 * a1 + w2 * b1 + w3 * c1 + w4 * d1 + w5 * e1,
        y2 + w1 * a2 + w2 * b2 + w3 * c2 + w4 * d2 + w5 * e2,
        y3 + w1 * a3 + w2 * b3 + w3 * c3 + w4 * d3 + w5 * e3)
    w1, w3, w4, w5, w6 = h * _B1, h * _B3, h * _B4, h * _B5, h * _B6
    y_new = z0, z1, z2, z3 = (
        y0 + w1 * a0 + w3 * c0 + w4 * d0 + w5 * e0 + w6 * f0,
        y1 + w1 * a1 + w3 * c1 + w4 * d1 + w5 * e1 + w6 * f1,
        y2 + w1 * a2 + w3 * c2 + w4 * d2 + w5 * e2 + w6 * f2,
        y3 + w1 * a3 + w3 * c3 + w4 * d3 + w5 * e3 + w6 * f3)
    k7 = g0, g1, g2, g3 = _bracket_rhs_2x2(z0, z1, z2, z3)
    w1, w3, w4 = h * _E1, h * _E3, h * _E4
    w5, w6, w7 = h * _E5, h * _E6, h * _E7
    r0 = w1 * a0 + w3 * c0 + w4 * d0 + w5 * e0 + w6 * f0 + w7 * g0
    r1 = w1 * a1 + w3 * c1 + w4 * d1 + w5 * e1 + w6 * f1 + w7 * g1
    r2 = w1 * a2 + w3 * c2 + w4 * d2 + w5 * e2 + w6 * f2 + w7 * g2
    r3 = w1 * a3 + w3 * c3 + w4 * d3 + w5 * e3 + w6 * f3 + w7 * g3
    return (y_new, (k1, k2, k3, k4, k5, k6, k7),
            math.sqrt(r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3),
            math.sqrt(z0 * z0 + z1 * z1 + z2 * z2 + z3 * z3))


def _trial_antidiag(y, k1, h):
    """`_trial_2x2` at a state [[+0.0, x], [y, +0.0]], on the pair (x, y).

    The full kernel's operations on the off-diagonal entries, in the same
    order.  Its diagonal stage sums are +0.0 + w (+-0.0) = +0.0 at every
    stage, its diagonal rhs entries +0.0 and -0.0 whenever the
    off-diagonal ones are finite, and the squares they add to a norm exact
    zeros, so each result equals the full kernel's entries bit for bit;
    where a diagonal entry is not finite, an off-diagonal one of the same
    stage is not either.
    """
    y1, y2 = y
    a1, a2 = k1
    w1 = h * _A21
    k2 = b1, b2 = _bracket_rhs_antidiag(y1 + w1 * a1, y2 + w1 * a2)
    w1, w2 = h * _A31, h * _A32
    k3 = c1, c2 = _bracket_rhs_antidiag(y1 + w1 * a1 + w2 * b1,
                                        y2 + w1 * a2 + w2 * b2)
    w1, w2, w3 = h * _A41, h * _A42, h * _A43
    k4 = d1, d2 = _bracket_rhs_antidiag(y1 + w1 * a1 + w2 * b1 + w3 * c1,
                                        y2 + w1 * a2 + w2 * b2 + w3 * c2)
    w1, w2, w3, w4 = h * _A51, h * _A52, h * _A53, h * _A54
    k5 = e1, e2 = _bracket_rhs_antidiag(
        y1 + w1 * a1 + w2 * b1 + w3 * c1 + w4 * d1,
        y2 + w1 * a2 + w2 * b2 + w3 * c2 + w4 * d2)
    w1, w2, w3, w4, w5 = h * _A61, h * _A62, h * _A63, h * _A64, h * _A65
    k6 = f1, f2 = _bracket_rhs_antidiag(
        y1 + w1 * a1 + w2 * b1 + w3 * c1 + w4 * d1 + w5 * e1,
        y2 + w1 * a2 + w2 * b2 + w3 * c2 + w4 * d2 + w5 * e2)
    w1, w3, w4, w5, w6 = h * _B1, h * _B3, h * _B4, h * _B5, h * _B6
    y_new = z1, z2 = (
        y1 + w1 * a1 + w3 * c1 + w4 * d1 + w5 * e1 + w6 * f1,
        y2 + w1 * a2 + w3 * c2 + w4 * d2 + w5 * e2 + w6 * f2)
    k7 = g1, g2 = _bracket_rhs_antidiag(z1, z2)
    w1, w3, w4 = h * _E1, h * _E3, h * _E4
    w5, w6, w7 = h * _E5, h * _E6, h * _E7
    r1 = w1 * a1 + w3 * c1 + w4 * d1 + w5 * e1 + w6 * f1 + w7 * g1
    r2 = w1 * a2 + w3 * c2 + w4 * d2 + w5 * e2 + w6 * f2 + w7 * g2
    return (y_new, (k1, k2, k3, k4, k5, k6, k7),
            math.sqrt(r1 * r1 + r2 * r2), math.sqrt(z1 * z1 + z2 * z2))


def _initial_step(rhs, y0, f0, rel_tol, abs_tol, span):
    """The first step size (Hairer, Norsett & Wanner, II.4), or NaN, which
    stops the run as a step failure, when an overflowing ||f0|| makes the
    trial step h0 zero or NaN."""
    tol = max(abs_tol, rel_tol * _nrm(y0))
    d0 = _nrm(y0) / tol
    d1 = _nrm(f0) / tol
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    # the caller counts this rhs call, so it is made even when h0 is bad
    df = _nrm(rhs(y0 + h0 * f0) - f0)
    if not tol * h0 > 0.0:
        return math.nan
    d2 = df / (tol * h0)
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


def _stack_floats(rows):
    """np.array(rows) for equal-shaped nested tuples of floats, built from
    one flat pass over them, which is faster than np.array on tuples."""
    shape, first, flat = [len(rows)], rows[0], rows
    while isinstance(first, tuple):
        shape.append(len(first))
        first, flat = first[0], itertools.chain.from_iterable(flat)
    return np.fromiter(flat, float, count=math.prod(shape)).reshape(shape)


def _fill(rec, sample_times, rows, stack):
    """Write the samples of the step rows `rows` into `rec`.

    A row (t, h, y, k, lo, hi, exact) is an accepted step of size h from
    the state y at time t, with k its seven stage derivatives; it covers
    the samples rec[lo:hi], and the rows of one call cover a contiguous
    range.  `exact` is the step's end state when its last sample lands on
    the step's end, else None.  `stack` turns a sequence of states or of
    stage derivatives into one array.

    A sample at t + s h is y + sum_i (h b_i(s)) K_i, each b_i in Horner
    form and each operation elementwise, so a sample comes out the same
    whatever else is filled with it.  The samples are filled _DIAG_BLOCK
    at a time, which bounds the temporaries at any stride.
    """
    t0, h, y, k, lo, hi, exact = zip(*rows)
    t0, h, ends = np.array(t0), np.array(h), np.array(hi)
    y, k = stack(y), stack(k)
    for a in range(lo[0], hi[-1], _DIAG_BLOCK):
        b = min(a + _DIAG_BLOCK, hi[-1])
        r = np.searchsorted(ends, np.arange(a, b), side="right")
        hr = h[r]
        s = (sample_times[a:b] - t0[r]) / hr
        out = rec[a:b]
        out[:] = y[r]
        for i, (p1, p2, p3, p4) in _DP_B:
            w = hr * (s * (p1 + s * (p2 + s * (p3 + s * p4))))
            out += w[:, None] * k[r, i]
    for j, z in zip(hi, exact):
        if z is not None:
            rec[j - 1] = z


def _adaptive(rhs, y0, sample_times, rel_tol, abs_tol, eps_fix=None):
    """March `rhs` from sample_times[0]=0, recording the state at each sample.

    Step sizes come from error control alone: only the step that reaches
    sample_times[-1] is shortened, to land on it.  Samples that fall inside
    an accepted step come from the continuous extension: the step keeps a
    row for `_fill`, which evaluates the kept rows once they cover
    _DIAG_BLOCK samples, and once more at the end of the run.

    Returns (times, states, terminal, stats).  `eps_fix` enables
    stationarity detection on ||rhs|| <= eps*max(1,||y||).  The stats count
    rejections by reason: error test, and non-finite stage or state.  A
    state counts as non-finite when its norm is, so a finite state whose
    squared norm overflows is rejected too.  A step size that is not a
    number (the initial step of such a state) stops the run as a step
    failure.  The stats also hold `t_stop`, the time reached, and, once
    they exist, `h_min` and `h_max` over accepted steps, `h_next`, the step
    size the run would try next, and `q_last`, the last finite error ratio
    (error norm over tolerance).

    The trial step has three kernels (see the module docstring) behind one
    interface, trial(y, f, h) -> (y_new, ks, err_norm, new_nrm), chosen
    once per run with the norm and the `stack` of `_fill` that match its
    states; all the rest of the loop is shared.  The library's
    `bracket_rhs` on a 2x2 start takes `_trial_antidiag` when both
    diagonal entries are +0.0, which gives the same bits as `_trial_2x2`
    there, and `_trial_2x2` otherwise.  The antidiagonal kernel records
    two columns, and the (k, 2, 2) states are built once at the end, with
    a +0.0 diagonal.
    """
    shape = np.shape(y0)
    y = np.array(y0, dtype=float).ravel()
    sample_times = np.asarray(sample_times, dtype=float)
    t = 0.0
    t_final = float(sample_times[-1])
    flat = rhs is bracket_rhs and shape == (2, 2)

    def f_of(z):
        return rhs(z.reshape(shape)).ravel()

    narrow = False
    if flat:
        y_cur = tuple(y.tolist())
        f_cur = _bracket_rhs_2x2(*y_cur)
        f0 = np.array(f_cur)
        # a -0.0 diagonal entry would come out as +0.0, so it takes the
        # full kernel
        d11, d22 = y_cur[0], y_cur[3]
        narrow = (d11 == d22 == 0.0 and math.copysign(1.0, d11) == 1.0
                  and math.copysign(1.0, d22) == 1.0)
        if narrow:
            trial, norm = _trial_antidiag, _nrm2
            y_cur, f_cur = y_cur[1:3], f_cur[1:3]
        else:
            trial, norm = _trial_2x2, _nrm4
        stack = _stack_floats
    else:
        norm, stack = _nrm, np.array
        y_cur = y
        f_cur = f0 = f_of(y)

        def trial(y, f, h):
            # k[i] is the rhs at stage i; k[0] = f, the rhs at y
            k = np.empty((7, y.size))
            k[0] = f
            w = h * _DP_A
            for i in range(1, 7):
                z = y + w[i, :i] @ k[:i]
                k[i] = f_of(z)
            return z, k, _nrm((h * _DP_E) @ k), _nrm(z)

    # one row per sample; a run that stops between samples ends on a row
    # the grid leaves free (the grid's last sample is t_final itself)
    rec = np.empty((len(sample_times), len(y_cur)))
    rec[0] = y_cur
    n_rec = n_filled = 1
    # the grid on Python floats, the next sample time still to record, and
    # the rows of steps whose samples rec[n_filled:n_rec] are not yet filled
    grid = sample_times.tolist()
    t_next = grid[1] if len(grid) > 1 else math.inf
    pending = []
    # the counters live in locals and go into stats after the loop
    n_accepted = n_error = n_nonfinite = 0
    rhs_evals = 1
    h = q_last = reason = None

    y_nrm = norm(y_cur)
    terminal = None
    if eps_fix is not None and norm(f_cur) <= eps_fix * max(1.0, y_nrm):
        terminal, reason = Terminal.STATIONARY, "threshold"

    if terminal is None:
        h = _initial_step(f_of, y, f0, rel_tol, abs_tol, t_final)
        rhs_evals += 1
        fac_old = 1e-4
        just_rejected = False
        stall = 0
        h_min, h_max = math.inf, 0.0
        # the error tolerance and the step floor change only when a step
        # is accepted; t >= 0, so the floor is _UNDERFLOW * max(1, t)
        tol = rel_tol * y_nrm
        if not tol > abs_tol:
            tol = abs_tol
        h_floor = _UNDERFLOW

        while True:
            if t >= t_final:
                terminal = Terminal.REACHED_T_END
                break
            if not h >= h_floor:
                terminal = Terminal.STEP_FAILURE
                break
            last = h >= t_final - t
            h_try = t_final - t if last else h

            y_new, ks, err_norm, new_nrm = trial(y_cur, f_cur, h_try)
            rhs_evals += 6
            # a NaN or inf entry makes the norm non-finite, and so does a
            # finite state too large for its norm to be a usable tolerance
            if not (math.isfinite(err_norm) and math.isfinite(new_nrm)):
                h = 0.1 * h_try
                just_rejected = True
                stall = 0
                n_nonfinite += 1
                continue
            q = q_last = err_norm / tol
            if q > 1.0:
                factor = _SAFETY * q**-0.2
                h = h_try * (factor if factor > _FAC_MIN else _FAC_MIN)
                just_rejected = True
                stall = 0
                n_error += 1
                continue

            t_new = t_final if last else t + h_try
            if t_new >= t_next:
                j = bisect.bisect_right(grid, t_new, n_rec)
                pending.append((t, h_try, y_cur, ks, n_rec, j,
                                y_new if grid[j - 1] == t_new else None))
                n_rec = j
                t_next = grid[j] if j < len(grid) else math.inf
                if n_rec - n_filled >= _DIAG_BLOCK:
                    _fill(rec, sample_times, pending, stack)
                    pending, n_filled = [], n_rec

            t = t_new
            if t > 1.0:
                h_floor = _UNDERFLOW * t
            # first same as last: stage 7 is the rhs at y_new
            y_cur, f_cur = y_new, ks[6]
            y_nrm = new_nrm
            tol = rel_tol * y_nrm
            if not tol > abs_tol:
                tol = abs_tol
            n_accepted += 1
            if h_try < h_min:
                h_min = h_try
            if h_try > h_max:
                h_max = h_try

            # with q <= 1 and fac_old >= 1e-4, factor > 0.62: no _FAC_MIN
            if 1e-10 > q:
                q = 1e-10
            factor = _SAFETY * q**-_EXPO * fac_old**_BETA
            cap = 1.0 if just_rejected else _FAC_MAX
            h = h_try * (factor if factor < cap else cap)
            fac_old = 1e-4 if 1e-4 > q else q
            just_rejected = False

            if eps_fix is not None:
                f_nrm = norm(f_cur)
                if f_nrm <= eps_fix * (y_nrm if y_nrm > 1.0 else 1.0):
                    terminal, reason = Terminal.STATIONARY, "threshold"
                    break
                # every step is freely chosen but the landing step, which
                # carries no stall signal
                if not last:
                    budget = abs_tol + rel_tol * y_nrm
                    stall = stall + 1 if h_try * f_nrm <= _STALL_SLACK * budget else 0
                    if stall >= _STALL_RUN:
                        terminal, reason = Terminal.STATIONARY, "stall"
                        break

    stats = {"accepted": n_accepted, "rejected": n_error + n_nonfinite,
             "rejected_error": n_error, "rejected_nonfinite": n_nonfinite,
             "rhs_evals": rhs_evals}
    if q_last is not None:
        stats["q_last"] = q_last
    if reason is not None:
        stats["stationary_reason"] = reason
    if h is not None:  # the loop ran
        stats["h_next"] = h
    if n_accepted:
        stats["h_min"], stats["h_max"] = h_min, h_max
    stats["t_stop"] = t

    if pending:
        _fill(rec, sample_times, pending, stack)
    times = sample_times[:n_rec].copy()
    if t > times[-1]:
        times = np.append(times, t)
        rec[n_rec] = y_cur
        n_rec += 1
    if narrow:
        states = np.zeros((n_rec, 4))
        states[:, 1:3] = rec[:n_rec]
    else:
        # trim; a full buffer is returned as it is
        states = rec if n_rec == len(rec) else rec[:n_rec].copy()
    return times, states.reshape((n_rec,) + shape), terminal, stats


def _sample_grid(t_end, stride):
    grid = np.arange(0.0, t_end, stride)
    if t_end - grid[-1] > 1e-12 * max(1.0, t_end):
        grid = np.append(grid, t_end)
    else:
        grid[-1] = t_end
    return grid


# ---------------------------------------------------------------------------
# the public integrator


_RHS = {
    FlowKind.BRACKET: bracket_rhs,
    FlowKind.NORMALIZED: normalized_rhs,
    FlowKind.GRADIENT: gradient_rhs,
}


# samples per block of _fill, diagnostic_row, type3_monitor and the CLI's
# diagnostics.jsonl.  A block's temporaries peak at about a dozen arrays the
# size of its states (6 MB at 8x8) however long the trajectory; _fill keeps
# the rows of at most one block's steps, each with seven stage derivatives.
_DIAG_BLOCK = 1024
# rows per write of Trajectory.to_csv, and the samples that close a block of
# phase2d_sweep's trajectory CSVs.  A write holds its rows as Python floats
# and as text, about 4 kB a row at 8x8, so it takes fewer rows than a
# block: at 1024 rows simulate's peak RSS at the sample cap rose by 1.5 MB.
# A scalar pass's fixed cost is about that of formatting ten 2x2 rows,
# under a tenth of a 128-sample block's time, so larger blocks save little.
_CSV_ROWS = 128


def diagnostic_row(a, kind):
    """Observables of one state (n, n) or of a stack of states (k, n, n);
    one state gives one-sample columns.  `kind` selects which rhs norm is
    recorded, and a(t) is relative to the first state.

    The observables are computed over blocks of _DIAG_BLOCK samples, each
    block's spectra with one det-consistency check; every observable is per
    sample, so the columns do not depend on the block size.  Each block is
    written into columns allocated once; the spectra column turns complex
    at the first block with a complex spectrum, as a concatenation would.

    a(t), with Spec A(t) = a(t) Spec A0, is tr A(t) / tr A0, or the
    projection of the spectrum on Spec A0 when tr A0 = 0; None when A0 is
    nilpotent; both tests are judged on A0 / 2^k (`unit_scale`).
    """
    states = as_matrix(a, stack=True)
    if states.ndim == 2:
        states = states[None]
    columns = None
    for lo in range(0, len(states), _DIAG_BLOCK):
        part = states[lo:lo + _DIAG_BLOCK]
        block = dict(_scalar_block(part, kind), spectra=eigenvalues(part))
        if columns is None:
            columns = {name: np.empty((len(states),) + v.shape[1:], v.dtype)
                       for name, v in block.items()}
        for name, v in block.items():
            col = columns[name]
            if not np.can_cast(v.dtype, col.dtype, casting="safe"):
                columns[name] = col = col.astype(v.dtype)
            col[lo:lo + len(v)] = v
    tr_a, spectra = columns["tr_a"], columns["spectra"]
    k = unit_scale(states[0])[1]
    if abs(pow2(tr_a[0], -k)) > 1e-8:
        a_of_t = tr_a / tr_a[0]
    else:  # on Spec(A / 2^k), where no product of two under- or overflows
        lam = pow2(spectra.real, -k) + 1j * pow2(spectra.imag, -k)
        denom = float(np.sum(np.abs(lam[0]) ** 2))
        a_of_t = None if denom <= 1e-16 else (
            lam * np.conj(lam[0])).real.sum(axis=1) / denom
    return Diagnostics(**columns, a_of_t=a_of_t)


def _scalar_block(a, kind):
    """The per-sample scalar observables of a stack of states, in
    Diagnostics' and the CSV's order; no spectrum."""
    at = a.swapaxes(1, 2)
    s = 0.5 * (a + at)
    # F = ||[A, A^T]||^2 / ||A||^4 does not depend on scale, and at unit
    # scale neither of its fourth powers overflows or underflows
    u = unit_scale(a, stack=True)[0]
    ut = u.swapaxes(1, 2)
    c = u @ ut - ut @ u
    u_sq = (u * u).sum(axis=(1, 2))
    cc = (c * c).sum(axis=(1, 2))
    return {
        "norm_sq": (a * a).sum(axis=(1, 2)),
        "tr_a": a.trace(axis1=1, axis2=2),
        "tr_a2": (a * at).sum(axis=(1, 2)),
        "tr_s2": (s * s).sum(axis=(1, 2)),
        "f_normalized": np.divide(cc, u_sq**2, out=np.zeros_like(cc),
                                  where=u_sq > 0.0),
        "rhs_norm": rhs_norm(a, kind),
    }


def rhs_norm(a, kind):
    """||rhs(A)|| of each state of a stack (k, n, n), by the stacked rhs."""
    return np.linalg.norm(_RHS[kind](a), axis=(1, 2))


def skew_residual(a):
    """||S(A)|| / max(1, ||A||): how far A is from the skew matrices, the
    bracket flow's only fixed points."""
    return frob_norm(sym_part(a)) / max(1.0, frob_norm(a))


def integrate(spec):
    """Run the flow described by `spec`; returns a Trajectory.

    Step failures do not raise: the partial trajectory comes back with
    terminal == Terminal.STEP_FAILURE so callers can decide what to do.
    """
    a0 = spec.a0
    if spec.kind is FlowKind.NORMALIZED:
        a0 = a0 / frob_norm(a0)
    grid = _sample_grid(spec.t_end, spec.sample_stride)
    times, states, terminal, stats = _adaptive(
        _RHS[spec.kind], a0, grid, spec.rel_tol, spec.abs_tol,
        eps_fix=spec.stop_when_stationary)
    if spec.kind is FlowKind.NORMALIZED:
        # samples sit off the unit sphere by about the tolerance
        states /= np.linalg.norm(states, axis=(1, 2), keepdims=True)
    return Trajectory(spec=spec, times=times, states=states,
                      terminal=terminal, stats=stats)


def settle(spec, rest_tol=1e-6):
    """Run a bracket or normalized flow in stages until it is at rest.

    A bracket run is at rest when its symmetric part has visibly died out
    (its only fixed points are skew matrices): `skew_residual` <=
    `rest_tol`.  A normalized run is at rest once a stage stops stationary,
    on its threshold ||rhs|| <= eps * max(1, ||B||) or on a stall; eps is
    spec.stop_when_stationary, else _EPS_FIX.

    One stage rarely gets there.  Bracket runs decaying to zero keep a
    resolvable right-hand side all the way down and want a tiny threshold,
    while runs approaching a nonzero skew matrix hit a numerical floor near
    rel_tol * ||A||^3 where the threshold never fires and stepping grinds
    until the stall detector ends it; normalized runs can still be in their
    transient at t_end.  So a stage not at rest restarts from its endpoint:
    after a stall or at t_end with rel_tol and abs_tol cut a thousandfold,
    after a threshold stop with the threshold cut a thousandfold.  A stage
    that reached its t_end also hands the next stage twice its span, so a
    slow approach gets time as well as accuracy (a run that keeps reaching
    t_end spans t_end, 2 t_end, 4 t_end, ...); with rel_tol already at its
    1e-13 floor only the span grows.  Staging ends at rest, at a step
    failure, at a stop that can be tightened no further, or after
    _MAX_STAGES stages.

    Returns (traj, t_total).  The trajectory stitches all stages together
    on an absolute time axis (so times can pass spec.t_end when several
    stages ran); its terminal and stationary reason are the last stage's,
    and its diagnostics, once read, come from one pass over its states.
    """
    if spec.kind is FlowKind.GRADIENT:
        raise ValueError("settle stages bracket and normalized runs")
    eps = spec.stop_when_stationary or _EPS_FIX
    rel_tol, abs_tol = spec.rel_tol, spec.abs_tol
    a = spec.a0
    span = spec.t_end
    stages = []
    for _ in range(_MAX_STAGES):
        stage = dataclasses.replace(spec, a0=a, t_end=span,
                                    stop_when_stationary=eps,
                                    rel_tol=rel_tol, abs_tol=abs_tol)
        traj = integrate(stage)
        stages.append(traj)
        a = traj.states[-1]
        if spec.kind is FlowKind.NORMALIZED:
            at_rest = traj.terminal is Terminal.STATIONARY
        else:
            at_rest = skew_residual(a) <= rest_tol
        if at_rest or traj.terminal is Terminal.STEP_FAILURE:
            break
        if traj.terminal is Terminal.REACHED_T_END:
            span *= 2.0
        reason = traj.stats.get("stationary_reason")
        if reason == "threshold":
            if eps <= 1e-21:
                break
            eps *= 1e-3
        elif rel_tol > 1e-13:
            rel_tol = max(1e-14, rel_tol * 1e-3)
            abs_tol = max(1e-16, abs_tol * 1e-3)
        elif reason == "stall":
            break
    return _stitch(spec, stages)


# stats that _stitch does not add up over stages
_STAGE_EXTREMES = {"h_min": min, "h_max": max}
_STAGE_LAST = ("h_next", "q_last", "stationary_reason")


def _stitch(spec, stages):
    """Concatenate stage times and states on an absolute time axis.

    Counters add up over the stages, and so does `t_stop`, to the end on
    the absolute axis; `h_min` and `h_max` are taken over the stages, and
    the other termination values come from the last stage.
    """
    if len(stages) == 1:
        return stages[0], float(stages[0].times[-1])
    last = stages[-1]
    stats = {}
    for traj in stages:
        for key, val in traj.stats.items():
            if key in _STAGE_EXTREMES:
                stats[key] = _STAGE_EXTREMES[key](stats.get(key, val), val)
            elif key not in _STAGE_LAST and isinstance(val, (int, float)):
                stats[key] = stats.get(key, 0) + val
    for key in _STAGE_LAST:
        if key in last.stats:
            stats[key] = last.stats[key]
    stats["stages"] = len(stages)
    offsets = np.cumsum([0.0] + [float(traj.times[-1]) for traj in stages])
    # each stage after the first starts on a repeat of the previous end
    kept = [(traj, int(k > 0)) for k, traj in enumerate(stages)]
    times = np.concatenate([off + traj.times[i:]
                            for (traj, i), off in zip(kept, offsets)])
    states = np.concatenate([traj.states[i:] for traj, i in kept])
    combined = Trajectory(spec=spec, times=times, states=states,
                          terminal=last.terminal, stats=stats)
    return combined, float(offsets[-1])


# ---------------------------------------------------------------------------
# pullback co-integration


@dataclasses.dataclass
class PullbackPath:
    """Solution of the pullback system b' = tr(S(A)^2) b, phi' = -Ric_low phi.

    `residuals` holds the relative mismatch between the trajectory state and
    the reconstruction (1/b) phi A0 phi^{-1} at each sample.  When phi gets
    too ill-conditioned to invert trustworthily (cond > 1e12), the path is
    truncated and `truncated` is set.
    """

    times: np.ndarray
    b: np.ndarray
    phi: np.ndarray
    residuals: np.ndarray
    truncated: bool

    @property
    def max_residual(self):
        return float(np.max(self.residuals)) if self.residuals.size else 0.0


def _ric_low(a):
    return 0.5 * commutator(a, a.T) - np.trace(a) * sym_part(a)


def cointegrate_pullback(traj):
    """Integrate the pullback scaling b and frame phi along a bracket run."""
    if traj.spec.kind is not FlowKind.BRACKET:
        raise ValueError("pullback co-integration is defined for bracket runs")
    a0 = traj.states[0]
    n = a0.shape[0]
    sz = n * n

    def rhs(y):
        a = y[:sz].reshape(n, n)
        b = y[sz]
        phi = y[sz + 1:].reshape(n, n)
        s = 0.5 * (a + a.T)
        out = np.empty_like(y)
        out[:sz] = bracket_rhs(a).ravel()
        out[sz] = float(np.sum(s * s)) * b
        out[sz + 1:] = (-_ric_low(a) @ phi).ravel()
        return out

    y0 = np.concatenate([a0.ravel(), [1.0], np.eye(n).ravel()])
    _, ys, terminal, _ = _adaptive(rhs, y0, traj.times, traj.spec.rel_tol,
                                   traj.spec.abs_tol)
    if terminal is not Terminal.REACHED_T_END:
        raise ArithmeticError(f"pullback co-integration stopped early: {terminal}")

    # checked over blocks of samples; the path ends before the first frame
    # with cond(phi) > 1e12
    bs, phis = ys[:, sz], ys[:, sz + 1:].reshape(-1, n, n)
    m = len(traj.times)
    residuals = []
    for lo in range(0, m, _DIAG_BLOCK):
        phi = phis[lo:lo + _DIAG_BLOCK]
        ill = np.flatnonzero(np.linalg.cond(phi) > 1e12)
        if ill.size:
            m = lo + int(ill[0])
            phi = phi[:ill[0]]
        rows = slice(lo, lo + len(phi))
        recon = phi @ a0 @ np.linalg.inv(phi) / bs[rows, None, None]
        a_ref = traj.states[rows]
        scale = np.maximum(np.linalg.norm(a_ref, axis=(1, 2)), 1e-300)
        residuals.append(np.linalg.norm(a_ref - recon, axis=(1, 2)) / scale)
        if ill.size:
            break
    return PullbackPath(
        times=traj.times[:m].copy(),
        b=bs[:m].copy(),
        phi=phis[:m].copy(),
        residuals=np.concatenate(residuals),
        truncated=m < len(traj.times),
    )


# ---------------------------------------------------------------------------
# bridge between the bracket flow and the gradient flow


@dataclasses.dataclass
class BridgeReport:
    """Comparison A(t) vs c(t) W(tau(t)) for traceless A0.

    W follows the negative gradient flow of F in its own time tau, while
    (c, tau) solve c' = -tr(S(W)^2) c^3, tau' = c^2 / 8.  For traceless A0
    the rescaled curve c W must retrace the bracket flow exactly;
    `residuals` holds the relative gap at each sample.
    """

    times: np.ndarray
    c: np.ndarray
    tau: np.ndarray
    residuals: np.ndarray

    @property
    def max_residual(self):
        return float(np.max(self.residuals))


def reparam_bridge(a0, t_end):
    """Run the bracket flow and the reparameterized gradient flow side by side."""
    a0 = as_matrix(a0)
    if abs(float(np.trace(a0))) > 1e-10 * frob_norm(a0):
        raise ValueError("the bridge construction needs tr(A0) = 0")
    n = a0.shape[0]
    sz = n * n

    def rhs(y):
        a = y[:sz].reshape(n, n)
        w = y[sz:2 * sz].reshape(n, n)
        c = y[2 * sz]
        cw = w @ w.T - w.T @ w
        s = 0.5 * (w + w.T)
        out = np.empty_like(y)
        out[:sz] = bracket_rhs(a).ravel()
        out[sz:2 * sz] = (0.5 * c * c * (w @ cw - cw @ w)).ravel()
        out[2 * sz] = -float(np.sum(s * s)) * c**3
        out[2 * sz + 1] = c * c / 8.0
        return out

    y0 = np.concatenate([a0.ravel(), a0.ravel(), [1.0, 0.0]])
    grid = _sample_grid(t_end, _BRIDGE_STRIDE)
    times, ys, terminal, _ = _adaptive(rhs, y0, grid, _BRIDGE_REL_TOL,
                                       _BRIDGE_ABS_TOL)
    if terminal is not Terminal.REACHED_T_END:
        raise ArithmeticError(f"bridge integration stopped early: {terminal}")

    cs = ys[:, 2 * sz].copy()
    taus = ys[:, 2 * sz + 1].copy()
    a = ys[:, :sz].reshape(-1, n, n)
    w = ys[:, sz:2 * sz].reshape(-1, n, n)
    residuals = (np.linalg.norm(a - cs[:, None, None] * w, axis=(1, 2))
                 / np.maximum(np.linalg.norm(a, axis=(1, 2)), 1e-300))
    return BridgeReport(times=times, c=cs, tau=taus, residuals=residuals)
