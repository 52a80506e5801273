"""Algebraic soliton detection and long-time behavior of the matrix flows.

A matrix A is a soliton matrix when the evolution it generates only rescales
it.  Two independent routes decide that:

* `classify_soliton` works on the matrix alone: A must be normal, or
  nilpotent with [A, [A, A^t]] = c A.  The verdict carries the soliton
  constant and the explicit derivation in block form.
* `certify_algebraic_soliton` works on any metric Lie algebra, with no
  knowledge of where the bracket came from.  Since delta_mu(I) = mu,
  Ric = c I + D with D a derivation holds exactly when
  delta_mu(Ric) = c mu: the bracket flow's velocity at mu is a multiple
  of mu, so the flow only rescales.  It tests that, with no nullspace,
  so `tol` bounds the flow's velocity off the rescaling direction: a
  bracket within about tol of a soliton is accepted.

Tests pit the two routes against each other on brackets built by
`geometry.mu_of_a`, and against least squares over `derivation_basis`,
the nullspace of D -> delta_mu(D), which no CLI path calls.  Both take
delta_mu from `geometry._defect_of`, which checks the Jacobi identity too.
The module also houses the normality defect F, the per-trajectory
monotonicity monitors, and omega-limit extraction.
"""

import dataclasses
import math

import numpy as np

from .flow import (
    FlowKind, Terminal, diagnostic_row, integrate, rhs_norm, settle,
    skew_residual,
)
from .geometry import _defect_of, ricci_block, ricci_general
from .matcore import (
    as_matrix,
    commutator,
    frob_norm,
    pow2,
    sym_part,
    unit_scale,
)

__all__ = [
    "F",
    "NORMAL_SOLITON",
    "NILPOTENT_SOLITON",
    "NOT_SOLITON",
    "SolitonVerdict",
    "classify_soliton",
    "closed_form_soliton",
    "derivation_basis",
    "certify_algebraic_soliton",
    "monitor_suite",
    "OmegaLimitReport",
    "omega_limit",
]

NORMAL_SOLITON = "NormalSoliton"
NILPOTENT_SOLITON = "NilpotentSoliton"
NOT_SOLITON = "NotSoliton"
# singular values below this share of the largest span the derivations
_SV_TOL = 1e-10
_CLOSED_FORM_TOL = 1e-8  # closed_form_soliton's classify_soliton tolerance
_LCS_RANK_TOL = 1e-10  # _algebra_is_nilpotent's rank cutoff, x max(1, s_max)
_MIN_RUN = 3  # monitor_suite reports violations this many samples long
_RESAMPLES = 50  # uniform samples of omega_limit's resampled pass


def F(b):
    """Normality defect ||[B, B^t]||^2: zero exactly on normal matrices.

    Homogeneous of degree four, and non-increasing along all three flows
    (for the bracket flow after normalization).
    """
    b = as_matrix(b)
    c = commutator(b, b.T)
    return float(np.sum(c * c))


@dataclasses.dataclass
class SolitonVerdict:
    """Outcome of a soliton test, with the residuals that justify it.

    `c` is the nilpotent eigen-ratio (None unless the nilpotent route
    fired); `soliton_constant` is the c of Ric = c I + D.  `derivation`
    is the matrix D, expressed in the (n+1)-dimensional basis for the
    matrix route and in the algebra's own basis for the certification
    route.  Residual keys that a route does not measure are None.
    """

    label: str
    c: float | None
    soliton_constant: float | None
    derivation: np.ndarray | None
    residuals: dict
    accepted: bool = dataclasses.field(init=False)

    def __post_init__(self):
        self.accepted = self.label != NOT_SOLITON


def _accepted(label, c, constant, deriv, residuals, k):
    """Verdict of 2^k times the unit-scale input: c, constant, deriv * 4^k."""
    c, constant = (None if v is None else float(pow2(v, 2 * k))
                   for v in (c, constant))
    return SolitonVerdict(label, c, constant, pow2(deriv, 2 * k), residuals)


def _block_diag(d0, d1):
    n = d1.shape[0]
    out = np.zeros((n + 1, n + 1))
    out[0, 0] = d0
    out[1:, 1:] = d1
    return out


def classify_soliton(a, tol=1e-8):
    """Decide from the matrix alone whether A generates a soliton.

    Normal matrices qualify outright.  Nilpotent matrices qualify when
    [A, [A, A^t]] = c A within tol * ||A||^3, where c is the projection
    <[A,[A,A^t]], A> / ||A||^2 (always equal to -||[A,A^t]||^2 / ||A||^2,
    hence nonpositive).  Everything else is NotSoliton.  Accepted verdicts
    carry the explicit block derivation and the soliton constant, checked
    against the block Ricci decomposition.  All of it is computed on
    A / 2^k (`matcore.unit_scale`).  Raises ValueError for the zero matrix.
    """
    a, k = unit_scale(as_matrix(a))  # A / 2^k from here on
    nrm = frob_norm(a)
    if nrm == 0.0:
        raise ValueError("the zero matrix generates an abelian algebra; "
                         "soliton classification needs a nonzero matrix")
    n = a.shape[0]
    comm = commutator(a, a.T)
    br = a @ comm - comm @ a
    c_nil = float(np.sum(br * a)) / nrm**2
    normality = frob_norm(comm) / nrm**2
    eigen_relation = frob_norm(br - c_nil * a) / nrm**3
    nilpotency = frob_norm(np.linalg.matrix_power(a / nrm, n))
    residuals = {"normality": normality, "eigen_relation": eigen_relation,
                 "nilpotency": nilpotency, "ric_decomposition": None}

    if normality <= tol:
        s = sym_part(a)
        tr_s2 = float(np.sum(s * s))
        constant = -tr_s2
        deriv = _block_diag(0.0, tr_s2 * np.eye(n) - np.trace(a) * s)
        label, c_out = NORMAL_SOLITON, None
    elif nilpotency <= tol and eigen_relation <= tol:
        constant = 0.5 * (c_nil - nrm**2)
        deriv = _block_diag(
            -0.5 * c_nil,
            0.5 * comm + 0.5 * (nrm**2 - c_nil) * np.eye(n),
        )
        label, c_out = NILPOTENT_SOLITON, c_nil
    else:
        return SolitonVerdict(NOT_SOLITON, None, None, None, residuals)

    ric = ricci_block(a)
    dim = n + 1
    residuals["ric_decomposition"] = (
        frob_norm(ric - constant * np.eye(dim) - deriv) / max(frob_norm(ric), 1e-300)
    )
    return _accepted(label, c_out, constant, deriv, residuals, k)


def closed_form_soliton(a0, t):
    """Exact bracket-flow state at time t for a soliton matrix A0.

    A soliton only rescales: A(t) = (1 - 2 c t)^(-1/2) A0 with c the
    soliton constant of classify_soliton(A0), which is -tr(S(A0)^2)
    for normal A0 and (c_nil - ||A0||^2)/2 for a nilpotent A0 with
    [A0, [A0, A0^T]] = c_nil A0.  The zero matrix stays zero (c = 0); any
    other A0 has no closed form here and raises ValueError.  The form holds
    where 1 - 2 c t > 0: as c <= 0, that is every t >= 0, and every
    t > 1 / (2 c) when c < 0; any other t, NaN included, raises ValueError.
    """
    a0 = as_matrix(a0)
    c = 0.0
    if frob_norm(a0) != 0.0:
        verdict = classify_soliton(a0, _CLOSED_FORM_TOL)
        if not verdict.accepted:
            raise ValueError("closed form requires a normal A0 or a nilpotent "
                             "A0 with [A0,[A0,A0^T]] = c A0")
        c = verdict.soliton_constant
    scale = 1.0 - 2.0 * c * t
    if not scale > 0.0:
        raise ValueError(f"the closed form holds only where 1 - 2 c t > 0; "
                         f"c = {c!r}, t = {t!r}")
    return scale ** -0.5 * a0


# ---------------------------------------------------------------------------
# certification on an arbitrary metric Lie algebra


def derivation_basis(g):
    """Orthonormal basis (Frobenius) of the derivation algebra of g.

    The defect map D -> delta_mu(D) is linear: column p*d + q of its
    matrix is `_defect_of(c, E_pq)`, kept on its d^2 (d-1)/2 rows (i, j, k)
    with i < j, since rows with i = j vanish and row (j, i, k) is minus row
    (i, j, k).  The basis is the matrix's nullspace, read off one SVD with
    the cutoff _SV_TOL times the largest singular value; a tall matrix is
    reduced to R of its QR factorization first, which has the same
    singular values and right singular vectors.  The matrix is held whole,
    d^4 (d-1)/2 doubles: 5.3 MB at d = 17, the largest d the tests use,
    where the peak with the QR's copy is about 12 MB.  For the abelian
    bracket every matrix is a derivation and the basis has d^2 members.
    """
    d = g.dim
    iu, ju = np.triu_indices(d, 1)
    defect = np.empty((iu.size * d, d * d))
    for col, unit in enumerate(np.eye(d * d).reshape(-1, d, d)):
        defect[:, col] = _defect_of(g.c, unit)[iu, ju].ravel()
    if defect.shape[0] > defect.shape[1]:
        defect = np.linalg.qr(defect, mode="r")
    # full_matrices: a wide matrix (d <= 2) still gets a square vt
    _, svals, vt = np.linalg.svd(defect, full_matrices=True)
    cutoff = _SV_TOL * (svals[0] if svals.size else 0.0)
    return list(vt[int(np.sum(svals > cutoff)):].reshape(-1, d, d))


def _algebra_is_nilpotent(g):
    """Lower central series by rank: does [g, [g, [...]]] reach zero?

    The series only shrinks, so a term as large as the one before it is
    where it stops: the algebra is nilpotent only if that term is zero.
    """
    c = g.c
    v = np.eye(g.dim)
    for _ in range(g.dim + 1):
        w = np.einsum("ijk,jl->kil", c, v).reshape(g.dim, -1)
        u, svals, _ = np.linalg.svd(w, full_matrices=False)
        rank = int(np.sum(svals > _LCS_RANK_TOL
                          * max(1.0, svals[0] if svals.size else 0.0)))
        if rank == 0:
            return True
        if rank >= v.shape[1]:
            return False
        v = u[:, :rank]
    return False


def certify_algebraic_soliton(g, tol=1e-8):
    """Test Ric = c I + D with D a derivation, for any metric Lie algebra.

    delta_mu(I) = mu, so that holds exactly when delta_mu(Ric) = c mu:
    Lauret's bracket-flow velocity -pi(Ric) mu is a multiple of mu.  The
    constant is the projection c = <delta_mu(Ric), mu> / ||mu||^2, and the
    `ric_decomposition` residual ||delta_mu(Ric) - c mu|| / (||Ric|| ||mu||)
    is the defect of D = Ric - c I as a derivation, free of scale; the
    verdict is accepted, with that D, when the residual is at most tol.
    The residual is continuous in mu, so a bracket within about tol of a
    soliton is accepted even where it is none.  Least squares over
    `derivation_basis`, whose SVD cutoff tells such a bracket's
    derivations apart, can reject it at O(1) residual instead.
    This is O(d^4) work on d^3 arrays, with no derivation basis.  The route
    never looks at a generating matrix, so it can cross-check
    classify_soliton on mu_of_a brackets and handle brackets that have no
    such form.  An accepted verdict's label records whether the algebra
    is nilpotent.  It runs on `g.unit_scaled()`.
    """
    g, k = g.unit_scaled()
    ric = ricci_general(g)
    d = g.dim
    ric_norm = frob_norm(ric)
    residuals = {"normality": None, "eigen_relation": None,
                 "nilpotency": None, "ric_decomposition": 0.0}
    mu_norm = g.bracket_norm()
    if ric_norm <= 1e-12 * mu_norm**2:
        # flat within noise: Ric = 0 I + 0
        constant, deriv = 0.0, np.zeros((d, d))
    else:
        defect = _defect_of(g.c, ric)
        constant = float(np.vdot(defect, g.c)) / mu_norm**2
        defect -= constant * g.c
        resid = frob_norm(defect) / (ric_norm * mu_norm)
        residuals["ric_decomposition"] = resid
        if resid > tol:
            return SolitonVerdict(NOT_SOLITON, None, None, None, residuals)
        deriv = ric - constant * np.eye(d)
    label = NILPOTENT_SOLITON if _algebra_is_nilpotent(g) else NORMAL_SOLITON
    return _accepted(label, None, constant, deriv, residuals, k)


# ---------------------------------------------------------------------------
# trajectory monitors


def _runs_of(flags):
    """Indices belonging to runs of >= _MIN_RUN consecutive True flags."""
    padded = np.concatenate([[0], np.asarray(flags, dtype=int), [0]])
    edges = np.flatnonzero(np.diff(padded))  # run starts, then run ends
    return [i for lo, hi in zip(edges[::2], edges[1::2]) if hi - lo >= _MIN_RUN
            for i in range(lo, hi)]


def monitor_suite(traj):
    """Check the monotone quantities along a trajectory, sample to sample.

    Rules by kind -- bracket: ||A||^2, tr(S^2) and normalized F
    non-increasing, signs of tr(A) and tr(A^2) constant, and the decay
    bound tr(S^2) <= 1/(2t + tr(S(A0)^2)^-1); normalized: unit norm, F
    non-increasing, signs constant; gradient: ||A||^2, tr(S^2) and raw F
    non-increasing (raw F in units of max(1, ||A0||^2)^2), signs constant.
    Each comparison allows 10x the integrator tolerance; only violations
    persisting for at least three consecutive samples are reported.
    Returns a list of (t, rule, magnitude) triples -- expected empty.
    """
    d, times = traj.diagnostics, traj.times
    kind = traj.spec.kind
    rslack = 10.0 * traj.spec.rel_tol
    aslack = 10.0 * traj.spec.abs_tol
    out = []

    def report(rule, flags, mags):
        for i in _runs_of(flags):
            out.append((times[i], rule, mags[i]))

    def monotone(rule, values):
        prev = values[:-1]
        excess = np.concatenate(
            [[0.0], values[1:] - (prev + rslack * np.abs(prev) + aslack)])
        report(rule, excess > 0.0, excess)

    def sign_constant(rule, values, floor):
        big = np.abs(values) > floor
        ref = math.copysign(1.0, values[np.argmax(big)]) if big.any() else 0.0
        flags = (ref != 0.0) & big & (np.copysign(1.0, values) != ref)
        report(rule, flags, np.abs(values))

    scale0 = max(1.0, d.norm_sq[0])
    sign_floor = 1e3 * (traj.spec.rel_tol * scale0 + traj.spec.abs_tol)

    if kind is FlowKind.BRACKET:
        monotone("norm_sq_increase", d.norm_sq)
        monotone("tr_s2_increase", d.tr_s2)
        monotone("f_increase", d.f_normalized)
        # 1/(2t + 1/u0); 1/u0 overflows for a subnormal u0, u0 t then cannot
        u0 = d.tr_s2[0]
        bound = (0.5 / (times + 0.5 / u0) if u0 >= np.finfo(float).tiny
                 else u0 / (1.0 + 2.0 * u0 * times))
        excess = d.tr_s2 - (bound * (1.0 + rslack) + aslack)
        report("tr_s2_decay_bound", excess > 0.0, excess)
    elif kind is FlowKind.NORMALIZED:
        drift = np.abs(d.norm_sq - 1.0)
        report("norm_drift", drift > 1e-9, drift)
        monotone("f_increase", d.f_normalized)
    else:
        monotone("norm_sq_increase", d.norm_sq)
        monotone("tr_s2_increase", d.tr_s2)
        monotone("f_increase", d.f_normalized * (d.norm_sq / scale0)**2)

    sign_constant("tr_sign_flip", d.tr_a, sign_floor)
    sign_constant("tr2_sign_flip", d.tr_a2, sign_floor)
    return out


# ---------------------------------------------------------------------------
# omega limits


@dataclasses.dataclass
class OmegaLimitReport:
    """Endpoint analysis of a long run.

    `eps_achieved` is the stationarity level actually reached:
    ||rhs(A_inf)|| / max(1, ||A_inf||).  `late_samples` spans the trailing
    window; `spectra_agree` certifies them pairwise equal in canonical
    spectrum (the conjugation-invariant proxy for a single limit point).
    For normalized runs `verdict` carries classify_soliton(B_inf).
    """

    converged: bool
    a_inf: np.ndarray | None
    skew_residual: float
    late_samples: list
    spectra_agree: bool
    normality_residuals: list
    eps_achieved: float
    t_stop: float
    terminal: Terminal
    verdict: SolitonVerdict | None = None


SKEW_REST_TOL = 1e-5
# share of the resampled pass that omega_limit keeps as its late window
_LATE_WINDOW = 0.2


def _resampled_states(spec, t_span):
    """One clean pass over [0, t_span] with uniform samples, no early stop.

    The settling runs place samples wherever their stages happened to stop,
    so a trailing window over them can reach back into the transient.  The
    limit analysis instead re-integrates once over the span actually
    traveled; this costs one cheap extra pass and yields a window that
    really is the last fifth of the motion.
    """
    if t_span <= 0.0:
        return None
    run = dataclasses.replace(spec, t_end=t_span,
                              sample_stride=t_span / _RESAMPLES,
                              stop_when_stationary=None)
    return integrate(run).states


def omega_limit(spec):
    """Follow a bracket or normalized run to its limit and certify it.

    Both kinds go through `settle`.  Bracket runs converge when the
    endpoint is skew to within 1e-5 (relative); normalized runs when they
    end stationary and the endpoint passes classify_soliton.  The trailing
    _LATE_WINDOW fraction of a uniformly resampled pass (at least 10
    samples) is kept for the conjugation-orbit check: pairwise canonical
    spectra within 1e-5 plus per-sample normality residuals
    ||[L, L^T]|| / ||L||^2 = sqrt(F), from `flow.diagnostic_row`.  The
    skew residual is settle's at-rest measure, `flow.skew_residual`.
    """
    traj, t_stop = settle(spec, rest_tol=SKEW_REST_TOL)
    a_inf = traj.states[-1]
    residual = skew_residual(a_inf)
    if spec.kind is FlowKind.BRACKET:
        converged = (traj.terminal is not Terminal.STEP_FAILURE
                     and residual <= SKEW_REST_TOL)
        verdict = None
    else:
        verdict = classify_soliton(a_inf, tol=1e-6)
        converged = traj.terminal is Terminal.STATIONARY and verdict.accepted

    states = _resampled_states(spec, t_stop)
    if states is None:
        states = traj.states
    m = len(states)
    k = max(min(m, 10), int(math.ceil(_LATE_WINDOW * m)))
    late = np.array(states[m - k:])
    d = diagnostic_row(late, spec.kind)
    # the largest entrywise distance over all pairs of spectra
    gap = float(np.max(np.abs(d.spectra[:, None] - d.spectra[None])))
    return OmegaLimitReport(
        converged=converged,
        a_inf=a_inf,
        skew_residual=residual,
        late_samples=list(late),
        spectra_agree=bool(gap <= 1e-5),
        normality_residuals=np.sqrt(d.f_normalized).tolist(),
        eps_achieved=(rhs_norm(a_inf[None], spec.kind)[0]
                      / max(1.0, frob_norm(a_inf))),
        t_stop=t_stop,
        terminal=traj.terminal,
        verdict=verdict,
    )
