"""Left-invariant metric Lie algebras and their curvature.

A metric Lie algebra is stored through its structure constants c[i,j,k]
with mu(e_i, e_j) = sum_k c[i,j,k] e_k in a basis declared orthonormal.
The matrices of `solvflow.flow` enter through `mu_of_a`: an n x n matrix A
becomes the (n+1)-dimensional solvable bracket mu(e_0, e_i) = A e_i with
abelian ideal span(e_1..e_n).

Curvature comes in two independent routes on purpose.  `ricci_block` uses
the closed block form available for mu_of_a brackets; `ricci_general`
evaluates the generic homogeneous-space formula Ric = M - B/2 - S(ad_H)
from the structure constants alone.  Tests pit them against each other.
The full Riemann tensor is assembled from the Koszul connection, with no
shortcut formulas, so sectional curvature claims never depend on the thing
they are checking.  The one closed form is ||Riem|| of mu_of_a(A) in
`type3_monitor`, read off the transversal block S^2 + [S, N] of A = S + N;
a test checks it against `riem_norm(mu_of_a(A))`.
"""

import dataclasses
import math

import numpy as np

from . import flow
from .matcore import (
    as_matrix,
    commutator,
    eigenvalues,
    frob_norm,
    skew_part,
    sym_part,
)

__all__ = [
    "MetricLieAlgebra",
    "mu_of_a",
    "ricci_block",
    "ricci_general",
    "scalar_curvature",
    "riemann_tensor",
    "riem_norm",
    "ricci_from_riemann",
    "sectional_curvature",
    "sample_sectional",
    "CurvatureReport",
    "build_curvature_report",
    "HeintzeVerdict",
    "heintze_check",
    "admits_negative_curvature",
    "Type3Report",
    "type3_monitor",
]

JACOBI_TOL = 1e-10
# relative margin below which a definiteness or sign test counts as failed
_NEGATIVITY_TOL = 1e-10
# random planes behind a curvature report's sectional range
_REPORT_PLANES = 512
# first time type3_monitor records: t * ||Riem|| starts at 0 whatever A0 is
_TYPE3_START = 0.1


@dataclasses.dataclass
class MetricLieAlgebra:
    """Structure constants c of shape (m, m, m) of a Lie bracket in an
    orthonormal basis."""

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValueError(f"structure constants must be (m,m,m), got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite structure constants")
        scale = float(np.max(np.abs(c), initial=0.0))
        anti = float(np.max(np.abs(c + c.swapaxes(0, 1)), initial=0.0))
        if anti > 1e-12 * max(1.0, scale):
            raise ValueError("structure constants not antisymmetric in (i, j)")
        c = 0.5 * (c - c.swapaxes(0, 1))
        scale_sq = scale * scale  # float ** would raise OverflowError
        if not math.isfinite(scale_sq):
            raise ValueError("structure constants too large: their squares "
                             "overflow")
        jac = (
            np.einsum("ijl,lkr->ijkr", c, c)
            + np.einsum("jkl,lir->ijkr", c, c)
            + np.einsum("kil,ljr->ijkr", c, c)
        )
        if np.max(np.abs(jac), initial=0.0) > JACOBI_TOL * max(1.0, scale_sq):
            raise ValueError("Jacobi identity violated")
        self.c = c

    @property
    def dim(self):
        return self.c.shape[-1]

    def bracket_norm(self):
        """||mu|| with both orderings of each pair counted."""
        return float(np.linalg.norm(self.c.ravel()))

    @classmethod
    def from_triples(cls, dim, triples):
        c = np.zeros((dim, dim, dim))
        for entry in triples:
            if len(entry) != 4:
                raise ValueError(f"triple {entry!r} is not (i, j, k, value)")
            i, j, k, v = entry
            i, j, k = int(i), int(j), int(k)
            if not (0 <= i < j < dim and 0 <= k < dim):
                raise ValueError(f"indices out of range in {entry!r}")
            c[i, j, k] += float(v)
            c[j, i, k] -= float(v)
        return cls(c)


def mu_of_a(a):
    """Solvable bracket on R^(n+1) with mu(e_0, e_i) = A e_i, ideal abelian."""
    a = as_matrix(a)
    n = a.shape[0]
    c = np.zeros((n + 1, n + 1, n + 1))
    c[0, 1:, 1:] = a.T
    c[1:, 0, 1:] = -a.T
    return MetricLieAlgebra(c)


# ---------------------------------------------------------------------------
# Ricci, two ways


def ricci_block(a):
    """Ricci operator of mu_of_a(A) from its block form.

    The result is diag(-tr S(A)^2, [A, A^T]/2 - tr(A) S(A)) of size n+1.
    """
    a = as_matrix(a)
    n = a.shape[0]
    s = sym_part(a)
    out = np.zeros((n + 1, n + 1))
    out[0, 0] = -float(np.sum(s * s))
    out[1:, 1:] = 0.5 * commutator(a, a.T) - np.trace(a) * s
    return out


def ricci_general(g):
    """Ricci operator of any metric Lie algebra: Ric = M - B/2 - S(ad_H)."""
    return _ricci_of(g.c)


def _ricci_of(c):
    """`ricci_general` on bare structure constants, with no Jacobi check."""
    m = -0.5 * np.einsum("xij,yij->xy", c, c) + 0.25 * np.einsum("ijx,ijy->xy", c, c)
    killing = np.einsum("xjk,ykj->xy", c, c)
    h = np.einsum("xjj->x", c)
    ad_h = np.einsum("x,xjk->kj", h, c)
    return m - 0.5 * killing - sym_part(ad_h)


def scalar_curvature(g):
    return float(np.trace(ricci_general(g)))


# ---------------------------------------------------------------------------
# full curvature tensor


def riemann_tensor(g):
    """Components R[i,j,k,l] = <R(e_i,e_j)e_k, e_l> via the Koszul connection."""
    c = g.c
    # gamma[i,j,k] = (c[i,j,k] - c[i,k,j] - c[j,k,i]) / 2
    gamma = 0.5 * (c - np.einsum("ikj->ijk", c) - np.einsum("jki->ijk", c))
    r = (
        np.einsum("jkm,iml->ijkl", gamma, gamma)
        - np.einsum("ikm,jml->ijkl", gamma, gamma)
        - np.einsum("ijm,mkl->ijkl", c, gamma)
    )
    return r


def riem_norm(g, riem=None):
    if riem is None:
        riem = riemann_tensor(g)
    return float(np.linalg.norm(riem.ravel()))


def ricci_from_riemann(g, riem=None):
    """Third route to Ricci: contract the full tensor.  Used as a cross-check."""
    if riem is None:
        riem = riemann_tensor(g)
    return np.einsum("ijki->jk", riem)


def _plane_numerators(riem, xs, ys):
    """<R(x,y)y, x> for each row pair of xs, ys (shape (p, m)), in stages.

    One GEMM contracts the first index of R with every x; then y, y and x
    are contracted over one axis each.
    """
    p, m = xs.shape
    t = (xs @ riem.reshape(m, m**3)).reshape(p, m, m * m)
    t = (ys[:, None, :] @ t).reshape(p, m, m)
    t = (ys[:, None, :] @ t)[:, 0, :]
    return np.einsum("pl,pl->p", t, xs)


def sectional_curvature(g, x, y, riem=None):
    """K(x, y) = <R(x,y)y, x> / (|x|^2 |y|^2 - <x,y>^2) for a 2-plane."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    gram = float(x @ x) * float(y @ y) - float(x @ y) ** 2
    if gram <= 1e-12 * max(float(x @ x) * float(y @ y), 1e-300):
        raise ValueError("x, y do not span a 2-plane")
    if riem is None:
        riem = riemann_tensor(g)
    return float(_plane_numerators(riem, x[None], y[None])[0]) / gram


def sample_sectional(g, num_planes=512, seed=0, riem=None):
    """Sectional curvatures of `num_planes` random 2-planes (fixed seed)."""
    if riem is None:
        riem = riemann_tensor(g)
    rng = np.random.default_rng(seed)
    m = g.dim
    xs = rng.standard_normal((num_planes, m))
    ys = rng.standard_normal((num_planes, m))
    nums = _plane_numerators(riem, xs, ys)
    grams = (
        np.einsum("pi,pi->p", xs, xs) * np.einsum("pi,pi->p", ys, ys)
        - np.einsum("pi,pi->p", xs, ys) ** 2
    )
    keep = grams > 1e-8
    return nums[keep] / grams[keep]


# ---------------------------------------------------------------------------
# negative-curvature criteria for mu_of_a


@dataclasses.dataclass
class HeintzeVerdict:
    """Outcome of the three solvable negative-curvature conditions.

    sign: the orientation of e_0, +1 or -1, with tr(sign*A) >= 0 (+1 when
          tr A = 0).  tr S(A) = tr A, so no other sign can make S(sign*A)
          positive definite, and the other conditions ignore the sign.
    cond_a: the ideal has codimension one in the derived sense (A invertible).
    cond_b: the symmetric part of sign*A is positive definite.
    cond_c: D0^2 + [D0, S0] is positive definite (D0, S0 the symmetric and
            skew parts of sign*A).

    From a stack of k matrices every field is an array of length k.
    """

    sign: int
    cond_a: bool
    cond_b: bool
    cond_c: bool
    negative: bool
    margin_b: float
    margin_c: float


def _posdef(mat):
    """Whether each symmetric part in the stack `mat` is positive definite
    beyond _NEGATIVITY_TOL of its operator norm, and its least eigenvalue."""
    vals = np.linalg.eigvalsh(sym_part(mat))
    margin = np.min(vals, axis=-1)
    return margin > _NEGATIVITY_TOL * np.max(np.abs(vals), axis=-1), margin


def _transversal_block(a):
    """S and M = S^2 + [S, N] for A = S + N (S symmetric, N skew).

    <R(e_0, X)X, e_0> = -<M X, X> on mu_of_a(A) (Heintze, Math. Ann. 211,
    1974), and M is the same for A and -A.  `a` is one matrix or a stack
    (k, n, n).
    """
    s = sym_part(a)
    return s, s @ s + commutator(s, skew_part(a))


def _invertible(a):
    """|det(A / ||A||)| > 1e-12, for one matrix or each of a stack: A is
    invertible at a scale-free threshold, and ||A||^n cannot overflow."""
    nrm = np.linalg.norm(a, axis=(-2, -1))
    unit = a / np.where(nrm > 0.0, nrm, 1.0)[..., None, None]
    return (nrm > 0.0) & (np.abs(np.linalg.det(unit)) > 1e-12)


def heintze_check(a):
    """Check the negative-curvature conditions for mu_of_a(A).

    `a` is one matrix (n, n) or a stack (k, n, n), as in
    `matcore.eigenvalues`; a stack gives one verdict whose fields are
    arrays, one entry per matrix.  e_0 is oriented by the sign of tr A
    (see HeintzeVerdict), so each matrix takes one eigvalsh of S(sign*A)
    and one of M.
    """
    a = as_matrix(a, stack=True)
    sign = np.where(np.trace(a, axis1=-2, axis2=-1) >= 0.0, 1, -1)
    s, m = _transversal_block(a)
    cond_a = _invertible(a)
    cond_b, margin_b = _posdef(sign[..., None, None] * s)
    cond_c, margin_c = _posdef(m)
    fields = {"sign": sign, "cond_a": cond_a, "cond_b": cond_b,
              "cond_c": cond_c, "negative": cond_a & cond_b & cond_c,
              "margin_b": margin_b, "margin_c": margin_c}
    if a.ndim == 2:  # Python scalars for one matrix
        fields = {k: v.item() for k, v in fields.items()}
    return HeintzeVerdict(**fields)


def admits_negative_curvature(a):
    """True when A is invertible and Re(Spec A) has one strict sign.

    This is the condition under which some metric in the conjugation orbit
    of mu_of_a(A) is negatively curved; `heintze_check` tests the given
    metric itself.
    """
    a = as_matrix(a)
    if not _invertible(a):
        return False
    nrm = frob_norm(a)
    re = np.real(eigenvalues(a))
    return bool(np.all(re > _NEGATIVITY_TOL * nrm)
                or np.all(re < -_NEGATIVITY_TOL * nrm))


# ---------------------------------------------------------------------------
# Type-III decay monitor


@dataclasses.dataclass
class Type3Report:
    """t * ||Riem|| along a bracket trajectory, for the decay bound."""

    times: np.ndarray
    products: np.ndarray
    sup: float


def type3_monitor(traj):
    """Record t * ||Riem(mu_of_a(A(t)))|| over samples from _TYPE3_START on.

    ||Riem||^2 = 4 ||M||^2 + 2 ((tr S^2)^2 - tr S^4), with S and M from
    `_transversal_block`, over blocks of flow._DIAG_BLOCK kept samples, so
    its temporaries stay a few MB however long the trajectory.

    Requires tr(A0^2) >= 0, the regime where the product stays bounded.
    Skew A0 (which has tr(A0^2) < 0 but a flat, constant geometry) is let
    through since the product is identically zero there.
    """
    a0 = traj.states[0]
    tr_a02 = float(np.trace(a0 @ a0))
    nrm0 = frob_norm(a0)
    is_skew = frob_norm(a0 + a0.T) <= 1e-12 * max(1.0, nrm0)
    if tr_a02 < -1e-12 * max(1.0, nrm0**2) and not is_skew:
        raise ValueError(
            "type3_monitor needs tr(A0^2) >= 0 (or a flat skew A0); "
            f"got tr(A0^2) = {tr_a02:g}"
        )
    times = np.asarray(traj.times, dtype=float)
    kept = np.flatnonzero(times >= _TYPE3_START)
    times = times[kept]
    norm_sq = np.empty(len(kept))
    for lo in range(0, len(kept), flow._DIAG_BLOCK):
        s, m = _transversal_block(traj.states[kept[lo:lo + flow._DIAG_BLOCK]])
        s2 = s @ s
        # the e_0 block of Riem enters four times; the ideal block is the
        # Gauss-type term of S, with squared norm 2 ((tr S^2)^2 - tr S^4)
        norm_sq[lo:lo + len(s)] = 4.0 * (m * m).sum(axis=(1, 2)) + 2.0 * (
            (s * s).sum(axis=(1, 2)) ** 2 - (s2 * s2).sum(axis=(1, 2)))
    products = times * np.sqrt(norm_sq)
    sup = float(np.max(products)) if products.size else 0.0
    return Type3Report(times=times, products=products, sup=sup)


# ---------------------------------------------------------------------------
# aggregate report


@dataclasses.dataclass
class CurvatureReport:
    dim: int
    ricci: np.ndarray
    scalar: float
    riem_norm: float
    sectional_min: float
    sectional_max: float
    plane_count: int
    seed: int
    flat: bool
    heintze: HeintzeVerdict | None


def build_curvature_report(g, seed=0, heintze=None):
    """Curvature summary of one metric Lie algebra.

    `heintze` may carry a precomputed verdict when the algebra came from a
    matrix; the general formula route has no Heintze test of its own.
    """
    riem = riemann_tensor(g)
    rnorm = riem_norm(g, riem)
    ks = sample_sectional(g, _REPORT_PLANES, seed, riem=riem)
    scale = g.bracket_norm()
    ricci = ricci_general(g)
    return CurvatureReport(
        dim=g.dim,
        ricci=ricci,
        scalar=float(np.trace(ricci)),
        riem_norm=rnorm,
        sectional_min=float(np.min(ks)) if ks.size else 0.0,
        sectional_max=float(np.max(ks)) if ks.size else 0.0,
        plane_count=int(ks.size),
        seed=seed,
        flat=rnorm <= 1e-8 * max(scale**2, 1e-300),
        heintze=heintze,
    )
