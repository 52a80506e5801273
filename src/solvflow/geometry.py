"""Left-invariant metric Lie algebras and their curvature.

A metric Lie algebra is stored through its structure constants c[i,j,k]
with mu(e_i, e_j) = sum_k c[i,j,k] e_k in a basis declared orthonormal.
The matrices of `solvflow.flow` enter through `mu_of_a`: an n x n matrix A
becomes the (n+1)-dimensional solvable bracket mu(e_0, e_i) = A e_i with
abelian ideal span(e_1..e_n).  `_defect_of` is the one delta_mu formula:
it checks the Jacobi identity here, and `soliton` and `validate` take
delta_mu from it.

Curvature comes in two independent routes on purpose.  `ricci_block` uses
the closed block form available for mu_of_a brackets; `ricci_general`
evaluates the generic homogeneous-space formula Ric = M - B/2 - S(ad_H)
from the structure constants alone.  Tests pit them against each other.
The Riemann tensor and sectional curvature both come from the Koszul
connection (`_koszul`), with no shortcut formulas, so sectional curvature
claims never depend on the thing they are checking.  The tensor is made by
GEMMs over blocks of rows, which `riem_norm` sums without keeping, and a
sectional numerator applies the connection to its plane.  The one closed
form, ||Riem|| of mu_of_a(A) in `type3_monitor` from the block S^2 + [S, N]
of A = S + N, is tested against `riem_norm(mu_of_a(A))`.
"""

import copy
import dataclasses
import math

import numpy as np

from . import flow
from .matcore import (
    as_matrix,
    commutator,
    eigenvalues,
    frob_norm,
    pow2,
    skew_part,
    sym_part,
    unit_scale,
)

__all__ = [
    "MetricLieAlgebra",
    "derivation_defect",
    "mu_of_a",
    "ricci_block",
    "ricci_general",
    "scalar_curvature",
    "riemann_tensor",
    "riem_norm",
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
# bytes of each of _riemann_rows' blocks and of their temporaries
_RIEMANN_BLOCK_BYTES = 1 << 21
# doubles in each of _plane_numerators' temporaries: 512 planes up to m = 16
_PLANE_BLOCK = 1 << 17
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
        if c.shape[0] == 0:
            raise ValueError("a metric Lie algebra needs dimension at least 1, "
                             "got dimension 0")
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite structure constants")
        scale = float(np.max(np.abs(c), initial=0.0))
        anti = float(np.max(np.abs(c + c.swapaxes(0, 1)), initial=0.0))
        if anti > 1e-12 * scale:
            raise ValueError("structure constants not antisymmetric in (i, j)")
        scale_sq = scale * scale  # float ** would raise OverflowError
        if not math.isfinite(scale_sq):
            raise ValueError("structure constants too large: their squares "
                             "overflow")
        # antisymmetrized twice, so that c is not live beside the check
        unit = unit_scale(0.5 * (c - c.swapaxes(0, 1)))[0]
        if _jacobi_defect(unit) > JACOBI_TOL:
            raise ValueError("Jacobi identity violated")
        self.c = 0.5 * (c - c.swapaxes(0, 1))

    @property
    def dim(self):
        return self.c.shape[-1]

    def unit_scaled(self):
        """(copy, k): the bracket over 2^k (`unit_scale`); exact, unchecked."""
        unit = copy.copy(self)
        unit.c, k = unit_scale(self.c)
        return unit, k

    def bracket_norm(self):
        """||mu|| with both orderings of each pair counted."""
        return float(np.linalg.norm(self.c.ravel()))

    @classmethod
    def from_triples(cls, dim, triples):
        """The bracket with mu(e_i, e_j) += v e_k for each [i, j, k, v], i < j.

        A boolean or a string is no number, and an index is an integer or a
        float of integral value, as in a config file (the CLI's input files
        are checked here); ValueError otherwise.
        """
        c = np.zeros((dim, dim, dim))
        for entry in triples:
            try:
                i, j, k, v = entry
            except (TypeError, ValueError):
                raise ValueError(
                    f"triple {entry!r} is not (i, j, k, value)") from None
            i, j, k = (_triple_index(x, entry) for x in (i, j, k))
            v = _triple_value(v, entry)
            if not (0 <= i < j < dim and 0 <= k < dim):
                raise ValueError(f"indices out of range in {entry!r}")
            c[i, j, k] += v
            c[j, i, k] -= v
        return cls(c)


def derivation_defect(g, d):
    """delta_mu(D) = mu(D.,.) + mu(.,D.) - D mu(.,.), as a (d,d,d) tensor."""
    return _defect_of(g.c, d)


def _defect_of(c, d):
    """`derivation_defect` on bare structure constants.

    delta_mu(D) = -pi(D) mu, so _defect_of(c, Ric) is the velocity of
    Lauret's bracket flow mu' = -pi(Ric_mu) mu on the constants c.
    """
    m = c.shape[0]
    dt = np.asarray(d, dtype=float).T
    # mu(D e_i, e_j) + mu(e_i, D e_j) - D mu(e_i, e_j), each term one GEMM
    out = (dt @ c.reshape(m, m * m)).reshape(m, m, m)
    out += dt @ c
    out -= c @ dt
    return out


_REAL = (int, float, np.integer, np.floating)  # bool is an int: refused apart
_INTEGRAL = (int, np.integer)


def _triple_index(x, entry):
    """x as an index of a triple: an integer or an integral float."""
    if (type(x) is bool or not isinstance(x, _REAL)
            or not (isinstance(x, _INTEGRAL) or float(x).is_integer())):
        raise ValueError(f"{x!r} is not an integer in triple {entry!r}")
    return int(x)


def _triple_value(x, entry):
    """x as the value of a triple: a real number within the doubles."""
    if type(x) is bool or not isinstance(x, _REAL):
        raise ValueError(f"{x!r} is not a number in triple {entry!r}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{x!r} in triple {entry!r} is beyond the range "
                         "of doubles") from None


def _jacobi_defect(u):
    """max |mu(mu(e_i,e_j),e_k) + cyclic| over i, j, k and the output index.

    On antisymmetric u the cyclic sum is delta_u(ad e_i)(e_j, e_k), with
    ad e_i = u[i].T: the Jacobi identity says each ad e_i is a derivation.
    One m^3 `_defect_of` at a time; on u at unit scale it is relative.
    """
    worst = 0.0
    for ad in u.transpose(0, 2, 1):
        defect = _defect_of(u, ad)
        worst = max(worst, float(np.abs(defect, out=defect).max()))
        del defect  # before the next one is made: 2 m^3 arrays, not 3
    return worst


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
# Riemann curvature, from the Koszul connection


def _koszul(c):
    """Levi-Civita connection gamma[i,j,k] = <nabla_{e_i} e_j, e_k> of c."""
    return 0.5 * (c - c.transpose(0, 2, 1) - c.transpose(2, 0, 1))


def _riemann_rows(c):
    """R[i,j,k,l] = <R(e_i,e_j)e_k, e_l> of c over blocks of rows i.

    R[i,j,k,l] = sum_m gamma[j,k,m] gamma[i,m,l] - gamma[i,k,m] gamma[j,m,l]
    - c[i,j,m] gamma[m,k,l]: GEMMs of gamma and c reshaped to (m^2, m)
    and (m, m^2) matrices, over blocks of _RIEMANN_BLOCK_BYTES.
    """
    m = c.shape[0]
    gamma = _koszul(c)
    g_jk = gamma.reshape(m * m, m)  # rows (j, k)
    g_jl = gamma.transpose(1, 0, 2).reshape(m, m * m)  # columns (j, l)
    g_kl = gamma.reshape(m, m * m)  # columns (k, l)
    step = max(1, _RIEMANN_BLOCK_BYTES // (8 * m**3))
    for lo in range(0, m, step):
        i = slice(lo, lo + step)
        h = len(gamma[i])
        # gamma[i,k,m] gamma[j,m,l] as (i, k, j, l); gamma[j,k,m]
        # gamma[i,m,l] as (j, k, i, l)
        ikjl = (gamma[i].reshape(h * m, m) @ g_jl).reshape(h, m, m, m)
        jkil = (g_jk @ gamma[i].transpose(1, 0, 2).reshape(m, h * m)).reshape(
            m, m, h, m)
        block = jkil.transpose(2, 0, 1, 3) - ikjl.transpose(0, 2, 1, 3)
        del ikjl, jkil
        block -= (c[i].reshape(h * m, m) @ g_kl).reshape(h, m, m, m)
        yield block


def riemann_tensor(g):
    """R[i,j,k,l] = <R(e_i,e_j)e_k, e_l>, from `_riemann_rows`' blocks."""
    return np.concatenate(list(_riemann_rows(g.c)))


def riem_norm(g):
    """||Riem||, its squares summed by numpy (a BLAS dot's order follows the
    thread count) over `_riemann_rows`' blocks as they come: no m^4 array."""
    return math.sqrt(sum(float(np.einsum("i,i->", r.ravel(), r.ravel()))
                         for r in _riemann_rows(g.c)))


def _plane_numerators(c, xs, ys):
    """<R(x,y)y, x> for each row pair of xs, ys (shape (p, m)).

    R(x,y)y = nabla_x nabla_y y - nabla_y nabla_x y - nabla_[x,y] y with
    nabla_u v = sum_ij u_i v_j gamma[i,j,:]; nabla_x is skew, so the first
    two terms give <nabla_x y, nabla_y x> - <nabla_y y, nabla_x x>, and
    [x, y] = nabla_x y - nabla_y x (torsion-free).  All of it is read off
    nabla_{e_i} x and nabla_{e_i} y: einsums over j, planes last, in blocks
    of _PLANE_BLOCK // m^2 planes; no BLAS reduction, whose order would
    follow the thread count.
    """
    gamma_j = _koszul(c).transpose(1, 0, 2).copy()  # [j, i, k]

    def cov(u):  # cov(u)[i, :, p] = nabla_{e_i} u
        return np.einsum("jp,jik->ikp", u, gamma_j)

    def along(v, cov_u):  # nabla_v u
        return np.einsum("ip,ikp->kp", v, cov_u)

    step = max(1, _PLANE_BLOCK // len(gamma_j) ** 2)
    xs, ys = xs.T.copy(), ys.T.copy()
    out = np.empty(xs.shape[1])
    for lo in range(0, len(out), step):
        x, y = xs[:, lo:lo + step], ys[:, lo:lo + step]
        cov_x, cov_y = cov(x), cov(y)
        x_y, y_x = along(x, cov_y), along(y, cov_x)  # u_v = nabla_u v
        y_y, x_x = along(y, cov_y), along(x, cov_x)
        bracket_y = along(x_y - y_x, cov_y)
        out[lo:lo + step] = (np.einsum("kp,kp->p", x_y, y_x)
                             - np.einsum("kp,kp->p", y_y, x_x)
                             - np.einsum("kp,kp->p", bracket_y, x))
    return out


def sectional_curvature(g, x, y):
    """K(x, y) = <R(x,y)y, x> / (|x|^2 |y|^2 - <x,y>^2) for a 2-plane."""
    x, y = (np.asarray(v, dtype=float) for v in (x, y))
    gram = float(x @ x) * float(y @ y) - float(x @ y) ** 2
    if gram <= 1e-12 * max(float(x @ x) * float(y @ y), 1e-300):
        raise ValueError("x, y do not span a 2-plane")
    return float(_plane_numerators(g.c, x[None], y[None])[0]) / gram


def sample_sectional(g, num_planes=512, seed=0):
    """Sectional curvatures of `num_planes` random 2-planes (fixed seed)."""
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((num_planes, g.dim))
    ys = rng.standard_normal((num_planes, g.dim))
    nums = _plane_numerators(g.c, xs, ys)
    grams = (np.einsum("pi,pi->p", xs, xs) * np.einsum("pi,pi->p", ys, ys)
             - np.einsum("pi,pi->p", xs, ys) ** 2)
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
    """|det(A / ||A||)| > 1e-12, for one matrix or each of a stack at unit
    scale (`matcore.unit_scale`): A is invertible at a scale-free threshold."""
    nrm = np.linalg.norm(a, axis=(-2, -1))
    unit = a / np.where(nrm > 0.0, nrm, 1.0)[..., None, None]
    return (nrm > 0.0) & (np.abs(np.linalg.det(unit)) > 1e-12)


def heintze_check(a):
    """Check the negative-curvature conditions for mu_of_a(A).

    `a` is one matrix (n, n) or a stack (k, n, n), as in
    `matcore.eigenvalues`; a stack gives one verdict whose fields are
    arrays, one entry per matrix.  e_0 is oriented by the sign of tr A
    (see HeintzeVerdict), so each matrix takes one eigvalsh of S(sign*A)
    and one of M.  All of it runs on A / 2^k (`matcore.unit_scale`).
    """
    a, k = unit_scale(as_matrix(a, stack=True), stack=np.ndim(a) == 3)
    sign = np.where(np.trace(a, axis1=-2, axis2=-1) >= 0.0, 1, -1)
    s, m = _transversal_block(a)
    cond_a = _invertible(a)
    cond_b, margin_b = _posdef(sign[..., None, None] * s)
    cond_c, margin_c = _posdef(m)
    fields = {"sign": sign, "cond_a": cond_a, "cond_b": cond_b,
              "cond_c": cond_c, "negative": cond_a & cond_b & cond_c,
              "margin_b": pow2(margin_b, k), "margin_c": pow2(margin_c, 2 * k)}
    if a.ndim == 2:  # Python scalars for one matrix
        fields = {name: v.item() for name, v in fields.items()}
    return HeintzeVerdict(**fields)


def admits_negative_curvature(a):
    """True when A is invertible and Re(Spec A) has one strict sign.

    This is the condition under which some metric in the conjugation orbit
    of mu_of_a(A) is negatively curved; `heintze_check` tests the given
    metric itself.
    """
    a = unit_scale(as_matrix(a))[0]
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

    Requires tr(A0^2) >= 0, the regime where the product stays bounded,
    or a skew A0 (tr(A0^2) < 0, but a flat, constant geometry: the product
    is identically zero).  Both are judged on A0 / 2^k (`unit_scale`).
    """
    a0, k = unit_scale(traj.states[0])
    tr_a02 = float(np.trace(a0 @ a0))
    nrm0 = frob_norm(a0)
    is_skew = frob_norm(a0 + a0.T) <= 1e-12 * nrm0
    if tr_a02 < -1e-12 * nrm0**2 and not is_skew:
        raise ValueError(
            "type3_monitor needs tr(A0^2) >= 0 (or a flat skew A0); "
            f"got tr(A0^2) = {pow2(tr_a02, 2 * k):g}"
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
    It is computed on `g.unit_scaled()`, and each curvature times 4^k.
    """
    unit, k = g.unit_scaled()
    rnorm = riem_norm(unit)
    ks = sample_sectional(unit, _REPORT_PLANES, seed)
    ricci = ricci_general(unit)
    return CurvatureReport(
        dim=g.dim,
        ricci=pow2(ricci, 2 * k),
        scalar=float(pow2(np.trace(ricci), 2 * k)),
        riem_norm=float(pow2(rnorm, 2 * k)),
        sectional_min=float(pow2(np.min(ks), 2 * k)) if ks.size else 0.0,
        sectional_max=float(pow2(np.max(ks), 2 * k)) if ks.size else 0.0,
        plane_count=int(ks.size),
        seed=seed,
        flat=rnorm <= 1e-8 * unit.bracket_norm()**2,
        heintze=heintze,
    )
