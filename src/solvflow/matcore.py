"""Dense real matrix primitives shared by every other module.

Everything here works on plain numpy arrays of shape (n, n) with float64
entries.  Matrices are the coordinates of the whole toolkit (a matrix A
stands for a solvable Lie bracket, see `solvflow.geometry.mu_of_a`), so the
helpers insist on square, finite input and fail loudly otherwise.
"""

import enum

import numpy as np

__all__ = [
    "MatrixClass",
    "as_matrix",
    "commutator",
    "sym_part",
    "skew_part",
    "frob_inner",
    "frob_norm",
    "eigenvalues",
    "spectrum_distance",
    "classify_matrix",
]


class MatrixClass(str, enum.Enum):
    """Structural class of a real square matrix, ordered by specificity."""

    SKEW = "skew"
    NORMAL = "normal"
    NILPOTENT = "nilpotent"
    GENERIC = "generic"


def as_matrix(a, stack=False):
    """Coerce `a` to a float64 square matrix, validating shape and finiteness.

    With `stack=True` a stack of square matrices, shape (k, n, n), is
    accepted as well; the shape of the input is kept either way.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim not in ((2, 3) if stack else (2,)) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] == 0:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def commutator(x, y):
    """[X, Y] = XY - YX."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    return x @ y - y @ x


def sym_part(a):
    """Symmetric part (A + A^T)/2.  The result is exactly symmetric."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def skew_part(a):
    a = np.asarray(a, dtype=float)
    return 0.5 * (a - a.T)


def frob_inner(x, y):
    """Frobenius inner product <X, Y> = tr(X Y^T) = sum of entrywise products."""
    return float(np.sum(np.asarray(x, dtype=float) * np.asarray(y, dtype=float)))


def frob_norm(x):
    return float(np.linalg.norm(np.asarray(x, dtype=float)))


def eigenvalues(a):
    """Spectrum of `a` in canonical order (lexicographic by real, then imag).

    `a` is one matrix (n, n) or a stack (k, n, n); a stack gives one
    spectrum per row, shape (k, n).  Runs a cheap consistency check
    afterwards: the product of the returned eigenvalues must reproduce
    det(a) for every matrix.  A failure means the eigensolver did not
    converge to anything usable, so it raises instead of returning garbage.
    """
    a = as_matrix(a, stack=True)
    single = a.ndim == 2
    if single:
        a = a[None]
    vals = np.linalg.eigvals(a)
    n = a.shape[-1]
    nrm = np.linalg.norm(a, axis=(1, 2))
    det = np.linalg.det(a)
    prod = np.prod(vals, axis=1)
    scale = np.maximum(np.maximum(np.abs(det), np.abs(prod)), nrm**n)
    with np.errstate(invalid="ignore"):
        bad = (nrm > 0.0) & np.isfinite(scale) & (np.abs(prod - det) > 1e-8 * scale)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ArithmeticError(f"eigenvalue product {complex(prod[i]):g} "
                              f"disagrees with det {float(det[i]):g}")
    # lexsort uses the last key as primary: sort by real part, ties by imag.
    order = np.lexsort((vals.imag, vals.real), axis=-1)
    vals = np.take_along_axis(vals, order, axis=-1)
    return vals[0] if single else vals


def spectrum_distance(s, t):
    """Max entrywise distance between two canonically ordered spectra."""
    s = np.asarray(s, dtype=complex)
    t = np.asarray(t, dtype=complex)
    if s.shape != t.shape:
        raise ValueError("spectra of different sizes")
    return float(np.max(np.abs(s - t))) if s.size else 0.0


# scale-free threshold of classify_matrix's residuals
_CLASS_TOL = 1e-8


def classify_matrix(a):
    """Most specific of Skew / Nilpotent / Normal / Generic for `a`.

    All tests are scale invariant: the matrix is normalized before any
    threshold comparison, so classify_matrix(c*a) == classify_matrix(a)
    for every c != 0.  The zero matrix counts as skew.
    """
    a = as_matrix(a)
    peak = float(np.max(np.abs(a)))
    if peak == 0.0:
        return MatrixClass.SKEW
    # scale by the largest entry first: the squares in the norm of a tiny
    # matrix underflow and would make the class depend on its scale
    m = a / peak
    m /= frob_norm(m)
    if frob_norm(m + m.T) <= _CLASS_TOL:
        return MatrixClass.SKEW
    n = a.shape[0]
    if frob_norm(np.linalg.matrix_power(m, n)) <= _CLASS_TOL:
        return MatrixClass.NILPOTENT
    if frob_norm(commutator(m, m.T)) <= _CLASS_TOL:
        return MatrixClass.NORMAL
    return MatrixClass.GENERIC

