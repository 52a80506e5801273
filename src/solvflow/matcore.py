"""Dense real matrix primitives shared by every other module.

Everything here works on plain numpy arrays of shape (n, n) with float64
entries.  Matrices are the coordinates of the whole toolkit (a matrix A
stands for a solvable Lie bracket, see `solvflow.geometry.mu_of_a`), so the
helpers insist on square, finite input and fail loudly otherwise.
`unit_scale` and `pow2` move values to unit scale and back, exactly.
"""

import numpy as np

__all__ = [
    "as_matrix",
    "commutator",
    "sym_part",
    "skew_part",
    "frob_inner",
    "frob_norm",
    "eigenvalues",
    "spectrum_distance",
]


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


def unit_scale(x, stack=False):
    """(u, k) with x = u * 2^k and the largest |entry| of u in [0.5, 1),
    per matrix when `stack` is set.  Exact, except that entries of u below
    2^-1022 become 0: a subnormal pivot makes LU divide by zero."""
    x = np.asarray(x, dtype=float)
    peak = np.max(np.abs(x), axis=(-2, -1) if stack else None, initial=0.0)
    k = np.frexp(peak)[1]
    u = np.ldexp(x, -(k[..., None, None] if stack else k))  # cannot overflow
    return np.where(np.abs(u) < np.finfo(float).tiny, 0.0, u), k


def pow2(x, e):
    """x * 2^e: exact in range, a silent inf above it, 0 far below it."""
    with np.errstate(over="ignore"):
        return np.ldexp(x, e)


def commutator(x, y):
    """[X, Y] = XY - YX."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    return x @ y - y @ x


def sym_part(a):
    """Symmetric part (A + A^T)/2 of a matrix or a stack; exactly symmetric."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.swapaxes(-1, -2))


def skew_part(a):
    a = np.asarray(a, dtype=float)
    return 0.5 * (a - a.swapaxes(-1, -2))


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
    # the check runs on A / 2^k, where det(A) and ||A||^n cannot overflow
    unit, k = unit_scale(a, stack=True)
    prod = np.prod(np.ldexp(vals.real.T, -k) + 1j * np.ldexp(vals.imag.T, -k),
                   axis=0)
    det = np.linalg.det(unit)
    nrm = np.linalg.norm(unit, axis=(1, 2))
    # |det| and the true |prod| are at most ||A||^n (Hadamard)
    bad = np.abs(prod - det) > 1e-8 * nrm**a.shape[-1]
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

