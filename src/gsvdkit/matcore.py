"""Dense-matrix numeric foundation: validation, rank, QR, SVD, pseudoinverse.

Everything operates on plain float64 ndarrays and is pure.  The shared
gates live here, each the one copy of its check: `as_matrix` checks a
matrix input (shape, finiteness), `_check_type` that an argument is an
instance of the class a function takes (a `GsvdFactors`, a
`TikhonovProblem`, a `JacobiParams`), and `_check_columns` that a pair has
one column count.  Downstream code assumes validated data.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import re
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_lapack, lapack

from .errors import DimensionMismatch, DomainError, InvalidDimensions

__all__ = [
    "EPS",
    "Tolerance",
    "as_matrix",
    "as_vector",
    "numerical_rank",
    "full_svd",
    "pinv",
    "orth_basis",
    "complete_basis",
]

EPS = float(np.finfo(np.float64).eps)

# Block size of the compact-WY Householder QR in `_householder`.
_QR_BLOCK = 32


def as_matrix(a) -> np.ndarray:
    """Validate `a` as a 2-D float64 matrix with positive dims, finite entries."""
    return _as_matrix(a, min_cols=1)


def _as_array(a) -> np.ndarray:
    # a as a float64 copy, or DomainError naming the type of an a that is
    # no array of real numbers
    try:
        return np.array(a, dtype=np.float64, copy=True)
    except (TypeError, ValueError):
        raise DomainError(f"expected an array of real numbers, got {type(a).__name__}") from None


def _as_matrix(a, min_cols: int) -> np.ndarray:
    # as_matrix, with at least min_cols columns in place of one
    m = _as_array(a)
    if m.ndim != 2:
        raise InvalidDimensions(f"expected a 2-D array, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < min_cols:
        raise InvalidDimensions(f"matrix dimensions must be positive, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    return m


def as_vector(a) -> np.ndarray:
    """Validate `a` as a 1-D float64 vector (a single-row/column 2-D array is flattened)."""
    v = _as_array(a)
    if v.ndim == 2 and 1 in v.shape:
        v = v.ravel()
    if v.ndim != 1 or v.size < 1:
        raise InvalidDimensions(f"expected a vector, got shape {np.shape(a)}")
    if not np.all(np.isfinite(v)):
        raise DomainError("vector entries must be finite")
    return v


def _check_type(x, cls) -> None:
    # DomainError naming both types unless x is a cls
    if not isinstance(x, cls):
        raise DomainError(f"expected a {cls.__name__}, got {type(x).__name__}")


def _check_columns(a: np.ndarray, b: np.ndarray) -> None:
    # DimensionMismatch unless the pair's blocks have one column count
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(
            f"column counts differ: A has {a.shape[1]}, B has {b.shape[1]}"
        )


def _is_integer(x) -> bool:
    # An int or NumPy integer, and not a bool: bool subclasses int, but a
    # boolean count or seed is a caller's mistake.
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _as_real(x) -> float:
    # x as a float for a real-valued parameter, NaN when x is no real
    # number or is a bool (an int, but never a magnitude), and infinite for
    # an int past the float range, where float() overflows.  Each caller
    # checks the range it needs and names x in its own DomainError.
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return math.nan
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


@dataclass(frozen=True)
class Tolerance:
    """Threshold for rank decisions: keep sigma with sigma > rel * sigma_max.

    rel is one finite nonnegative number, held as a float, or None for
    max(rows, cols) * machine epsilon.  `gsvd_decompose` cuts all three
    ranks at the stacked pair's shape and sigma_max, so a block that is
    pure roundoff beside the other is rank zero though "full rank" at its
    own scale.
    """

    rel: float | None = None

    def __post_init__(self):
        # A NaN or infinite rel makes every rank 0.
        if self.rel is None:
            return
        rel = _as_real(self.rel)
        if not 0 <= rel < math.inf:
            raise DomainError(f"rel must be a nonnegative number and finite, got {self.rel!r}")
        object.__setattr__(self, "rel", rel)

    def cutoff(self, shape, sigma_max: float) -> float:
        rel = max(shape) * EPS if self.rel is None else self.rel
        return rel * float(sigma_max)


def _count_above(sv: np.ndarray, cut: float) -> int:
    # How many singular values sv lie above cut: every rank is this count.
    return int(np.count_nonzero(sv > cut))


def _rank_of(sv: np.ndarray, shape) -> int:
    # The rank of a matrix of this shape with descending singular values
    # sv, at the default cutoff; 0 when all vanish.
    return _count_above(sv, Tolerance().cutoff(shape, sv[0]))


def _pinned(shape) -> Tolerance:
    # The default tolerance, its relative cutoff fixed at this shape's.
    return Tolerance(max(shape) * EPS)


def _svdvals(x: np.ndarray) -> np.ndarray:
    # Singular values, descending, from LAPACK dgesdd with jobz = 'N' on a
    # Fortran-ordered copy (dgesdd overwrites its input) with the optimal
    # workspace: the call NumPy's svd(compute_uv=False) makes, whose values
    # these equal bit for bit at one BLAS thread.  It goes through ctypes,
    # which releases the interpreter lock for the call; NumPy's svd keeps
    # the lock up to about 500 columns, and SciPy's f2py dgesdd at every
    # size, so a thread beside them cannot run.  The workspace is queried
    # on every call, which writes the optimal lwork to work[0]: 7.5-8.6 us
    # from 3 x 4 to 2200 x 800 on a 2-core Xeon host, too little for a
    # cache to show end to end.  The copy, values and workspace are three
    # arrays: one block holding all three raised the factor bench's peak
    # RSS from 222 to 234 MB.
    m, n = x.shape
    k = min(m, n)
    if k == 0:
        return np.zeros(0)
    a, s, work = np.array(x, dtype=float, order="F"), np.empty(k), np.empty(1)
    _dgesdd_values(m, n, a.ctypes.data, s.ctypes.data, work.ctypes.data, -1)
    work = np.empty(int(work[0]))
    _dgesdd_values(m, n, a.ctypes.data, s.ctypes.data, work.ctypes.data, work.size)
    return s


def _dgesdd_values(m: int, n: int, a: int, s: int, work: int, lwork: int) -> None:
    # dgesdd(jobz = 'N') on the arrays at these addresses: a (m x n,
    # Fortran order) is overwritten and s receives the min(m, n) values;
    # U and V' are never referenced.  lwork = -1 is a workspace query.
    ints = np.empty(5 + 8 * min(m, n), dtype=np.intc)  # m (also lda), n, 1, lwork, info, iwork
    ints[:4] = m, n, 1, lwork
    i = ints.ctypes.data
    _dgesdd(b"N", i, i + 4, a, i, s, s, i + 8, s, i + 8, work, i + 12, i + 20, i + 16)
    if ints[4] != 0:
        raise np.linalg.LinAlgError("SVD did not converge")


def _capsule_dgesdd():
    # SciPy's Cython binding of LAPACK dgesdd as a ctypes function, checked
    # against the C signature the calls above assume.
    capsule = cython_lapack.__pyx_capi__["dgesdd"]
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    # SciPy's double is a Cython typedef with a mangled name
    signature = re.sub(r"__pyx_t_\w*_d\b", "double", name.decode())
    if signature != ("void (char *, int *, int *, double *, int *, double *, double *, "
                     "int *, double *, int *, double *, int *, int *, int *)"):
        raise ImportError(f"SciPy's dgesdd has an unexpected signature: {signature}")
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, name)
    return ctypes.CFUNCTYPE(None, ctypes.c_char_p, *[ctypes.c_void_p] * 13)(address)


_dgesdd = _capsule_dgesdd()


def numerical_rank(m) -> int:
    """Count singular values above the default `Tolerance` cutoff; 0 for the zero matrix."""
    m = as_matrix(m)
    return _rank_of(_svdvals(m), m.shape)


def _leading_signs(x: np.ndarray) -> np.ndarray:
    # Column signs (+1 or -1) making each column's leading significant entry
    # (first with magnitude above 1e-12) nonnegative; a column with no such
    # entry, and every column of a matrix with no rows, keeps +1.  Row 0
    # decides almost every column of a dense factor, so the rows are read
    # in blocks of 1, 2, 4, ... rows, each copying only the columns still
    # undecided: no matrix-sized scratch, and about O(m) reads, not O(m^2).
    signs = np.ones(x.shape[1])
    cols = np.arange(x.shape[1])
    top, rows = 0, 1
    while cols.size and top < x.shape[0]:
        block = x[top:top + rows].take(cols, axis=1)
        hit = np.abs(block) > 1e-12
        found = hit.any(axis=0)
        lead = block[hit.argmax(axis=0), np.arange(cols.size)]
        signs[cols[found & (lead < 0)]] = -1.0
        cols = cols[~found]
        top, rows = top + rows, 2 * rows
    return signs


def _householder(x: np.ndarray):
    # The Householder QR x = Q R of a tall x (rows >= cols >= 1) as
    # (reflectors, T): the reflectors below the diagonal with R on and
    # above it, kept in compact-WY form (dgeqrt) for `_apply_q`.  x is not
    # overwritten.
    refl, t, info = lapack.dgeqrt(min(x.shape[1], _QR_BLOCK), x)
    if info != 0:
        raise np.linalg.LinAlgError(f"Householder QR failed: LAPACK info {info}")
    return refl, t


def _apply_q(qr, x: np.ndarray, *blocks: slice) -> np.ndarray:
    # Q x for qr = _householder(...), written back into x by one blocked
    # call (dgemqrt) per named column block, or one on all of x: a block
    # in a call of its own gets the same bits whatever x holds beside it,
    # so compact factors are the full factors' columns bit for bit.
    for block in blocks or (slice(None),):
        if x[:, block].shape[1]:
            x[:, block], info = lapack.dgemqrt(*qr, x[:, block], overwrite_c=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"Householder QR failed: LAPACK info {info}")
    return x


def _complement(q: np.ndarray, out: np.ndarray) -> np.ndarray:
    # Q [0; I] into out, m x (m - k) zeros, for the Householder QR of an
    # m x k q (Q = I when k = 0): the columns spanning col(q)'s complement.
    np.fill_diagonal(out[q.shape[1]:], 1.0)
    return _apply_q(_householder(q), out) if q.shape[1] else out


def _completed(q: np.ndarray) -> np.ndarray:
    # [q | complete_basis(q)], square, for q with 0 <= k <= m orthonormal
    # columns (q itself at k = m): the completion is written in place into
    # one buffer, each column oriented by its leading significant entry.
    m, k = q.shape
    if k == m:
        return q
    out = np.zeros((m, m), order="F")
    out[:, :k] = q
    tail = _complement(q, out[:, k:])
    tail *= _leading_signs(tail)
    return out


def _svd(m: np.ndarray):
    # Thin SVD m = u diag(sigma) v' with deterministic column signs, each
    # u column oriented by its leading significant entry and v's flipped in
    # tandem.  A caller that needs a square factor takes `_completed` of
    # it, whose reflectors do not depend on the column signs.
    u, sigma, vt = np.linalg.svd(m, full_matrices=False)
    signs = _leading_signs(u)
    u *= signs
    v = vt.T
    v *= signs
    return u, sigma, v


def full_svd(m):
    """Full SVD m = u @ Sigma @ v.T with square orthogonal u, v.

    Returns (u, sigma, v) with sigma descending of length min(rows, cols).
    A thin SVD supplies the singular vectors; the longer side's factor is
    completed to a square one by the Householder QR of its columns.  All
    column signs are normalized so factorizations are deterministic.
    `pinv` and `orth_basis` take the same oriented SVD thin.  The trailing
    columns v[:, k:], k = numerical_rank(m), are an orthonormal basis for
    the nullspace of m.
    """
    u, sigma, v = _svd(as_matrix(m))
    return _completed(u), sigma, _completed(v)


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse, cut at the default `Tolerance` rank."""
    m = as_matrix(m)
    u, sigma, v = _svd(m)
    return _svd_pinv(u, sigma, v, _rank_of(sigma, m.shape))


def _svd_pinv(u: np.ndarray, sigma: np.ndarray, v: np.ndarray, k: int) -> np.ndarray:
    # Pseudoinverse from the SVD (u, sigma, v) kept to its leading k terms.
    return (v[:, :k] * (1.0 / sigma[:k])) @ u[:, :k].T


def orth_basis(m) -> np.ndarray:
    """Orthonormal basis (columns) for the column space of m.

    The leading left singular vectors of the thin SVD, oriented as in
    `full_svd` and cut at the default `Tolerance` rank; no completion is
    formed.
    """
    m = as_matrix(m)
    u, sigma, _ = _svd(m)
    return u[:, : _rank_of(sigma, m.shape)]


def complete_basis(q) -> np.ndarray:
    """Orthonormal completion: columns spanning the complement of col(q).

    q: at least one row, finite entries, and (numerically) orthonormal
    columns or none, which gives the identity.  The completion is
    Q [0; I] for the Householder QR of q, formed without forming Q.
    """
    q = _as_matrix(q, min_cols=0)
    m, k = q.shape
    if k >= m:
        return np.zeros((m, 0))
    return _complement(q, np.zeros((m, m - k), order="F"))
