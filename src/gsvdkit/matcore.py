"""Dense-matrix numeric foundation: validation, rank, QR, SVD, pseudoinverse.

Everything operates on plain float64 ndarrays and is pure; `as_matrix` is
the single gate where inputs are checked (shape, finiteness), downstream
code assumes validated data.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import re
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_lapack, lapack

from .errors import DomainError, InvalidDimensions

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

# Block size of the compact-WY Householder QR in `_qr_apply`.
_QR_BLOCK = 32


def as_matrix(a) -> np.ndarray:
    """Validate `a` as a 2-D float64 matrix with positive dims, finite entries."""
    m = np.array(a, dtype=np.float64, copy=True)
    if m.ndim != 2:
        raise InvalidDimensions(f"expected a 2-D array, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise InvalidDimensions(f"matrix dimensions must be positive, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    return m


def as_vector(a) -> np.ndarray:
    """Validate `a` as a 1-D float64 vector (a single-row/column 2-D array is flattened)."""
    v = np.array(a, dtype=np.float64, copy=True)
    if v.ndim == 2 and 1 in v.shape:
        v = v.ravel()
    if v.ndim != 1 or v.size < 1:
        raise InvalidDimensions(f"expected a vector, got shape {np.shape(a)}")
    if not np.all(np.isfinite(v)):
        raise DomainError("vector entries must be finite")
    return v


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
    # size, so a thread beside them cannot run.  The copy, values and
    # workspace are three arrays: one block holding all three raised the
    # factor bench's peak RSS from 222 to 234 MB.
    m, n = x.shape
    k = min(m, n)
    if k == 0:
        return np.zeros(0)
    a, s = np.array(x, dtype=float, order="F"), np.empty(k)
    work = np.empty(_dgesdd_lwork(m, n))
    _dgesdd_values(m, n, a.ctypes.data, s.ctypes.data, work.ctypes.data, work.size)
    return s


@functools.lru_cache(maxsize=256)
def _dgesdd_lwork(m: int, n: int) -> int:
    # The optimal lwork for an m x n matrix from dgesdd's workspace query,
    # which reads only the sizes and writes the answer to work[0]; asked
    # once per shape, as a query costs about as much as a small call.
    work = np.empty(1)
    at = work.ctypes.data
    _dgesdd_values(m, n, at, at, at, -1)
    return int(work[0])


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
        raise ValueError(f"Householder QR failed: LAPACK info {info}")
    return refl, t


def _apply_q(qr, c: np.ndarray) -> np.ndarray:
    # Q @ c for qr = _householder(x), the reflectors applied in blocks
    # (dgemqrt), so Q is never formed and the work is matrix-matrix even
    # when x has few columns.  A Fortran-ordered float64 c, a column slice
    # of a Fortran-ordered array included, is overwritten in place.
    c, info = lapack.dgemqrt(*qr, c, overwrite_c=1)
    if info != 0:
        raise ValueError(f"Householder QR failed: LAPACK info {info}")
    return c


def _qr_apply(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    # Q @ c for the Householder QR x = Q R of a tall x (rows >= cols).  An
    # x with no columns has Q = I, so c comes back unchanged: empty blocks
    # and rank 0 need no route of their own.
    if x.shape[1] == 0:
        return c
    return _apply_q(_householder(x), c)


def _completed(q: np.ndarray) -> np.ndarray:
    # [q | complete_basis(q)], square, for q with 0 <= k <= m orthonormal
    # columns (q itself at k = m): the completion is written in place into
    # one buffer, each column oriented by its leading significant entry.
    m, k = q.shape
    if k == m:
        return q
    out = np.zeros((m, m), order="F")
    out[:, :k] = q
    np.fill_diagonal(out[k:, k:], 1.0)
    tail = out[:, k:]
    _qr_apply(q, tail)
    tail *= _leading_signs(tail)
    return out


def _svd(m: np.ndarray, complete_u: bool = False, complete_v: bool = False):
    # Thin SVD m = u diag(sigma) v' with deterministic column signs, each
    # u column oriented by its leading significant entry and v's flipped in
    # tandem, then the side(s) asked for completed to square.  A
    # completion's reflectors do not depend on the column signs.
    u, sigma, vt = np.linalg.svd(m, full_matrices=False)
    signs = _leading_signs(u)
    u *= signs
    v = vt.T
    v *= signs
    if complete_u:
        u = _completed(u)
    if complete_v:
        v = _completed(v)
    return u, sigma, v


def full_svd(m):
    """Full SVD m = u @ Sigma @ v.T with square orthogonal u, v.

    Returns (u, sigma, v) with sigma descending of length min(rows, cols).
    A thin SVD supplies the singular vectors; the longer side's factor is
    completed to a square one by `complete_basis`.  Column signs are
    normalized so factorizations are deterministic.  `pinv` and
    `orth_basis` take the same oriented SVD thin.  The trailing columns
    v[:, k:], k = numerical_rank(m), are an orthonormal basis for the
    nullspace of m.
    """
    return _svd(as_matrix(m), complete_u=True, complete_v=True)


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

    q must have (numerically) orthonormal columns.  The completion is
    Q [0; I] for the Householder QR of q, formed without forming Q.
    """
    q = np.asarray(q, dtype=np.float64)
    m, k = q.shape
    if k >= m:
        return np.zeros((m, 0))
    out = np.zeros((m, m - k), order="F")
    np.fill_diagonal(out[k:], 1.0)
    return _qr_apply(q, out)
