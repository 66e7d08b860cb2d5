"""Dense-matrix numeric foundation: validation, rank, QR, SVD, pseudoinverse.

Everything operates on plain float64 ndarrays and is pure; `as_matrix` is
the single gate where inputs are checked (shape, finiteness), downstream
code assumes validated data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

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


@dataclass(frozen=True)
class Tolerance:
    """Threshold for rank decisions: keep sigma with sigma > max(rel * sigma_max, abs).

    rel=None means the standard max(rows, cols) * machine epsilon.
    """

    rel: float | None = None
    abs: float = 0.0

    def __post_init__(self):
        # `not x >= 0` rejects NaN too, which would give a NaN cutoff and rank 0
        if self.rel is not None and not self.rel >= 0:
            raise DomainError(f"rel must be a nonnegative number, got {self.rel}")
        if not self.abs >= 0:
            raise DomainError(f"abs must be a nonnegative number, got {self.abs}")

    def cutoff(self, shape, sigma_max: float) -> float:
        rel = max(shape) * EPS if self.rel is None else self.rel
        return max(rel * float(sigma_max), self.abs)


def _rank_of(sv: np.ndarray, shape) -> int:
    # Count of descending singular values sv above the default cutoff of a
    # matrix of this shape; 0 when all vanish.
    return int(np.count_nonzero(sv > Tolerance().cutoff(shape, sv[0])))


def _pinned(shape) -> Tolerance:
    # The default tolerance, its relative cutoff fixed at this shape's.
    return Tolerance(max(shape) * EPS)


def _svdvals(x: np.ndarray) -> np.ndarray:
    # Singular values, descending.  np.linalg.svdvals needs NumPy 2.0, and
    # scipy.linalg.svdvals spends more time in its wrapper than in LAPACK
    # on small inputs.
    return np.linalg.svd(x, compute_uv=False)


def numerical_rank(m) -> int:
    """Count singular values above the default `Tolerance` cutoff; 0 for the zero matrix."""
    m = as_matrix(m)
    return _rank_of(_svdvals(m), m.shape)


def _leading_signs(x: np.ndarray) -> np.ndarray:
    # Column signs (+1 or -1) making each column's leading significant entry
    # (first with magnitude above 1e-12) nonnegative.  A column with no such
    # entry reads row 0, which is then insignificant and keeps sign +1.  A
    # matrix with no rows has no entry to read, and every column keeps +1.
    if x.shape[0] == 0:
        return np.ones(x.shape[1])
    lead = x[np.argmax(np.abs(x) > 1e-12, axis=0), np.arange(x.shape[1])]
    return np.where(lead < -1e-12, -1.0, 1.0)


def _qr_apply(x: np.ndarray, c: np.ndarray):
    # (Q @ c, diag(R)) for the Householder QR x = Q R of a tall x (rows >=
    # cols).  The reflectors are kept in compact-WY form (dgeqrt) and
    # applied in blocks (dgemqrt), so Q is never formed and the work is
    # matrix-matrix even when x has few columns.  A Fortran-ordered float64
    # c is overwritten in place.  An x with no columns has Q = I, so c comes
    # back unchanged: empty blocks and rank 0 need no route of their own.
    if x.shape[1] == 0:
        return c, np.zeros(0)
    refl, t, info = lapack.dgeqrt(min(x.shape[1], _QR_BLOCK), x)
    if info == 0:
        c, info = lapack.dgemqrt(refl, t, c, overwrite_c=1)
    if info != 0:
        raise ValueError(f"Householder QR failed: LAPACK info {info}")
    return c, np.diag(refl).copy()


def _completed(q: np.ndarray) -> np.ndarray:
    # [q | complete_basis(q)] for q with 0 <= k < m orthonormal columns,
    # square, with the completion written in place into one buffer.  `_svd`
    # completes only the longer side, so k < m always holds.
    m, k = q.shape
    out = np.zeros((m, m), order="F")
    out[:, :k] = q
    np.fill_diagonal(out[k:, k:], 1.0)
    _qr_apply(q, out[:, k:])
    return out


def _svd(m: np.ndarray, complete_u: bool = False, complete_v: bool = False):
    # Thin SVD m = u diag(sigma) v' with deterministic column signs; the
    # side(s) asked for are completed to square when they are the longer
    # one.  Each u column is oriented by its leading significant entry and
    # the first min(rows, cols) columns of v flip in tandem with theirs;
    # v's completion columns are oriented alone.  A completion's reflectors
    # do not depend on the column signs, so the leading columns, and the
    # completion itself, are the same whichever sides are completed.
    u, sigma, vt = np.linalg.svd(m, full_matrices=False)
    v = vt.T
    if complete_u and m.shape[0] > m.shape[1]:
        u = _completed(u)
    if complete_v and m.shape[0] < m.shape[1]:
        v = _completed(v)
    k = sigma.size
    signs = _leading_signs(u)
    u *= signs
    v[:, :k] *= signs[:k]
    v[:, k:] *= _leading_signs(v[:, k:])
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
    return _qr_apply(q, out)[0]
