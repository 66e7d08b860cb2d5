"""GH-form generalized SVD of a matrix pair with a common column count.

The factorization of the stacked pair is

    [A; B] = [U C; V S] H

with U (m1 x m1) and V (m2 x m2) orthogonal, C and S one-diagonal cosine
and sine matrices satisfying C'C + S'S = I_r, and H (r x n) of full row
rank r = rank([A; B]).  The columns of [U C; V S] are an orthonormal
basis for the column space of the stacked pair; H holds the coordinates
of [A; B] in that basis.  The generalized singular values are the
cotangents c_i / s_i, which may be zero, finite, or infinite.

Structure accounting: with r_a = rank(A) and r_b = rank(B), the r
cosine/sine pairs split into three blocks,

    #{c_i = 1} = r - r_b,   #{0 < c_i < 1} = r_a + r_b - r,   #{c_i = 0} = r - r_a,

and S is one-diagonal: the v_i with s_i > 0 are r_b adjacent columns of V
from `v_start`, at V's right end in the bottom-aligned convention
`gsvd_decompose` returns and at its left end after `with_top_convention`.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import matcore
from .errors import DimensionMismatch, DomainError, InvalidDimensions, RankOutOfRange
from .matcore import Tolerance, as_matrix

__all__ = [
    "GsvdFactors",
    "CsStructure",
    "FundamentalBases",
    "gsvd_decompose",
    "structure_counts",
    "fundamental_subspaces",
    "compact",
    "expand",
    "rq_drilldown",
    "rank_reduce",
    "parameter_count",
    "with_top_convention",
]


@dataclass(frozen=True, eq=False)
class GsvdFactors:
    """Factors of [A; B] = [U C; V S] H plus placement metadata.

    c is descending and s ascending, both in [0, 1] with c_i^2 + s_i^2 = 1.
    Values in the infinite class are snapped to (c, s) = (1, 0) exactly and
    in the zero class to (0, 1) exactly, so structure counts are integers.
    S is one-diagonal: the v_i with s_i > 0 are r_b adjacent columns from
    `v_start`.  In compact format u is m1 x r_a and v is m2 x r_b
    (left-nullspace columns dropped).

    Only the arrays, `v_start` and `compact` are stored.  The counts are
    read off the arrays, so they cannot disagree with them: r is the length
    of c, r_a and r_b the counts of nonzero c_i and s_i, and m1, m2, n the
    row counts of U and V and the column count of H.

    Ties among equal c_i keep the order delivered by the underlying SVD;
    the corresponding U/V blocks are only determined up to rotation within
    the tied subspace, though every derived quantity here is invariant.
    """

    u: np.ndarray
    v: np.ndarray
    c: np.ndarray
    s: np.ndarray
    h: np.ndarray
    v_start: int
    compact: bool = False

    @property
    def r(self) -> int:
        return self.c.size

    @property
    def r_a(self) -> int:
        return int(np.count_nonzero(self.c))

    @property
    def r_b(self) -> int:
        return int(np.count_nonzero(self.s))

    @property
    def m1(self) -> int:
        return self.u.shape[0]

    @property
    def m2(self) -> int:
        return self.v.shape[0]

    @property
    def n(self) -> int:
        return self.h.shape[1]

    @property
    def v_col_of(self) -> np.ndarray:
        """Column of v holding v_i for each index i, -1 where s_i = 0."""
        out = np.full(self.r, -1, dtype=int)
        out[self.n_infinite:] = self.v_start + np.arange(self.r_b)
        return out

    @property
    def n_infinite(self) -> int:
        return self.r - self.r_b

    @property
    def n_finite(self) -> int:
        return self.r_a + self.r_b - self.r

    @property
    def n_zero(self) -> int:
        return self.r - self.r_a

    def theta(self) -> np.ndarray:
        """Angles atan2(s_i, c_i) in [0, pi/2]; the infinity-safe value representation."""
        return np.arctan2(self.s, self.c)

    def cotangents(self) -> np.ndarray:
        """Generalized singular values c_i / s_i, np.inf where s_i = 0."""
        out = np.full(self.r, np.inf)
        nz = self.s > 0
        out[nz] = self.c[nz] / self.s[nz]
        return out

    def c_matrix(self) -> np.ndarray:
        cm = np.zeros((self.u.shape[1], self.r))
        np.fill_diagonal(cm, self.c)
        return cm

    def s_matrix(self) -> np.ndarray:
        rows = self.v.shape[1]
        sm = np.zeros((rows, self.r))
        np.fill_diagonal(sm[self.v_start:, self.n_infinite:], self.s[self.n_infinite:])
        return sm

    def stacked_unit_basis(self) -> np.ndarray:
        """[U C; V S]: orthonormal columns spanning col([A; B])."""
        return np.vstack([self.u_dirs() * self.c, self.v_dirs() * self.s])

    def reconstruct(self) -> np.ndarray:
        """Rebuild the stacked pair [A; B] from the factors."""
        return self.stacked_unit_basis() @ self.h

    def u_dirs(self) -> np.ndarray:
        """u_i per index as one m1 x r matrix, a zero column where c_i = 0; either format."""
        out = np.zeros((self.m1, self.r))
        idx = np.flatnonzero(self.c > 0)
        out[:, idx] = self.u[:, idx]
        return out

    def v_dirs(self) -> np.ndarray:
        """v_i per index as one m2 x r matrix, a zero column where s_i = 0; either format."""
        out = np.zeros((self.m2, self.r))
        out[:, self.n_infinite:] = self.v[:, self.v_start:self.v_start + self.r_b]
        return out


@dataclass(frozen=True)
class CsStructure:
    """Block-column counts of C and S plus the zero-row counts."""

    n_infinite: int
    n_finite: int
    n_zero: int
    zero_rows_c: int
    zero_rows_s: int


@dataclass(frozen=True, eq=False)
class FundamentalBases:
    """Bases for the fundamental subspaces read off the factors.

    col_*/left_null_* and common_null have orthonormal columns; null_a and
    null_b concatenate pseudoinverse columns of H with the common nullspace
    and are linearly independent but not orthonormal.
    """

    col_a: np.ndarray
    col_b: np.ndarray
    left_null_a: np.ndarray
    left_null_b: np.ndarray
    row_ab: np.ndarray
    null_a: np.ndarray
    null_b: np.ndarray
    common_null: np.ndarray


def gsvd_decompose(a, b, tol: Tolerance = Tolerance(), *, compact: bool = False) -> GsvdFactors:
    """Compute the GH-form GSVD of the pair (a, b).

    Route: one pivoted QR of the stacked pair, cut at r, the rank read
    from the stacked singular values, gives [Qa; Qb] R with orthonormal
    columns; an SVD Qa = U C W' yields U and the cosines (singular values
    of an orthonormal-column submatrix lie in [0, 1]); the columns of Qb W
    are then exactly orthogonal with norms s_i, so V comes from one
    Householder QR of those columns, unscaled, taken largest sine first so
    that a column of roundoff (a sine kept by a cut below B's roundoff)
    comes last and spoils no other, whose blocked reflectors, applied to
    a column-rotated identity, give the orthogonal complement followed by
    the columns themselves; H = W' R moved back to the original column
    order.

    Each tall block, with m > n and m >= floor(11 n / 6) rows, is first
    triangularized by one blocked Householder QR, A = Q_A [R_A; 0] or
    B = Q_B [R_B; 0], as LAPACK's GSVD preprocessing and R-SVD do.  The
    stacked singular values, the pivoted QR and the SVD of Qa then take
    the pair with each tall block replaced by its n rows of R, which has
    the singular values of [A; B].  U comes back as Q_A [U_R; 0], or
    Q_A blockdiag(U_R, I) in full format, from the SVD U_R C W' of the R_A
    rows; V is formed in one m2-row buffer for every B, and for a tall B
    Q_B is applied to the whole of it, with no layout of its own: the
    identity's rows past n become Q_B's trailing columns.  The crossover
    is the one LAPACK's dgesdd uses to take a QR before its SVD: below it
    the QR can cost more than it saves.  The singular values that decide
    r_a and r_b are those of the stacked matrix's A and B rows, R_A and
    R_B for a tall block, which agree with the blocks' own to about 1e-15
    relative; the cut stays at the (m1 + m2) x n shape, and sigma_max, and
    so r, is read from the stacked matrix.

    A large pair (m n min(m, n) >= 5 x 10^6 for the m x n stacked matrix
    the stages take, with R in place of each tall block), in a process
    where every BLAS library it has loaded reports one thread, gets a
    one-thread `concurrent.futures.ThreadPoolExecutor` made for the call:
    its thread takes the pivoted QR and then the singular values of the
    stacked matrix's A and B rows, while the caller's thread takes those
    of the stacked pair and the SVD of Qa.  The helper's stages and the
    caller's SVDs run LAPACK without the interpreter lock, so the two
    threads overlap; the singular values are taken through
    `matcore._svdvals` because NumPy's values-only SVD keeps the lock up
    to about 500 columns.  The Householder completions of U and W keep it
    (SciPy's f2py `dgeqrt` and `dgemqrt`).  Every call gets the input it
    gets on one thread, so the factors are the same bit for bit.  An error
    on the helper is raised on the caller's thread.  The pool is shut down
    before the call returns or raises, so nothing is left running and a
    process may fork after it has decomposed.

    Smaller pairs run every stage on the caller's thread, each where its
    result is first read, and so do calls where a BLAS runs more than one
    thread or reports no count (a BLAS other than OpenBLAS, or a platform
    without `dl_iterate_phdr`): the helper and BLAS's own threads would
    contend for the cores, and on a 2-core host with OpenBLAS's default of
    two threads the helper made the 1200/1000 x 800 gate slower than
    the serial route.  So do calls where no thread can be started (as in
    an atexit handler).  The thread counts are read, never set.

    The QR is cut at the SVD rank even where its own diagonal would say
    otherwise, so there is no second route.  H = W' R[:r] has full row
    rank exactly when the leading r x r block of R has a nonzero diagonal,
    and column pivoting guarantees that: |R[r-1, r-1]| is the largest
    column norm of the trailing block R[r-1:, r-1:], whose 2-norm is at
    least sigma_r > 0, so |R[r-1, r-1]| >= sigma_r / sqrt(n - r + 1).  The
    cut drops R[r:, r:], whose norm is at most sqrt(n - r) |R[r, r]|.

    The class sizes (how many c_i snap to 1 or 0) are fixed from the
    numerical ranks of a, b, and the stacked pair so the structure counts
    always agree with independently computed ranks.

    With compact=True the factors come in compact format, equal to
    `compact(gsvd_decompose(a, b))` bit for bit, and the left-nullspace
    completions are never formed: U is the thin SVD of Qa cut to its r_a
    leading columns, so the m1 - r_a columns spanning the left nullspace
    of A are skipped; V is the sine block alone, so the m2 - r_b
    completion columns are skipped.  W is still completed to r x r when
    m1 < r.  Each Q meets the columns compact format keeps (U's first r,
    V's sine block) in a call of their own, in both formats, and the
    completion columns in a second call, a rule `matcore._apply_q` owns.
    """
    if not isinstance(tol, Tolerance):
        raise DomainError(f"tol must be a Tolerance, got {tol!r}")
    return _decompose(as_matrix(a), as_matrix(b), tol, compact=compact)[0]


def _decompose(a: np.ndarray, b: np.ndarray, tol: Tolerance, *, compact: bool = False):
    # gsvd_decompose, also returning the singular values of a it reads r_a
    # from (those of R_A for a tall a), so callers that need them (||A||_2,
    # a cross-check reference) do not factor A again.  Its callers hand it
    # a and b already converted (`as_matrix`, or matrices they computed),
    # which it reads and never writes, so it converts nothing again.
    matcore._check_columns(a, b)
    m1, m2 = a.shape[0], b.shape[0]
    stacked, top, qr_a, qr_b = _stacked(a, b)
    # views of the stacked copy, so the copies gsvd_decompose converted are freed
    a, b = stacked[:top], stacked[top:]

    # The helper's stages; sv_ab is read after the SVD of Qa, where r_a and
    # r_b are first needed.  as_matrix has rejected non-finite entries, so
    # the QR skips SciPy's second scan for them.
    with _helper(stacked.shape) as pool:
        qr = _beside(pool, lambda: scipy.linalg.qr(stacked, mode="economic", pivoting=True,
                                                   check_finite=False))
        sv_ab = _beside(pool, lambda: (matcore._svdvals(a), matcore._svdvals(b)))
        sv_st = matcore._svdvals(stacked)
        cut = tol.cutoff((m1 + m2, a.shape[1]), sv_st[0])
        r = matcore._count_above(sv_st, cut)
        q, rmat, perm = qr()
        qa, qb = q[:top, :r], q[top:, :r]
        u, cos_raw, w = matcore._svd(qa)
        u, w = u if compact else matcore._completed(u), matcore._completed(w)
        if qr_a is not None:
            u, w = _lifted(qr_a, u, w, compact)
        sv_a, sv_b = sv_ab()
    r_a, r_b = matcore._count_above(sv_a, cut), matcore._count_above(sv_b, cut)

    if compact:
        u = u[:, :r_a]
    c = np.zeros(r)
    c[: cos_raw.size] = np.clip(cos_raw, 0.0, 1.0)

    qbw = qb @ w
    s = np.linalg.norm(qbw, axis=0)

    n_inf = r - r_b
    n_zero = r - r_a
    c[:n_inf] = 1.0
    s[:n_inf] = 0.0
    c[r - n_zero:] = 0.0
    s[r - n_zero:] = 1.0
    mid = slice(n_inf, r - n_zero)
    hyp = np.hypot(c[mid], s[mid])
    c[mid] /= hyp
    s[mid] /= hyp

    # The columns are orthogonal up to roundoff; one Householder QR pins
    # them down without mixing directions and supplies the orthogonal
    # complement in the same pass.  They go in unscaled: a positive column
    # scale changes neither Q nor the signs of R's diagonal, so dividing
    # by the sines would move V by roundoff alone.  It takes them largest
    # sine first: a column that is mostly roundoff would otherwise lead and
    # every later column be orthogonalized against it.  V starts as the
    # m2 x m2 identity with its columns rotated left by r_b (its last r_b
    # columns alone in compact format), and the Q, applied to its first
    # `rows` rows (those of b, R_B's n for a triangularized b), gives
    # [complement | Q[:, :r_b]], the sine block then put back in index
    # order.  Only the columns with an entry in those rows meet it; the
    # others are [0; I], which Q_B, applied to every column, turns into
    # its own trailing columns, each Q meeting the sine block in a
    # `matcore._apply_q` call of its own.
    rows, v_start = b.shape[0], 0 if compact else m2 - r_b
    v = np.zeros((m2, v_start + r_b), order="F")
    np.fill_diagonal(v[r_b:, :v_start], 1.0)
    np.fill_diagonal(v[:, v_start:], 1.0)
    sines = slice(v_start, None)
    if r_b:
        qr_s = matcore._householder(qbw[:, n_inf:][:, ::-1])
        matcore._apply_q(qr_s, v[:rows], sines, slice(0, min(v_start, rows - r_b)))
        flip = np.where(np.diag(qr_s[0]) < 0, -1.0, 1.0)
        del qr_s
        v[:rows, sines] = (v[:rows, sines] * flip)[:, ::-1]
    if qr_b is not None:
        matcore._apply_q(qr_b, v, sines, slice(0, v_start))

    h = w.T @ rmat[:r]
    h = h[:, np.argsort(perm)]
    return GsvdFactors(u=u, v=v, c=c, s=s, h=h, v_start=v_start, compact=compact), sv_a


def _stacked(a: np.ndarray, b: np.ndarray):
    # (the stacked matrix the rank and QR stages take, the row count of its
    # a part, the Householder QRs a = Q_A [R_A; 0] and b = Q_B [R_B; 0] or
    # None): each block past dgesdd's own crossover to a QR first stands
    # as its R factor, the others as given.  The stacked matrix has the
    # singular values of [a; b], and the rows of R_A and R_B stand for
    # those of a and b.
    def factored(x):
        m, n = x.shape
        if m > n and m >= 11 * n // 6:
            qr = matcore._householder(x)
            return np.triu(qr[0][:n]), qr
        return x, None

    (top_rows, qr_a), (bottom_rows, qr_b) = factored(a), factored(b)
    return np.vstack([top_rows, bottom_rows]), top_rows.shape[0], qr_a, qr_b


def _lifted(qr_a, u_r: np.ndarray, w: np.ndarray, compact: bool):
    # (U, W) for a triangularized a, from the oriented SVD Qa = U_R C W' of
    # the R_A rows: U = Q_A [U_R; 0] (m1 x r) compact, Q_A blockdiag(U_R, I)
    # (m1 x m1) full, oriented by its own leading entries with W's columns
    # flipped in tandem, as `matcore._svd` orients an SVD of the m1 rows.
    m1, n = qr_a[0].shape
    r = w.shape[0]
    u = np.zeros((m1, r if compact else m1), order="F")
    u[:n, :u_r.shape[1]] = u_r
    np.fill_diagonal(u[n:, n:], 1.0)
    matcore._apply_q(qr_a, u, slice(0, r), slice(r, None))
    signs = matcore._leading_signs(u)
    u *= signs
    return u, w * signs[:r]


# An m x n stacked pair with m * n * min(m, n) below this, the order of
# the flops of its QR and of each singular-value pass, decomposes on the
# caller's thread alone.  Starting the helper costs 0.5-1 ms.  On a
# 2-core host with one BLAS thread (best of 15 in two alternating rounds)
# and the second core idle, the overlapped route took 0.58 to 0.68 times
# the serial time from 4.8e7 to 1.4e9, but it is not a gain everywhere
# below: from 7.9e6 to 2.6e7 a mixed 0.67 to 1.07, with the three pairs
# 200 wide (1.6e7 to 2.2e7, one of them 2000/199 x 200) at 1.02 to 1.07,
# and from 2.5e5 to 2.5e6 a mixed 0.73 to 1.08.  With a busy loop on the
# second core it took 0.78 to 0.87 times it from 1e6 to 1.4e9.
_HELPER_MIN_WORK = 5 * 10**6


def _helper(shape):
    # A one-thread pool for a pair at or above _HELPER_MIN_WORK when every
    # BLAS the process has loaded reports one thread, else a context
    # holding None: with multi-threaded BLAS the helper and BLAS's own
    # threads contend for the cores.  The pool is made per call and shut
    # down on leaving its `with`, never kept at module level: a kept thread
    # does not survive a fork, and a forked child's decomposition would
    # wait on it forever.
    m, n = shape
    if m * n * min(m, n) < _HELPER_MIN_WORK or _blas_threads() != 1:
        return contextlib.nullcontext()
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="gsvd-helper")


# File-name prefixes of the BLAS libraries a process can load (NumPy's and
# SciPy's wheels each bundle a scipy_openblas), and the names OpenBLAS
# builds give the function returning their thread count.
_BLAS_PREFIXES = (b"libopenblas", b"libscipy_openblas", b"libmkl_rt", b"libblis",
                  b"libflexiblas")
_OPENBLAS_THREADS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


class _DlPhdrInfo(ctypes.Structure):
    # The leading fields of the C library's struct dl_phdr_info.
    _fields_ = [("dlpi_addr", ctypes.c_void_p), ("dlpi_name", ctypes.c_char_p)]


_PHDR_VISITOR = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.POINTER(_DlPhdrInfo), ctypes.c_size_t,
                                 ctypes.c_void_p)


def _blas_threads():
    # The largest thread count among the BLAS libraries this process has
    # loaded, or None when none is found or one count cannot be read (a
    # BLAS other than OpenBLAS, or a platform without dl_iterate_phdr).
    # The technique is threadpoolctl's (https://github.com/joblib/threadpoolctl):
    # list the loaded shared objects, keep the BLAS ones by file name and
    # ask each through ctypes.  RTLD_NOLOAD opens only a library already
    # loaded, and no count is set.  About 0.1 ms, paid only by pairs large
    # enough for the helper.
    iterate = getattr(ctypes.CDLL(None), "dl_iterate_phdr", None) if os.name == "posix" else None
    if iterate is None:
        return None
    names = []

    def visit(info, size, data):
        names.append(info[0].dlpi_name)
        return 0

    visitor = _PHDR_VISITOR(visit)
    iterate.argtypes, iterate.restype = [_PHDR_VISITOR, ctypes.c_void_p], ctypes.c_int
    iterate(visitor, None)
    counts = []
    for path in [x for x in names if x and x.rpartition(b"/")[2].startswith(_BLAS_PREFIXES)]:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:  # no longer loaded
            return None
        get = next((getattr(lib, f) for f in _OPENBLAS_THREADS if hasattr(lib, f)), None)
        if get is None:
            return None
        get.argtypes, get.restype = [], ctypes.c_int
        counts.append(get())
    return max(counts, default=None)


def _beside(pool, stage):
    # A callable giving stage's result, or raising its error: its Future's
    # `result`, or stage itself, run where it is read, when there is no
    # pool or no thread can start (past the thread limit, or in an atexit
    # handler, submit raises RuntimeError).
    if pool is not None:
        try:
            return pool.submit(stage).result
        except RuntimeError:
            pass
    return stage


def _ranks(a: np.ndarray, b: np.ndarray, tol: Tolerance):
    # (r, r_a, r_b) for the pair, decided as `gsvd_decompose` decides them:
    # from the singular values of the same stacked matrix and of its a and
    # b rows, R_A and R_B for a tall block.
    stacked, top = _stacked(a, b)[:2]
    sv_st = matcore._svdvals(stacked)
    cut = tol.cutoff((a.shape[0] + b.shape[0], a.shape[1]), sv_st[0])
    return tuple(matcore._count_above(sv, cut) for sv in (
        sv_st, matcore._svdvals(stacked[:top]), matcore._svdvals(stacked[top:])))


def structure_counts(f: GsvdFactors) -> CsStructure:
    """Block-column and zero-row counts determined by (r, r_a, r_b)."""
    matcore._check_type(f, GsvdFactors)
    return CsStructure(
        n_infinite=f.n_infinite,
        n_finite=f.n_finite,
        n_zero=f.n_zero,
        zero_rows_c=f.m1 - f.r_a,
        zero_rows_s=f.m2 - f.r_b,
    )


def fundamental_subspaces(f: GsvdFactors, a, b) -> FundamentalBases:
    """Extract bases for the fundamental subspaces of (a, b) from the factors.

    Column spaces and left nullspaces come from splitting the columns of U
    at the zero columns of C, and those of V into the sine block from
    `v_start` and the rest, so either convention gives the same bases.
    Nullspaces combine columns of H^+ (where C or S has a zero column),
    taken at the rank r of the factors, with the common nullspace, which is
    null(H), read from the RQ drilldown.
    """
    matcore._check_type(f, GsvdFactors)
    if f.compact:
        raise DimensionMismatch("fundamental_subspaces needs full-format factors")
    _check_pair(f, a, b)
    col_a = f.u[:, : f.r_a]
    left_null_a = f.u[:, f.r_a:]
    col_b, left_null_b = _v_split(f)
    common_null = rq_drilldown(f)[1][:, : f.n - f.r]
    hdag = _h_pinv(f)
    null_a = np.hstack([hdag[:, f.c == 0], common_null])
    null_b = np.hstack([hdag[:, f.s == 0], common_null])
    return FundamentalBases(
        col_a=col_a, col_b=col_b,
        left_null_a=left_null_a, left_null_b=left_null_b,
        row_ab=f.h.copy(),
        null_a=null_a, null_b=null_b,
        common_null=common_null,
    )


def compact(f: GsvdFactors) -> GsvdFactors:
    """Drop the zero rows of C and S and the matching columns of U and V.

    Keeps the column-space bases and the reconstruction property; the
    left-nullspace bases are gone.  V keeps its sine block, the v_i in index
    order, so either convention compacts to the same factors.  Idempotent.
    """
    matcore._check_type(f, GsvdFactors)
    if f.compact:
        return f
    return dataclasses.replace(f, u=f.u[:, : f.r_a], v=f.v[:, f.v_start:f.v_start + f.r_b],
                               v_start=0, compact=True)


def _v_split(f: GsvdFactors):
    # (sine block, remaining columns) of f.v: the v_i for s_i > 0 in index
    # order, then the rest in their order.
    block = slice(f.v_start, f.v_start + f.r_b)
    return f.v[:, block], np.delete(f.v, block, axis=1)


def _h_pinv(f: GsvdFactors) -> np.ndarray:
    # H^+ kept to r terms: H has full row rank r by construction, so no
    # second rank decision is made on it.
    return matcore._svd_pinv(*matcore._svd(f.h), f.r)


def expand(f: GsvdFactors):
    """Expanded format: (C_exp, S_exp, H_exp) with H_exp square nonsingular.

    C and S gain n - r zero columns; H gains n - r rows from the orthonormal
    basis of null(H) that `rq_drilldown` reads off, which makes H_exp
    invertible without touching the reconstruction
    [A; B] = [U C_exp; V S_exp] H_exp.  The r of the factors is the only
    rank decision, so H_exp is n x n at every tolerance.
    """
    matcore._check_type(f, GsvdFactors)
    pad = f.n - f.r
    c_exp = np.hstack([f.c_matrix(), np.zeros((f.u.shape[1], pad))])
    s_exp = np.hstack([f.s_matrix(), np.zeros((f.v.shape[1], pad))])
    if pad == 0:
        return c_exp, s_exp, f.h.copy()
    null_h = rq_drilldown(f)[1][:, :pad]
    return c_exp, s_exp, np.vstack([f.h, null_h.T])


def rq_drilldown(f: GsvdFactors):
    """Write H = [0 R] Q' with R upper triangular r x r and Q orthogonal n x n.

    The first n - r columns of Q are an orthonormal basis for the common
    nullspace of A and B.  Signs are normalized (R diagonal nonnegative,
    leading entries of the nullspace columns nonnegative) for determinism.
    """
    matcore._check_type(f, GsvdFactors)
    rfac, qfac = scipy.linalg.rq(f.h, mode="full")
    k = f.n - f.r
    t = rfac[:, k:]
    q = qfac.T
    r_signs = np.where(np.diag(t) < 0, -1.0, 1.0)
    signs = np.concatenate([matcore._leading_signs(q[:, :k]), r_signs])
    return t * r_signs, q * signs


def rank_reduce(f: GsvdFactors, a, b, k: int):
    """Keep the first k outer-product terms of [A; B] = sum_i g_i h_i'.

    g_i = [u_i c_i; v_i s_i] is column i of [U C; V S].  Returns the
    rank-<=k pair (A_k, B_k), the partial sum of those terms; it equals
    multiplying [A; B] on the right by the oblique projector
    H^+ I_{r,k} I_{r,k}' H.  k = r rebuilds the pair and k = 0 gives zeros.
    """
    matcore._check_type(f, GsvdFactors)
    _check_pair(f, a, b)
    if not matcore._is_integer(k) or not 0 <= k <= f.r:
        raise RankOutOfRange(f"k must be an integer in [0, {f.r}], got {k!r}")
    approx = f.stacked_unit_basis()[:, :k] @ f.h[:k, :]
    return approx[: f.m1], approx[f.m1:]


def _check_pair(f: GsvdFactors, a, b):
    # (A, B) as matrices, or DimensionMismatch unless they have the shapes
    # the factors were taken of.
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != (f.m1, f.n) or b.shape != (f.m2, f.n):
        raise DimensionMismatch(
            f"A is {a.shape[0]}x{a.shape[1]} and B is {b.shape[0]}x{b.shape[1]}, "
            f"but the factors are of a {f.m1}x{f.n} and {f.m2}x{f.n} pair"
        )
    return a, b


def parameter_count(m1: int, m2: int, n: int, r: int) -> dict:
    """Degree-of-freedom table for the factored form of an m x n rank-r pair.

    Splits the m*n parameters of [A; B] (m = m1 + m2) into blocks; with
    k = min(r, m1, m2, m - r) nondegenerate angles, hi = max(m1, m2) and
    t = min(r, hi) they are

        rank_codim  (m - r)(n - r)            rank-r matrices in m x n
        h           r n                       the coordinates H
        angles      k                         the angles strictly in (0, pi/2)
        u_stiefel   (m1 - k) k + k (k - 1)/2  the k cosine axes u_i
        v_stiefel   (m2 - k) k + k (k - 1)/2  the k sine axes v_i
        grassmann   (t - k)(hi - t)           the longer block's t - k column
                                              directions beyond the u_i or v_i

    and the total is always m*n.  A and B generically have ranks min(m1, r)
    and min(m2, r).  `regime` names where r falls relative to m1 and m2.
    """
    for name, val in (("m1", m1), ("m2", m2), ("n", n), ("r", r)):
        if not matcore._is_integer(val) or (val < 1 and name != "r"):
            raise InvalidDimensions(f"{name} must be a positive integer, got {val!r}")
    if not 0 < r <= min(m1 + m2, n):
        raise InvalidDimensions(
            f"need 0 < r <= min(m1 + m2, n) = {min(m1 + m2, n)}, got r = {r}"
        )
    m = m1 + m2
    k = min(r, m1, m2, m - r)
    hi = max(m1, m2)
    t = min(r, hi)
    if r <= min(m1, m2):
        regime = "r <= min(m1, m2)"
    elif r <= hi:
        regime = "min(m1, m2) <= r <= max(m1, m2)"
    else:
        regime = "max(m1, m2) <= r"
    counts = {
        "regime": regime,
        "rank_codim": (m - r) * (n - r),
        "h": r * n,
        "angles": k,
        "u_stiefel": (m1 - k) * k + k * (k - 1) // 2,
        "v_stiefel": (m2 - k) * k + k * (k - 1) // 2,
        "grassmann": (t - k) * (hi - t),
        "r_a_generic": min(m1, r),
        "r_b_generic": min(m2, r),
    }
    counts["total"] = (
        counts["rank_codim"] + counts["h"] + counts["angles"]
        + counts["u_stiefel"] + counts["v_stiefel"] + counts["grassmann"]
    )
    if counts["total"] != m * n:
        raise AssertionError("parameter count failed to total m*n")
    return counts


def with_top_convention(f: GsvdFactors) -> GsvdFactors:
    """Re-express V with the nonzero-sine columns on the left (top-aligned S).

    The sine block is moved ahead of the remaining columns, so any layout
    in, full or compact, gives the top layout out, and applying it twice
    changes nothing.
    """
    matcore._check_type(f, GsvdFactors)
    return dataclasses.replace(f, v=np.hstack(_v_split(f)), v_start=0)
