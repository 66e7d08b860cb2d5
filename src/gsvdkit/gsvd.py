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

import dataclasses
import queue
import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import matcore
from .errors import DimensionMismatch, InvalidDimensions, RankOutOfRange
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
        rows = self.u.shape[1]
        cm = np.zeros((rows, self.r))
        k = min(rows, self.r)
        cm[np.arange(k), np.arange(k)] = self.c[:k]
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
    Householder QR of the normalized columns, whose blocked reflectors,
    applied to a column-rotated identity, give the orthogonal complement
    followed by the columns themselves; H = W' R moved back to the
    original column order.  A large pair (m n min(m, n) >= 10^7 for the
    m x n stacked matrix) starts one helper thread for the call: it takes
    the pivoted QR and then the singular values of a and b, while the
    caller's thread takes those of the stacked pair and the SVD of Qa.
    LAPACK runs without the interpreter lock and every call gets the
    input it gets on one thread, so the factors are the same bit for bit;
    with multi-threaded BLAS the two threads share its cores.  The thread
    is joined before the call returns or raises; where none can be
    started, as in an atexit handler from Python 3.12, the caller's
    thread does all the work.

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
    `compact(gsvd_decompose(a, b))`, and the left-nullspace completions
    are never formed: U is the thin SVD of Qa cut to its r_a leading
    columns, so the m1 - r_a columns spanning the left nullspace of A are
    skipped; V is the Householder Q applied to [I_rb; 0] only (m2 x r_b),
    so the m2 - r_b completion columns are skipped.  W is still completed
    to r x r when m1 < r.  U, C, S, H and the ranks match the full route
    bit for bit; V can differ by roundoff, since the blocked reflectors
    meet a narrower right-hand side.
    """
    return _decompose(a, b, tol, compact=compact)[0]


def _decompose(a, b, tol: Tolerance, *, compact: bool = False):
    # gsvd_decompose, also returning the singular values of a it reads r_a
    # from, so callers that need them (||A||_2, a cross-check reference) do
    # not factor A again.
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(
            f"column counts differ: A has {a.shape[1]}, B has {b.shape[1]}"
        )
    m1, m2 = a.shape[0], b.shape[0]
    stacked = np.vstack([a, b])
    # views of the stacked copy, so the validated copies are freed
    a, b = stacked[:m1], stacked[m1:]

    # The helper takes the pivoted QR while this thread reads r off the
    # stacked singular values, then the singular values of a and b while
    # this thread takes the SVD of Qa; r_a and r_b are first needed after
    # it.  Without a helper thread its work runs here once r is known.
    outcomes = queue.SimpleQueue()

    def helper():
        for stage in (lambda: scipy.linalg.qr(stacked, mode="economic", pivoting=True),
                      lambda: (matcore._svdvals(a), matcore._svdvals(b))):
            outcomes.put(_outcome(stage))

    thread = _start_beside(helper, stacked.shape)
    try:
        sv_st = matcore._svdvals(stacked)
        cut = _rank_cutoff(sv_st, stacked.shape, tol)
        r = _count_above(sv_st, cut)
        if thread is None:
            helper()
        q, rmat, perm = _result(outcomes)
        qa, qb = q[:m1, :r], q[m1:, :r]
        u, cos_raw, w = matcore._svd(qa, complete_u=not compact, complete_v=True)
        sv_a, sv_b = _result(outcomes)
    finally:
        if thread is not None:
            thread.join()
    r_a, r_b = _count_above(sv_a, cut), _count_above(sv_b, cut)

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

    # The normalized columns are orthonormal up to roundoff; one Householder
    # QR pins them down without reordering or mixing directions and
    # supplies the orthogonal complement in the same pass.  Applying its Q
    # to the identity with columns rotated left by r_b gives
    # V = [complement | Q[:, :r_b]] directly; the compact route applies it
    # to [I_rb; 0] alone.
    skip = 0 if compact else m2 - r_b
    denom = np.where(s[n_inf:] > 0, s[n_inf:], 1.0)
    rhs = np.zeros((m2, skip + r_b), order="F")
    np.fill_diagonal(rhs[r_b:, :skip], 1.0)
    np.fill_diagonal(rhs[:, skip:], 1.0)
    v, diag_r = matcore._qr_apply(qbw[:, n_inf:] / denom, rhs)
    v[:, skip:] *= np.where(diag_r < 0, -1.0, 1.0)

    h = w.T @ rmat[:r]
    h = h[:, np.argsort(perm)]

    return GsvdFactors(u=u, v=v, c=c, s=s, h=h, v_start=skip, compact=compact), sv_a


# An m x n stacked pair with m * n * min(m, n) below this, the order of
# the flops of its QR and of each singular-value pass, decomposes on the
# caller's thread alone.  Starting the helper costs 0.5-1 ms.  With one
# BLAS thread the overlapped route took 1.5 to 2.8 times the serial time
# up to 60/40 x 50 (2.5e5) and 0.8 to 1.1 times it, with no steady gain,
# from 5e5 to 9e6; from 1.5e7 up it took 0.7 to 0.9 times it with the
# second core idle, and 0.9 to 1.0 times it with that core busy.
_HELPER_MIN_WORK = 10**7


def _start_beside(fn, shape):
    # fn started on a new thread, and that thread; None, with fn not run,
    # below the size cut for a stacked matrix of this shape or where no
    # thread can be started (from an atexit handler, or past the process's
    # thread limit).  The thread is made per call, never kept at module
    # level: a kept thread does not survive a fork, and a forked child's
    # decomposition would wait on it forever.
    m, n = shape
    if m * n * min(m, n) < _HELPER_MIN_WORK:
        return None
    thread = threading.Thread(target=fn, name="gsvd-helper")
    try:
        thread.start()
    except RuntimeError:
        return None
    return thread


def _outcome(fn):
    # (fn's result, None), or (None, whatever fn raised): `_result` raises
    # it again on the caller's thread, and a helper that let it escape
    # would leave the caller waiting forever.
    try:
        return fn(), None
    except BaseException as exc:
        return None, exc


def _result(outcomes: queue.SimpleQueue):
    # The next outcome's result, waiting for it; its error is raised here.
    value, error = outcomes.get()
    if error is not None:
        raise error
    return value


def _rank_cutoff(sv_stacked: np.ndarray, shape, tol: Tolerance) -> float:
    # The one cutoff that serves all three rank decisions, anchored at the
    # scale of the stacked pair of this shape with singular values
    # sv_stacked: a block that is pure roundoff relative to the other is
    # rank zero here even though it is "full rank" at its own scale.
    return tol.cutoff(shape, sv_stacked[0])


def _count_above(sv: np.ndarray, cut: float) -> int:
    return int(np.count_nonzero(sv > cut))


def _ranks(a: np.ndarray, b: np.ndarray, stacked: np.ndarray, tol: Tolerance):
    # (r, r_a, r_b) for the pair and its stacked matrix [a; b], decided as
    # `gsvd_decompose` decides them.
    sv_st = matcore._svdvals(stacked)
    cut = _rank_cutoff(sv_st, stacked.shape, tol)
    return tuple(_count_above(sv, cut)
                 for sv in (sv_st, matcore._svdvals(a), matcore._svdvals(b)))


def structure_counts(f: GsvdFactors) -> CsStructure:
    """Block-column and zero-row counts determined by (r, r_a, r_b)."""
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
    return dataclasses.replace(f, v=np.hstack(_v_split(f)), v_start=0)
