"""Matrix trigonometry and the projector-corrected quotient relation.

The finite nonzero generalized singular values of (A, B) equal the nonzero
singular values of P A B^+, where P projects onto the left nullspace of
A N and N spans null(B).  Without P the relation fails exactly when B is
rank deficient relative to the stacked pair (r_b < r), i.e. when infinite
generalized values exist.  The projector makes no rank decision of its
own: N is cut at the factors' r_b and A N has rank r - r_b, the count of
c_i = 1, so B's rank is judged once, by the GSVD, at the stacked pair's
scale.  This module computes the trigonometry table,
the projector, the three value lists side by side, and the limit curves
that approach infinite values through finite ones.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidDimensions,
    NeedsAugmentation,
    NoAugmentationNeeded,
    NumericalCheckFailed,
)
from .gsvd import GsvdFactors, _check_pair, _decompose, _h_pinv, _v_split
from .matcore import Tolerance, as_matrix

__all__ = [
    "TrigRow",
    "TrigTable",
    "HorizontalProjector",
    "LimitCurve",
    "trig_table",
    "horizontal_projector",
    "quotient_check",
    "limit_curve",
    "augment_rows",
]


@dataclass(frozen=True, eq=False)
class TrigRow:
    name: str
    applicable: bool
    expected: np.ndarray | None = None
    computed: np.ndarray | None = None
    max_dev: float | None = None
    note: str = ""


@dataclass(frozen=True, eq=False)
class TrigTable:
    rows: tuple[TrigRow, ...]

    def row(self, name: str) -> TrigRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)


@dataclass(frozen=True, eq=False)
class HorizontalProjector:
    """Symmetric idempotent P killing the horizontal directions u_i (c_i = 1)."""

    p: np.ndarray
    kept_dim: int


@dataclass(frozen=True, eq=False)
class LimitCurve:
    """A nearby pair with the same shape and rank but no infinite values."""

    epsilon: float
    a_eps: np.ndarray
    b_eps: np.ndarray


def _compare(expected: np.ndarray, computed: np.ndarray) -> float:
    # Sorted descending, zero padded to a common length; set comparison.
    k = max(expected.size, computed.size)
    e = np.zeros(k)
    g = np.zeros(k)
    e[: expected.size] = np.sort(expected)[::-1]
    g[: computed.size] = np.sort(computed)[::-1]
    return float(np.max(np.abs(e - g))) if k else 0.0


def trig_table(f: GsvdFactors, a, b) -> TrigTable:
    """Check the four trigonometric value identities against the factors.

    cos: svd(A H^+) against the cosines, sin: svd(B H^+) against the sines,
    tan: svd(B A^+) against the tangents when r = r_a, cot: svd(A B^+)
    against the cotangents when r = r_b.  Rows whose rank condition fails
    are reported as not applicable rather than compared.  H^+, A^+ and B^+
    are cut at the factors' r, r_a and r_b, so no rank is judged again at
    a block's own scale.
    """
    matcore._check_type(f, GsvdFactors)
    a, b = _check_pair(f, a, b)
    hdag = _h_pinv(f)
    rows = []
    for name, x, values in (("cos", a, f.c), ("sin", b, f.s)):
        sv = matcore._svdvals(x @ hdag)
        rows.append(TrigRow(name, True, values.copy(), sv, _compare(values, sv)))

    # name, X, Y, Y's rank: svd(X Y^+) against top / bottom where bottom > 0
    for name, x, y, rank_name, rank, top, bottom in (
            ("tan", b, a, "r_a", f.r_a, f.s, f.c), ("cot", a, b, "r_b", f.r_b, f.c, f.s)):
        if f.r != rank:
            rows.append(TrigRow(name, False, note=(
                f"needs r = {rank_name}, have r = {f.r}, {rank_name} = {rank}")))
            continue
        sv = matcore._svdvals(x @ matcore._svd_pinv(*matcore._svd(y), rank))
        values = top[bottom > 0] / bottom[bottom > 0]
        rows.append(TrigRow(name, True, values, sv, _compare(values, sv)))

    return TrigTable(rows=tuple(rows))


def horizontal_projector(f: GsvdFactors, a, b) -> HorizontalProjector:
    """Orthogonal projector onto the left nullspace of A N, N spanning null(B).

    Equivalently P fixes every u_i with c_i < 1 and kills the u_i with
    c_i = 1; both constructions are computed and must agree.  Both take
    their ranks from the factors, N as the trailing n - r_b right singular
    vectors of B and A N at rank r - r_b, so the check guards the factors.
    """
    matcore._check_type(f, GsvdFactors)
    a, b = _check_pair(f, a, b)
    return _projector(f, a, matcore._completed(matcore._svd(b)[2])[:, f.r_b:])


def _projector(f: GsvdFactors, a: np.ndarray, nb: np.ndarray) -> HorizontalProjector:
    # horizontal_projector given an orthonormal basis nb of null(B); A N has
    # rank r - r_b, the count of c_i = 1, by the structure of the factors
    m1 = f.m1
    k = f.n_infinite
    if k == 0:
        p = np.eye(m1)
    else:
        qan = matcore._svd(a @ nb)[0][:, :k]
        p = np.eye(m1) - qan @ qan.T

    # the c_i = 1 columns lead U in either format
    u1 = f.u[:, :k]
    p_from_u = np.eye(m1) - u1 @ u1.T
    dev = float(np.linalg.norm(p - p_from_u))
    if dev > 1e-10:
        raise NumericalCheckFailed(
            "projector constructions via null(B) and via the c_i = 1 columns "
            f"differ by {dev:.2e} > 1e-10"
        )
    return HorizontalProjector(p=p, kept_dim=m1 - k)


def quotient_check(a, b):
    """Return (finite nonzero cotangents, nonzero svd(P A B^+), nonzero svd(A B^+)).

    The first two lists agree; the third exhibits the discrepancy whenever
    r_b < r.  All lists are sorted descending.  The GSVD is taken at the
    default tolerance and B^+ and null(B) are cut at its r_b, so B's rank
    is decided once, at the stacked pair's scale; a singular value counts
    as nonzero above the noise floor eps max(m1, m2, n) ||A||_2 ||B^+||_2.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    # A's singular values from the GSVD give ||A||_2; B is factored twice,
    # for its singular values inside the GSVD and here for null(B) and B^+
    f, sv_a = _decompose(a, b, Tolerance(), compact=True)
    a_norm = float(sv_a[0])
    ub, sv_b, vb = matcore._svd(b)
    vb = matcore._completed(vb)
    proj = _projector(f, a, vb[:, f.r_b:])
    abdag = a @ matcore._svd_pinv(ub, sv_b, vb, f.r_b)
    # entries of A B^+ carry absolute noise ~ eps ||A|| ||B^+||; singular
    # values below that floor are indistinguishable from zero.  Both
    # products have norm at most ||A|| ||B^+||, so a relative cutoff at
    # their shape never rises above the floor.
    bdag_norm = 1.0 / sv_b[f.r_b - 1] if f.r_b else 0.0
    floor = matcore.EPS * max(max(a.shape), max(b.shape)) * a_norm * bdag_norm
    sv_ab = matcore._svdvals(abdag)
    sv_pab = matcore._svdvals(proj.p @ abdag)
    gsv = np.sort(f.cotangents()[(f.s > 0) & (f.c > 0)])[::-1]
    return gsv, sv_pab[sv_pab > floor], sv_ab[sv_ab > floor]


def limit_curve(f: GsvdFactors, epsilon: float) -> LimitCurve:
    """Replace each (c, s) = (1, 0) pair by (cos eps, sin eps) and rebuild.

    The resulting pair [A_eps; B_eps] = [U C(eps); V S(eps)] H has the same
    rank and no infinite generalized values; as eps -> 0 the finite values
    are held fixed and the formerly infinite ones behave as cot(eps).
    Needs m2 >= r so the sine diagonal has room for r nonzero entries.
    V is rebuilt as [remaining columns | sine block] and the r sines take
    its last r columns, so either convention gives the same pair.
    """
    matcore._check_type(f, GsvdFactors)
    eps = matcore._as_real(epsilon)
    if not 0.0 < eps < np.pi / 4:
        raise DomainError(f"epsilon must lie in (0, pi/4), got {epsilon!r}")
    if f.compact:
        raise DimensionMismatch("limit_curve needs full-format factors")
    if f.m2 < f.r:
        raise NeedsAugmentation(
            f"m2 = {f.m2} < r = {f.r}; zero-pad B with augment_rows first"
        )
    zero_s = f.s == 0
    sine, rest = _v_split(f)
    stacked = dataclasses.replace(
        f,
        v=np.hstack([rest, sine]),
        c=np.where(zero_s, np.cos(eps), f.c),
        s=np.where(zero_s, np.sin(eps), f.s),
        v_start=f.m2 - f.r,
    ).reconstruct()
    a_eps, b_eps = stacked[: f.m1], stacked[f.m1:]
    return LimitCurve(epsilon=eps, a_eps=a_eps, b_eps=b_eps)


def augment_rows(b, r: int) -> np.ndarray:
    """Zero-pad B to r rows; gsvd values, U, C, and H are unaffected."""
    b = as_matrix(b)
    if not matcore._is_integer(r):
        raise InvalidDimensions(f"r must be an integer, got {r!r}")
    if r <= b.shape[0]:
        raise NoAugmentationNeeded(f"B already has {b.shape[0]} >= {r} rows")
    return np.vstack([b, np.zeros((r - b.shape[0], b.shape[1]))])
