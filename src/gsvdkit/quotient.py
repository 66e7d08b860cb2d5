"""Matrix trigonometry and the projector-corrected quotient relation.

The finite nonzero generalized singular values of (A, B) equal the nonzero
singular values of P A B^+, where P projects onto the left nullspace of
A N and N spans null(B).  Without P the relation fails exactly when B is
rank deficient relative to the stacked pair (r_b < r), i.e. when infinite
generalized values exist.  This module computes the trigonometry table,
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


def trig_table(f: GsvdFactors, a, b, tol: Tolerance = Tolerance()) -> TrigTable:
    """Check the four trigonometric value identities against the factors.

    cos: svd(A H^+) against the cosines, sin: svd(B H^+) against the sines,
    tan: svd(B A^+) against the tangents when r = r_a, cot: svd(A B^+)
    against the cotangents when r = r_b.  Rows whose rank condition fails
    are reported as not applicable rather than compared.  H^+ is taken at
    the rank r of the factors.
    """
    a, b = _check_pair(f, a, b)
    hdag = _h_pinv(f)
    rows = []

    cos_sv = matcore._svdvals(a @ hdag)
    sin_sv = matcore._svdvals(b @ hdag)
    rows.append(TrigRow("cos", True, f.c.copy(), cos_sv, _compare(f.c, cos_sv)))
    rows.append(TrigRow("sin", True, f.s.copy(), sin_sv, _compare(f.s, sin_sv)))

    if f.r == f.r_a:
        tan_sv = matcore._svdvals(b @ matcore.pinv(a, tol))
        tans = f.s[f.c > 0] / f.c[f.c > 0]
        rows.append(TrigRow("tan", True, tans, tan_sv, _compare(tans, tan_sv)))
    else:
        rows.append(TrigRow("tan", False, note=f"needs r = r_a, have r = {f.r}, r_a = {f.r_a}"))

    if f.r == f.r_b:
        cot_sv = matcore._svdvals(a @ matcore.pinv(b, tol))
        cots = f.c[f.s > 0] / f.s[f.s > 0]
        rows.append(TrigRow("cot", True, cots, cot_sv, _compare(cots, cot_sv)))
    else:
        rows.append(TrigRow("cot", False, note=f"needs r = r_b, have r = {f.r}, r_b = {f.r_b}"))

    return TrigTable(rows=tuple(rows))


def horizontal_projector(f: GsvdFactors, a, b, tol: Tolerance = Tolerance()) -> HorizontalProjector:
    """Orthogonal projector onto the left nullspace of A N, N spanning null(B).

    Equivalently P fixes every u_i with c_i < 1 and kills the u_i with
    c_i = 1; both constructions are computed and must agree, which guards
    the rank decisions behind the factors.
    """
    a, b = _check_pair(f, a, b)
    nb = matcore.nullspace_basis(b, tol)
    a_norm = float(matcore._svdvals(a)[0]) if nb.shape[1] else 0.0
    return _projector(f, a, a_norm, nb, tol)


def _projector(f: GsvdFactors, a: np.ndarray, a_norm: float, nb: np.ndarray,
               tol: Tolerance) -> HorizontalProjector:
    # horizontal_projector given ||A||_2 and an orthonormal basis nb of null(B)
    m1 = f.m1
    if nb.shape[1] == 0:
        p = np.eye(m1)
        kept = m1
    else:
        # N has unit columns, so sigma(AN) <= sigma_max(A): judge which
        # directions are real against A's scale, not AN's own
        uan, sv, _ = matcore._svd(a @ nb)
        k = int(np.count_nonzero(sv > tol.cutoff(a.shape, a_norm)))
        qan = uan[:, :k]
        p = np.eye(m1) - qan @ qan.T
        kept = m1 - k

    # the c_i = 1 columns lead U in either format
    u1 = f.u[:, : f.n_infinite]
    p_from_u = np.eye(m1) - u1 @ u1.T
    dev = float(np.linalg.norm(p - p_from_u))
    if dev > 1e-10:
        raise NumericalCheckFailed(
            "projector constructions via null(B) and via the c_i = 1 columns "
            f"differ by {dev:.2e} > 1e-10"
        )
    return HorizontalProjector(p=p, kept_dim=kept)


def quotient_check(a, b, tol: Tolerance = Tolerance()):
    """Return (finite nonzero cotangents, nonzero svd(P A B^+), nonzero svd(A B^+)).

    The first two lists agree; the third exhibits the discrepancy whenever
    r_b < r.  All lists are sorted descending.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(
            f"column counts differ: A has {a.shape[1]}, B has {b.shape[1]}"
        )
    # one factorization of each input serves the GSVD, the projector and A B^+
    f, sv_a = _decompose(a, b, tol, compact=True)
    a_norm = float(sv_a[0])
    ub, sv_b, vb = matcore._svd(b, complete_v=True)
    k_b = matcore._rank_of(sv_b, b.shape, tol)
    proj = _projector(f, a, a_norm, vb[:, k_b:], tol)
    abdag = a @ matcore._svd_pinv(ub, sv_b, vb, k_b)
    # entries of A B^+ carry absolute noise ~ eps ||A|| ||B^+||; singular
    # values below that floor are indistinguishable from zero
    bdag_norm = 1.0 / sv_b[k_b - 1] if k_b else 0.0
    floor = matcore.EPS * max(max(a.shape), max(b.shape)) * a_norm * bdag_norm
    sv_ab = _nonzero(matcore._svdvals(abdag), abdag.shape, tol, floor)
    pab = proj.p @ abdag
    sv_pab = _nonzero(matcore._svdvals(pab), pab.shape, tol, floor)
    finite = (f.s > 0) & (f.c > 0)
    gsv = np.sort(f.c[finite] / f.s[finite])[::-1]
    return gsv, sv_pab, sv_ab


def _nonzero(sv: np.ndarray, shape, tol: Tolerance, floor: float = 0.0) -> np.ndarray:
    if sv.size == 0 or sv[0] <= 0.0:
        return np.zeros(0)
    return sv[sv > max(tol.cutoff(shape, sv[0]), floor)]


def limit_curve(f: GsvdFactors, epsilon: float) -> LimitCurve:
    """Replace each (c, s) = (1, 0) pair by (cos eps, sin eps) and rebuild.

    The resulting pair [A_eps; B_eps] = [U C(eps); V S(eps)] H has the same
    rank and no infinite generalized values; as eps -> 0 the finite values
    are held fixed and the formerly infinite ones behave as cot(eps).
    Needs m2 >= r so the sine diagonal has room for r nonzero entries.
    V is rebuilt as [remaining columns | v_i] from `v_col_of` and the r
    sines take its last r columns, so either convention gives the same pair.
    """
    if not 0.0 < epsilon < np.pi / 4:
        raise ValueError(f"epsilon must lie in (0, pi/4), got {epsilon}")
    if f.compact:
        raise ValueError("limit_curve needs full-format factors")
    if f.m2 < f.r:
        raise NeedsAugmentation(
            f"m2 = {f.m2} < r = {f.r}; zero-pad B with augment_rows first"
        )
    zero_s = f.s == 0
    sine, rest = _v_split(f)
    stacked = dataclasses.replace(
        f,
        v=np.hstack([rest, sine]),
        c=np.where(zero_s, np.cos(epsilon), f.c),
        s=np.where(zero_s, np.sin(epsilon), f.s),
        v_col_of=f.m2 - f.r + np.arange(f.r),
    ).reconstruct()
    a_eps, b_eps = stacked[: f.m1], stacked[f.m1:]
    return LimitCurve(epsilon=epsilon, a_eps=a_eps, b_eps=b_eps)


def augment_rows(b, r: int) -> np.ndarray:
    """Zero-pad B to r rows; gsvd values, U, C, and H are unaffected."""
    b = as_matrix(b)
    if r <= b.shape[0]:
        raise NoAugmentationNeeded(f"B already has {b.shape[0]} >= {r} rows")
    return np.vstack([b, np.zeros((r - b.shape[0], b.shape[1]))])
