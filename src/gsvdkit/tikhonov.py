"""Tikhonov regularization through the two-cosine geometry.

For min_x ||A x - b||^2 + lambda^2 ||L x||^2 with A of full column rank,
take the compact GSVD of (A, L) once at lambda = 1, when the problem is
built; its r_a = rank(A) is the only rank decision.  The whole path then
has the closed form of a unit-hypotenuse triangle with fixed base and
sliding height:

    C_lam = C1 / sqrt(C1^2 + lam^2 S1^2),   S_lam = lam S1 / sqrt(C1^2 + lam^2 S1^2),

with H_lam = C_lam^{-1} H0 and the lambda-independent H0 = C1 H1 = C_lam H_lam
satisfying A = U H0.  The solution is

    x_lam = H0^{-1} C_lam^2 H0 x0,

x0 the plain least-squares solution: write x0 in the natural coordinates,
damp every direction by cos^2(theta_lam) = 1 / (1 + lam^2 tan^2(theta_1)),
come back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import gsvd
from .errors import DimensionMismatch, DomainError, SingularH
from .matcore import Tolerance, _as_real, _check_type, as_matrix, as_vector

__all__ = [
    "TikhonovProblem",
    "LambdaFactors",
    "base_factors",
    "lambda_factors",
    "solve_path",
    "direct_solve",
]


@dataclass(frozen=True, eq=False)
class TikhonovProblem:
    """Data (A, L, b) with A of full column rank, and the compact GSVD of (A, L).

    The decomposition is taken once, at construction and at the default
    tolerance; A has full column rank exactly when its r_a equals n, and
    otherwise the constructor raises SingularH.  `base_factors`,
    `lambda_factors` and `solve_path` all read these factors.
    """

    a: np.ndarray
    l: np.ndarray
    b: np.ndarray
    _factors: gsvd.GsvdFactors = field(repr=False, compare=False)

    def __init__(self, a, l, b):
        a = as_matrix(a)
        l = as_matrix(l)
        b = as_vector(b)
        if a.shape[1] != l.shape[1]:
            raise DimensionMismatch(
                f"A has {a.shape[1]} columns but L has {l.shape[1]}"
            )
        if b.size != a.shape[0]:
            raise DimensionMismatch(
                f"b has length {b.size}, expected {a.shape[0]}"
            )
        f = gsvd._decompose(a, l, Tolerance(), compact=True)[0]
        if f.r_a < a.shape[1]:
            raise SingularH(
                f"A must have full column rank: rank {f.r_a} < {a.shape[1]} columns"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_factors", f)


@dataclass(frozen=True, eq=False)
class LambdaFactors:
    """Per-lambda factors; h0 = C_lam @ h_lambda is the same for every lambda."""

    lam: float
    c_lambda: np.ndarray
    s_lambda: np.ndarray
    h_lambda: np.ndarray
    h0: np.ndarray

    def damping(self) -> np.ndarray:
        """cos^2(theta_lambda) per natural direction."""
        return self.c_lambda**2


def base_factors(p: TikhonovProblem) -> gsvd.GsvdFactors:
    """Compact GSVD of (A, L) at lambda = 1; r = r_a = n, so every cosine is positive."""
    _check_type(p, TikhonovProblem)
    return p._factors


def _check_lambda(lam) -> float:
    # lam as a float; DomainError unless 0 <= lam < inf, which NaN fails
    # too.  An infinite lambda would put inf * 0 = NaN where s_i = 0.
    value = _as_real(lam)
    if not 0 <= value < np.inf:
        raise DomainError(f"lambda must be finite and nonnegative, got {lam!r}")
    return value


def lambda_factors(p: TikhonovProblem, lam: float) -> LambdaFactors:
    """Closed-form factors of [A; lam L] scaled from the lambda = 1 anchor."""
    _check_type(p, TikhonovProblem)
    lam = _check_lambda(lam)
    f = p._factors
    denom = np.hypot(f.c, lam * f.s)
    c_lam = f.c / denom
    s_lam = lam * f.s / denom
    h0 = f.c[:, None] * f.h
    h_lam = denom[:, None] * f.h
    return LambdaFactors(lam=float(lam), c_lambda=c_lam, s_lambda=s_lam,
                         h_lambda=h_lam, h0=h0)


def solve_path(p: TikhonovProblem, lambdas):
    """Solve the whole lambda grid from the problem's one decomposition.

    Returns a list of (lambda, x_lambda, damping) with damping the
    per-direction cos^2(theta_lambda) factors in the H0 coordinates.
    Every lambda is checked first; the dampings of the grid then form one
    array, one row per lambda, and one LU solve with H0 takes all their
    right-hand sides at once.  An empty grid gives an empty list.
    """
    _check_type(p, TikhonovProblem)
    if not np.iterable(lambdas):
        raise DomainError(f"lambdas must be an iterable of numbers, got {lambdas!r}")
    lams = np.array([_check_lambda(lam) for lam in lambdas], dtype=float)
    f = p._factors
    # lam^2 overflows past about 1.3e154; the largest float in its place
    # keeps the damping at its limit, 1 where s_i = 0 and below 1e-300
    # elsewhere, since s_i <= 1 keeps lam^2 s_i^2 finite.
    with np.errstate(over="ignore"):
        lam2 = np.minimum(lams**2, np.finfo(np.float64).max)
    c2 = f.c**2
    damp = c2 / (c2 + lam2[:, None] * f.s**2)
    # A = U H0 with orthonormal U and invertible H0, so the least-squares
    # solution x0 has H0 x0 = U' b.  The right-hand sides are the columns
    # of damp' (Fortran order), solved in place, so each x is a row.
    lu = scipy.linalg.lu_factor(f.c[:, None] * f.h)
    x = scipy.linalg.lu_solve(lu, (damp * (f.u.T @ p.b)).T, overwrite_b=True).T
    return [(float(lam), xi, d) for lam, xi, d in zip(lams, x, damp)]


def direct_solve(p: TikhonovProblem, lam: float) -> np.ndarray:
    """Stacked least-squares reference: argmin ||[A; lam L] x - [b; 0]||.

    Solved by one Householder QR of [lam L; A], the large rows first and
    no rank cut: A has full column rank, so R is nonsingular at every
    lambda.  A cut relative to the largest singular value, as in
    `np.linalg.lstsq`, would drop A's part on null(L) once lam ||L||
    dwarfs ||A||, where the solution tends to the least-squares one
    within null(L).  Past lambda = 1 the system is divided by lambda,
    which leaves its solution unchanged and keeps lam L from overflowing.
    """
    _check_type(p, TikhonovProblem)
    lam = _check_lambda(lam)
    t = max(lam, 1.0)
    q, r = np.linalg.qr(np.vstack([(lam / t) * p.l, p.a / t]))
    return scipy.linalg.solve_triangular(r, q[p.l.shape[0]:].T @ (p.b / t))
