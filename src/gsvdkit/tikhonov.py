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
from .matcore import Tolerance, as_matrix, as_vector

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

    The decomposition is taken once, at construction and at `tol`; A has
    full column rank exactly when its r_a equals n, and otherwise the
    constructor raises SingularH.  `base_factors`, `lambda_factors` and
    `solve_path` all read these factors.
    """

    a: np.ndarray
    l: np.ndarray
    b: np.ndarray
    _factors: gsvd.GsvdFactors = field(repr=False, compare=False)

    def __init__(self, a, l, b, tol: Tolerance = Tolerance()):
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
        f = gsvd.gsvd_decompose(a, l, tol, compact=True)
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
    return p._factors


def _check_lambda(lam) -> None:
    # DomainError unless 0 <= lam < inf; NaN fails the test too.  An
    # infinite lambda would put inf * 0 = NaN where s_i = 0.
    if not 0 <= lam < np.inf:
        raise DomainError(f"lambda must be finite and nonnegative, got {lam}")


def lambda_factors(p: TikhonovProblem, lam: float) -> LambdaFactors:
    """Closed-form factors of [A; lam L] scaled from the lambda = 1 anchor."""
    _check_lambda(lam)
    f = base_factors(p)
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
    """
    f = base_factors(p)
    lu = scipy.linalg.lu_factor(f.c[:, None] * f.h)
    # A = U H0 with orthonormal U and invertible H0, so the least-squares
    # solution x0 has H0 x0 = U' b.
    y0 = f.u.T @ p.b
    out = []
    for lam in lambdas:
        _check_lambda(lam)
        damp = f.c**2 / (f.c**2 + lam**2 * f.s**2)
        x = scipy.linalg.lu_solve(lu, damp * y0)
        out.append((float(lam), x, damp))
    return out


def direct_solve(p: TikhonovProblem, lam: float) -> np.ndarray:
    """Stacked least-squares reference: argmin ||[A; lam L] x - [b; 0]||."""
    _check_lambda(lam)
    stacked = np.vstack([p.a, lam * p.l])
    rhs = np.concatenate([p.b, np.zeros(p.l.shape[0])])
    return np.linalg.lstsq(stacked, rhs, rcond=None)[0]
