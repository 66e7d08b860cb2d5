"""Correctness oracle for the benchmark's operations.

Every check runs outside the timed region and either raises CheckFailed
or returns the operation's accuracy defect in units of machine epsilon
(None for operations that return no factors).  Tolerances are the ones the
repository's test suite holds the library to; the checks themselves use
only NumPy/SciPy and the raw fields of the results, never the library's
own helpers, so a library defect cannot hide behind itself.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

EPS = float(np.finfo(np.float64).eps)

RECON_TOL = 1e-11        # relative Frobenius reconstruction (acceptance criterion 5)
CS_TOL = 1e-13           # |c^2 + s^2 - 1| (criterion 5)
ORTH_TOL = 1e-12         # orthonormality (test_gsvd holds U'U - I to 1e-12)
ANOVA_TOL = 1e-9         # F against textbook sums of squares (criterion 2)
TIKHONOV_TOL = 1e-9      # path against stacked least squares (criterion 6)
ANGLE_TOL = 1e-9         # cosines against svd(Q1'Q2) (criterion 7)
QUOTIENT_TOL = 1e-10     # svd(P A B^+) against the generalized values (criterion 1)
DISCRIMINANT_TOL = 1e-8  # generalized values kept by the reduction (criterion 11)

# Orthonormality of an m x m factor is estimated on a fixed block of unit
# probe vectors: an exact Gram product costs 2 m^3 flops, which at the
# 2500-row tall pairs would take longer than the decomposition itself.
PROBE_COLS = 8


class CheckFailed(Exception):
    """An operation returned a result that fails the oracle.

    `defect_eps` carries the measured defect when the failure is one of
    accuracy, so the run's defect metric still counts the failing operation.
    """

    def __init__(self, what: str, defect_eps: float | None = None):
        super().__init__(what)
        self.defect_eps = defect_eps


def require(ok, what: str, defect_eps: float | None = None) -> None:
    if not ok:
        raise CheckFailed(what, defect_eps)


def orth_loss(q: np.ndarray) -> float:
    """Frobenius norm of (Q'Q - I) X for a fixed block X of unit probe columns.

    A norm over many entries, not their maximum, so that it moves smoothly
    with the seed instead of in steps of eps.  0 for a matrix with no columns.
    """
    k = q.shape[1]
    if k == 0:
        return 0.0
    x = np.random.default_rng(k).standard_normal((k, PROBE_COLS))
    x /= np.linalg.norm(x, axis=0)
    return float(np.linalg.norm(q.T @ (q @ x) - x))


def stacked_basis(f) -> np.ndarray:
    """G = [U C; V S] built from the raw fields u, v, c, s, v_col_of."""
    k = min(f.u.shape[1], f.r)
    top = np.zeros((f.u.shape[0], f.r))
    top[:, :k] = f.u[:, :k] * f.c[:k]
    bottom = np.zeros((f.v.shape[0], f.r))
    cols = np.flatnonzero(np.asarray(f.v_col_of) >= 0)
    bottom[:, cols] = f.v[:, np.asarray(f.v_col_of)[cols]] * f.s[cols]
    return np.vstack([top, bottom])


def factor_defect(f, a: np.ndarray, b: np.ndarray, ranks) -> float:
    """Check full-format GSVD factors of (a, b) against known (r, r_a, r_b).

    Returns the worst of the relative reconstruction residual and the
    orthogonality losses of U, V and G = [U C; V S], in units of eps.
    """
    r, r_a, r_b = ranks
    require((f.r, f.r_a, f.r_b) == (r, r_a, r_b),
            f"ranks (r, r_a, r_b) = {(f.r, f.r_a, f.r_b)}, generator made {ranks}")
    c, s = np.asarray(f.c), np.asarray(f.s)
    require(int(np.sum(s == 0)) == r - r_b, "infinite-class count differs from r - r_b")
    require(int(np.sum(c == 0)) == r - r_a, "zero-class count differs from r - r_a")
    require(int(np.sum((c > 0) & (s > 0))) == r_a + r_b - r,
            "finite-class count differs from r_a + r_b - r")
    if r:
        cs = float(np.max(np.abs(c**2 + s**2 - 1)))
        require(cs <= CS_TOL, f"|c^2 + s^2 - 1| = {cs:.2e}")
    stacked = np.vstack([a, b])
    g = stacked_basis(f)
    recon = np.linalg.norm(g @ f.h - stacked) / np.linalg.norm(stacked)
    orth = max(orth_loss(f.u), orth_loss(f.v), orth_loss(g))
    defect = float(max(recon, orth)) / EPS
    require(recon <= RECON_TOL, f"reconstruction residual {recon:.2e}", defect)
    require(orth <= ORTH_TOL, f"loss of orthogonality {orth:.2e}", defect)
    return defect


def stacked_lstsq(a, l, b, lam) -> np.ndarray:
    """Tikhonov reference argmin ||[A; lam L] x - [b; 0]||, as direct_solve computes it."""
    stacked = np.vstack([a, lam * l])
    rhs = np.concatenate([b, np.zeros(l.shape[0])])
    return np.linalg.lstsq(stacked, rhs, rcond=None)[0]


def path_deviation(a, l, b, lambdas, xs, every: int = 33) -> None:
    """Check a Tikhonov path (one x per lambda) against stacked least squares."""
    require(len(xs) == len(lambdas), f"path has {len(xs)} solutions, asked for {len(lambdas)}")
    for i in range(0, len(lambdas), every):
        xd = stacked_lstsq(a, l, b, lambdas[i])
        dev = np.linalg.norm(np.asarray(xs[i]) - xd) / max(1.0, np.linalg.norm(xd))
        require(dev <= TIKHONOV_TOL, f"lambda={lambdas[i]:g}: path deviates by {dev:.2e}")


def anova_textbook_f(v: np.ndarray, partition) -> float:
    """One-way ANOVA F from sums of squares, no factorization involved."""
    k, p = len(partition), v.size
    grand = v.mean()
    ssb = ssw = 0.0
    start = 0
    for size in partition:
        chunk = v[start:start + size]
        ssb += size * (chunk.mean() - grand) ** 2
        ssw += float(np.sum((chunk - chunk.mean()) ** 2))
        start += size
    return (ssb / (k - 1)) / (ssw / (p - k))


def pencil_values(top: np.ndarray, bottom: np.ndarray, count: int) -> np.ndarray:
    """Largest `count` eigenvalues of the pencil (top'top, bottom'bottom), descending."""
    vals = scipy.linalg.eigvalsh(top.T @ top, bottom.T @ bottom)
    return np.sort(vals)[::-1][:count]


def principal_cosines(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    q1 = scipy.linalg.orth(a1)
    q2 = scipy.linalg.orth(a2)
    return np.clip(scipy.linalg.svdvals(q1.T @ q2), 0.0, 1.0)
