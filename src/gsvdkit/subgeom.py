"""Subspace geometry: principal angles, additive splits, ellipse data,
and the energy-set / lemniscate identities.

The cosine and sine ellipses are shadows of the unit sphere of
span([A; B]) on the X and Y multiaxes (the first m1 and last m2
coordinates); their semi-axes are c_i u_i and s_i v_i, and the unit
hypotenuses [u_i c_i; v_i s_i] form an orthonormal set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gsvd, matcore
from .errors import (
    DimensionMismatch,
    NotOrthonormal,
    NumericalCheckFailed,
    ZeroDenominator,
)
from .gsvd import GsvdFactors
from .matcore import as_matrix, as_vector

__all__ = [
    "PrincipalAngles",
    "AdditiveSplit",
    "EllipseData",
    "principal_angles",
    "additive_split",
    "ellipse_data",
    "energy_point",
    "energy_point2",
    "lemniscate_residual",
    "lemniscate_residual2",
]


@dataclass(frozen=True, eq=False)
class PrincipalAngles:
    cosines: np.ndarray       # descending, length min(dim1, dim2)
    angles: np.ndarray        # arccos of the cosines
    a1_vectors: np.ndarray    # unit directions in span(a1), one per angle
    a2_vectors: np.ndarray    # their closest mates in span(a2); zero where cos = 0


@dataclass(frozen=True, eq=False)
class AdditiveSplit:
    p_part: np.ndarray
    q_part: np.ndarray
    y1: np.ndarray
    y2: np.ndarray


@dataclass(frozen=True, eq=False)
class EllipseData:
    cosine_lengths: np.ndarray      # (r,)
    cosine_directions: np.ndarray   # (m1, r); u_i, zero column where c_i = 0
    sine_lengths: np.ndarray        # (r,)
    sine_directions: np.ndarray     # (m2, r); v_i, zero column where s_i = 0
    sphere_points: np.ndarray       # (m1 + m2, r) unit hypotenuses
    angles: np.ndarray              # theta_i = atan2(s_i, c_i), nondecreasing


def principal_angles(a1, a2) -> PrincipalAngles:
    """Principal angles between col(a1) and col(a2), via the GSVD route.

    With Q1 = orth_basis(a1) and Y = orth_basis(a2), take the GSVD of
    (Y' Q1, Q1 - Y Y' Q1), the residual projected twice, at the default
    cutoff of a1's shape.  The stacked pair has the Gram Q1' Q1 = I, so its
    columns are orthonormal: its rank is dim col(a1) by construction, H is
    orthogonal, and the cosines are the principal cosines (Bjorck & Golub
    1973), as accurate as Q1 whatever the conditioning of a1.  They must
    agree with the classical svd(Q1' Y) values to 1e-9; coincident and
    orthogonal directions snap to exactly 1 and 0.  Those reference values
    are the singular values of Y' Q1 that the GSVD reads r_a from, so the
    pair is factored once.
    """
    a1 = as_matrix(a1)
    a2 = as_matrix(a2)
    if a1.shape[0] != a2.shape[0]:
        raise DimensionMismatch(
            f"row counts differ: {a1.shape[0]} vs {a2.shape[0]}"
        )
    q1 = matcore.orth_basis(a1)
    y = matcore.orth_basis(a2)
    d1, d2 = q1.shape[1], y.shape[1]
    k = min(d1, d2)
    if k == 0:
        empty = np.zeros((a1.shape[0], 0))
        return PrincipalAngles(np.zeros(0), np.zeros(0), empty, empty)

    top = y.T @ q1
    bottom = q1 - y @ top
    bottom -= y @ (y.T @ bottom)
    f, sv_top = gsvd._decompose(top, bottom, matcore._pinned(a1.shape), compact=True)
    cosines = f.c[:k].copy()

    reference = np.clip(sv_top, 0.0, 1.0)[:k]
    gap = float(np.max(np.abs(np.sort(cosines) - np.sort(reference))))
    if gap > 1e-9:
        raise NumericalCheckFailed(
            f"GSVD and svd(Q1'Y) principal cosines differ by {gap:.2e} > 1e-9"
        )

    udirs = f.u_dirs()[:, :k]  # in Y coordinates; hypotenuses [u_i c_i; v_i s_i]
    a1_vecs = y @ (udirs * cosines) + f.v_dirs()[:, :k] * f.s[:k]
    a2_vecs = y @ udirs
    return PrincipalAngles(
        cosines=cosines,
        angles=np.arccos(np.clip(cosines, -1.0, 1.0)),
        a1_vectors=a1_vecs,
        a2_vectors=a2_vecs,
    )


def additive_split(m, y1):
    """Split M = P + Q with P'Q = 0 against the subspace spanned by y1.

    y1 must have orthonormal columns; y2 completes it.  Returns the split
    plus the factors of ([y1' M; y2' M]), which is an ordinary GSVD in the
    rotated multiaxes.  Taking y1 = [I; 0] recovers the top/bottom split.
    """
    m = as_matrix(m)
    y1 = as_matrix(y1)
    if y1.shape[0] != m.shape[0]:
        raise DimensionMismatch(
            f"y1 has {y1.shape[0]} rows, expected {m.shape[0]}"
        )
    gram_err = np.linalg.norm(y1.T @ y1 - np.eye(y1.shape[1]))
    if gram_err > 1e-10:
        raise NotOrthonormal(f"y1 columns deviate from orthonormal by {gram_err:.2e}")
    y2 = matcore.complete_basis(y1)
    top = y1.T @ m
    bottom = y2.T @ m if y2.shape[1] else np.zeros((1, m.shape[1]))
    f = gsvd.gsvd_decompose(top, bottom)
    p_part = y1 @ (f.u @ f.c_matrix() @ f.h)
    if y2.shape[1]:
        q_part = y2 @ (f.v @ f.s_matrix() @ f.h)
    else:
        q_part = np.zeros_like(m)
    return AdditiveSplit(p_part=p_part, q_part=q_part, y1=y1, y2=y2), f


def ellipse_data(f: GsvdFactors) -> EllipseData:
    """Semi-axes, unit-sphere hypotenuses, and angles for the ellipse picture."""
    cdirs = f.u_dirs()
    sdirs = f.v_dirs()
    sphere = np.vstack([cdirs * f.c, sdirs * f.s])
    dev = float(np.max(np.abs(np.linalg.norm(sphere, axis=0) - 1.0), initial=0.0))
    if dev > 1e-12:
        raise NumericalCheckFailed(
            f"sphere points deviate from unit length by {dev:.2e} > 1e-12"
        )
    return EllipseData(
        cosine_lengths=f.c.copy(),
        cosine_directions=cdirs,
        sine_lengths=f.s.copy(),
        sine_directions=sdirs,
        sphere_points=sphere,
        angles=f.theta(),
    )


def _check_unit(e: np.ndarray) -> np.ndarray:
    if abs(np.linalg.norm(e) - 1.0) > 1e-12:
        raise NotOrthonormal("e must be a unit vector")
    return e


def energy_point(a, e) -> np.ndarray:
    """Point e * ||A e||^2 of the energy set of A, for unit e."""
    a = as_matrix(a)
    e = _check_unit(as_vector(e))
    return e * float(np.dot(a @ e, a @ e))


def energy_point2(a, b, e) -> np.ndarray:
    """Point e * ||A e||^2 / ||B e||^2 of the two-matrix energy set.

    Raises ZeroDenominator where ||B e||^2 <= eps * max(b.shape) * ||B||_F^2,
    a test relative to B's own scale: the point scales as 1/t^2 for B -> t B,
    and a zero B always raises.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    e = _check_unit(as_vector(e))
    den = float(np.dot(b @ e, b @ e))
    scale = float(np.linalg.norm(b)) ** 2
    if den <= scale * matcore.EPS * max(b.shape):
        raise ZeroDenominator("||B e|| vanishes at this direction")
    return e * (float(np.dot(a @ e, a @ e)) / den)


def lemniscate_residual(a, x) -> float:
    """Residual of (sum x_i^2)^3 = (sum sigma_i^2 x_i^2)^2 at x in V-coordinates.

    Vanishes exactly on the energy set of A expressed in the right
    singular basis (x = V' point).
    """
    a = as_matrix(a)
    x = as_vector(x)
    sv = matcore._svdvals(a)
    sig2 = np.zeros(x.size)
    sig2[: min(sv.size, x.size)] = sv[: x.size] ** 2
    q2 = float(np.dot(x, x))
    w2 = float(np.dot(sig2 * x, x))
    return q2**3 - w2**2


def lemniscate_residual2(f: GsvdFactors, x) -> float:
    """Residual of ||x||^2 ||S H x||^4 = ||C H x||^4; zero on Energy(A, B)."""
    x = as_vector(x)
    hx = f.h @ x
    shx2 = float(np.dot(f.s**2 * hx, hx))
    chx2 = float(np.dot(f.c**2 * hx, hx))
    return float(np.dot(x, x)) * shx2**2 - chx2**2
