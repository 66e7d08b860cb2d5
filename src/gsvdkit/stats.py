"""Clustered-data analysis built on the factorization: indicator and
constraint matrices, the (mean | between | within) orthogonal split,
one-way ANOVA, comparative apportionment of H rows, and discriminant
dimension reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gsvd, matcore
from .errors import (
    DegenerateData,
    DimensionMismatch,
    InvalidPartition,
    ZeroWithin,
)
from .gsvd import GsvdFactors
from .matcore import EPS, Tolerance, as_matrix, as_vector

__all__ = [
    "ClusterDesign",
    "AnovaReport",
    "Apportionment",
    "cluster_design",
    "anova_f",
    "apportion",
    "discriminant_reduce",
]


@dataclass(frozen=True, eq=False)
class ClusterDesign:
    """Indicator/constraint pair for a partition, plus the U split.

    u_split is p x p orthogonal with blocks of widths (1, k - 1, p - k):
    the normalized mean direction, a basis completing it to the cluster
    (between) space, and a basis for the within space.
    """

    partition: tuple[int, ...]
    p: int
    k: int
    indicator: np.ndarray
    constraint: np.ndarray
    y1: np.ndarray
    u_split: np.ndarray

    @property
    def u1(self) -> np.ndarray:
        return self.u_split[:, :1]

    @property
    def u2(self) -> np.ndarray:
        return self.u_split[:, 1:self.k]

    @property
    def u3(self) -> np.ndarray:
        return self.u_split[:, self.k:]


@dataclass(frozen=True)
class AnovaReport:
    between_norm_sq: float
    within_norm_sq: float
    df_between: int
    df_within: int
    f_value: float


@dataclass(frozen=True, eq=False)
class Apportionment:
    """Rows of H classified by their angle toward the A side."""

    angles: np.ndarray
    labels: tuple[str, ...]
    h_rows: np.ndarray
    h_rows_unit: np.ndarray
    h_condition: float


def cluster_design(partition) -> ClusterDesign:
    """Build the indicator, constraint, and U-split for a partition of p points.

    The indicator has disjoint 0/1 blocks of heights p_1..p_k; the
    constraint [I | -ones] has the all-ones vector as its nullspace.  The
    U factor of gsvd(indicator, constraint) delivers the split: one mean
    column (all entries 1/sqrt(p)), k - 1 between columns, p - k within.
    Sizes must be whole numbers >= 1: 6.0 is taken as 6, but 2.5, "2" or
    True raises InvalidPartition rather than being truncated, parsed or
    counted as 1.
    """
    sizes = list(partition) if np.iterable(partition) else partition
    try:
        parts = [int(x) for x in sizes]
    except (TypeError, ValueError, OverflowError):
        parts = None
    if (parts != sizes or any(isinstance(x, (bool, np.bool_)) for x in sizes)
            or len(parts) < 2 or min(parts) < 1):
        raise InvalidPartition(
            f"need k >= 2 cluster sizes, all whole numbers >= 1, got {sizes}"
        )
    k = len(parts)
    p = sum(parts)
    indicator = np.repeat(np.eye(k), parts, axis=0)
    y1 = indicator / np.sqrt(np.array(parts, dtype=float))
    constraint = np.hstack([np.eye(k - 1), -np.ones((k - 1, 1))])
    f = gsvd.gsvd_decompose(indicator, constraint)
    return ClusterDesign(
        partition=tuple(parts), p=p, k=k,
        indicator=indicator, constraint=constraint, y1=y1,
        u_split=f.u,
    )


def anova_f(design: ClusterDesign, v) -> AnovaReport:
    """One-way ANOVA F statistic from the orthogonal split.

    F = (||U2' v||^2 / (k - 1)) / (||W||^2 / (p - k)), where the projection
    W = v - Y1 Y1' v has the norm of U3' v.  Constant data reports F = 0;
    data that is exactly constant within each cluster (but not globally)
    has nothing in the within space and raises ZeroWithin.
    """
    v = as_vector(v)
    if v.size != design.p:
        raise DimensionMismatch(f"data length {v.size}, expected {design.p}")
    between_part = design.u2.T @ v
    within_part = v - design.y1 @ (design.y1.T @ v)
    between = float(np.dot(between_part, between_part))
    within = float(np.dot(within_part, within_part))
    dfb = design.k - 1
    dfw = design.p - design.k
    floor = float(np.dot(v, v)) * (64 * design.p * EPS) ** 2
    if between <= floor:
        f_value = 0.0
    elif within <= floor:
        raise ZeroWithin("no within-cluster variation in the data")
    else:
        f_value = (between / dfb) / (within / dfw)
    return AnovaReport(
        between_norm_sq=between, within_norm_sq=within,
        df_between=dfb, df_within=dfw, f_value=f_value,
    )


# apportion's band edges: pi/8 wide at either end, pi/4 in the middle
THETA_LO, THETA_HI = np.pi / 8, 3 * np.pi / 8


def apportion(f: GsvdFactors) -> Apportionment:
    """Classify each row of H by its angle theta_i = atan2(s_i, c_i).

    Rows are already ordered from most-A to most-B (cosines descending).
    The bands are fixed: theta < pi/8 is A-dominant, theta > 3 pi/8 is
    B-dominant, and the rest is mixed.  The 2-norm condition number of H
    is surfaced since a badly conditioned H makes the per-row attribution
    shaky.
    """
    matcore._check_type(f, GsvdFactors)
    angles = f.theta()
    if f.r:
        sv = matcore._svdvals(f.h)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
        norms = np.linalg.norm(f.h, axis=1)
        unit = f.h / norms[:, None]
    else:
        cond = 1.0
        unit = f.h.copy()
    return Apportionment(
        angles=angles, labels=_band_labels(angles),
        h_rows=f.h.copy(), h_rows_unit=unit,
        h_condition=cond,
    )


def _band_labels(angles) -> tuple:
    # apportion's row labels, read from the angles alone
    return tuple(
        "A-dominant" if t < THETA_LO else ("B-dominant" if t > THETA_HI else "mixed")
        for t in angles
    )


def discriminant_reduce(m, design: ClusterDesign):
    """Reduce data to the directions carrying nonzero between/within slope.

    Takes gsvd(U2' M, W) and multiplies M on the right by
    G = H^+ I_{r, k-1}, whose k - 1 columns span the only directions with
    nonzero generalized singular values; those values are unchanged by the
    reduction.  H^+ is taken at the rank r of those factors.

    The projection W = M - Y1 Y1' M has the Gram of U3' M, so the factors
    are those of gsvd(U2' M, U3' M) at that pair's default rank cutoff.
    Data whose H is no larger than the default cutoff of M's shape and
    norm is degenerate.  Returns (G, M G).
    """
    m = as_matrix(m)
    if m.shape[0] != design.p:
        raise DimensionMismatch(f"data has {m.shape[0]} rows, expected {design.p}")
    between = design.u2.T @ m
    within = m - design.y1 @ (design.y1.T @ m)
    pair_tol = matcore._pinned((design.p - 1, m.shape[1]))
    f = gsvd.gsvd_decompose(between, within, pair_tol, compact=True)
    # mean-only data leaves nothing but roundoff in both parts; judge that
    # against the scale of the data, not of the noise.  [U C; V S] has
    # orthonormal columns, so ||H||_2 is the norm of the stacked parts, and
    # [u1' M; H] has the Gram of u_split' M, so its norm is ||M||_2.
    norm_m = matcore._svdvals(np.vstack([design.u1.T @ m, f.h]))[0]
    if f.r == 0 or (h_svd := matcore._svd(f.h))[1][0] <= Tolerance().cutoff(m.shape, norm_m):
        raise DegenerateData("between and within parts are both zero")
    cols = min(design.k - 1, f.r)
    g = matcore._svd_pinv(*h_svd, f.r)[:, :cols]
    return g, m @ g
