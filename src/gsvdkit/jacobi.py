"""MANOVA sampling and the beta-Jacobi joint eigenvalue density.

For Gaussian A (m1 x n) and B (m2 x n) the eigenvalues of the MANOVA
matrix (A'A + B'B)^{-1} A'A are the squared cosines of gsvd(A, B) and are
jointly distributed as the Jacobi ensemble

    const * prod_{i<j} |l_i - l_j|^beta * prod_i l_i^(a1 - p) (1 - l_i)^(a2 - p)

with a1 = (beta/2) m1, a2 = (beta/2) m2, p = 1 + (beta/2)(n - 1).
Sampling supports beta = 1 (real) and beta = 2 (complex) and reads each
sample as CS cosines (Edelman & Sutton 2008), as gsvd_decompose does: the
singular values of the top m1 rows of Q in [A; B] = Q R.  No eigenproblem is
solved, Q's orthonormality keeps them in [0, 1], and a batch is one stacked
QR and SVD.  The density evaluates for any beta > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc, gammaln

from .errors import DomainError, InvalidDimensions, UnsupportedBeta
from .matcore import _is_integer

__all__ = [
    "JacobiParams",
    "SeededRng",
    "EmpiricalReport",
    "manova_matrix",
    "sample_manova",
    "jacobi_log_density",
    "empirical_check",
]

#: Normals per empirical_check batch: bounds memory, never changes the draws.
_BATCH_NORMALS = 1 << 20


@dataclass(frozen=True)
class JacobiParams:
    """Ensemble shape (m1, m2, n) and Dyson index beta."""

    m1: int
    m2: int
    n: int
    beta: float = 1.0

    def __post_init__(self):
        for name, val in (("m1", self.m1), ("m2", self.m2), ("n", self.n)):
            if not _is_integer(val):
                raise InvalidDimensions(f"{name} must be an integer, got {val!r}")
        if self.n < 1:
            raise InvalidDimensions("n must be positive")
        if self.m1 < self.n or self.m2 < self.n:
            raise InvalidDimensions("need m1 >= n and m2 >= n")
        if not self.beta > 0:
            raise DomainError(f"beta must be positive, got {self.beta}")
        if self.a1 - self.p <= -1 or self.a2 - self.p <= -1:
            raise DomainError("density is not integrable for these parameters")

    @property
    def a1(self) -> float:
        return 0.5 * self.beta * self.m1

    @property
    def a2(self) -> float:
        return 0.5 * self.beta * self.m2

    @property
    def p(self) -> float:
        return 1.0 + 0.5 * self.beta * (self.n - 1)


@dataclass(frozen=True)
class SeededRng:
    """Reproducible stream factory: same seed, same samples.

    The bit generator is Philox 4x64, counter based, and normals come from
    NumPy's ziggurat sampler, so a stream is reproducible bit for bit for a
    fixed NumPy.
    """

    seed: int

    def __post_init__(self):
        # Philox takes a 128-bit key
        if not (_is_integer(self.seed) and 0 <= self.seed < 2**128):
            raise DomainError(f"seed must be an integer in [0, 2**128), got {self.seed!r}")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.seed))


@dataclass(frozen=True)
class EmpiricalReport:
    """Monte Carlo summary; compares equal iff every statistic matches.

    `draws` holds the sampled configurations, one row per sample, and takes
    no part in comparison or repr.
    """

    m1: int
    m2: int
    n: int
    beta: float
    n_samples: int
    mean_sum: float
    se_sum: float
    ks_distance: float | None
    half_means: tuple[float, float]
    half_gap_z: float
    draws: np.ndarray = field(compare=False, repr=False)


def manova_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Symmetric MANOVA matrix S^{-1/2} A'A S^{-1/2}, with S = A'A + B'B.

    It is similar to (A'A + B'B)^{-1} A'A, so its eigenvalues are the
    squared cosines of gsvd(A, B), and it is Hermitian, so `eigvalsh`
    reads them.  [A; B] must have full column rank.  `sample_manova` never
    forms it: this is the eigenproblem reference its CS-step draws are
    checked against.
    """
    aa = a.conj().T @ a
    bb = b.conj().T @ b
    s = aa + bb
    w, q = np.linalg.eigh(s)
    inv_sqrt = (q / np.sqrt(w)) @ q.conj().T
    return inv_sqrt @ aa @ inv_sqrt


def _cs_sample(params: JacobiParams, gen: np.random.Generator, k: int) -> np.ndarray:
    # k rows of squared cosines, ascending.  A sample's normals are A then B
    # (beta 2: real [A; B], then imaginary), so k at once equal k single draws.
    if params.beta not in (1, 2):
        raise UnsupportedBeta(f"sampling supports beta in {{1, 2}}, got {params.beta}")
    z = gen.standard_normal((k, int(params.beta), params.m1 + params.m2, params.n))
    x = z[:, 0] if params.beta == 1 else z[:, 0] + 1j * z[:, 1]
    cos = np.linalg.svd(np.linalg.qr(x)[0][:, : params.m1], compute_uv=False)
    return np.clip(cos[:, ::-1] ** 2, 0.0, 1.0)


def sample_manova(params: JacobiParams, rng) -> np.ndarray:
    """One draw of the MANOVA eigenvalues, sorted ascending, clamped to [0, 1].

    Read as the squared CS cosines of a Gaussian pair (see the module docstring).
    `rng` may be a SeededRng (a fresh stream is opened) or a live
    numpy Generator (consumed statefully, for repeated draws).
    """
    gen = rng.generator() if isinstance(rng, SeededRng) else rng
    return _cs_sample(params, gen, 1)[0]


def jacobi_log_density(params: JacobiParams, lambdas) -> float:
    """Log of the joint eigenvalue density at the given configuration.

    Order independent (the list is sorted internally).  The normalization
    constant is a Gamma-function product evaluated through log-Gamma.
    """
    lam = np.sort(np.asarray(lambdas, dtype=float))
    if lam.size != params.n:
        raise DomainError(f"expected {params.n} eigenvalues, got {lam.size}")
    if np.any(lam <= 0.0) or np.any(lam >= 1.0):
        raise DomainError("eigenvalues must lie strictly inside (0, 1)")
    if np.any(np.diff(lam) == 0.0):
        raise DomainError("eigenvalues must be distinct")
    beta = params.beta
    a1, a2, p = params.a1, params.a2, params.p
    j = np.arange(1, params.n + 1)
    log_c = np.sum(
        gammaln(1 + beta / 2)
        + gammaln(a1 + a2 - beta / 2 * (params.n - j))
        - gammaln(1 + beta / 2 * j)
        - gammaln(a1 - beta / 2 * (params.n - j))
        - gammaln(a2 - beta / 2 * (params.n - j))
    )
    ii, jj = np.triu_indices(params.n, k=1)
    vandermonde = beta * np.sum(np.log(np.abs(lam[jj] - lam[ii]))) if ii.size else 0.0
    body = np.sum((a1 - p) * np.log(lam) + (a2 - p) * np.log1p(-lam))
    return float(log_c + vandermonde + body)


def empirical_check(params: JacobiParams, n_samples: int, rng: SeededRng) -> EmpiricalReport:
    """Draw n_samples configurations and summarize against the theory.

    For n = 1 the eigenvalue is Beta(a1 - p + 1, a2 - p + 1) distributed
    and the Kolmogorov-Smirnov distance to that CDF is reported.  For all
    n the mean of the eigenvalue sum is reported with its standard error,
    plus a split-half self-consistency gap in standard-error units.
    """
    if not _is_integer(n_samples):
        raise DomainError(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < 1000:
        raise DomainError("need at least 1000 samples for a meaningful check")
    gen = rng.generator()
    batch = max(1, int(_BATCH_NORMALS / (params.beta * (params.m1 + params.m2) * params.n)))
    draws = np.empty((n_samples, params.n))
    for start in range(0, n_samples, batch):
        draws[start:start + batch] = _cs_sample(params, gen, min(batch, n_samples - start))
    sums = draws.sum(axis=1)
    mean_sum = float(sums.mean())
    se_sum = float(sums.std(ddof=1) / np.sqrt(n_samples))

    ks = None
    if params.n == 1:
        # the Beta CDF, without loading scipy.stats
        x = np.sort(draws[:, 0])
        cdf = betainc(params.a1 - params.p + 1, params.a2 - params.p + 1, x)
        grid = np.arange(1, n_samples + 1) / n_samples
        ks = float(np.max(np.maximum(grid - cdf, cdf - (grid - 1 / n_samples))))

    half = n_samples // 2
    m1_half = float(sums[:half].mean())
    m2_half = float(sums[half:].mean())
    se1 = sums[:half].std(ddof=1) / np.sqrt(half)
    se2 = sums[half:].std(ddof=1) / np.sqrt(n_samples - half)
    gap_z = float(abs(m1_half - m2_half) / np.hypot(se1, se2))

    return EmpiricalReport(
        m1=params.m1, m2=params.m2, n=params.n, beta=params.beta,
        n_samples=n_samples, mean_sum=mean_sum, se_sum=se_sum,
        ks_distance=ks, half_means=(m1_half, m2_half), half_gap_z=gap_z,
        draws=draws,
    )
