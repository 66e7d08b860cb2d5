import numpy as np
import pytest

from gsvdkit.matcore import numerical_rank


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_orthonormal(rng, m, k):
    q, _ = np.linalg.qr(rng.standard_normal((m, k)))
    return q


def random_pair(rng, m1, m2, n, rank_a=None, rank_b=None, common_null=0):
    """Random pair with controlled ranks and an engineered common nullspace.

    Both matrices annihilate the same `common_null`-dimensional subspace;
    rank_a / rank_b default to the generic maximum given the shapes.
    """
    inner = n - common_null
    assert inner >= 1
    if rank_a is None:
        rank_a = min(m1, inner)
    if rank_b is None:
        rank_b = min(m2, inner)
    assert 1 <= rank_a <= min(m1, inner)
    assert 1 <= rank_b <= min(m2, inner)
    basis = random_orthonormal(rng, n, inner)  # joint row space carrier
    a = rng.standard_normal((m1, rank_a)) @ rng.standard_normal((rank_a, inner)) @ basis.T
    b = rng.standard_normal((m2, rank_b)) @ rng.standard_normal((rank_b, inner)) @ basis.T
    return a, b


def check_factor_invariants(f, a, b, recon_tol=1e-12):
    stacked = np.vstack([a, b])
    assert np.all(np.diff(f.c) <= 0) and np.all(np.diff(f.s) >= 0)
    assert np.all((0 <= f.c) & (f.c <= 1)) and np.all((0 <= f.s) & (f.s <= 1))
    if f.r:
        assert np.max(np.abs(f.c**2 + f.s**2 - 1)) <= 1e-13
    np.testing.assert_allclose(f.u.T @ f.u, np.eye(f.u.shape[1]), atol=1e-12)
    np.testing.assert_allclose(f.v.T @ f.v, np.eye(f.v.shape[1]), atol=1e-12)
    scale = max(np.linalg.norm(stacked), 1e-300)
    assert np.linalg.norm(f.reconstruct() - stacked) <= recon_tol * scale
    if f.r:
        assert numerical_rank(f.h) == f.r


def pencil_cotangents(a, b):
    """Independent oracle: sqrt of the finite positive eigenvalues of
    det(A'A - t B'B) = 0, sorted descending.  Needs B of full column rank."""
    import scipy.linalg

    vals = scipy.linalg.eigvals(a.T @ a, b.T @ b)
    vals = np.real(vals[np.isfinite(vals)])
    vals = vals[vals > 1e-12]
    return np.sort(np.sqrt(vals))[::-1]


def anova_textbook(v, partition):
    """Sum-of-squares one-way ANOVA, no factorization involved."""
    v = np.asarray(v, dtype=float)
    k = len(partition)
    p = v.size
    grand = v.mean()
    ssb = 0.0
    ssw = 0.0
    start = 0
    for size in partition:
        chunk = v[start:start + size]
        ssb += size * (chunk.mean() - grand) ** 2
        ssw += np.sum((chunk - chunk.mean()) ** 2)
        start += size
    f = (ssb / (k - 1)) / (ssw / (p - k))
    return ssb, ssw, f


def relative_gap(got, expected):
    expected = np.asarray(expected, dtype=float)
    got = np.asarray(got, dtype=float)
    scale = max(1.0, float(np.max(np.abs(expected))) if expected.size else 1.0)
    if got.shape != expected.shape:
        return np.inf
    if expected.size == 0:
        return 0.0
    return float(np.max(np.abs(got - expected))) / scale
