import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from gsvdkit import gsvd, jacobi
from gsvdkit.errors import DomainError, UnsupportedBeta


class TestParams:
    def test_derived_exponents(self):
        params = jacobi.JacobiParams(m1=3, m2=5, n=2, beta=1.0)
        assert params.a1 == 1.5
        assert params.a2 == 2.5
        assert params.p == 1.5

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            jacobi.JacobiParams(m1=2, m2=5, n=3)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            jacobi.JacobiParams(m1=3, m2=3, n=2, beta=0.0)

    def test_rejects_nan_beta(self):
        with pytest.raises(ValueError, match="beta"):
            jacobi.JacobiParams(m1=3, m2=3, n=2, beta=float("nan"))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError, match="n must be positive"):
            jacobi.JacobiParams(m1=3, m2=3, n=0)

    def test_rejects_a_nonintegrable_density(self):
        # with m1, m2 >= n the exponent a1 - p is beta (m1 - n + 1) / 2 - 1
        # > -1; at beta = 1e-300 it rounds to -1, where l^(a1 - p) is not
        # integrable at 0
        with pytest.raises(ValueError, match="not integrable"):
            jacobi.JacobiParams(m1=3, m2=3, n=2, beta=1e-300)


class TestSampling:
    def test_unsupported_beta(self):
        params = jacobi.JacobiParams(m1=3, m2=3, n=2, beta=4.0)
        with pytest.raises(UnsupportedBeta):
            jacobi.sample_manova(params, jacobi.SeededRng(seed=1))

    def test_eigenvalues_in_unit_interval(self, rng):
        gen = jacobi.SeededRng(seed=5).generator()
        for beta in (1, 2):
            params = jacobi.JacobiParams(m1=4, m2=5, n=3, beta=beta)
            for _ in range(50):
                lam = jacobi.sample_manova(params, gen)
                assert lam.shape == (3,)
                assert np.all((0 <= lam) & (lam <= 1))
                assert np.all(np.diff(lam) >= 0)

    def test_seed_reproducibility(self):
        params = jacobi.JacobiParams(m1=3, m2=4, n=2)
        a = jacobi.sample_manova(params, jacobi.SeededRng(seed=33))
        b = jacobi.sample_manova(params, jacobi.SeededRng(seed=33))
        np.testing.assert_array_equal(a, b)

    def test_scalar_case_beta_mean(self):
        # n = 1, m1 = m2 = 1: the eigenvalue is Beta(1/2, 1/2); mean 1/2
        params = jacobi.JacobiParams(m1=1, m2=1, n=1, beta=1)
        gen = jacobi.SeededRng(seed=7).generator()
        draws = np.array([jacobi.sample_manova(params, gen)[0]
                          for _ in range(20000)])
        se = scipy.stats.beta(0.5, 0.5).std() / np.sqrt(draws.size)
        assert abs(draws.mean() - 0.5) <= 3 * se

    def test_scalar_case_general_shapes(self):
        # n = 1: Beta(m1/2, m2/2) with mean m1 / (m1 + m2)
        params = jacobi.JacobiParams(m1=4, m2=6, n=1, beta=1)
        gen = jacobi.SeededRng(seed=11).generator()
        draws = np.array([jacobi.sample_manova(params, gen)[0]
                          for _ in range(20000)])
        dist = scipy.stats.beta(2.0, 3.0)
        se = dist.std() / np.sqrt(draws.size)
        assert abs(draws.mean() - dist.mean()) <= 3 * se

    def test_eigenvalues_are_squared_cosines(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((n + int(rng.integers(0, 4)), n))
            b = rng.standard_normal((n + int(rng.integers(0, 4)), n))
            lam = np.sort(np.linalg.eigvalsh(jacobi.manova_matrix(a, b)))
            f = gsvd.gsvd_decompose(a, b)
            np.testing.assert_allclose(lam, np.sort(f.c**2), atol=1e-9)


class TestCsSampler:
    def test_matches_the_manova_eigenvalues(self):
        # the pair a seed draws: A then B, and for beta = 2 the real [A; B]
        # then the imaginary one
        m1, m2, n = 5, 7, 3
        for beta, seed in ((1, 3), (2, 4)):
            gen = jacobi.SeededRng(seed).generator()
            a = gen.standard_normal((m1, n))
            b = gen.standard_normal((m2, n))
            if beta == 2:
                a = a + 1j * gen.standard_normal((m1, n))
                b = b + 1j * gen.standard_normal((m2, n))
            expected = np.linalg.eigvalsh(jacobi.manova_matrix(a, b))
            params = jacobi.JacobiParams(m1=m1, m2=m2, n=n, beta=beta)
            got = jacobi.sample_manova(params, jacobi.SeededRng(seed))
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_batches_equal_the_sequential_stream(self):
        params = jacobi.JacobiParams(m1=120, m2=120, n=5, beta=2)
        n_samples = 1500
        per_batch = jacobi._BATCH_NORMALS // (2 * 240 * 5)
        assert n_samples > 3 * per_batch
        report = jacobi.empirical_check(params, n_samples, jacobi.SeededRng(seed=12))
        gen = jacobi.SeededRng(seed=12).generator()
        sequential = np.array([jacobi.sample_manova(params, gen)
                               for _ in range(n_samples)])
        np.testing.assert_array_equal(report.draws, sequential)


class TestDensity:
    def test_arcsine_value(self):
        params = jacobi.JacobiParams(m1=1, m2=1, n=1, beta=1)
        value = np.exp(jacobi.jacobi_log_density(params, [0.5]))
        assert abs(value - 2 / np.pi) <= 1e-14

    def test_matches_beta_distribution_for_n_one(self):
        params = jacobi.JacobiParams(m1=3, m2=5, n=1, beta=1)
        dist = scipy.stats.beta(1.5, 2.5)
        for lam in (0.1, 0.3, 0.5, 0.9):
            got = np.exp(jacobi.jacobi_log_density(params, [lam]))
            assert abs(got - dist.pdf(lam)) <= 1e-12 * dist.pdf(lam)

    def test_normalization_by_quadrature(self):
        for params in (
            jacobi.JacobiParams(m1=3, m2=5, n=1, beta=1),
            jacobi.JacobiParams(m1=3, m2=4, n=1, beta=2.5),
        ):
            total, err = scipy.integrate.quad(
                lambda x: np.exp(jacobi.jacobi_log_density(params, [x])),
                0.0, 1.0)
            assert abs(total - 1.0) <= max(1e-6, 10 * err)

    def test_permutation_invariance_exact(self, rng):
        params = jacobi.JacobiParams(m1=6, m2=7, n=4, beta=2)
        lam = np.sort(rng.uniform(0.05, 0.95, size=4))
        base = jacobi.jacobi_log_density(params, lam)
        for _ in range(5):
            perm = rng.permutation(4)
            assert jacobi.jacobi_log_density(params, lam[perm]) == base

    def test_domain_errors(self):
        params = jacobi.JacobiParams(m1=3, m2=3, n=2, beta=1)
        with pytest.raises(DomainError):
            jacobi.jacobi_log_density(params, [0.0, 0.5])
        with pytest.raises(DomainError):
            jacobi.jacobi_log_density(params, [0.4, 0.4])
        with pytest.raises(DomainError):
            jacobi.jacobi_log_density(params, [0.4])


class TestEmpiricalCheck:
    def test_deterministic_report(self):
        params = jacobi.JacobiParams(m1=3, m2=5, n=1, beta=1)
        rng_a = jacobi.SeededRng(seed=99)
        rng_b = jacobi.SeededRng(seed=99)
        rep_a = jacobi.empirical_check(params, 2000, rng_a)
        rep_b = jacobi.empirical_check(params, 2000, rng_b)
        assert rep_a == rep_b

    def test_ks_distance_small(self):
        params = jacobi.JacobiParams(m1=3, m2=5, n=1, beta=1)
        report = jacobi.empirical_check(params, 20000, jacobi.SeededRng(seed=4))
        assert report.ks_distance is not None
        assert report.ks_distance < 0.02

    def test_ks_distance_against_scipy_stats(self):
        params = jacobi.JacobiParams(m1=3, m2=5, n=1, beta=1)
        report = jacobi.empirical_check(params, 3000, jacobi.SeededRng(seed=5))
        cdf = scipy.stats.beta(1.5, 2.5).cdf(np.sort(report.draws[:, 0]))
        grid = np.arange(1, 3001) / 3000
        expected = np.max(np.maximum(grid - cdf, cdf - (grid - 1 / 3000)))
        assert report.ks_distance == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_trace_mean_for_symmetric_shapes(self):
        # m1 = m2 makes the eigenvalue sum symmetric about n/2
        params = jacobi.JacobiParams(m1=4, m2=4, n=2, beta=1)
        report = jacobi.empirical_check(params, 5000, jacobi.SeededRng(seed=21))
        expected = 2 * 4 / 8
        assert abs(report.mean_sum - expected) <= 3 * report.se_sum
        assert report.ks_distance is None
        assert report.half_gap_z < 5

    def test_sample_floor(self):
        params = jacobi.JacobiParams(m1=3, m2=3, n=1, beta=1)
        with pytest.raises(ValueError):
            jacobi.empirical_check(params, 10, jacobi.SeededRng(seed=0))

    def test_beta_two_runs(self):
        params = jacobi.JacobiParams(m1=3, m2=3, n=2, beta=2)
        report = jacobi.empirical_check(params, 1500, jacobi.SeededRng(seed=8))
        assert 0 < report.mean_sum < 2
