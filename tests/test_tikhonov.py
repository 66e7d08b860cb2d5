import numpy as np
import pytest

from gsvdkit import gsvd, tikhonov
from gsvdkit.errors import DimensionMismatch, DomainError, SingularH

from conftest import relative_gap


def random_problem(rng, m1=8, m2=5, n=4):
    a = rng.standard_normal((m1, n))
    l = rng.standard_normal((m2, n))
    b = rng.standard_normal(m1)
    return tikhonov.TikhonovProblem(a, l, b)


def normal_equations_solve(p, lam):
    # independent oracle: (A'A + lam^2 L'L) x = A'b
    lhs = p.a.T @ p.a + lam**2 * p.l.T @ p.l
    return np.linalg.solve(lhs, p.a.T @ p.b)


class TestProblem:
    def test_rejects_rank_deficient_a(self, rng):
        a = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))
        with pytest.raises(SingularH):
            tikhonov.TikhonovProblem(a, np.eye(4), rng.standard_normal(6))

    def test_rejects_shape_mismatch(self, rng):
        from gsvdkit.errors import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            tikhonov.TikhonovProblem(rng.standard_normal((5, 3)),
                                     rng.standard_normal((2, 4)),
                                     rng.standard_normal(5))

    def test_rejects_a_negligible_beside_l(self, rng):
        # full rank at its own scale, roundoff beside L: r_a = 0
        with pytest.raises(SingularH):
            tikhonov.TikhonovProblem(1e-20 * rng.standard_normal((6, 3)), np.eye(3),
                                     rng.standard_normal(6))

    def test_one_decomposition_per_problem(self, rng, monkeypatch):
        calls = []
        decompose = gsvd.gsvd_decompose

        def counted(*args, **kwargs):
            calls.append(args)
            return decompose(*args, **kwargs)

        monkeypatch.setattr(gsvd, "gsvd_decompose", counted)
        p = random_problem(rng)
        tikhonov.solve_path(p, [0.0, 1.0, 10.0])
        for lam in (0.5, 1.0, 2.0):
            tikhonov.lambda_factors(p, lam)
        assert len(calls) == 1


class TestLambdaFactors:
    def test_lambda_one_is_fixed_point(self, rng):
        p = random_problem(rng)
        base = tikhonov.base_factors(p)
        lf = tikhonov.lambda_factors(p, 1.0)
        np.testing.assert_allclose(lf.c_lambda, base.c, atol=1e-14)
        np.testing.assert_allclose(lf.s_lambda, base.s, atol=1e-14)
        np.testing.assert_allclose(lf.h_lambda, base.h, atol=1e-13)

    def test_lambda_zero(self, rng):
        p = random_problem(rng)
        base = tikhonov.base_factors(p)
        lf = tikhonov.lambda_factors(p, 0.0)
        assert np.all(lf.s_lambda == 0)
        assert np.all(lf.c_lambda == 1.0)
        # A = U H0 in the compact U basis
        resid = np.linalg.norm(base.u @ lf.h0 - p.a)
        assert resid <= 1e-12 * np.linalg.norm(p.a)

    def test_half_angle_entry(self):
        # A = L = I gives c1 = s1 = 1/sqrt(2); at lambda = 2 the formula
        # collapses to 1/sqrt(1 + 4) = 1/sqrt(5)
        p = tikhonov.TikhonovProblem(np.eye(2), np.eye(2), np.ones(2))
        lf = tikhonov.lambda_factors(p, 2.0)
        np.testing.assert_allclose(lf.c_lambda, np.full(2, 1 / np.sqrt(5)),
                                   atol=1e-14)

    def test_h0_identity_along_grid(self, rng):
        p = random_problem(rng)
        h0_ref = None
        for lam in (0.0, 0.1, 1.0, 10.0, 100.0):
            lf = tikhonov.lambda_factors(p, lam)
            prod = lf.c_lambda[:, None] * lf.h_lambda
            assert np.linalg.norm(prod - lf.h0) <= 1e-11 * np.linalg.norm(lf.h0)
            if h0_ref is None:
                h0_ref = lf.h0
            np.testing.assert_allclose(lf.h0, h0_ref, atol=1e-13)

    def test_two_cosine_identity(self, rng):
        for _ in range(10):
            p = random_problem(rng)
            base = tikhonov.base_factors(p)
            tan1 = base.s / base.c
            for lam in (0.0, 0.5, 1.0, 3.0, 25.0):
                lf = tikhonov.lambda_factors(p, lam)
                expected = 1.0 / (1.0 + lam**2 * tan1**2)
                np.testing.assert_allclose(lf.c_lambda**2, expected, atol=1e-12)

    def test_matches_fresh_decomposition(self, rng):
        p = random_problem(rng)
        for lam in (0.5, 2.0, 7.0):
            lf = tikhonov.lambda_factors(p, lam)
            fresh = gsvd.gsvd_decompose(p.a, lam * p.l)
            np.testing.assert_allclose(np.sort(lf.c_lambda), np.sort(fresh.c),
                                       atol=1e-9)
            np.testing.assert_allclose(np.sort(lf.s_lambda), np.sort(fresh.s),
                                       atol=1e-9)

    def test_negative_lambda_rejected(self, rng):
        p = random_problem(rng)
        with pytest.raises(ValueError):
            tikhonov.lambda_factors(p, -1.0)


class TestSolvePath:
    def test_lambda_zero_is_least_squares(self, rng):
        p = random_problem(rng)
        [(_, x0, _)] = tikhonov.solve_path(p, [0.0])
        expected = np.linalg.lstsq(p.a, p.b, rcond=None)[0]
        np.testing.assert_allclose(x0, expected, atol=1e-10)

    def test_identity_regularizer_monotone_norm(self, rng):
        p = tikhonov.TikhonovProblem(rng.standard_normal((9, 4)), np.eye(4),
                                     rng.standard_normal(9))
        lambdas = [0.0, 0.1, 0.5, 1.0, 5.0, 25.0, 125.0]
        path = tikhonov.solve_path(p, lambdas)
        norms = [np.linalg.norm(x) for _, x, _ in path]
        assert all(n2 <= n1 * (1 + 1e-12) for n1, n2 in zip(norms, norms[1:]))
        damps = np.array([d for _, _, d in path])
        assert np.all(np.diff(damps, axis=0) <= 1e-12)

    def test_matches_direct_solve_and_normal_equations(self, rng):
        for _ in range(25):
            p = random_problem(rng,
                               m1=int(rng.integers(5, 12)),
                               m2=int(rng.integers(2, 8)),
                               n=int(rng.integers(2, 5)))
            lambdas = [0.0, 0.1, 1.0, 10.0]
            path = tikhonov.solve_path(p, lambdas)
            for lam, x, _ in path:
                xd = tikhonov.direct_solve(p, lam)
                assert relative_gap(x, xd) <= 1e-9
                xn = normal_equations_solve(p, lam)
                assert relative_gap(x, xn) <= 1e-7


class TestDirectSolve:
    def test_scalar(self):
        p = tikhonov.TikhonovProblem([[1.0]], [[1.0]], [1.0])
        np.testing.assert_allclose(tikhonov.direct_solve(p, 1.0), [0.5],
                                   atol=1e-14)

    def test_lambda_zero(self, rng):
        p = random_problem(rng)
        np.testing.assert_allclose(tikhonov.direct_solve(p, 0.0),
                                   np.linalg.lstsq(p.a, p.b, rcond=None)[0],
                                   atol=1e-12)


class TestLambdaDomain:
    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
    def test_every_route_rejects(self, rng, lam):
        # inf * 0 would put NaN where s_i = 0; NaN fails every comparison
        p = random_problem(rng)
        with pytest.raises(DomainError, match="finite and nonnegative"):
            tikhonov.lambda_factors(p, lam)
        with pytest.raises(DomainError, match="finite and nonnegative"):
            tikhonov.solve_path(p, [1.0, lam])
        with pytest.raises(DomainError, match="finite and nonnegative"):
            tikhonov.direct_solve(p, lam)

    def test_b_of_the_wrong_length(self, rng):
        with pytest.raises(DimensionMismatch, match="b has length 5"):
            tikhonov.TikhonovProblem(rng.standard_normal((6, 3)), np.eye(3),
                                     rng.standard_normal(5))
