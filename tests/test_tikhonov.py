import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

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
        decompose = gsvd._decompose

        def counted(*args, **kwargs):
            calls.append(args)
            return decompose(*args, **kwargs)

        monkeypatch.setattr(gsvd, "_decompose", counted)
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

    def test_damping_matches_the_path(self, rng):
        # cos^2 of the scaled cosines against the path's c^2 / (c^2 + lam^2 s^2)
        p = random_problem(rng)
        for lam, _, damp in tikhonov.solve_path(p, [0.0, 0.1, 1.0, 10.0]):
            np.testing.assert_allclose(tikhonov.lambda_factors(p, lam).damping(), damp,
                                       rtol=0, atol=1e-15)

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

    def test_huge_lambda_reaches_the_limit(self, rng):
        # lam**2 overflows past about 1.3e154; a finite lambda beyond still
        # damps null(L) by exactly 1 and every other direction to nothing,
        # leaving the least-squares solution within null(L) = span(ones).
        p = tikhonov.TikhonovProblem(rng.standard_normal((6, 3)), np.diff(np.eye(3), axis=0),
                                     rng.standard_normal(6))
        s = tikhonov.base_factors(p).s
        assert np.count_nonzero(s == 0) == 1
        a1 = p.a @ np.ones(3)
        want = np.full(3, a1 @ p.b / (a1 @ a1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = tikhonov.solve_path(p, [1e155, 1e200, sys.float_info.max])
        for _, x, damp in path:
            assert np.all(damp[s == 0] == 1.0)
            assert np.all(damp[s > 0] <= 1e-300)
            np.testing.assert_allclose(x, want, rtol=1e-12)

    def test_one_solve_matches_a_solve_per_lambda(self, rng):
        # The solve of the whole grid against one lu_solve per lambda, as
        # c^2 / (c^2 + lam^2 s^2) with lam^2 capped at the largest float.
        p = tikhonov.TikhonovProblem(rng.standard_normal((30, 6)), np.diff(np.eye(6), axis=0),
                                     rng.standard_normal(30))
        lambdas = [0.0, 1e-3, 0.5, 1.0, 7.0, 1e3, 1e200, sys.float_info.max]
        f = tikhonov.base_factors(p)
        lu = scipy.linalg.lu_factor(f.c[:, None] * f.h)
        y0 = f.u.T @ p.b
        path = tikhonov.solve_path(p, lambdas)
        assert [lam for lam, _, _ in path] == lambdas
        for lam, x, damp in path:
            lam2 = min(lam * lam, sys.float_info.max)
            want = f.c**2 / (f.c**2 + lam2 * f.s**2)
            assert np.array_equal(damp, want)
            ref = scipy.linalg.lu_solve(lu, want * y0)
            assert np.linalg.norm(x - ref) <= 1e-14 * np.linalg.norm(ref)
            assert x.flags.c_contiguous

    def test_empty_grid(self, rng):
        assert tikhonov.solve_path(random_problem(rng), []) == []


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


class TestDirectSolveAtLargeLambda:
    @pytest.mark.parametrize("lam", [1e12, 1e16, 1e300, sys.float_info.max])
    def test_keeps_the_part_on_null_l(self, lam):
        # The limit is the least-squares solution within null(L) =
        # span([1, 1]); a cut relative to lam ||L|| drops A's part there
        # and returns 0 from about 1e16 up.
        p = tikhonov.TikhonovProblem([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [[-1.0, 1.0]],
                                     [1.0, 2.0, 3.0])
        np.testing.assert_allclose(tikhonov.direct_solve(p, lam), [1.5, 1.5], rtol=1e-12)
        np.testing.assert_allclose(tikhonov.solve_path(p, [lam])[0][1], [1.5, 1.5], rtol=1e-12)


class TestLambdaDomain:
    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf, "1", None, 10**400, True],
                             ids=["negative", "nan", "inf", "string", "none",
                                  "past the float range", "bool"])
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
