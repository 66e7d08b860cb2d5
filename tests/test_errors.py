"""Every input check raises the typed error whose exit code fits it."""

import numpy as np
import pytest

from gsvdkit import gsvd, jacobi, matcore, quotient, stats, subgeom, tikhonov
from gsvdkit.errors import (
    DimensionMismatch,
    DomainError,
    InvalidDimensions,
    InvalidPartition,
    NotOrthonormal,
)


def _full():
    return gsvd.gsvd_decompose(np.diag([3.0, 4.0]), np.array([[1.0, 1.0], [0.0, 0.0]]))


def _problem():
    return tikhonov.TikhonovProblem(np.eye(3), np.eye(3), np.ones(3))


CASES = [
    ("as_matrix 1-D", lambda: matcore.as_matrix(np.ones(3)),
     InvalidDimensions, "expected a 2-D array, got ndim=1"),
    ("as_matrix empty", lambda: matcore.as_matrix(np.ones((0, 3))),
     InvalidDimensions, "matrix dimensions must be positive, got (0, 3)"),
    ("as_matrix nan", lambda: matcore.as_matrix([[np.nan]]),
     DomainError, "matrix entries must be finite"),
    ("as_matrix string", lambda: matcore.as_matrix("abc"),
     DomainError, "expected an array of real numbers, got str"),
    ("complete_basis nan", lambda: matcore.complete_basis([[np.nan], [0.0]]),
     DomainError, "matrix entries must be finite"),
    ("complete_basis 1-D", lambda: matcore.complete_basis([1.0, 0.0]),
     InvalidDimensions, "expected a 2-D array, got ndim=1"),
    ("complete_basis 3-D", lambda: matcore.complete_basis(np.zeros((2, 2, 1))),
     InvalidDimensions, "expected a 2-D array, got ndim=3"),
    ("complete_basis string", lambda: matcore.complete_basis("abc"),
     DomainError, "expected an array of real numbers, got str"),
    ("as_vector 2-D", lambda: matcore.as_vector(np.ones((2, 2))),
     InvalidDimensions, "expected a vector, got shape (2, 2)"),
    ("as_vector inf", lambda: matcore.as_vector([np.inf]),
     DomainError, "vector entries must be finite"),
    ("jacobi n", lambda: jacobi.JacobiParams(m1=3, m2=3, n=0),
     InvalidDimensions, "n must be positive"),
    ("jacobi m1 < n", lambda: jacobi.JacobiParams(m1=2, m2=5, n=3),
     InvalidDimensions, "need m1 >= n and m2 >= n"),
    ("jacobi beta", lambda: jacobi.JacobiParams(m1=3, m2=3, n=2, beta=0.0),
     DomainError, "beta must be positive and finite, got 0.0"),
    ("jacobi string beta", lambda: jacobi.JacobiParams(3, 5, 1, beta="1"),
     DomainError, "beta must be positive and finite, got '1'"),
    ("jacobi beta past the float range", lambda: jacobi.JacobiParams(3, 5, 1, beta=10**400),
     DomainError, f"beta must be positive and finite, got {10**400}"),
    ("jacobi infinite beta", lambda: jacobi.JacobiParams(3, 5, 1, beta=np.inf),
     DomainError, "beta must be positive and finite, got inf"),
    ("jacobi boolean beta", lambda: jacobi.JacobiParams(3, 5, 1, beta=True),
     DomainError, "beta must be positive and finite, got True"),
    ("jacobi integrability", lambda: jacobi.JacobiParams(m1=3, m2=3, n=2, beta=1e-300),
     DomainError, "density is not integrable for these parameters"),
    ("jacobi samples", lambda: jacobi.empirical_check(
        jacobi.JacobiParams(m1=3, m2=3, n=1), 10, jacobi.SeededRng(seed=0)),
     DomainError, "need at least 1000 samples for a meaningful check"),
    ("sample_manova integer rng", lambda: jacobi.sample_manova(jacobi.JacobiParams(3, 3, 2), 5),
     DomainError, "rng must be a SeededRng or a numpy Generator, got 5"),
    ("empirical_check integer rng", lambda: jacobi.empirical_check(
        jacobi.JacobiParams(m1=3, m2=3, n=1), 1000, 5),
     DomainError, "rng must be a SeededRng, got 5"),
    ("jacobi fractional n", lambda: jacobi.JacobiParams(5, 5, 2.5),
     InvalidDimensions, "n must be an integer, got 2.5"),
    ("jacobi fractional samples", lambda: jacobi.empirical_check(
        jacobi.JacobiParams(m1=3, m2=3, n=1), 1000.5, jacobi.SeededRng(seed=0)),
     DomainError, "n_samples must be an integer, got 1000.5"),
    ("jacobi fractional seed", lambda: jacobi.SeededRng(1.5),
     DomainError, "seed must be an integer in [0, 2**128), got 1.5"),
    ("jacobi negative seed", lambda: jacobi.SeededRng(-1),
     DomainError, "seed must be an integer in [0, 2**128), got -1"),
    ("jacobi seed past 128 bits", lambda: jacobi.SeededRng(2**128),
     DomainError, f"seed must be an integer in [0, 2**128), got {2**128}"),
    ("jacobi boolean m1", lambda: jacobi.JacobiParams(True, 5, 1),
     InvalidDimensions, "m1 must be an integer, got True"),
    ("jacobi boolean samples", lambda: jacobi.empirical_check(
        jacobi.JacobiParams(m1=3, m2=3, n=1), True, jacobi.SeededRng(seed=0)),
     DomainError, "n_samples must be an integer, got True"),
    ("jacobi boolean seed", lambda: jacobi.SeededRng(True),
     DomainError, "seed must be an integer in [0, 2**128), got True"),
    ("limit_curve epsilon", lambda: quotient.limit_curve(_full(), 1.0),
     DomainError, "epsilon must lie in (0, pi/4), got 1.0"),
    ("limit_curve string epsilon", lambda: quotient.limit_curve(_full(), "0.1"),
     DomainError, "epsilon must lie in (0, pi/4), got '0.1'"),
    ("limit_curve None epsilon", lambda: quotient.limit_curve(_full(), None),
     DomainError, "epsilon must lie in (0, pi/4), got None"),
    ("limit_curve compact", lambda: quotient.limit_curve(gsvd.compact(_full()), 1e-2),
     DimensionMismatch, "limit_curve needs full-format factors"),
    ("fundamental_subspaces compact", lambda: gsvd.fundamental_subspaces(
        gsvd.compact(_full()), np.diag([3.0, 4.0]), np.array([[1.0, 1.0], [0.0, 0.0]])),
     DimensionMismatch, "fundamental_subspaces needs full-format factors"),
    ("energy_point unit", lambda: subgeom.energy_point(np.eye(2), [1.0, 1.0]),
     NotOrthonormal, "e must be a unit vector"),
    ("energy_point short e", lambda: subgeom.energy_point(np.ones((3, 4)), [1.0, 0.0, 0.0]),
     DimensionMismatch, "e has 3 entries, A has 4 columns"),
    ("energy_point2 short e", lambda: subgeom.energy_point2(np.eye(3), np.eye(3), [1.0, 0.0]),
     DimensionMismatch, "e has 2 entries, A has 3 columns"),
    ("energy_point2 column counts", lambda: subgeom.energy_point2(
        np.eye(3), np.ones((2, 2)), [1.0, 0.0, 0.0]),
     DimensionMismatch, "column counts differ: A has 3, B has 2"),
    ("lemniscate_residual long x", lambda: subgeom.lemniscate_residual(
        np.diag([3.0, 4.0]), [1.0, 0.0, 0.0]),
     DimensionMismatch, "x has 3 entries, A has 2 columns"),
    ("lemniscate_residual2 long x", lambda: subgeom.lemniscate_residual2(
        _full(), [1.0, 0.0, 0.0]),
     DimensionMismatch, "x has 3 entries, H has 2 columns"),
    ("tolerance inf", lambda: matcore.Tolerance(rel=np.inf),
     DomainError, "rel must be a nonnegative number and finite, got inf"),
    ("tolerance bool", lambda: matcore.Tolerance(rel=True),
     DomainError, "rel must be a nonnegative number and finite, got True"),
    ("tolerance string", lambda: matcore.Tolerance(rel="1e-3"),
     DomainError, "rel must be a nonnegative number and finite, got '1e-3'"),
    ("tolerance past the float range", lambda: matcore.Tolerance(rel=10**400),
     DomainError, f"rel must be a nonnegative number and finite, got {10**400}"),
    ("lambda string", lambda: tikhonov.lambda_factors(_problem(), "1"),
     DomainError, "lambda must be finite and nonnegative, got '1'"),
    ("lambda None", lambda: tikhonov.lambda_factors(_problem(), None),
     DomainError, "lambda must be finite and nonnegative, got None"),
    ("lambda past the float range", lambda: tikhonov.lambda_factors(_problem(), 10**400),
     DomainError, f"lambda must be finite and nonnegative, got {10**400}"),
    ("lambda bool", lambda: tikhonov.lambda_factors(_problem(), True),
     DomainError, "lambda must be finite and nonnegative, got True"),
    ("solve_path one lambda", lambda: tikhonov.solve_path(_problem(), 1.0),
     DomainError, "lambdas must be an iterable of numbers, got 1.0"),
    ("additive_split y1 rows", lambda: subgeom.additive_split(np.ones((3, 2)), np.ones((4, 1))),
     DimensionMismatch, "y1 has 4 rows, expected 3"),
    ("discriminant_reduce data rows", lambda: stats.discriminant_reduce(
        np.ones((5, 2)), stats.cluster_design([2, 2])),
     DimensionMismatch, "data has 5 rows, expected 4"),
    ("gsvd_decompose float tol", lambda: gsvd.gsvd_decompose(
        np.diag([3.0, 4.0]), np.ones((1, 2)), 1e-3),
     DomainError, "tol must be a Tolerance, got 0.001"),
    ("as_vector string", lambda: matcore.as_vector("abc"),
     DomainError, "expected an array of real numbers, got str"),
    ("energy_point string e", lambda: subgeom.energy_point(np.eye(2), "ab"),
     DomainError, "expected an array of real numbers, got str"),
    ("anova_f string data", lambda: stats.anova_f(stats.cluster_design([2, 2]), "abcd"),
     DomainError, "expected an array of real numbers, got str"),
    ("TikhonovProblem string b", lambda: tikhonov.TikhonovProblem(np.eye(3), np.eye(3), "abc"),
     DomainError, "expected an array of real numbers, got str"),
    ("jacobi_log_density None", lambda: jacobi.jacobi_log_density(
        jacobi.JacobiParams(3, 3, 2), None),
     InvalidDimensions, "expected a vector, got shape ()"),
    ("jacobi_log_density string", lambda: jacobi.jacobi_log_density(
        jacobi.JacobiParams(3, 3, 2), "abc"),
     DomainError, "expected an array of real numbers, got str"),
    ("cluster_design number", lambda: stats.cluster_design(3.0),
     InvalidPartition, "need k >= 2 cluster sizes, all whole numbers >= 1, got 3.0"),
]

_PAIR = (np.diag([3.0, 4.0]), np.array([[1.0, 1.0], [0.0, 0.0]]))

# Each public function whose first parameter is a library object, given 5.
_WRONG_OBJECT = [
    ("GsvdFactors", [
        ("compact", lambda: gsvd.compact(5)),
        ("with_top_convention", lambda: gsvd.with_top_convention(5)),
        ("structure_counts", lambda: gsvd.structure_counts(5)),
        ("expand", lambda: gsvd.expand(5)),
        ("rq_drilldown", lambda: gsvd.rq_drilldown(5)),
        ("fundamental_subspaces", lambda: gsvd.fundamental_subspaces(5, *_PAIR)),
        ("rank_reduce", lambda: gsvd.rank_reduce(5, *_PAIR, 1)),
        ("trig_table", lambda: quotient.trig_table(5, *_PAIR)),
        ("horizontal_projector", lambda: quotient.horizontal_projector(5, *_PAIR)),
        ("limit_curve", lambda: quotient.limit_curve(5, 0.1)),
        ("ellipse_data", lambda: subgeom.ellipse_data(5)),
        ("lemniscate_residual2", lambda: subgeom.lemniscate_residual2(5, [1.0, 0.0])),
        ("apportion", lambda: stats.apportion(5)),
    ]),
    ("JacobiParams", [
        ("sample_manova", lambda: jacobi.sample_manova(5, jacobi.SeededRng(0))),
        ("jacobi_log_density", lambda: jacobi.jacobi_log_density(5, [0.5])),
        ("empirical_check", lambda: jacobi.empirical_check(5, 1000, jacobi.SeededRng(0))),
    ]),
    ("TikhonovProblem", [
        ("base_factors", lambda: tikhonov.base_factors(5)),
        ("lambda_factors", lambda: tikhonov.lambda_factors(5, 1.0)),
        ("solve_path", lambda: tikhonov.solve_path(5, [1.0])),
        ("direct_solve", lambda: tikhonov.direct_solve(5, 1.0)),
    ]),
]

CASES += [(f"{name} of an int", call, DomainError, f"expected a {kind}, got int")
          for kind, calls in _WRONG_OBJECT for name, call in calls]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_input_checks_raise_typed_errors(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
