"""Every input check raises the typed error whose exit code fits it."""

import numpy as np
import pytest

from gsvdkit import gsvd, jacobi, matcore, quotient, subgeom
from gsvdkit.errors import DimensionMismatch, DomainError, InvalidDimensions, NotOrthonormal


def _full():
    return gsvd.gsvd_decompose(np.diag([3.0, 4.0]), np.array([[1.0, 1.0], [0.0, 0.0]]))


CASES = [
    ("as_matrix 1-D", lambda: matcore.as_matrix(np.ones(3)),
     InvalidDimensions, "expected a 2-D array, got ndim=1"),
    ("as_matrix empty", lambda: matcore.as_matrix(np.ones((0, 3))),
     InvalidDimensions, "matrix dimensions must be positive, got (0, 3)"),
    ("as_matrix nan", lambda: matcore.as_matrix([[np.nan]]),
     DomainError, "matrix entries must be finite"),
    ("as_vector 2-D", lambda: matcore.as_vector(np.ones((2, 2))),
     InvalidDimensions, "expected a vector, got shape (2, 2)"),
    ("as_vector inf", lambda: matcore.as_vector([np.inf]),
     DomainError, "vector entries must be finite"),
    ("jacobi n", lambda: jacobi.JacobiParams(m1=3, m2=3, n=0),
     InvalidDimensions, "n must be positive"),
    ("jacobi m1 < n", lambda: jacobi.JacobiParams(m1=2, m2=5, n=3),
     InvalidDimensions, "need m1 >= n and m2 >= n"),
    ("jacobi beta", lambda: jacobi.JacobiParams(m1=3, m2=3, n=2, beta=0.0),
     DomainError, "beta must be positive, got 0.0"),
    ("jacobi integrability", lambda: jacobi.JacobiParams(m1=3, m2=3, n=2, beta=1e-300),
     DomainError, "density is not integrable for these parameters"),
    ("jacobi samples", lambda: jacobi.empirical_check(
        jacobi.JacobiParams(m1=3, m2=3, n=1), 10, jacobi.SeededRng(seed=0)),
     DomainError, "need at least 1000 samples for a meaningful check"),
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
    ("limit_curve compact", lambda: quotient.limit_curve(gsvd.compact(_full()), 1e-2),
     DimensionMismatch, "limit_curve needs full-format factors"),
    ("fundamental_subspaces compact", lambda: gsvd.fundamental_subspaces(
        gsvd.compact(_full()), np.diag([3.0, 4.0]), np.array([[1.0, 1.0], [0.0, 0.0]])),
     DimensionMismatch, "fundamental_subspaces needs full-format factors"),
    ("energy_point unit", lambda: subgeom.energy_point(np.eye(2), [1.0, 1.0]),
     NotOrthonormal, "e must be a unit vector"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_input_checks_raise_typed_errors(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
