import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from gsvdkit import matcore, quotient, tikhonov
from gsvdkit.errors import DomainError
from gsvdkit.matcore import Tolerance

from conftest import random_orthonormal


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            matcore.as_matrix([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            matcore.as_matrix([[np.inf], [1.0]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            matcore.as_matrix([1.0, 2.0])

    @pytest.mark.parametrize("call", [
        lambda: tikhonov.TikhonovProblem(np.eye(3), np.eye(3), np.ones(3)),
        lambda: quotient.quotient_check(np.diag([3.0, 4.0]), np.ones((1, 2))),
    ], ids=["TikhonovProblem", "quotient_check"])
    def test_each_matrix_argument_converted_once(self, call, monkeypatch):
        # the decomposition inside takes the matrices its caller converted
        calls = []
        as_matrix = matcore._as_matrix

        def counted(a, min_cols):
            calls.append(a)
            return as_matrix(a, min_cols)

        monkeypatch.setattr(matcore, "_as_matrix", counted)
        call()
        assert len(calls) == 2

    def test_vector_from_column(self):
        v = matcore.as_vector([[1.0], [2.0]])
        assert v.shape == (2,)

    def test_tolerance_rejects_negative(self):
        with pytest.raises(ValueError):
            Tolerance(rel=-1.0)

    @pytest.mark.parametrize("field", ["rel"])
    def test_tolerance_rejects_nan(self, field):
        # a NaN cutoff compares False with every singular value, so it
        # would report rank 0 for any matrix
        with pytest.raises(DomainError):
            Tolerance(**{field: float("nan")})


class TestNumericalRank:
    def test_zero_matrix(self):
        assert matcore.numerical_rank(np.zeros((3, 3))) == 0

    def test_identity(self):
        assert matcore.numerical_rank(np.eye(4)) == 4

    def test_stacked_example(self):
        # rows (3,0), (0,4), (1,1): two independent rows by hand reduction
        m = np.array([[3.0, 0.0], [0.0, 4.0], [1.0, 1.0]])
        assert matcore.numerical_rank(m) == 2

    def test_invariance_under_permutation_and_rotation(self, rng):
        for _ in range(50):
            m_rows = int(rng.integers(2, 9))
            n_cols = int(rng.integers(2, 9))
            k = int(rng.integers(1, min(m_rows, n_cols) + 1))
            m = rng.standard_normal((m_rows, k)) @ rng.standard_normal((k, n_cols))
            base = matcore.numerical_rank(m)
            assert base == k
            pr = rng.permutation(m_rows)
            pc = rng.permutation(n_cols)
            assert matcore.numerical_rank(m[pr][:, pc]) == base
            q1 = random_orthonormal(rng, m_rows, m_rows)
            q2 = random_orthonormal(rng, n_cols, n_cols)
            assert matcore.numerical_rank(q1 @ m @ q2) == base


class TestFullSvd:
    def test_diagonal(self):
        _, sigma, _ = matcore.full_svd(np.diag([3.0, 4.0]))
        np.testing.assert_allclose(sigma, [4.0, 3.0])

    def test_column_vector(self):
        # svd of [1.5; 2] is the hypotenuse length 2.5
        _, sigma, _ = matcore.full_svd(np.array([[1.5], [2.0]]))
        np.testing.assert_allclose(sigma, [2.5], atol=1e-15)

    def test_zero(self):
        u, sigma, v = matcore.full_svd(np.zeros((2, 2)))
        np.testing.assert_allclose(sigma, [0.0, 0.0])
        np.testing.assert_allclose(u @ u.T, np.eye(2), atol=1e-14)

    def test_reconstruction_and_orthogonality(self, rng):
        for _ in range(100):
            m = rng.standard_normal((int(rng.integers(1, 12)), int(rng.integers(1, 12))))
            u, sigma, v = matcore.full_svd(m)
            full = np.zeros(m.shape)
            k = sigma.size
            full[:k, :k] = np.diag(sigma)
            resid = np.linalg.norm(m - u @ full @ v.T)
            assert resid <= 10 * matcore.EPS * max(np.linalg.norm(m), 1.0) * max(m.shape)
            np.testing.assert_allclose(u.T @ u, np.eye(m.shape[0]), atol=1e-12)
            np.testing.assert_allclose(v.T @ v, np.eye(m.shape[1]), atol=1e-12)

    def test_sign_convention_deterministic(self, rng):
        m = rng.standard_normal((5, 3))
        u1, _, v1 = matcore.full_svd(m)
        u2, _, v2 = matcore.full_svd(m.copy())
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_array_equal(v1, v2)
        for j in range(u1.shape[1]):
            lead = u1[np.flatnonzero(np.abs(u1[:, j]) > 1e-12)[0], j]
            assert lead >= 0

    def test_leading_signs_match_column_loop(self, rng):
        # entries at and around the 1e-12 significance threshold, signed zeros
        values = np.array([0.0, -0.0, 1e-13, -1e-13, 1e-12, -1e-12, 2e-12, -2e-12, 0.5, -0.5])
        inputs = [rng.choice(values, size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
                  for _ in range(200)]
        # tall matrices whose leading significant entries lie at or past the
        # end of the early blocks of rows read (1, 2, 4, ...); columns 0 and
        # 6 have no significant entry
        for depth in (1, 2, 3, 6, 7, 64, 150, 298, 299):
            x = rng.choice(values[:4], size=(300, 7))
            x[depth:, 1:6] = rng.choice(values, size=(300 - depth, 5))
            x[depth, 1:3] = -0.5, 2e-12
            inputs += [x, np.asfortranarray(x[::-1])]
        inputs += [np.zeros((0, 3)), np.zeros((4, 0)), np.zeros((0, 0)), -np.ones((0, 2))]
        for x in inputs:
            expected = np.ones(x.shape[1])
            for j in range(x.shape[1]):
                idx = np.flatnonzero(np.abs(x[:, j]) > 1e-12)
                if idx.size and x[idx[0], j] < 0:
                    expected[j] = -1.0
            np.testing.assert_array_equal(matcore._leading_signs(x), expected)

    def test_leading_signs_scratch_is_small(self, rng):
        # Rows are read in growing blocks of the undecided columns; a copy
        # of |x| and a matrix-sized mask took 36 MB on this input.
        x = rng.standard_normal((2000, 2000))
        tracemalloc.start()
        try:
            matcore._leading_signs(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


# Reflector counts on both sides of the compact-WY block size (32) and of
# a few multiples of it.
REFLECTOR_COUNTS = [1, 31, 32, 33, 127, 128, 129]


class TestBlockedCompletions:
    @pytest.mark.parametrize("k", REFLECTOR_COUNTS)
    def test_complete_basis(self, rng, k):
        q = random_orthonormal(rng, k + 37, k)
        comp = matcore.complete_basis(q)
        assert comp.shape == (k + 37, 37)
        np.testing.assert_allclose(comp.T @ comp, np.eye(37), atol=1e-12)
        assert np.max(np.abs(q.T @ comp)) <= 1e-12

    @pytest.mark.parametrize("k", REFLECTOR_COUNTS)
    @pytest.mark.parametrize("tall", [True, False], ids=["tall", "wide"])
    def test_full_svd(self, rng, k, tall):
        m = rng.standard_normal((k + 37, k) if tall else (k, k + 37))
        u, sigma, v = matcore.full_svd(m)
        assert u.shape == (m.shape[0],) * 2 and v.shape == (m.shape[1],) * 2
        np.testing.assert_allclose(u.T @ u, np.eye(u.shape[0]), atol=1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(v.shape[0]), atol=1e-12)
        scale = np.linalg.norm(m, 2)
        # the completed columns are orthogonal to the input
        if tall:
            assert np.max(np.abs(u[:, k:].T @ m)) <= 1e-12 * scale
        else:
            assert np.max(np.abs(m @ v[:, k:])) <= 1e-12 * scale
        np.testing.assert_allclose(sigma, np.linalg.svd(m, compute_uv=False),
                                   rtol=0, atol=1e-12 * scale)
        resid = np.linalg.norm(m - (u[:, :k] * sigma) @ v[:, :k].T)
        assert resid <= 1e-12 * scale * max(m.shape)

    def test_complete_basis_of_square_is_empty(self, rng):
        assert matcore.complete_basis(random_orthonormal(rng, 5, 5)).shape == (5, 0)


# Tall, wide, square, zero and rank-deficient inputs.
THIN_ROUTE_INPUTS = {
    "tall": lambda rng: rng.standard_normal((40, 7)),
    "wide": lambda rng: rng.standard_normal((7, 40)),
    "square": lambda rng: rng.standard_normal((9, 9)),
    "zero_tall": lambda rng: np.zeros((5, 3)),
    "zero_wide": lambda rng: np.zeros((3, 5)),
    "rank_deficient_tall": lambda rng: rng.standard_normal((30, 4)) @ rng.standard_normal((4, 12)),
    "rank_deficient_wide": lambda rng: rng.standard_normal((12, 4)) @ rng.standard_normal((4, 30)),
    "row": lambda rng: rng.standard_normal((1, 6)),
    "column": lambda rng: rng.standard_normal((6, 1)),
}


class TestThinRoutes:
    # orth_basis and pinv form only the singular vectors they read; the
    # values are those of the full SVD, bit for bit.
    @pytest.mark.parametrize("kind", list(THIN_ROUTE_INPUTS))
    def test_match_full_svd(self, rng, kind):
        m = THIN_ROUTE_INPUTS[kind](rng)
        u, sigma, v = matcore.full_svd(m)
        k = matcore.numerical_rank(m)
        np.testing.assert_array_equal(matcore.orth_basis(m), u[:, :k])
        np.testing.assert_array_equal(matcore.pinv(m), matcore._svd_pinv(u, sigma, v, k))

    @pytest.mark.parametrize("kind", ["tall", "wide", "square"])
    def test_completes_only_what_is_asked(self, rng, kind):
        # _svd is thin; _completed makes either factor square and keeps
        # its columns as they were
        m = THIN_ROUTE_INPUTS[kind](rng)
        rows, cols = m.shape
        k = min(rows, cols)
        u, _, v = matcore._svd(m)
        assert u.shape == (rows, k) and v.shape == (cols, k)
        for thin, size in ((u, rows), (v, cols)):
            square = matcore._completed(thin)
            assert square.shape == (size, size)
            np.testing.assert_array_equal(square[:, :k], thin)


class TestPinv:
    def test_row_vector(self):
        # B'/||B||^2 for a single row
        np.testing.assert_allclose(matcore.pinv(np.array([[1.0, 1.0]])),
                                   [[0.5], [0.5]], atol=1e-15)

    def test_identity(self):
        np.testing.assert_allclose(matcore.pinv(np.eye(3)), np.eye(3), atol=1e-14)

    def test_zero(self):
        out = matcore.pinv(np.zeros((2, 3)))
        assert out.shape == (3, 2)
        assert np.all(out == 0)

    def test_moore_penrose_identities(self, rng):
        for _ in range(50):
            m_rows = int(rng.integers(1, 10))
            n_cols = int(rng.integers(1, 10))
            k = int(rng.integers(1, min(m_rows, n_cols) + 1))
            m = rng.standard_normal((m_rows, k)) @ rng.standard_normal((k, n_cols))
            d = matcore.pinv(m)
            scale = np.linalg.norm(m)
            assert np.linalg.norm(m @ d @ m - m) <= 1e-10 * scale
            assert np.linalg.norm(d @ m @ d - d) <= 1e-10 * max(np.linalg.norm(d), 1.0)
            assert np.linalg.norm((m @ d).T - m @ d) <= 1e-10
            assert np.linalg.norm((d @ m).T - d @ m) <= 1e-10


class TestHelpers:
    def test_complete_basis(self, rng):
        q = random_orthonormal(rng, 7, 3)
        comp = matcore.complete_basis(q)
        assert comp.shape == (7, 4)
        np.testing.assert_allclose(comp.T @ comp, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(q.T @ comp, np.zeros((3, 4)), atol=1e-12)

    def test_complete_basis_empty(self):
        np.testing.assert_allclose(matcore.complete_basis(np.zeros((4, 0))), np.eye(4))

    @pytest.mark.parametrize("routine", ["dgeqrt", "dgemqrt"])
    def test_householder_lapack_failure_is_linalgerror(self, rng, monkeypatch, routine):
        # A nonzero info from LAPACK is a numeric failure, which the command
        # line maps to exit 5, not a ValueError's exit 2.
        lapack = matcore.lapack

        def failing(*args, **kwargs):
            return (*getattr(lapack, routine)(*args, **kwargs)[:-1], 1)

        monkeypatch.setattr(matcore, "lapack", SimpleNamespace(
            **{"dgeqrt": lapack.dgeqrt, "dgemqrt": lapack.dgemqrt, routine: failing}))
        x = rng.standard_normal((6, 3))
        with pytest.raises(np.linalg.LinAlgError, match="LAPACK info 1"):
            matcore._apply_q(matcore._householder(x), np.eye(6))


def _laid_out(rng, shape, layout):
    # A Gaussian matrix of this shape, held in the given memory layout.
    m, n = shape
    if layout == "C":
        return rng.standard_normal(shape)
    if layout == "F":
        return np.asfortranarray(rng.standard_normal(shape))
    if layout == "transposed":
        return rng.standard_normal((n, m)).T
    return rng.standard_normal((2 * m, 3 * n))[::2, ::3]


class TestSvdvals:
    # matcore._svdvals calls LAPACK itself; NumPy's svd is the reference.
    @pytest.mark.parametrize("layout", ["C", "F", "transposed", "strided"])
    @pytest.mark.parametrize("shape", [(1, 6), (6, 1), (5, 0), (0, 5), (9, 4), (4, 9)])
    def test_matches_numpy_and_leaves_the_input(self, rng, shape, layout):
        x = _laid_out(rng, shape, layout)
        before = x.copy()
        got = matcore._svdvals(x)
        want = np.linalg.svd(x, compute_uv=False)
        assert got.dtype == np.float64 and got.shape == want.shape == (min(shape),)
        assert np.all(np.diff(got) <= 0)
        assert np.all(np.abs(got - want) <= 4 * matcore.EPS * (want[0] if want.size else 0.0))
        assert np.array_equal(x, before)

    def test_nan_raises_numpys_error(self):
        x = np.array([[1.0, 2.0], [np.nan, 3.0], [4.0, 5.0]])
        with pytest.raises(np.linalg.LinAlgError) as want:
            np.linalg.svd(x, compute_uv=False)
        with pytest.raises(np.linalg.LinAlgError) as got:
            matcore._svdvals(x)
        assert str(got.value) == str(want.value)

    def test_releases_the_interpreter_lock(self, rng):
        # With a switch interval far longer than the call, the caller is
        # never asked to drop the lock, so the spinner advances during a call
        # only if the call releases it.  A call that keeps the lock can still
        # let it advance a few times (as SciPy's f2py dgesdd does, 0-3 times
        # in a 550 x 200 call), so a call counts as overlapped only when the
        # spinner advances at least a quarter as often as during a sleep of
        # the call's length.  A busy host may not schedule the spinner within
        # one call of a few milliseconds, so the call is repeated until one
        # does.  NumPy's values-only SVD of a 550 x 200 matrix keeps the lock.
        x = rng.standard_normal((550, 200))
        count, started, stop = [0], threading.Event(), threading.Event()

        def spin():
            started.set()
            while not stop.is_set():
                count[0] += 1
                time.sleep(0)

        def advance(wait):
            before, start = count[0], time.perf_counter()
            wait()
            return count[0] - before, time.perf_counter() - start

        spinner = threading.Thread(target=spin)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(100.0)
        overlapped = False
        try:
            spinner.start()
            assert started.wait(timeout=60)
            for _ in range(50):
                during, elapsed = advance(lambda: matcore._svdvals(x))
                asleep, _ = advance(lambda: time.sleep(elapsed))
                if during > 0 and 4 * during >= asleep:
                    overlapped = True
                    break
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            spinner.join(timeout=60)
        assert not spinner.is_alive()
        assert overlapped
