import dataclasses

import numpy as np
import pytest

from gsvdkit import gsvd, matcore, subgeom
from gsvdkit.errors import (
    DimensionMismatch,
    NotOrthonormal,
    NumericalCheckFailed,
    ZeroDenominator,
)

from conftest import random_orthonormal


def classical_cosines(a1, a2):
    # reference route: svd of Q1'Q2 for orthonormal bases of the two spans
    import scipy.linalg
    q1 = scipy.linalg.orth(a1)
    q2 = scipy.linalg.orth(a2)
    return np.clip(scipy.linalg.svdvals(q1.T @ q2), 0.0, 1.0)


class TestPrincipalAngles:
    def test_identical_subspaces_exact_ones(self, rng):
        a = rng.standard_normal((6, 3))
        result = subgeom.principal_angles(a, 2.5 * a)
        np.testing.assert_array_equal(result.cosines, np.ones(3))
        np.testing.assert_array_equal(result.angles, np.zeros(3))

    def test_orthogonal_subspaces_exact_zeros(self):
        a1 = np.eye(4)[:, :2]
        a2 = np.eye(4)[:, 2:]
        result = subgeom.principal_angles(a1, a2)
        np.testing.assert_array_equal(result.cosines, np.zeros(2))

    def test_forty_five_degrees(self):
        a1 = np.array([[1.0], [0.0]])
        a2 = np.array([[1.0], [1.0]])
        result = subgeom.principal_angles(a1, a2)
        assert abs(result.cosines[0] - 1 / np.sqrt(2)) <= 1e-14

    def test_matches_classical_route(self, rng):
        for _ in range(30):
            m = int(rng.integers(3, 12))
            d1 = int(rng.integers(1, m))
            d2 = int(rng.integers(1, m))
            a1 = rng.standard_normal((m, d1))
            a2 = rng.standard_normal((m, d2))
            result = subgeom.principal_angles(a1, a2)
            reference = classical_cosines(a1, a2)
            assert result.cosines.size == reference.size
            np.testing.assert_allclose(np.sort(result.cosines),
                                       np.sort(reference), atol=1e-9)

    def test_vectors_live_in_the_right_spans(self, rng):
        a1 = rng.standard_normal((7, 3))
        a2 = rng.standard_normal((7, 4))
        result = subgeom.principal_angles(a1, a2)
        import scipy.linalg
        p1 = scipy.linalg.orth(a1)
        p2 = scipy.linalg.orth(a2)
        for j in range(result.cosines.size):
            w = result.a1_vectors[:, j]
            assert abs(np.linalg.norm(w) - 1) <= 1e-10
            assert np.linalg.norm(w - p1 @ (p1.T @ w)) <= 1e-10
            z = result.a2_vectors[:, j]
            assert np.linalg.norm(z - p2 @ (p2.T @ z)) <= 1e-10

    def test_orthogonal_direction_has_zero_mate(self, rng):
        # span(a1) shares one direction with span(a2) and is orthogonal to
        # it otherwise, so the second angle has c = 0 and no mate in a2
        q = random_orthonormal(rng, 5, 5)
        a1 = q[:, [0, 2]] @ rng.standard_normal((2, 2))
        a2 = q[:, [0, 1]] @ rng.standard_normal((2, 2))
        result = subgeom.principal_angles(a1, a2)
        np.testing.assert_allclose(result.cosines, [1.0, 0.0], atol=1e-12)
        np.testing.assert_array_equal(result.a2_vectors[:, 1], np.zeros(5))
        mate = result.a2_vectors[:, 0]
        assert abs(abs(mate @ q[:, 0]) - 1.0) <= 1e-12
        assert abs(abs(result.a1_vectors[:, 0] @ mate) - 1.0) <= 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            subgeom.principal_angles(rng.standard_normal((3, 1)),
                                     rng.standard_normal((4, 1)))

    @pytest.mark.parametrize("m, d1, d2", [(5, 2, 5), (5, 3, 7), (6, 6, 6),
                                           (1, 3, 2), (1, 1, 1), (4, 1, 4)])
    def test_a2_spanning_the_whole_space(self, rng, m, d1, d2):
        # span(a2) = R^m: the complement is empty, every angle is zero
        a1 = rng.standard_normal((m, d1))
        a2 = rng.standard_normal((m, d2))
        result = subgeom.principal_angles(a1, a2)
        k = min(d1, m)
        np.testing.assert_array_equal(result.cosines, np.ones(k))
        w = result.a1_vectors
        assert w.shape == (m, k)
        assert np.linalg.norm(w.T @ w - np.eye(k), 2) <= 1e-14

    def test_near_parallel_a1_vectors_stay_orthonormal(self, rng):
        # span(a1) lies within 1e-11 of span(a2); the a1 vectors are built
        # mostly from the span(a2) part, and a complement part with any
        # span(a2) residue left in it would spoil their orthogonality
        for m, d1, d2 in [(12, 6, 6), (30, 10, 12)] * 5:
            a2 = rng.standard_normal((m, d2))
            a1 = a2 @ rng.standard_normal((d2, d1)) + 1e-11 * rng.standard_normal((m, d1))
            w = subgeom.principal_angles(a1, a2).a1_vectors
            assert np.linalg.norm(w.T @ w - np.eye(d1), 2) <= 1e-14

    def test_factors_y_q1_once(self, rng, monkeypatch):
        # the GSVD reads r_a from the singular values of Y' Q1, and the
        # cross-check compares against the same values: three singular-value
        # calls (stacked pair, Y' Q1, residual), not a fourth for the check;
        # the 12 x 4 residual is tall, so it stands as its 4 x 4 R factor
        calls = []
        svdvals = matcore._svdvals
        monkeypatch.setattr(matcore, "_svdvals", lambda x: calls.append(x.shape) or svdvals(x))
        subgeom.principal_angles(rng.standard_normal((12, 4)), rng.standard_normal((12, 3)))
        assert calls == [(7, 4), (3, 4), (4, 4)]

    @pytest.mark.parametrize("t", [1e-4, 1e-6, 1e-8, 1e-10])
    def test_one_small_angle_is_exact(self, t):
        # arccos of a cosine within t^2 / 2 of 1 loses the angle entirely
        # below t ~ 1e-8; the sine keeps it
        a1 = np.array([[1.0], [0.0], [0.0]])
        a2 = np.array([[np.cos(t)], [np.sin(t)], [0.0]])
        angle = subgeom.principal_angles(a1, a2).angles[0]
        assert abs(angle - t) <= 1e-14 * t

    @pytest.mark.parametrize("scale, bound", [(1e-3, 1e-12), (1e-5, 1e-7)])
    def test_small_angles_match_the_sines(self, scale, bound):
        # reference: arcsin of the singular values of the part of Y outside
        # span(Q1), projected out twice
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a1 = rng.standard_normal((50, 4))
            a2 = a1 + scale * rng.standard_normal((50, 4))
            q1, y = matcore.orth_basis(a1), matcore.orth_basis(a2)
            residual = y - q1 @ (q1.T @ y)
            residual -= q1 @ (q1.T @ residual)
            reference = np.sort(np.arcsin(np.linalg.svd(residual, compute_uv=False)))
            angles = np.sort(subgeom.principal_angles(a1, a2).angles)
            assert np.max(np.abs(angles - reference) / reference) <= bound

    def test_orthogonal_subspaces_exact_right_angles(self):
        result = subgeom.principal_angles(np.eye(4)[:, :2], np.eye(4)[:, 2:])
        np.testing.assert_array_equal(result.angles, np.full(2, np.pi / 2))


def assert_matches_svd_route(a1, a2):
    # the cosines against svd(Q1' Y) on the library's own bases, so both
    # routes see the same dimensions
    reference = np.linalg.svd(matcore.orth_basis(a1).T @ matcore.orth_basis(a2),
                              compute_uv=False)
    cosines = subgeom.principal_angles(a1, a2).cosines
    assert cosines.shape == reference.shape
    np.testing.assert_allclose(cosines, reference, rtol=0, atol=1e-13)


class TestIllConditionedA1:
    # a1 enters only through its orthonormal basis, so the cosines are as
    # accurate as Q1 however badly a1 itself is conditioned

    @pytest.mark.parametrize("seed", [*range(10), 150])
    def test_rank_one_plus_roundoff_noise(self, seed):
        # noise singular values land on either side of the rank cutoff;
        # seed 150 puts them at 5.50e-14 against a cutoff of 5.47e-14
        gen = np.random.default_rng(seed)
        a1 = (np.outer(gen.standard_normal(22), gen.standard_normal(12))
              + 1e-14 * gen.standard_normal((22, 12)))
        a2 = gen.standard_normal((22, 5))
        assert_matches_svd_route(a1, a2)

    def test_low_rank_plus_noise_sweep(self, rng):
        for _ in range(24):
            r = int(rng.integers(1, 12))
            noise = 10.0 ** rng.uniform(-14, -7)
            a1 = (rng.standard_normal((40, r)) @ rng.standard_normal((r, 12))
                  + noise * rng.standard_normal((40, 12)))
            a2 = rng.standard_normal((40, int(rng.integers(1, 20))))
            assert_matches_svd_route(a1, a2)

    def test_full_rank_with_condition_1e9(self, rng):
        for _ in range(5):
            q = random_orthonormal(rng, 40, 12)
            w = random_orthonormal(rng, 12, 12)
            a1 = (q * np.logspace(0, -9, 12)) @ w.T
            a2 = rng.standard_normal((40, 15))
            assert_matches_svd_route(a1, a2)


class TestAdditiveSplit:
    def test_top_bottom_reduces_to_plain_gsvd(self, rng):
        m = rng.standard_normal((6, 4))
        y1 = np.vstack([np.eye(2), np.zeros((4, 2))])
        split, f = subgeom.additive_split(m, y1)
        plain = gsvd.gsvd_decompose(m[:2], m[2:])
        np.testing.assert_allclose(f.c, plain.c, atol=1e-12)
        np.testing.assert_allclose(f.s, plain.s, atol=1e-12)
        np.testing.assert_allclose(split.p_part[:2] + split.q_part[:2], m[:2],
                                   atol=1e-12)

    def test_split_properties(self, rng):
        for _ in range(10):
            m = rng.standard_normal((8, 5))
            y1 = random_orthonormal(rng, 8, 3)
            split, _ = subgeom.additive_split(m, y1)
            scale = np.linalg.norm(m)
            assert np.linalg.norm(m - split.p_part - split.q_part) <= 1e-11 * scale
            assert np.linalg.norm(split.p_part.T @ split.q_part) <= 1e-10 * scale**2
            assert np.linalg.norm(split.q_part.T @ split.p_part) <= 1e-10 * scale**2

    def test_contained_columns_give_zero_q(self, rng):
        y1 = random_orthonormal(rng, 6, 2)
        m = y1 @ rng.standard_normal((2, 4))
        split, _ = subgeom.additive_split(m, y1)
        assert np.linalg.norm(split.q_part) <= 1e-11 * np.linalg.norm(m)

    def test_rotation_invariance_of_values(self, rng):
        m = rng.standard_normal((7, 4))
        y1 = np.vstack([np.eye(3), np.zeros((4, 3))])
        _, f0 = subgeom.additive_split(m, y1)
        q = random_orthonormal(rng, 7, 7)
        _, f1 = subgeom.additive_split(q @ m, q @ y1)
        np.testing.assert_allclose(np.sort(f1.c), np.sort(f0.c), atol=1e-10)

    def test_not_orthonormal(self, rng):
        m = rng.standard_normal((5, 3))
        with pytest.raises(NotOrthonormal):
            subgeom.additive_split(m, rng.standard_normal((5, 2)))


class TestEllipseData:
    def test_worked_example_horizontal_point(self):
        f = gsvd.gsvd_decompose(np.diag([3.0, 4.0]), np.array([[1.0, 1.0]]))
        data = subgeom.ellipse_data(f)
        # the c = 1 hypotenuse lies exactly in the X multiaxis
        assert data.cosine_lengths[0] == 1.0
        np.testing.assert_array_equal(data.sphere_points[2:, 0], [0.0])

    def test_equal_pair_circle(self):
        data = subgeom.ellipse_data(gsvd.gsvd_decompose(np.eye(2), np.eye(2)))
        np.testing.assert_allclose(data.cosine_lengths, np.full(2, 1 / np.sqrt(2)),
                                   atol=1e-14)
        np.testing.assert_allclose(data.sine_lengths, np.full(2, 1 / np.sqrt(2)),
                                   atol=1e-14)

    def test_angles_nondecreasing_and_unit_sphere(self, rng):
        for _ in range(10):
            a = rng.standard_normal((5, 4))
            b = rng.standard_normal((4, 4))
            data = subgeom.ellipse_data(gsvd.gsvd_decompose(a, b))
            assert np.all(np.diff(data.angles) >= -1e-15)
            norms = np.linalg.norm(data.sphere_points, axis=0)
            np.testing.assert_allclose(norms, 1.0, atol=1e-12)
            gram = data.sphere_points.T @ data.sphere_points
            np.testing.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-10)


    def test_compact_factors_give_the_same_data(self, rng):
        a = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
        b = rng.standard_normal((7, 3)) @ rng.standard_normal((3, 5))
        f = gsvd.gsvd_decompose(a, b)
        assert f.n_infinite and f.n_zero
        full = subgeom.ellipse_data(f)
        comp = subgeom.ellipse_data(gsvd.compact(f))
        for name in ("cosine_directions", "sine_directions", "sphere_points"):
            np.testing.assert_array_equal(getattr(comp, name), getattr(full, name))
        assert not full.cosine_directions[:, f.c == 0].any()
        assert not full.sine_directions[:, f.s == 0].any()

    def test_off_sphere_factors_report_the_deviation(self):
        f = gsvd.gsvd_decompose(np.eye(2), np.eye(2))
        bent = dataclasses.replace(f, c=f.c * (1 + 1e-9))
        with pytest.raises(NumericalCheckFailed, match=r"by \S+ > 1e-12"):
            subgeom.ellipse_data(bent)


class TestEnergy:
    def test_single_matrix_axis(self):
        np.testing.assert_allclose(
            subgeom.energy_point(np.diag([2.0, 1.0]), [1.0, 0.0]), [4.0, 0.0])

    def test_identity_returns_direction(self, rng):
        e = rng.standard_normal(4)
        e /= np.linalg.norm(e)
        np.testing.assert_allclose(subgeom.energy_point(np.eye(4), e), e,
                                   atol=1e-14)

    def test_pair_form(self):
        out = subgeom.energy_point2(np.diag([3.0, 4.0]), np.eye(2), [0.0, 1.0])
        np.testing.assert_allclose(out, [0.0, 16.0])

    def test_pair_form_scales_with_b(self, rng):
        # the zero-denominator test is relative to B's own scale
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((4, 3))
        e = rng.standard_normal(3)
        e /= np.linalg.norm(e)
        ref = subgeom.energy_point2(a, b, e)
        for t in 10.0 ** np.arange(-9, 10):
            np.testing.assert_allclose(subgeom.energy_point2(a, t * b, e) * t**2, ref, rtol=1e-13)
        np.testing.assert_allclose(subgeom.energy_point2(np.eye(2), 1e-8 * np.eye(2), [1.0, 0.0]),
                                   [1e16, 0.0], rtol=1e-13)
        with pytest.raises(ZeroDenominator):
            subgeom.energy_point2(a, np.zeros((4, 3)), e)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            subgeom.energy_point2(np.eye(2), np.array([[1.0, 0.0]]), [0.0, 1.0])

    def test_requires_unit_vector(self):
        with pytest.raises(ValueError):
            subgeom.energy_point(np.eye(2), [1.0, 1.0])


class TestLemniscate:
    def test_axis_aligned_identity(self):
        # (16)^3 = (4 * 16)^2 = 4096 at the first axis of diag(2, 1)
        a = np.diag([2.0, 1.0])
        x = subgeom.energy_point(a, [1.0, 0.0])  # V = I here
        assert subgeom.lemniscate_residual(a, x) == 0.0

    def test_identity_matrix_everywhere(self, rng):
        for _ in range(10):
            e = rng.standard_normal(3)
            e /= np.linalg.norm(e)
            x = subgeom.energy_point(np.eye(3), e)
            assert abs(subgeom.lemniscate_residual(np.eye(3), x)) <= 1e-12

    def test_random_energy_points_single(self, rng):
        from gsvdkit import matcore
        for _ in range(100):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 6))
            a = rng.standard_normal((m, n))
            e = rng.standard_normal(n)
            e /= np.linalg.norm(e)
            point = subgeom.energy_point(a, e)
            _, _, v = matcore.full_svd(a)
            x = v.T @ point
            scale = max(1.0, np.linalg.norm(x))
            assert abs(subgeom.lemniscate_residual(a, x)) <= 1e-9 * scale**6

    def test_random_energy_points_pair(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 5))
            a = rng.standard_normal((int(rng.integers(2, 6)), n))
            b = rng.standard_normal((int(rng.integers(n, 7)), n))
            e = rng.standard_normal(n)
            e /= np.linalg.norm(e)
            x = subgeom.energy_point2(a, b, e)
            f = gsvd.gsvd_decompose(a, b)
            scale = max(1.0, np.linalg.norm(x))
            assert abs(subgeom.lemniscate_residual2(f, x)) <= 1e-9 * scale**6


class TestEmptyCases:
    def test_zero_a1_has_no_angles(self, rng):
        result = subgeom.principal_angles(np.zeros((5, 2)), rng.standard_normal((5, 3)))
        assert result.cosines.shape == result.angles.shape == (0,)
        assert result.a1_vectors.shape == result.a2_vectors.shape == (5, 0)

    def test_square_y1_leaves_no_q_part(self, rng):
        m = rng.standard_normal((4, 3))
        y1 = random_orthonormal(rng, 4, 4)
        split, _ = subgeom.additive_split(m, y1)
        assert split.y2.shape == (4, 0)
        np.testing.assert_array_equal(split.q_part, np.zeros((4, 3)))
        assert np.linalg.norm(split.p_part - m) <= 1e-12 * np.linalg.norm(m)

    def test_rank_zero_ellipse_is_empty(self):
        for compact in (False, True):
            f = gsvd.gsvd_decompose(np.zeros((3, 4)), np.zeros((2, 4)), compact=compact)
            data = subgeom.ellipse_data(f)
            assert data.cosine_lengths.shape == data.sine_lengths.shape == (0,)
            assert data.angles.shape == (0,)
            assert data.cosine_directions.shape == (3, 0)
            assert data.sine_directions.shape == (2, 0)
            assert data.sphere_points.shape == (5, 0)
