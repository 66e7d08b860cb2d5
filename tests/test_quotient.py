import dataclasses

import numpy as np
import pytest

from gsvdkit import gsvd, quotient
from gsvdkit.errors import (
    DimensionMismatch,
    InvalidDimensions,
    NeedsAugmentation,
    NoAugmentationNeeded,
    NumericalCheckFailed,
)
from gsvdkit.matcore import Tolerance

from conftest import random_pair

DIAG34 = np.diag([3.0, 4.0])
ROW11 = np.array([[1.0, 1.0]])


def rank_deficient_b(rng, m1, m2, n, n_zero_rows):
    a = rng.standard_normal((m1, n))
    b = rng.standard_normal((m2, n))
    kill = rng.choice(m2, size=n_zero_rows, replace=False)
    b[kill] = 0.0
    return a, b


class TestTrigTable:
    def test_equal_pair_cosines(self):
        f = gsvd.gsvd_decompose(np.eye(2), np.eye(2))
        table = quotient.trig_table(f, np.eye(2), np.eye(2))
        cos_row = table.row("cos")
        assert cos_row.applicable
        np.testing.assert_allclose(cos_row.computed, np.full(2, 1 / np.sqrt(2)),
                                   atol=1e-12)
        assert cos_row.max_dev <= 1e-12

    def test_unknown_row_raises_key_error(self):
        table = quotient.trig_table(gsvd.gsvd_decompose(DIAG34, ROW11), DIAG34, ROW11)
        with pytest.raises(KeyError):
            table.row("sec")

    def test_cot_not_applicable_with_infinite_values(self):
        f = gsvd.gsvd_decompose(DIAG34, ROW11)
        table = quotient.trig_table(f, DIAG34, ROW11)
        assert not table.row("cot").applicable
        assert table.row("tan").applicable  # r = r_a = 2 here

    def test_near_cutoff_h_keeps_all_r_directions(self):
        # A carries directions of size 1 and 1e-10 (1 + 1e-7), just above the
        # rel = 1e-10 cutoff, and B two more, so every cosine is exactly 1 or
        # 0.  H's own computed singular values put its smallest at or below
        # that cutoff, so a pseudoinverse thresholded there keeps r - 1
        # directions and one unit cosine reads as 0.
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        ua, _ = np.linalg.qr(rng.standard_normal((3, 2)))
        ub, _ = np.linalg.qr(rng.standard_normal((3, 2)))
        a = (ua * [1.0, 1e-10 * (1 + 1e-7)]) @ q[:, [0, 3]].T
        b = (ub * [0.5, 0.25]) @ q[:, [1, 2]].T
        tol = Tolerance(rel=1e-10)
        f = gsvd.gsvd_decompose(a, b, tol)
        assert (f.r, f.r_a, f.r_b) == (4, 2, 2)
        table = quotient.trig_table(f, a, b)
        assert table.row("cos").max_dev <= 1e-4
        assert table.row("sin").max_dev <= 1e-4

    def test_cot_reads_b_plus_at_the_factors_r_b(self):
        # B's own-scale rank is 3, but its third direction is roundoff
        # beside A, so r = r_a = r_b = 2; B^+ cut at 3 puts a spurious 5
        # among the cotangents
        a = np.diag([1.0, 1.0, 5e-16])
        b = np.diag([1e-3, 1e-3, 1e-16])
        f = gsvd.gsvd_decompose(a, b)
        assert (f.r, f.r_a, f.r_b) == (2, 2, 2)
        cot_row = quotient.trig_table(f, a, b).row("cot")
        assert cot_row.applicable
        assert cot_row.max_dev <= 1e-10

    def test_cot_matches_when_b_full_rank(self, rng):
        for _ in range(10):
            a = rng.standard_normal((5, 3))
            b = rng.standard_normal((4, 3))
            f = gsvd.gsvd_decompose(a, b)
            table = quotient.trig_table(f, a, b)
            assert table.row("cos").max_dev <= 1e-9
            assert table.row("sin").max_dev <= 1e-9
            cot_row = table.row("cot")
            assert cot_row.applicable
            assert cot_row.max_dev <= 1e-9

    def test_wrong_shapes_raise(self, rng):
        # a 6x4 A, or the pair swapped, used to give a table with wrong
        # deviations instead of an error
        a = rng.standard_normal((5, 4))
        b = rng.standard_normal((6, 4))
        f = gsvd.gsvd_decompose(a, b)
        with pytest.raises(DimensionMismatch):
            quotient.trig_table(f, rng.standard_normal((6, 4)), b)
        with pytest.raises(DimensionMismatch):
            quotient.trig_table(f, b, a)


class TestHorizontalProjector:
    def test_full_column_rank_b_gives_identity(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((5, 3))
        f = gsvd.gsvd_decompose(a, b)
        proj = quotient.horizontal_projector(f, a, b)
        np.testing.assert_allclose(proj.p, np.eye(4), atol=1e-12)

    def test_worked_example(self):
        # N = [1;-1]/sqrt2, AN along [3;-4], left-null direction [4;3]/5
        f = gsvd.gsvd_decompose(DIAG34, ROW11)
        proj = quotient.horizontal_projector(f, DIAG34, ROW11)
        v = np.array([0.8, 0.6])
        np.testing.assert_allclose(proj.p, np.outer(v, v), atol=1e-12)
        assert proj.kept_dim == 1

    def test_r_equals_rb_gives_identity(self, rng):
        # null(B) inside null(A): build both inside the same 2-dim row space
        a, b = random_pair(rng, 4, 3, 5, rank_a=2, rank_b=2, common_null=3)
        f = gsvd.gsvd_decompose(a, b)
        assert f.r == f.r_b
        proj = quotient.horizontal_projector(f, a, b)
        np.testing.assert_allclose(proj.p, np.eye(4), atol=1e-10)

    def test_projector_properties(self, rng):
        for _ in range(20):
            a, b = rank_deficient_b(rng, 6, 5, 4, 2)
            f = gsvd.gsvd_decompose(a, b)
            proj = quotient.horizontal_projector(f, a, b)
            assert np.linalg.norm(proj.p @ proj.p - proj.p) <= 1e-12
            assert np.linalg.norm(proj.p - proj.p.T) <= 1e-12
            for i in range(f.r):
                u_i = f.u[:, i]
                if f.c[i] == 1.0:
                    assert np.linalg.norm(proj.p @ u_i) <= 1e-10
                else:
                    assert np.linalg.norm(proj.p @ u_i - u_i) <= 1e-10


    def test_compact_factors_keep_the_u_side_check(self):
        full = gsvd.gsvd_decompose(DIAG34, ROW11)
        f = gsvd.compact(full)
        np.testing.assert_array_equal(
            quotient.horizontal_projector(f, DIAG34, ROW11).p,
            quotient.horizontal_projector(full, DIAG34, ROW11).p,
        )
        # tilt the c = 1 column u_1 by 1e-6: the two constructions disagree
        t = 1e-6
        u = f.u.copy()
        u[:, 0] = np.cos(t) * f.u[:, 0] + np.sin(t) * f.u[:, 1]
        bent = dataclasses.replace(f, u=u)
        with pytest.raises(NumericalCheckFailed, match=r"differ by \S+ > 1e-10"):
            quotient.horizontal_projector(bent, DIAG34, ROW11)

    def test_wrong_shapes_raise(self, rng):
        # an A with the wrong row count used to be ignored, and a B with the
        # wrong row count to fail the projector cross-check
        a, b = rank_deficient_b(rng, 5, 6, 4, 3)
        f = gsvd.gsvd_decompose(a, b)
        with pytest.raises(DimensionMismatch):
            quotient.horizontal_projector(f, a[:3], b)
        with pytest.raises(DimensionMismatch):
            quotient.horizontal_projector(f, a, b[:2])

    @pytest.mark.xfail(
        raises=NumericalCheckFailed, strict=True,
        reason="B small beside A: the CS step takes W from the SVD of Qa alone, "
               "so the c = 1 columns of U are off by 6.4e-7 against the 1e-10 "
               "projector cross-check (ROADMAP item 1)")
    def test_small_b_pair_passes_the_cross_check(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 4))
        b = 1e-4 * rng.standard_normal((3, 4))
        quotient.horizontal_projector(gsvd.gsvd_decompose(a, b), a, b)
        quotient.quotient_check(a, b)

    @pytest.mark.parametrize("scale", [
        pytest.param(scale, marks=pytest.mark.xfail(
            raises=NumericalCheckFailed, strict=True,
            reason="A small beside B, the mirror of the small-B case: Householder "
                   "QR keeps small rows accurate only when the larger rows come "
                   "first, and the stacked pair puts A first, so the projectors "
                   "miss the 1e-10 cross-check (ROADMAP item 1, mirror case)"))
        for scale in (1e-7, 1e-9)])
    def test_small_a_pair_passes_the_cross_check(self, scale):
        self._check_small_a_pairs(scale)

    @pytest.mark.parametrize("scale", [1e-5, 1e-3])
    def test_moderately_small_a_passes_the_cross_check(self, scale):
        self._check_small_a_pairs(scale)

    @staticmethod
    def _check_small_a_pairs(scale):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = scale * rng.standard_normal((4, 5))
            b = rng.standard_normal((3, 5))
            quotient.horizontal_projector(gsvd.gsvd_decompose(a, b), a, b)
            quotient.quotient_check(a, b)

    @pytest.mark.parametrize("scale", [1e-15, 1e-16])
    def test_roundoff_b_passes_the_cross_check(self, scale):
        # B is roundoff beside A, so r_b = 0 and every c_i is 1; B's own
        # SVD still finds rank 3, and a null(B) cut there left A N too
        # narrow for the r - r_b = 4 directions the factors kill
        for seed in range(50):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((6, 4))
            b = scale * rng.standard_normal((3, 4))
            f = gsvd.gsvd_decompose(a, b)
            assert f.r_b == 0
            proj = quotient.horizontal_projector(f, a, b)
            assert proj.kept_dim == 6 - f.n_infinite
            gsv, sv_pab, _ = quotient.quotient_check(a, b)
            assert gsv.size == sv_pab.size

    def test_kept_dim_is_m1_minus_the_infinite_count(self, rng):
        for _ in range(20):
            a, b = rank_deficient_b(rng, 6, 5, 4, 2)
            f = gsvd.gsvd_decompose(a, b)
            assert quotient.horizontal_projector(f, a, b).kept_dim == f.m1 - f.n_infinite

    @pytest.mark.xfail(
        raises=NumericalCheckFailed, strict=True,
        reason="no gap at the cut: B's singular values are 2.68, 1.72 and 0.917 "
               "times the stacked cutoff, so r_b = 2 though B has rank 3, and the "
               "null(B) reference is not the GSVD's c = 1 plane (ROADMAP item 9)")
    def test_tiny_b_pair_at_the_stacked_rank_passes_the_cross_check(self):
        # r_b = 2 at the stacked pair's cutoff, against rank 3 at B's own scale
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 4))
        b = 1e-14 * rng.standard_normal((3, 4))
        f = gsvd.gsvd_decompose(a, b)
        assert f.r_b == 2
        assert np.linalg.matrix_rank(b) == 3
        quotient.horizontal_projector(f, a, b)
        quotient.quotient_check(a, b)


class TestQuotientCheck:
    def test_worked_example(self):
        gsv, sv_pab, sv_ab = quotient.quotient_check(DIAG34, ROW11)
        np.testing.assert_allclose(gsv, [2.4], atol=1e-12)
        np.testing.assert_allclose(sv_pab, [2.4], atol=1e-10)
        np.testing.assert_allclose(sv_ab, [2.5], atol=1e-12)

    def test_scalar_ratio(self):
        gsv, sv_pab, sv_ab = quotient.quotient_check([[3.0]], [[4.0]])
        for values in (gsv, sv_pab, sv_ab):
            np.testing.assert_allclose(values, [0.75], atol=1e-14)

    def test_full_column_rank_b_all_agree(self, rng):
        for _ in range(10):
            a = rng.standard_normal((6, 3))
            b = rng.standard_normal((5, 3))
            gsv, sv_pab, sv_ab = quotient.quotient_check(a, b)
            np.testing.assert_allclose(sv_pab, gsv, rtol=1e-8)
            np.testing.assert_allclose(sv_ab, gsv, rtol=1e-8)

    def test_theorem_on_rank_deficient_b(self, rng):
        for _ in range(30):
            m1 = int(rng.integers(3, 9))
            m2 = int(rng.integers(3, 8))
            n = int(rng.integers(2, 7))
            a, b = rank_deficient_b(rng, m1, m2, n, int(rng.integers(1, m2 - 1)))
            gsv, sv_pab, _ = quotient.quotient_check(a, b)
            assert gsv.size == sv_pab.size
            if gsv.size:
                np.testing.assert_allclose(sv_pab, gsv, rtol=1e-8)


class TestLimitCurve:
    def test_no_infinite_values_fixed_point(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((5, 3))
        f = gsvd.gsvd_decompose(a, b)
        assert f.n_infinite == 0
        curve = quotient.limit_curve(f, 1e-2)
        np.testing.assert_allclose(curve.a_eps, a, atol=1e-12 * np.linalg.norm(a))
        np.testing.assert_allclose(curve.b_eps, b, atol=1e-12 * np.linalg.norm(b))

    def test_curve_removes_infinite_values(self):
        baug = quotient.augment_rows(ROW11, 2)
        f = gsvd.gsvd_decompose(DIAG34, baug)
        for eps in (1e-2, 1e-3):
            curve = quotient.limit_curve(f, eps)
            fe = gsvd.gsvd_decompose(curve.a_eps, curve.b_eps)
            assert fe.n_infinite == 0
            values = np.sort(fe.cotangents())
            assert abs(values[0] - 2.4) <= 1e-10
            assert abs(values[1] - 1 / np.tan(eps)) <= 1e-6 / eps

    def test_needs_augmentation(self):
        f = gsvd.gsvd_decompose(DIAG34, ROW11)
        with pytest.raises(NeedsAugmentation):
            quotient.limit_curve(f, 1e-2)

    def test_extra_sine_rows_beyond_rank(self):
        # m2 > r: the fresh sines land in the completion block of V
        b3 = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        f = gsvd.gsvd_decompose(DIAG34, b3)
        curve = quotient.limit_curve(f, 1e-2)
        fe = gsvd.gsvd_decompose(curve.a_eps, curve.b_eps)
        assert fe.n_infinite == 0
        values = np.sort(fe.cotangents())
        assert abs(values[0] - 2.4) <= 1e-10
        assert abs(values[1] - 1 / np.tan(1e-2)) <= 1e-6

    @pytest.mark.parametrize("case", ["worked_example", "random"])
    def test_top_layout_gives_the_same_pair(self, rng, case):
        if case == "worked_example":
            a, b = DIAG34, quotient.augment_rows(ROW11, 2)
        else:
            a, b = random_pair(rng, 5, 6, 4, rank_b=2)
        f = gsvd.gsvd_decompose(a, b)
        assert f.n_infinite
        bottom = quotient.limit_curve(f, 1e-2)
        top = quotient.limit_curve(gsvd.with_top_convention(f), 1e-2)
        np.testing.assert_array_equal(top.a_eps, bottom.a_eps)
        np.testing.assert_array_equal(top.b_eps, bottom.b_eps)

    def test_epsilon_domain(self):
        baug = quotient.augment_rows(ROW11, 2)
        f = gsvd.gsvd_decompose(DIAG34, baug)
        for bad in (0.0, -1e-3, np.pi / 4, 1.0):
            with pytest.raises(ValueError):
                quotient.limit_curve(f, bad)

    def test_angle_continuity_under_refinement(self):
        # max adjacent angle jump shrinks as the epsilon grid refines
        baug = quotient.augment_rows(ROW11, 2)
        f = gsvd.gsvd_decompose(DIAG34, baug)

        def max_jump(grid):
            thetas = []
            for eps in grid:
                curve = quotient.limit_curve(f, eps)
                fe = gsvd.gsvd_decompose(curve.a_eps, curve.b_eps)
                thetas.append(np.sort(fe.theta()))
            thetas = np.array(thetas)
            return float(np.max(np.abs(np.diff(thetas, axis=0))))

        coarse = max_jump(np.linspace(1e-3, 0.2, 6))
        fine = max_jump(np.linspace(1e-3, 0.2, 48))
        assert fine < coarse / 4


class TestDirectPerturbation:
    # the explicitly perturbed pair (B gains the row [0, eps]); its values
    # behave as 2.4 + O(eps^2) and 5/eps + O(eps)
    def test_scaling_orders(self):
        eps_grid = np.array([1e-2, 1e-3, 1e-4])
        finite_dev = []
        for eps in eps_grid:
            b_eps = np.array([[1.0, 1.0], [0.0, eps]])
            f = gsvd.gsvd_decompose(DIAG34, b_eps)
            values = np.sort(f.cotangents())
            finite_dev.append(abs(values[0] - 2.4))
            assert abs(values[1] - 5 / eps) / (5 / eps) <= 1e-3
        slope = np.polyfit(np.log(eps_grid), np.log(finite_dev), 1)[0]
        assert abs(slope - 2.0) <= 0.2


class TestAugmentRows:
    def test_pads_with_zero_rows(self):
        np.testing.assert_array_equal(quotient.augment_rows(ROW11, 2),
                                      [[1.0, 1.0], [0.0, 0.0]])

    def test_error_when_not_needed(self):
        with pytest.raises(NoAugmentationNeeded):
            quotient.augment_rows(ROW11, 1)

    @pytest.mark.parametrize("r", [2.5, 2.0, True])
    def test_non_integer_row_count_raises(self, r):
        # np.zeros with 2.5 rows raised a bare TypeError
        with pytest.raises(InvalidDimensions):
            quotient.augment_rows(ROW11, r)
        assert quotient.augment_rows(ROW11, np.int64(2)).shape == (2, 2)

    def test_factors_unchanged(self):
        f0 = gsvd.gsvd_decompose(DIAG34, ROW11)
        f1 = gsvd.gsvd_decompose(DIAG34, quotient.augment_rows(ROW11, 2))
        np.testing.assert_allclose(f0.c, f1.c, atol=1e-12)
        np.testing.assert_allclose(f0.s, f1.s, atol=1e-12)
        np.testing.assert_allclose(f0.u, f1.u, atol=1e-12)
        np.testing.assert_allclose(f0.h, f1.h, atol=1e-12)


class TestRankZeroTrigTable:
    @pytest.mark.parametrize("a, b, tol", [
        (np.zeros((3, 4)), np.zeros((2, 4)), Tolerance()),
        # rel = 1 makes the nonzero pair rank 0: no singular value lies above sigma_max
        (np.arange(12.0).reshape(3, 4), np.ones((2, 4)), Tolerance(rel=1.0)),
    ], ids=["zero_pair", "abs_cutoff"])
    def test_every_row_is_empty_and_exact(self, a, b, tol):
        f = gsvd.gsvd_decompose(a, b, tol)
        assert f.r == 0
        table = quotient.trig_table(f, a, b)
        for name in ("cos", "sin", "tan", "cot"):
            row = table.row(name)
            assert row.applicable, name
            assert row.expected.size == 0 and row.max_dev == 0.0, name


class TestLimitCurveFormat:
    def test_needs_full_format(self):
        baug = quotient.augment_rows(ROW11, 2)
        f = gsvd.gsvd_decompose(DIAG34, baug, compact=True)
        with pytest.raises(ValueError, match="full-format"):
            quotient.limit_curve(f, 1e-2)
