import tracemalloc

import numpy as np
import pytest

from gsvdkit import gsvd, stats
from gsvdkit.errors import (
    DegenerateData,
    DimensionMismatch,
    InvalidPartition,
    ZeroWithin,
)

from conftest import anova_textbook, random_pair

WIKI_V = np.array([6, 8, 4, 5, 3, 4, 8, 12, 9, 11, 6, 8, 13, 9, 11, 8, 7, 12],
                  dtype=float)


class TestClusterDesign:
    def test_six_six_six(self):
        design = stats.cluster_design([6, 6, 6])
        assert design.indicator.shape == (18, 3)
        np.testing.assert_array_equal(design.constraint,
                                      [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
        assert design.u1.shape == (18, 1)
        assert design.u2.shape == (18, 2)
        assert design.u3.shape == (18, 15)
        np.testing.assert_allclose(design.u1, np.full((18, 1), 1 / np.sqrt(18)),
                                   atol=1e-12)

    def test_two_singletons(self):
        design = stats.cluster_design([1, 1])
        contrast = design.u2[:, 0]
        np.testing.assert_allclose(np.abs(contrast), np.full(2, 1 / np.sqrt(2)),
                                   atol=1e-12)

    def test_split_widths(self, rng):
        for _ in range(5):
            k = int(rng.integers(2, 6))
            parts = [int(rng.integers(1, 6)) for _ in range(k)]
            design = stats.cluster_design(parts)
            p = sum(parts)
            assert design.u_split.shape == (p, p)
            assert design.u1.shape[1] == 1
            assert design.u2.shape[1] == k - 1
            assert design.u3.shape[1] == p - k
            np.testing.assert_allclose(design.u_split.T @ design.u_split,
                                       np.eye(p), atol=1e-12)
            # orthogonality of the split to the mean and cluster directions
            ones = np.ones(p)
            assert np.linalg.norm(design.u2.T @ ones) <= 1e-10
            assert np.linalg.norm(design.u3.T @ design.indicator) <= 1e-10

    def test_traced_peak_near_the_split(self):
        # The p x p U is the only large array the design needs; orienting it
        # through a copy of |U| and a p x p mask doubled the peak.
        tracemalloc.start()
        try:
            design = stats.cluster_design((600, 600, 600))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * design.u_split.nbytes

    def test_invalid_partition(self):
        with pytest.raises(InvalidPartition):
            stats.cluster_design([5])
        with pytest.raises(InvalidPartition):
            stats.cluster_design([3, 0])

    @pytest.mark.parametrize("parts", [[2.5, 3], ["2", 3], [3, float("nan")],
                                       [True, 2], [np.True_, 2]],
                             ids=["fraction", "string", "nan", "bool", "numpy-bool"])
    def test_sizes_that_are_not_whole_numbers_raise(self, parts):
        # int(2.5) would silently give a partition of (2, 3)
        with pytest.raises(InvalidPartition):
            stats.cluster_design(parts)

    def test_whole_float_sizes_are_accepted(self):
        design = stats.cluster_design([6.0, 6.0, 6.0])
        assert design.partition == (6, 6, 6)
        np.testing.assert_array_equal(design.u_split,
                                      stats.cluster_design([6, 6, 6]).u_split)


class TestAnova:
    def test_wikipedia_example(self):
        design = stats.cluster_design([6, 6, 6])
        report = stats.anova_f(design, WIKI_V)
        assert abs(report.f_value - 9.264705882352956) <= 1e-9
        assert (report.df_between, report.df_within) == (2, 15)
        # independent sum-of-squares oracle
        ssb, ssw, f_ref = anova_textbook(WIKI_V, [6, 6, 6])
        assert abs(report.between_norm_sq - ssb) <= 1e-10 * max(1.0, ssb)
        assert abs(report.within_norm_sq - ssw) <= 1e-10 * max(1.0, ssw)
        assert abs(report.f_value - f_ref) <= 1e-10 * max(1.0, f_ref)

    def test_constant_vector(self):
        design = stats.cluster_design([3, 4, 2])
        report = stats.anova_f(design, np.full(9, 5.0))
        assert report.f_value == 0.0

    def test_pure_cluster_pattern_raises(self):
        design = stats.cluster_design([3, 3])
        v = np.array([1.0, 1.0, 1.0, 4.0, 4.0, 4.0])
        with pytest.raises(ZeroWithin):
            stats.anova_f(design, v)

    def test_matches_textbook_on_random_data(self, rng):
        for _ in range(25):
            k = int(rng.integers(2, 5))
            parts = [int(rng.integers(2, 7)) for _ in range(k)]
            design = stats.cluster_design(parts)
            v = rng.standard_normal(sum(parts)) + rng.integers(0, 5)
            report = stats.anova_f(design, v)
            _, _, f_ref = anova_textbook(v, parts)
            assert abs(report.f_value - f_ref) <= 1e-10 * max(1.0, f_ref)

    def test_length_mismatch(self):
        design = stats.cluster_design([2, 2])
        with pytest.raises(DimensionMismatch):
            stats.anova_f(design, np.ones(5))


class TestApportion:
    def test_pure_a_row(self):
        f = gsvd.gsvd_decompose(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        app = stats.apportion(f)
        assert app.labels[0] == "A-dominant"
        assert app.angles[0] == 0.0

    def test_balanced_row_is_mixed(self):
        f = gsvd.gsvd_decompose(np.eye(2), np.eye(2))
        app = stats.apportion(f)
        np.testing.assert_allclose(app.angles, np.full(2, np.pi / 4), atol=1e-12)
        assert all(label == "mixed" for label in app.labels)

    def test_worked_example_angles(self):
        f = gsvd.gsvd_decompose(np.diag([3.0, 4.0]), np.array([[1.0, 1.0]]))
        app = stats.apportion(f)
        np.testing.assert_allclose(app.angles, [0.0, np.arctan(1 / 2.4)],
                                   atol=1e-12)
        assert np.all(np.diff(app.angles) >= 0)
        norms = np.linalg.norm(app.h_rows_unit, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        assert np.isfinite(app.h_condition)


class TestDiscriminantReduce:
    def test_two_clusters_single_column(self, rng):
        design = stats.cluster_design([4, 4])
        m = rng.standard_normal((8, 5))
        g, mg = stats.discriminant_reduce(m, design)
        assert g.shape == (5, 1)
        assert mg.shape == (8, 1)

    def test_pure_cluster_means_separate_exactly(self, rng):
        design = stats.cluster_design([3, 3, 3])
        means = rng.standard_normal((3, 4))
        m = np.repeat(means, 3, axis=0)
        g, mg = stats.discriminant_reduce(m, design)
        f = gsvd.gsvd_decompose(design.u2.T @ m, design.u3.T @ m + 0.0)
        # within part vanished: every nonzero value is infinite
        assert f.r_b == 0
        rows = [mg[i * 3:(i + 1) * 3] for i in range(3)]
        for block in rows:
            assert np.linalg.norm(block - block[0]) <= 1e-10 * max(np.linalg.norm(mg), 1.0)
        assert np.linalg.norm(rows[0][0] - rows[1][0]) > 1e-6

    def test_nonzero_value_count_and_preservation(self, rng):
        design = stats.cluster_design([6, 6, 6])
        for _ in range(10):
            m = rng.standard_normal((18, 5))
            f_full = gsvd.gsvd_decompose(design.u2.T @ m, design.u3.T @ m)
            nonzero = f_full.c > 0
            assert int(np.sum(nonzero)) <= design.k - 1
            g, mg = stats.discriminant_reduce(m, design)
            f_red = gsvd.gsvd_decompose(design.u2.T @ mg, design.u3.T @ mg)
            # angle space keeps infinite values comparable
            before = np.sort(f_full.theta()[nonzero])
            after = np.sort(f_red.theta()[f_red.c > 0])
            np.testing.assert_allclose(after, before, atol=1e-9)

    def test_degenerate_data(self):
        design = stats.cluster_design([2, 2])
        with pytest.raises(DegenerateData):
            stats.discriminant_reduce(np.ones((4, 3)), design)

    @pytest.mark.parametrize("k, n", [(3, 4), (3, 1), (4, 2), (2, 3)])
    def test_singleton_clusters(self, rng, k, n):
        # one point per cluster leaves nothing within the clusters
        design = stats.cluster_design([1] * k)
        m = rng.standard_normal((k, n))
        g, mg = stats.discriminant_reduce(m, design)
        cols = min(k - 1, n)
        assert g.shape == (n, cols)
        gaps = np.linalg.norm(mg[:, None, :] - mg[None, :, :], axis=2)
        assert np.min(gaps[~np.eye(k, dtype=bool)]) > 1e-6
