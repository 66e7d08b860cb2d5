import dataclasses
import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.linalg

from gsvdkit import cli, gsvd, matcore
from gsvdkit.errors import DimensionMismatch, InvalidDimensions, RankOutOfRange
from gsvdkit.matcore import Tolerance

from conftest import (check_factor_invariants, pencil_cotangents, random_orthonormal,
                      random_pair)

DIAG34 = np.diag([3.0, 4.0])
ROW11 = np.array([[1.0, 1.0]])


class TestDecompose:
    def test_worked_example(self):
        f = gsvd.gsvd_decompose(DIAG34, ROW11)
        assert (f.r, f.r_a, f.r_b) == (2, 2, 1)
        # exact snapped infinite pair plus the 5-12-13 triangle
        assert f.c[0] == 1.0 and f.s[0] == 0.0
        assert abs(f.c[1] - 12 / 13) <= 1e-14
        assert abs(f.s[1] - 5 / 13) <= 1e-14
        cots = f.cotangents()
        assert np.isinf(cots[0])
        assert abs(cots[1] - 2.4) <= 1e-12
        check_factor_invariants(f, DIAG34, ROW11)

    def test_scalar_prelude(self):
        f = gsvd.gsvd_decompose([[3.0]], [[4.0]])
        np.testing.assert_allclose(f.c, [0.6], atol=1e-15)
        np.testing.assert_allclose(f.s, [0.8], atol=1e-15)
        np.testing.assert_allclose(f.h, [[5.0]], atol=1e-14)

    def test_equal_pair_symmetry(self):
        f = gsvd.gsvd_decompose(np.eye(2), np.eye(2))
        np.testing.assert_allclose(f.c, np.full(2, 1 / np.sqrt(2)), atol=1e-14)
        np.testing.assert_allclose(f.s, np.full(2, 1 / np.sqrt(2)), atol=1e-14)
        np.testing.assert_allclose(f.cotangents(), [1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(f.h.T @ f.h, 2 * np.eye(2), atol=1e-12)

    def test_pencil_oracle_full_rank(self, rng):
        for _ in range(20):
            a = rng.standard_normal((6, 4))
            b = rng.standard_normal((5, 4))
            f = gsvd.gsvd_decompose(a, b)
            expected = pencil_cotangents(a, b)
            np.testing.assert_allclose(np.sort(f.cotangents())[::-1], expected,
                                       rtol=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gsvd.gsvd_decompose(np.eye(2), np.ones((1, 3)))

    def test_zero_pair(self):
        f = gsvd.gsvd_decompose(np.zeros((2, 3)), np.zeros((4, 3)))
        assert f.r == f.r_a == f.r_b == 0
        np.testing.assert_allclose(f.u, np.eye(2))
        np.testing.assert_allclose(f.v, np.eye(4))
        assert f.h.shape == (0, 3)
        assert np.all(f.reconstruct() == 0)

    def test_scaling_invariance(self, rng):
        a, b = random_pair(rng, 5, 4, 3)
        f1 = gsvd.gsvd_decompose(a, b)
        alpha = 3.7
        f2 = gsvd.gsvd_decompose(alpha * a, alpha * b)
        np.testing.assert_allclose(f1.c, f2.c, atol=1e-12)
        np.testing.assert_allclose(f1.s, f2.s, atol=1e-12)
        np.testing.assert_allclose(alpha * f1.h, f2.h, rtol=1e-12, atol=1e-12)

    def test_orthonormal_stack_gives_orthogonal_h(self, rng):
        for _ in range(20):
            m = int(rng.integers(3, 12))
            n = int(rng.integers(1, m + 1))
            q = random_orthonormal(rng, m, n)
            split = int(rng.integers(1, m))
            f = gsvd.gsvd_decompose(q[:split], q[split:])
            assert np.linalg.norm(f.h.T @ f.h - np.eye(f.r)) <= 1e-10

    def test_v_col_of_bottom_alignment(self, rng):
        a, b = random_pair(rng, 4, 3, 5, rank_b=2)
        f = gsvd.gsvd_decompose(a, b)
        nz = np.flatnonzero(f.s > 0)
        np.testing.assert_array_equal(f.v_col_of[nz],
                                      f.m2 - f.r_b + np.arange(f.r_b))
        assert np.all(f.v_col_of[f.s == 0] == -1)
        # s_matrix places each s_i in the recorded column
        sm = f.s_matrix()
        for i in nz:
            assert sm[f.v_col_of[i], i] == f.s[i]

    def test_invariants_random_sweep(self, rng):
        for _ in range(100):
            m1 = int(rng.integers(1, 12))
            m2 = int(rng.integers(1, 12))
            n = int(rng.integers(1, 10))
            cn = int(rng.integers(0, n)) if n > 1 else 0
            inner = n - cn
            a, b = random_pair(
                rng, m1, m2, n,
                rank_a=int(rng.integers(1, min(m1, inner) + 1)),
                rank_b=int(rng.integers(1, min(m2, inner) + 1)),
                common_null=cn,
            )
            f = gsvd.gsvd_decompose(a, b)
            check_factor_invariants(f, a, b, recon_tol=1e-11)
            # structure counts agree with independent ranks and snapped values
            assert f.r == matcore.numerical_rank(np.vstack([a, b]))
            assert f.r_a == matcore.numerical_rank(a)
            assert f.r_b == matcore.numerical_rank(b)
            assert int(np.sum(f.s == 0)) == f.r - f.r_b
            assert int(np.sum(f.c == 0)) == f.r - f.r_a

    def test_zero_tolerance_b_block_reconstructs(self):
        # a cut below B's roundoff keeps a sine of 5.1e-16; its column must
        # not lead the Householder QR of the sine columns, or every later V
        # column is orthogonalized against roundoff
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 8))
        b = rng.standard_normal((9, 8))
        b[:, 0] = b[:, 1]
        f = gsvd.gsvd_decompose(a, b, Tolerance(rel=0.0))
        assert np.linalg.norm(f.v @ f.s_matrix() @ f.h - b) <= 1e-12 * np.linalg.norm(b)


TALL_PAIRS = {
    # thousands of genes by a few arrays in each block: both blocks tall
    "genome_450_1200x18": lambda rng: (rng.standard_normal((450, 18)),
                                       rng.standard_normal((1200, 18))),
    # a Tikhonov path's A beside a first-difference-shaped L: A tall
    "tikhonov_2000_199x200": lambda rng: (rng.standard_normal((2000, 200)),
                                          rng.standard_normal((199, 200))),
    # a within-cluster block beside two between-cluster rows: B tall
    "discriminant_2_300x50": lambda rng: (rng.standard_normal((2, 50)),
                                          rng.standard_normal((300, 50))),
    # both tall and rank-deficient, with a common nullspace
    "rank_deficient_60_80x12": lambda rng: random_pair(rng, 60, 80, 12, rank_a=5, rank_b=4,
                                                       common_null=3),
}


class TestTallB:
    # B far taller than n: V is m2 x m2 with only r_b columns fixed by the
    # data, the rest a completion.
    @pytest.mark.parametrize("rank_b", [20, 7, 0])
    def test_bottom_aligned_v(self, rng, rank_b):
        a = rng.standard_normal((20, 20))
        if rank_b:
            _, b = random_pair(rng, 20, 600, 20, rank_b=rank_b)
        else:
            b = np.zeros((600, 20))
        f = gsvd.gsvd_decompose(a, b)
        assert (f.r, f.r_a, f.r_b) == (20, 20, rank_b)
        check_factor_invariants(f, a, b)
        nz = np.flatnonzero(f.s > 0)
        assert nz.size == rank_b
        np.testing.assert_array_equal(f.v_col_of[nz], 600 - rank_b + np.arange(rank_b))
        assert np.all(f.v_col_of[f.s == 0] == -1)
        if rank_b == 0:
            np.testing.assert_array_equal(f.v, np.eye(600))
            return
        # the last r_b columns span col(B); the others are orthogonal to it
        scale = np.linalg.norm(b, 2)
        vb = f.v[:, 600 - rank_b:]
        assert np.linalg.norm(b - vb @ (vb.T @ b)) <= 1e-12 * scale
        assert np.max(np.abs(f.v[:, : 600 - rank_b].T @ b)) <= 1e-12 * scale
        # B = V S H with each v_i at the column v_col_of records
        b_rows = f.reconstruct()[20:]
        assert np.linalg.norm(b_rows - b) <= 1e-12 * scale

    @pytest.mark.parametrize("case", list(TALL_PAIRS))
    def test_tall_pairs(self, rng, tmp_path, case):
        # Each tall block stands as its R factor in the stacked matrix, and
        # V is lifted through Q_B as U is through Q_A.
        a, b = TALL_PAIRS[case](rng)
        full = gsvd.gsvd_decompose(a, b)
        check_factor_invariants(full, a, b)
        want = (matcore.numerical_rank(np.vstack([a, b])), matcore.numerical_rank(a),
                matcore.numerical_rank(b))
        assert (full.r, full.r_a, full.r_b) == want
        assert gsvd._ranks(a, b, Tolerance()) == want
        assert full.v_start == b.shape[0] - full.r_b
        fc = gsvd.gsvd_decompose(a, b, compact=True)
        check_factor_invariants(fc, a, b)
        ref = gsvd.compact(full)
        for name in ("u", "v", "c", "s", "h", "v_col_of"):
            np.testing.assert_array_equal(getattr(fc, name), getattr(ref, name), err_msg=name)
        # the R factors keep the blocks' singular values
        stacked, top = gsvd._stacked(a, b)[:2]
        for block, rows in ((a, stacked[:top]), (b, stacked[top:])):
            want_sv = matcore._svdvals(block)
            assert np.max(np.abs(matcore._svdvals(rows) - want_sv)) <= 1e-14 * want_sv[0]
        pa, pb, out = (str(tmp_path / name) for name in ("a.csv", "b.csv", "factors.json"))
        cli.write_matrix(pa, a)
        cli.write_matrix(pb, b)
        assert cli.main(["gsvd", pa, pb, "--compact", "--json", out]) == 0
        assert cli.main(["verify", pa, pb, out]) == 0


class TestQrSvdRankDisagreement:
    # 7x6 draw and absolute thresholds on which the pivoted-QR diagonal and
    # the singular values disagree about the rank: 2.08657 sits between the
    # second R-diagonal entry and the second singular value (QR sees rank 1,
    # the SVD 2); 1.04 sits between the fifth singular value and the fifth
    # R-diagonal entry (QR sees rank 5, the SVD 4).  The factorization is
    # cut at the SVD rank either way.
    @pytest.mark.parametrize(
        "cut, qr_rank, svd_rank",
        [(2.086570, 1, 2), (1.04, 5, 4)],
        ids=["qr_rank_below_svd", "qr_rank_above_svd"],
    )
    def test_truncates_at_svd_rank(self, cut, qr_rank, svd_rank):
        gen = np.random.default_rng(0)
        m = int(gen.integers(3, 8))
        n = int(gen.integers(3, 8))
        stacked = gen.standard_normal((m, n))
        _, r_up, _ = scipy.linalg.qr(stacked, mode="economic", pivoting=True)
        sv = np.linalg.svd(stacked, compute_uv=False)
        tol = Tolerance(rel=cut / sv[0])
        assert int(np.count_nonzero(np.abs(np.diag(r_up)) > cut)) == qr_rank
        assert int(np.count_nonzero(sv > cut)) == svd_rank

        f = gsvd.gsvd_decompose(stacked[:3], stacked[3:], tol)
        assert f.r == svd_rank
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(f.v.T @ f.v, np.eye(4), atol=1e-12)
        assert np.max(np.abs(f.c**2 + f.s**2 - 1)) <= 1e-13
        assert matcore.numerical_rank(f.h) == svd_rank
        # class sizes still follow the (aggressively) thresholded ranks
        assert f.r_a == int(np.sum(np.linalg.svd(stacked[:3], compute_uv=False) > cut))
        assert f.r_b == int(np.sum(np.linalg.svd(stacked[3:], compute_uv=False) > cut))
        # such a cutoff discards real signal, so the rebuild is only a
        # structured approximation bounded by what was thrown away
        dropped = np.sqrt(np.sum(sv[svd_rank:] ** 2))
        assert np.linalg.norm(f.reconstruct() - stacked) <= dropped + 2 * cut


class TestStoredFields:
    def test_only_what_the_arrays_cannot_give_is_stored(self):
        names = [fld.name for fld in dataclasses.fields(gsvd.GsvdFactors)]
        assert names == ["u", "v", "c", "s", "h", "v_start", "compact"]

    def test_counts_follow_replaced_values(self, rng):
        # every s_i made positive, as limit_curve does: r_b is then r,
        # and the shapes are still those of U, V and H
        a, b = random_pair(rng, 5, 6, 4, rank_b=2)
        f = gsvd.gsvd_decompose(a, b)
        assert (f.r, f.r_a, f.r_b) == (4, 4, 2)
        zero_s = f.s == 0
        g = dataclasses.replace(f, c=np.where(zero_s, np.cos(1e-3), f.c),
                                s=np.where(zero_s, np.sin(1e-3), f.s), v_start=f.m2 - f.r)
        assert (g.r, g.r_a, g.r_b) == (4, 4, 4)
        assert (g.m1, g.m2, g.n) == (5, 6, 4)


class TestStructureCounts:
    def test_worked_example(self):
        f = gsvd.gsvd_decompose(DIAG34, ROW11)
        counts = gsvd.structure_counts(f)
        assert (counts.n_infinite, counts.n_finite, counts.n_zero) == (1, 1, 0)
        assert (counts.zero_rows_c, counts.zero_rows_s) == (0, 0)

    def test_equal_pair(self):
        counts = gsvd.structure_counts(gsvd.gsvd_decompose(np.eye(2), np.eye(2)))
        assert (counts.n_infinite, counts.n_finite, counts.n_zero) == (0, 2, 0)

    def test_disjoint_row_spaces(self):
        f = gsvd.gsvd_decompose(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        counts = gsvd.structure_counts(f)
        assert (counts.n_infinite, counts.n_finite, counts.n_zero) == (1, 0, 1)

    def test_totals(self, rng):
        for _ in range(30):
            a, b = random_pair(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)),
                               int(rng.integers(1, 8)))
            f = gsvd.gsvd_decompose(a, b)
            counts = gsvd.structure_counts(f)
            assert counts.n_infinite + counts.n_finite + counts.n_zero == f.r
            assert min(counts.n_infinite, counts.n_finite, counts.n_zero) >= 0


class TestFundamentalSubspaces:
    def test_shared_nullspace(self):
        a = np.array([[1.0, 0.0]])
        f = gsvd.gsvd_decompose(a, a)
        bases = gsvd.fundamental_subspaces(f, a, a)
        assert bases.common_null.shape == (2, 1)
        np.testing.assert_allclose(np.abs(bases.common_null[:, 0]), [0.0, 1.0],
                                   atol=1e-12)

    def test_full_column_rank_empty_common_null(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 3))
        bases = gsvd.fundamental_subspaces(gsvd.gsvd_decompose(a, b), a, b)
        assert bases.common_null.shape == (3, 0)

    def test_worked_example_col_b(self):
        f = gsvd.gsvd_decompose(DIAG34, ROW11)
        bases = gsvd.fundamental_subspaces(f, DIAG34, ROW11)
        np.testing.assert_allclose(np.abs(bases.col_b), [[1.0]], atol=1e-14)
        assert bases.left_null_b.shape == (1, 0)

    def test_dimensions_and_annihilation(self, rng):
        for _ in range(20):
            a, b = random_pair(rng, 6, 5, 6,
                               rank_a=int(rng.integers(1, 5)),
                               rank_b=int(rng.integers(1, 4)),
                               common_null=int(rng.integers(0, 2)))
            f = gsvd.gsvd_decompose(a, b)
            bases = gsvd.fundamental_subspaces(f, a, b)
            assert bases.col_a.shape == (6, f.r_a)
            assert bases.left_null_a.shape == (6, 6 - f.r_a)
            assert bases.col_b.shape == (5, f.r_b)
            assert bases.common_null.shape == (6, f.n - f.r)
            scale = np.linalg.norm(np.vstack([a, b]))
            assert np.linalg.norm(a @ bases.common_null) <= 1e-10 * scale
            assert np.linalg.norm(b @ bases.common_null) <= 1e-10 * scale
            if bases.null_a.size:
                assert np.linalg.norm(a @ bases.null_a) <= 1e-9 * scale
            if bases.null_b.size:
                assert np.linalg.norm(b @ bases.null_b) <= 1e-9 * scale
            assert bases.null_a.shape[1] == f.n - f.r_a
            assert bases.null_b.shape[1] == f.n - f.r_b
            assert np.linalg.norm(a.T @ bases.left_null_a) <= 1e-10 * scale

    def test_wrong_shapes_raise(self, rng):
        # bases of the factors used to come back for any (a, b) at all
        a = rng.standard_normal((5, 4))
        b = rng.standard_normal((6, 4))
        f = gsvd.gsvd_decompose(a, b)
        with pytest.raises(DimensionMismatch):
            gsvd.fundamental_subspaces(f, np.ones((2, 9)), np.ones((3, 7)))
        with pytest.raises(DimensionMismatch):
            gsvd.fundamental_subspaces(f, b, a)


class TestCompact:
    def test_idempotent(self, rng):
        a, b = random_pair(rng, 5, 4, 3)
        fc = gsvd.compact(gsvd.gsvd_decompose(a, b))
        assert gsvd.compact(fc) is fc

    def test_worked_example_dims(self):
        fc = gsvd.compact(gsvd.gsvd_decompose(DIAG34, ROW11))
        assert fc.u.shape == (2, 2)
        assert fc.v.shape == (1, 1)

    def test_rank_deficient_dims(self, rng):
        a, b = random_pair(rng, 5, 4, 2, rank_a=2, rank_b=1)
        f = gsvd.gsvd_decompose(a, b)
        fc = gsvd.compact(f)
        assert fc.u.shape == (5, 2)
        assert fc.v.shape == (4, 1)
        stacked = np.vstack([a, b])
        assert np.linalg.norm(fc.reconstruct() - stacked) <= 1e-11 * np.linalg.norm(stacked)


# Pairs on every branch of the compact route.
COMPACT_ROUTE_CASES = {
    "gaussian": lambda rng: (rng.standard_normal((7, 6)), rng.standard_normal((5, 6))),
    "rank_deficient": lambda rng: random_pair(rng, 8, 6, 7, rank_a=3, rank_b=2, common_null=1),
    "m1_below_r": lambda rng: (rng.standard_normal((2, 6)), rng.standard_normal((5, 6))),
    "rb_zero": lambda rng: (rng.standard_normal((6, 4)), np.zeros((5, 4))),
    "r_zero": lambda rng: (np.zeros((3, 4)), np.zeros((2, 4))),
    "ra_zero": lambda rng: (np.zeros((4, 3)), rng.standard_normal((5, 3))),
    "tall_b": lambda rng: (rng.standard_normal((30, 30)), rng.standard_normal((2500, 30))),
    "one_row": lambda rng: (rng.standard_normal((1, 5)), rng.standard_normal((3, 5))),
    # a tall B of rank 0 and 1: V is Q_B's trailing columns beside none or
    # one sine column
    "tall_b_zero": lambda rng: (rng.standard_normal((6, 3)), np.zeros((20, 3))),
    "tall_b_rank_one": lambda rng: random_pair(rng, 6, 40, 5, rank_b=1),
    "a_zero_both_tall": lambda rng: (np.zeros((30, 4)), rng.standard_normal((25, 4))),
}


class TestCompactRoute:
    # gsvd_decompose(..., compact=True) skips the left-nullspace completions
    # and must give what compacting the full-format factors gives.
    @pytest.mark.parametrize("case", list(COMPACT_ROUTE_CASES))
    def test_matches_compacted_full_factors(self, rng, case):
        a, b = COMPACT_ROUTE_CASES[case](rng)
        ref = gsvd.compact(gsvd.gsvd_decompose(a, b))
        fc = gsvd.gsvd_decompose(a, b, compact=True)
        assert fc.compact
        for name in ("u", "v", "c", "s", "h", "v_col_of"):
            got, want = getattr(fc, name), getattr(ref, name)
            assert got.shape == want.shape, name
            np.testing.assert_array_equal(got, want, err_msg=name)
        assert (fc.r, fc.r_a, fc.r_b, fc.v_start) == (ref.r, ref.r_a, ref.r_b, ref.v_start)
        assert (fc.m1, fc.m2, fc.n) == (ref.m1, ref.m2, ref.n)
        assert fc.v.shape == (b.shape[0], fc.r_b)
        check_factor_invariants(fc, a, b, recon_tol=1e-11)

    def test_private_route_takes_the_keyword(self, rng):
        a, b = COMPACT_ROUTE_CASES["rank_deficient"](rng)
        f, sv_a = gsvd._decompose(a, b, Tolerance(), compact=True)
        assert f.compact and f.u.shape == (8, f.r_a) and f.v.shape == (6, f.r_b)
        np.testing.assert_array_equal(sv_a, np.linalg.svd(a, compute_uv=False))

    def test_compact_of_top_convention(self, rng):
        # the nonzero-sine columns sit at the left of V there
        a, b = random_pair(rng, 5, 6, 4, rank_b=2)
        f = gsvd.gsvd_decompose(a, b)
        ref = gsvd.compact(f)
        fc = gsvd.compact(gsvd.with_top_convention(f))
        for name in ("u", "v", "c", "s", "h", "v_col_of"):
            np.testing.assert_array_equal(getattr(fc, name), getattr(ref, name), err_msg=name)


class TestDirections:
    @pytest.mark.parametrize("compact", [False, True], ids=["full", "compact"])
    def test_blocks_match_columnwise(self, rng, compact):
        # all three classes: c = 1, 0 < c < 1 and c = 0
        a, b = random_pair(rng, 6, 5, 5, rank_a=3, rank_b=3)
        f = gsvd.gsvd_decompose(a, b, compact=compact)
        assert f.n_infinite and f.n_finite and f.n_zero
        has_u = np.flatnonzero(f.c > 0)
        u_cols = np.zeros((f.m1, f.r))
        u_cols[:, has_u] = f.u[:, has_u]
        has_v = np.flatnonzero(f.v_col_of >= 0)
        v_cols = np.zeros((f.m2, f.r))
        v_cols[:, has_v] = f.v[:, f.v_col_of[has_v]]
        np.testing.assert_array_equal(f.u_dirs(), u_cols)
        np.testing.assert_array_equal(f.v_dirs(), v_cols)
        assert not f.u_dirs()[:, f.c == 0].any() and not f.v_dirs()[:, f.s == 0].any()

    def test_empty(self):
        f = gsvd.gsvd_decompose(np.zeros((3, 2)), np.zeros((4, 2)), compact=True)
        assert f.u_dirs().shape == (3, 0) and f.v_dirs().shape == (4, 0)


class TestExpand:
    def test_full_rank_unchanged(self, rng):
        a, b = random_pair(rng, 4, 3, 3)
        f = gsvd.gsvd_decompose(a, b)
        _, _, h_exp = gsvd.expand(f)
        np.testing.assert_array_equal(h_exp, f.h)

    def test_shared_nullspace_row(self):
        a = np.array([[1.0, 0.0]])
        f = gsvd.gsvd_decompose(a, a)
        c_exp, s_exp, h_exp = gsvd.expand(f)
        assert h_exp.shape == (2, 2)
        assert matcore.numerical_rank(h_exp) == 2
        np.testing.assert_allclose(np.abs(h_exp[1]), [0.0, 1.0], atol=1e-12)
        rebuilt = np.vstack([f.u @ c_exp, f.v @ s_exp]) @ h_exp
        np.testing.assert_allclose(rebuilt, np.vstack([a, a]), atol=1e-12)

    def test_nonsingular_on_rank_deficient(self, rng):
        for _ in range(20):
            a, b = random_pair(rng, 4, 3, 6, common_null=int(rng.integers(1, 3)))
            f = gsvd.gsvd_decompose(a, b)
            _, _, h_exp = gsvd.expand(f)
            assert h_exp.shape == (6, 6)
            assert matcore.numerical_rank(h_exp) == 6

    def test_square_at_a_tiny_tolerance(self, rng):
        # at rel = 1e-18 the roundoff of a rank-4 pair counts, so r = 6
        # lies above the rank H shows at the default cutoff; H still gains
        # exactly n - r rows
        for _ in range(20):
            z = rng.standard_normal((4, 8))
            a = rng.standard_normal((3, 4)) @ z
            b = rng.standard_normal((3, 4)) @ z
            f = gsvd.gsvd_decompose(a, b, Tolerance(rel=1e-18))
            c_exp, s_exp, h_exp = gsvd.expand(f)
            assert f.r < 8 and h_exp.shape == (8, 8)
            rebuilt = np.vstack([f.u @ c_exp, f.v @ s_exp]) @ h_exp
            np.testing.assert_allclose(rebuilt, np.vstack([a, b]), atol=1e-12)


class TestRqDrilldown:
    def test_full_rank(self, rng):
        a, b = random_pair(rng, 4, 4, 3)
        f = gsvd.gsvd_decompose(a, b)
        r, q = gsvd.rq_drilldown(f)
        assert r.shape == (3, 3)
        np.testing.assert_allclose(r, np.triu(r))
        np.testing.assert_allclose(f.h, r @ q.T, atol=1e-12 * np.linalg.norm(f.h))

    def test_shared_nullspace_direction(self):
        a = np.array([[1.0, 0.0]])
        f = gsvd.gsvd_decompose(a, a)
        _, q = gsvd.rq_drilldown(f)
        np.testing.assert_allclose(np.abs(q[:, 0]), [0.0, 1.0], atol=1e-12)

    def test_engineered_nullspace(self, rng):
        for _ in range(10):
            n = 5
            direction = rng.standard_normal(n)
            direction /= np.linalg.norm(direction)
            carrier = matcore.complete_basis(direction[:, None])
            a = rng.standard_normal((6, n - 1)) @ carrier.T
            b = rng.standard_normal((4, n - 1)) @ carrier.T
            f = gsvd.gsvd_decompose(a, b)
            assert f.n - f.r == 1
            _, q = gsvd.rq_drilldown(f)
            assert abs(abs(q[:, 0] @ direction) - 1.0) <= 1e-10
            assert np.linalg.norm(a @ q[:, 0]) <= 1e-10 * np.linalg.norm(a)
            assert np.linalg.norm(b @ q[:, 0]) <= 1e-10 * np.linalg.norm(b)


class TestRankReduce:
    def test_full_k_reproduces(self, rng):
        a, b = random_pair(rng, 5, 4, 3)
        f = gsvd.gsvd_decompose(a, b)
        ak, bk = gsvd.rank_reduce(f, a, b, f.r)
        assert np.linalg.norm(ak - a) <= 1e-12 * np.linalg.norm(a)
        assert np.linalg.norm(bk - b) <= 1e-12 * np.linalg.norm(b)

    def test_zero_k(self, rng):
        a, b = random_pair(rng, 5, 4, 3)
        f = gsvd.gsvd_decompose(a, b)
        ak, bk = gsvd.rank_reduce(f, a, b, 0)
        assert np.all(ak == 0) and np.all(bk == 0)

    def test_rank_one(self, rng):
        a, b = random_pair(rng, 5, 4, 3)
        f = gsvd.gsvd_decompose(a, b)
        ak, bk = gsvd.rank_reduce(f, a, b, 1)
        assert matcore.numerical_rank(np.vstack([ak, bk])) == 1

    def test_matches_oblique_projector(self, rng):
        for _ in range(10):
            a, b = random_pair(rng, 6, 4, 4)
            f = gsvd.gsvd_decompose(a, b)
            k = int(rng.integers(1, f.r + 1))
            ak, bk = gsvd.rank_reduce(f, a, b, k)
            eye_rk = np.eye(f.r)[:, :k]
            proj = matcore.pinv(f.h) @ eye_rk @ eye_rk.T @ f.h
            expected = np.vstack([a, b]) @ proj
            stacked = np.vstack([ak, bk])
            assert np.linalg.norm(stacked - expected) <= 1e-10 * max(np.linalg.norm(expected), 1.0)

    def test_out_of_range(self, rng):
        a, b = random_pair(rng, 3, 3, 2)
        f = gsvd.gsvd_decompose(a, b)
        with pytest.raises(RankOutOfRange):
            gsvd.rank_reduce(f, a, b, f.r + 1)
        with pytest.raises(RankOutOfRange):
            gsvd.rank_reduce(f, a, b, -1)

    @pytest.mark.parametrize("k", [1.5, 1.0, "1", True])
    def test_non_integer_k_raises(self, rng, k):
        # slicing with 1.5 raised a bare TypeError
        a, b = random_pair(rng, 3, 3, 2)
        f = gsvd.gsvd_decompose(a, b)
        with pytest.raises(RankOutOfRange):
            gsvd.rank_reduce(f, a, b, k)
        assert gsvd.rank_reduce(f, a, b, np.int64(1))[0].shape == (3, 2)

    def test_wrong_shapes_raise(self, rng):
        a, b = random_pair(rng, 5, 6, 4)
        f = gsvd.gsvd_decompose(a, b)
        with pytest.raises(DimensionMismatch):
            gsvd.rank_reduce(f, b, a, 1)
        with pytest.raises(DimensionMismatch):
            gsvd.rank_reduce(f, a[:, :3], b[:, :3], 1)


class TestParameterCount:
    def test_square_case(self):
        counts = gsvd.parameter_count(2, 2, 2, 2)
        assert counts["total"] == 8

    def test_middle_regime_angles(self):
        assert gsvd.parameter_count(1, 3, 4, 2)["angles"] == 1

    def test_total_is_mn_everywhere(self):
        for m1 in range(1, 7):
            for m2 in range(1, 7):
                for n in range(1, 7):
                    for r in range(1, min(m1 + m2, n) + 1):
                        counts = gsvd.parameter_count(m1, m2, n, r)
                        assert counts["total"] == (m1 + m2) * n

    def test_swapped_roles(self):
        # m1 > m2 mirrors the m1 < m2 table with U and V exchanged
        small = gsvd.parameter_count(2, 5, 6, 3)
        big = gsvd.parameter_count(5, 2, 6, 3)
        assert small["u_stiefel"] == big["v_stiefel"]
        assert small["v_stiefel"] == big["u_stiefel"]
        assert small["total"] == big["total"]

    def test_invalid(self):
        with pytest.raises(InvalidDimensions):
            gsvd.parameter_count(2, 2, 2, 0)
        with pytest.raises(InvalidDimensions):
            gsvd.parameter_count(2, 2, 2, 3)


class TestConventions:
    def test_top_convention_roundtrip(self, rng):
        a, b = random_pair(rng, 4, 5, 3, rank_b=2)
        f = gsvd.gsvd_decompose(a, b)
        ft = gsvd.with_top_convention(f)
        nz = np.flatnonzero(ft.s > 0)
        np.testing.assert_array_equal(ft.v_col_of[nz], np.arange(ft.r_b))
        stacked = np.vstack([a, b])
        assert np.linalg.norm(ft.reconstruct() - stacked) <= 1e-11 * np.linalg.norm(stacked)

    @pytest.mark.parametrize("compact", [False, True], ids=["full", "compact"])
    def test_top_convention_idempotent(self, rng, compact):
        a, b = random_pair(rng, 5, 6, 4, rank_b=2)
        ft = gsvd.with_top_convention(gsvd.gsvd_decompose(a, b, compact=compact))
        ftt = gsvd.with_top_convention(ft)
        np.testing.assert_array_equal(ftt.v, ft.v)
        np.testing.assert_array_equal(ftt.v_col_of, ft.v_col_of)
        stacked = np.vstack([a, b])
        assert np.linalg.norm(ftt.reconstruct() - stacked) <= 1e-11 * np.linalg.norm(stacked)

    @pytest.mark.parametrize("rank_b", [0, 2, 5], ids=["rb_zero", "rb_mid", "rb_m2"])
    def test_fundamental_subspaces_either_layout(self, rng, rank_b):
        a = rng.standard_normal((5, 6)) @ random_orthonormal(rng, 6, 6)
        b = np.zeros((5, 6))
        if rank_b:
            b = rng.standard_normal((5, rank_b)) @ rng.standard_normal((rank_b, 6))
        f = gsvd.gsvd_decompose(a, b)
        assert f.r_b == rank_b
        bottom = gsvd.fundamental_subspaces(f, a, b)
        top = gsvd.fundamental_subspaces(gsvd.with_top_convention(f), a, b)
        for name in ("col_a", "col_b", "left_null_a", "left_null_b", "row_ab",
                     "null_a", "null_b", "common_null"):
            np.testing.assert_array_equal(getattr(top, name), getattr(bottom, name), err_msg=name)
        assert np.linalg.norm(b - top.col_b @ (top.col_b.T @ b)) <= 1e-12 * max(np.linalg.norm(b), 1.0)


# a zero pair, and a nonzero pair that rel = 1 makes rank 0: no singular
# value lies above sigma_max
RANK_ZERO_PAIRS = {
    "zero_pair": (np.zeros((3, 4)), np.zeros((2, 4)), Tolerance()),
    "abs_cutoff": (np.arange(12.0).reshape(3, 4), np.ones((2, 4)), Tolerance(rel=1.0)),
}


@pytest.mark.parametrize("key", RANK_ZERO_PAIRS)
class TestRankZero:
    def test_factors(self, key):
        a, b, tol = RANK_ZERO_PAIRS[key]
        f = gsvd.gsvd_decompose(a, b, tol)
        assert (f.r, f.r_a, f.r_b) == (0, 0, 0)
        np.testing.assert_array_equal(f.u, np.eye(3))
        np.testing.assert_array_equal(f.v, np.eye(2))
        assert f.c.shape == f.s.shape == f.v_col_of.shape == (0,)
        assert f.h.shape == (0, 4)
        fc = gsvd.gsvd_decompose(a, b, tol, compact=True)
        assert fc.u.shape == (3, 0) and fc.v.shape == (2, 0)
        assert fc.h.shape == (0, 4)

    def test_fundamental_subspaces(self, key):
        a, b, tol = RANK_ZERO_PAIRS[key]
        bases = gsvd.fundamental_subspaces(gsvd.gsvd_decompose(a, b, tol), a, b)
        assert bases.col_a.shape == (3, 0) and bases.col_b.shape == (2, 0)
        np.testing.assert_array_equal(bases.left_null_a, np.eye(3))
        np.testing.assert_array_equal(bases.left_null_b, np.eye(2))
        assert bases.row_ab.shape == (0, 4)
        # every direction is in the common nullspace
        for name in ("common_null", "null_a", "null_b"):
            np.testing.assert_array_equal(getattr(bases, name), np.eye(4), err_msg=name)

    def test_expand(self, key):
        a, b, tol = RANK_ZERO_PAIRS[key]
        f = gsvd.gsvd_decompose(a, b, tol)
        c_exp, s_exp, h_exp = gsvd.expand(f)
        np.testing.assert_array_equal(c_exp, np.zeros((3, 4)))
        np.testing.assert_array_equal(s_exp, np.zeros((2, 4)))
        np.testing.assert_array_equal(h_exp, np.eye(4))

    def test_rq_drilldown(self, key):
        a, b, tol = RANK_ZERO_PAIRS[key]
        for compact in (False, True):
            r, q = gsvd.rq_drilldown(gsvd.gsvd_decompose(a, b, tol, compact=compact))
            assert r.shape == (0, 0)
            np.testing.assert_array_equal(q, np.eye(4))


def regime_table(m1, m2, r):
    # the degree-of-freedom entries written out regime by regime, for
    # m1 <= m2, then mirrored: an oracle for the closed form
    if m1 > m2:
        t = regime_table(m2, m1, r)
        return {**t, "u_stiefel": t["v_stiefel"], "v_stiefel": t["u_stiefel"],
                "r_a_generic": t["r_b_generic"], "r_b_generic": t["r_a_generic"]}
    m = m1 + m2
    if r <= m1:
        return {"angles": r, "u_stiefel": (m1 - r) * r + r * (r - 1) // 2,
                "v_stiefel": (m2 - r) * r + r * (r - 1) // 2,
                "grassmann": 0, "r_a_generic": r, "r_b_generic": r}
    if r <= m2:
        return {"angles": m1, "u_stiefel": m1 * (m1 - 1) // 2,
                "v_stiefel": (m2 - m1) * m1 + m1 * (m1 - 1) // 2,
                "grassmann": (r - m1) * (m2 - r), "r_a_generic": m1, "r_b_generic": r}
    k = m - r
    return {"angles": k, "u_stiefel": (r - m2) * k + k * (k - 1) // 2,
            "v_stiefel": (r - m1) * k + k * (k - 1) // 2,
            "grassmann": 0, "r_a_generic": m1, "r_b_generic": m2}


class TestParameterCountClosedForm:
    def test_matches_the_regime_tables(self):
        for m1 in range(1, 8):
            for m2 in range(1, 8):
                for n in range(1, 16):
                    for r in range(1, min(m1 + m2, n) + 1):
                        counts = gsvd.parameter_count(m1, m2, n, r)
                        want = regime_table(m1, m2, r)
                        assert {key: counts[key] for key in want} == want, (m1, m2, n, r)

    def test_regime_labels(self):
        assert gsvd.parameter_count(2, 5, 9, 2)["regime"] == "r <= min(m1, m2)"
        assert gsvd.parameter_count(5, 2, 9, 4)["regime"] == "min(m1, m2) <= r <= max(m1, m2)"
        assert gsvd.parameter_count(2, 5, 9, 6)["regime"] == "max(m1, m2) <= r"

    @pytest.mark.parametrize("dims", [(0, 2, 2, 1), (2, -1, 2, 1), (2, 2, 0, 1),
                                      (2.0, 2, 2, 1), (2, 2, 2, True)])
    def test_rejects_a_nonpositive_or_noninteger_dimension(self, dims):
        with pytest.raises(InvalidDimensions):
            gsvd.parameter_count(*dims)


class TestFormatChecks:
    def test_fundamental_subspaces_needs_full_format(self, rng):
        a, b = random_pair(rng, 4, 3, 3)
        with pytest.raises(ValueError, match="full-format"):
            gsvd.fundamental_subspaces(gsvd.gsvd_decompose(a, b, compact=True), a, b)


def _above_the_cut(rng, m1, m2, n):
    # A Gaussian pair whose decomposition starts the helper thread.
    m = m1 + m2
    assert m * n * min(m, n) >= gsvd._HELPER_MIN_WORK
    return rng.standard_normal((m1, n)), rng.standard_normal((m2, n))


def _same_bits(f, g):
    return all(getattr(f, k).tobytes() == getattr(g, k).tobytes() for k in "uvcsh") and (
        (f.v_start, f.compact) == (g.v_start, g.compact))


class TestHelperThread:
    @pytest.fixture(autouse=True)
    def one_blas_thread(self, monkeypatch):
        # The helper starts only when every loaded BLAS runs one thread, and
        # these tests need it started whatever the BLAS thread count is.
        monkeypatch.setattr(gsvd, "_blas_threads", lambda: 1)

    # Python 3.12 warns on a fork while BLAS worker threads are alive,
    # which they are when the BLAS thread count is not pinned to 1.
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_decomposes_after_the_parent(self, rng):
        # A helper shared across calls would not survive the fork, and the
        # child's decomposition would wait on it forever.
        a, b = _above_the_cut(rng, 150, 100, 200)
        gsvd.gsvd_decompose(a, b)
        child = multiprocessing.get_context("fork").Process(target=gsvd.gsvd_decompose,
                                                             args=(a, b))
        child.start()
        child.join(timeout=60)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung and child.exitcode == 0

    def test_helper_error_is_raised_on_the_caller(self, rng, monkeypatch):
        a, b = _above_the_cut(rng, 150, 100, 200)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("QR failed")

        monkeypatch.setattr(scipy.linalg, "qr", fail)
        with pytest.raises(np.linalg.LinAlgError, match="QR failed"):
            gsvd.gsvd_decompose(a, b)
        assert not [t for t in threading.enumerate() if t.name.startswith("gsvd-helper")]

    def test_helper_second_stage_error_is_raised_on_the_caller(self, rng, monkeypatch):
        # The singular values of a and b are the helper's second stage; the
        # stacked pair's, taken on the caller's thread, still succeed.
        a, b = _above_the_cut(rng, 150, 100, 200)
        svdvals = matcore._svdvals

        def fail_on_a_block(x):
            if x.shape[0] != a.shape[0] + b.shape[0]:
                raise np.linalg.LinAlgError("block SVD failed")
            return svdvals(x)

        monkeypatch.setattr(matcore, "_svdvals", fail_on_a_block)
        with pytest.raises(np.linalg.LinAlgError, match="block SVD failed"):
            gsvd.gsvd_decompose(a, b)
        assert not [t for t in threading.enumerate() if t.name.startswith("gsvd-helper")]

    def test_no_thread_to_start_runs_on_the_caller(self, rng, monkeypatch):
        # Thread.start raises RuntimeError past the process's thread limit
        # and, from Python 3.12, in atexit handlers.
        a, b = _above_the_cut(rng, 150, 100, 200)
        want = gsvd.gsvd_decompose(a, b)

        def refuse(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert _same_bits(gsvd.gsvd_decompose(a, b), want)

    def test_decomposes_in_an_atexit_handler(self):
        code = ("import atexit, numpy as np; from gsvdkit import gsvd; "
                "rng = np.random.default_rng(0); "
                "a, b = rng.standard_normal((150, 200)), rng.standard_normal((100, 200)); "
                "atexit.register(lambda: print(gsvd.gsvd_decompose(a, b).r))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "200\n", "")

    def test_concurrent_callers_get_the_serial_factors(self, rng, tmp_path):
        # Four callers on two or fewer cores, each decomposition starting
        # its own helper, with thread switches forced often.
        pairs = [_above_the_cut(rng, 150 + 10 * i, 100, 200) for i in range(4)]
        serial = [gsvd.gsvd_decompose(a, b, compact=i % 2 == 1) for i, (a, b) in enumerate(pairs)]
        paths = [[str(tmp_path / f"{name}{i}.{ext}") for name, ext in
                  (("a", "csv"), ("b", "csv"), ("factors", "json"))] for i in range(4)]
        for (a, b), (pa, pb, _) in zip(pairs, paths):
            cli.write_matrix(pa, a)
            cli.write_matrix(pb, b)
        got = [None] * 4
        start = threading.Barrier(4)

        def caller(i):
            start.wait(timeout=60)
            got[i] = gsvd.gsvd_decompose(*pairs[i], compact=i % 2 == 1)
            cli._write_json(paths[i][2], cli.factors_to_document(got[i], Tolerance(), "bottom"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        for f, g, (pa, pb, out) in zip(serial, got, paths):
            assert _same_bits(f, g)
            assert cli.main(["verify", pa, pb, out]) == 0


class TestHelperRule:
    @pytest.mark.parametrize("threads, started", [(1, True), (2, False), (None, False)])
    @pytest.mark.parametrize("compact", [False, True])
    def test_helper_only_at_one_blas_thread(self, rng, monkeypatch, threads, started, compact):
        # Both routes give the same factors bit for bit; the pivoted QR
        # runs on the helper only when every loaded BLAS reads one thread,
        # and not when a count reads more or cannot be read.
        a, b = _above_the_cut(rng, 150, 100, 200)
        monkeypatch.setattr(gsvd, "_blas_threads", lambda: 1)
        want = gsvd.gsvd_decompose(a, b, compact=compact)
        qr, ran_on = scipy.linalg.qr, []

        def qr_here(*args, **kwargs):
            ran_on.append(threading.current_thread().name)
            return qr(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "qr", qr_here)
        monkeypatch.setattr(gsvd, "_blas_threads", lambda: threads)
        assert _same_bits(gsvd.gsvd_decompose(a, b, compact=compact), want)
        assert len(ran_on) == 1
        assert ran_on[0].startswith("gsvd-helper") == started

    def test_small_pairs_do_not_read_the_blas(self, monkeypatch):
        def unread():
            raise AssertionError("read the BLAS thread count")

        monkeypatch.setattr(gsvd, "_blas_threads", unread)
        with gsvd._helper((250, 80)) as pool:
            assert pool is None

    def test_pinned_blas_reads_one_thread(self):
        if gsvd._blas_threads() is None:
            pytest.skip("no loaded BLAS reports its thread count here")
        code = "from gsvdkit import gsvd; print(gsvd._blas_threads())"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")

    @pytest.mark.parametrize("prefixes", [(), (b"libc.",) + gsvd._BLAS_PREFIXES],
                             ids=["no BLAS", "one unreadable"])
    def test_no_count_when_one_cannot_be_read(self, monkeypatch, prefixes):
        # No BLAS found, or one without OpenBLAS's thread-count function
        # beside those with it (libc stands in for MKL or BLIS): None.
        monkeypatch.setattr(gsvd, "_BLAS_PREFIXES", prefixes)
        assert gsvd._blas_threads() is None

    def test_no_count_without_dl_iterate_phdr(self, monkeypatch):
        # a C library with no dl_iterate_phdr lists no shared objects
        monkeypatch.setattr(gsvd.ctypes, "CDLL", lambda *args, **kwargs: object())
        assert gsvd._blas_threads() is None

    def test_no_count_when_a_listed_blas_cannot_be_reopened(self, monkeypatch):
        # a BLAS unloaded between the listing and the RTLD_NOLOAD open
        if gsvd._blas_threads() is None:
            pytest.skip("no loaded BLAS reports its thread count here")
        cdll = gsvd.ctypes.CDLL

        def reopen(name, *args, **kwargs):
            if name is not None:
                raise OSError(f"{name!r}: cannot open shared object file")
            return cdll(name, *args, **kwargs)

        monkeypatch.setattr(gsvd.ctypes, "CDLL", reopen)
        assert gsvd._blas_threads() is None


TALL_A_CASES = {
    "gaussian": lambda rng: (rng.standard_normal((40, 10)), rng.standard_normal((5, 10))),
    "rank_deficient": lambda rng: random_pair(rng, 40, 6, 12, rank_a=5, rank_b=4,
                                              common_null=3),
    "a_zero": lambda rng: (np.zeros((20, 3)), rng.standard_normal((4, 3))),
    "b_zero": lambda rng: (rng.standard_normal((20, 3)), np.zeros((4, 3))),
    "r_zero": lambda rng: (np.zeros((20, 3)), np.zeros((4, 3))),
    "one_column": lambda rng: (rng.standard_normal((5, 1)), rng.standard_normal((2, 1))),
    "at_the_crossover": lambda rng: (rng.standard_normal((22, 12)), rng.standard_normal((3, 12))),
    "below_the_crossover": lambda rng: (rng.standard_normal((21, 12)),
                                        rng.standard_normal((3, 12))),
}


# (m1, m2, n, A tall, B tall); each id names m1, m2, n and A's flag
ROUTE_CASES = [
    (22, 3, 12, True, False), (21, 3, 12, False, False), (3, 22, 12, False, True),
    (3, 21, 12, False, False), (5, 2, 3, True, False), (4, 2, 3, False, False),
    (2, 2, 1, True, True), (1, 2, 1, False, True), (40, 50, 10, True, True),
    (3, 40, 4, False, True)]


class TestTallA:
    # A with m1 >= floor(11 n / 6) rows is triangularized, A = Q_A [R_A; 0],
    # before the rank and QR stages, which then take R_A in its place.
    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("case", list(TALL_A_CASES))
    def test_invariants_and_ranks(self, rng, case, compact):
        a, b = TALL_A_CASES[case](rng)
        f = gsvd.gsvd_decompose(a, b, compact=compact)
        check_factor_invariants(f, a, b)
        want = (matcore.numerical_rank(np.vstack([a, b])), matcore.numerical_rank(a),
                matcore.numerical_rank(b))
        assert (f.r, f.r_a, f.r_b) == want
        assert gsvd._ranks(a, b, Tolerance()) == want
        # U is oriented by its own leading entries, whichever rows it came from
        assert np.all(matcore._leading_signs(f.u) == 1.0)
        if not compact:
            assert f.u.shape == (a.shape[0], a.shape[0])
            assert np.linalg.norm(f.u[:, f.r_a:].T @ a) <= 1e-13 * max(np.linalg.norm(a), 1.0)

    @pytest.mark.parametrize("m1, m2, n, tall_a, tall_b", ROUTE_CASES,
                             ids=["{}-{}-{}-{}".format(*case[:4]) for case in ROUTE_CASES])
    def test_route_follows_the_crossover(self, rng, monkeypatch, m1, m2, n, tall_a, tall_b):
        # The singular values are taken of the stacked matrix and of its A
        # and B rows, each block past the crossover standing as its n x n R
        # factor and each below it as given, by `_ranks` as by the
        # decomposition.
        calls = []
        svdvals = matcore._svdvals
        monkeypatch.setattr(matcore, "_svdvals", lambda x: calls.append(x.shape) or svdvals(x))
        a, b = rng.standard_normal((m1, n)), rng.standard_normal((m2, n))
        gsvd.gsvd_decompose(a, b)
        gsvd._ranks(a, b, Tolerance())
        rows_a, rows_b = n if tall_a else m1, n if tall_b else m2
        assert calls == [(rows_a + rows_b, n), (rows_a, n), (rows_b, n)] * 2

    @pytest.mark.parametrize("m1, m2, n", [(1800, 2, 3), (2000, 199, 200), (40, 5, 10)]
                             + [case[:3] for case in ROUTE_CASES])
    def test_compact_route_matches_compacted_full_factors(self, rng, m1, m2, n):
        a, b = rng.standard_normal((m1, n)), rng.standard_normal((m2, n))
        ref = gsvd.compact(gsvd.gsvd_decompose(a, b))
        fc = gsvd.gsvd_decompose(a, b, compact=True)
        for name in ("u", "v", "c", "s", "h", "v_col_of"):
            np.testing.assert_array_equal(getattr(fc, name), getattr(ref, name), err_msg=name)

    @pytest.mark.parametrize("rel", [None, 1e-10, 0.0])
    def test_ranks_judge_the_pair_as_decompose_does(self, rng, rel):
        # near-cutoff values: a rank-5 A and rank-4 B plus noise at 1e-13
        a, b = random_pair(rng, 40, 6, 12, rank_a=5, rank_b=4, common_null=3)
        a = a + 1e-13 * rng.standard_normal(a.shape)
        b = b + 1e-13 * rng.standard_normal(b.shape)
        tol = Tolerance(rel)
        f = gsvd.gsvd_decompose(a, b, tol)
        assert gsvd._ranks(a, b, tol) == (f.r, f.r_a, f.r_b)
