"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s` to see
the lines as they go by.
"""

import time

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.stats

from gsvdkit import gsvd, jacobi, matcore, quotient, stats, subgeom, tikhonov

from conftest import random_orthonormal, random_pair

DIAG34 = np.diag([3.0, 4.0])
ROW11 = np.array([[1.0, 1.0]])


def report(number, ok, detail):
    print(f"criterion {number:>2}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def best_of(fn, repeats=20):
    fn()  # warmup
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_worked_example():
    f = gsvd.gsvd_decompose(DIAG34, ROW11)
    cots = f.cotangents()
    n_inf = int(np.sum(np.isinf(cots)))
    finite = cots[np.isfinite(cots)]
    gsv, sv_pab, sv_ab = quotient.quotient_check(DIAG34, ROW11)
    dev_finite = abs(finite[0] - 2.4)
    dev_svd = abs(sv_ab[0] - 2.5)
    dev_pab = abs(sv_pab[0] - 2.4)
    runtime = best_of(lambda: quotient.quotient_check(DIAG34, ROW11))
    ok = (
        n_inf == 1 and finite.size == 1
        and dev_finite <= 1e-12 and dev_svd <= 1e-12 and dev_pab <= 1e-10
        and runtime < 1e-3
    )
    report(1, ok, f"|gsv-2.4|={dev_finite:.1e}, |svd-2.5|={dev_svd:.1e}, "
                  f"|P svd-2.4|={dev_pab:.1e}, {runtime*1e3:.2f} ms")


def test_criterion_2_anova_regression():
    v = np.array([6, 8, 4, 5, 3, 4, 8, 12, 9, 11, 6, 8, 13, 9, 11, 8, 7, 12],
                 dtype=float)
    design = stats.cluster_design([6, 6, 6])
    f_value = stats.anova_f(design, v).f_value
    dev = abs(f_value - 9.264705882352956)
    runtime = best_of(lambda: stats.anova_f(design, v))
    ok = dev <= 1e-9 and runtime < 1e-3
    report(2, ok, f"F={f_value!r}, |dF|={dev:.1e}, {runtime*1e6:.0f} us")


def test_criterion_3_perturbation_scaling():
    eps_grid = np.array([1e-2, 1e-3, 1e-4])
    finite_dev = []
    rel_large_at_1e3 = None
    for eps in eps_grid:
        f = gsvd.gsvd_decompose(DIAG34, np.array([[1.0, 1.0], [0.0, eps]]))
        values = np.sort(f.cotangents())
        finite_dev.append(abs(values[0] - 2.4))
        if eps == 1e-3:
            rel_large_at_1e3 = abs(values[1] - 5 / eps) / (5 / eps)
    slope = np.polyfit(np.log(eps_grid), np.log(finite_dev), 1)[0]
    ok = abs(slope - 2.0) <= 0.2 and rel_large_at_1e3 <= 1e-3
    report(3, ok, f"slope={slope:.3f}, large-value rel err={rel_large_at_1e3:.2e}")


def test_criterion_4_projector_theorem_suite():
    rng = np.random.default_rng(40400)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        m1 = int(rng.integers(2, 13))
        m2 = int(rng.integers(2, 13))
        n = int(rng.integers(2, 13))
        a = rng.standard_normal((m1, n))
        b = rng.standard_normal((m2, n))
        kill = rng.choice(m2, size=int(rng.integers(1, m2)), replace=False)
        b[kill] = 0.0
        gsv, sv_pab, _ = quotient.quotient_check(a, b)
        assert gsv.size == sv_pab.size
        if gsv.size:
            worst = max(worst, float(np.max(np.abs(sv_pab - gsv) / gsv)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10
    report(4, ok, f"200 pairs, worst rel dev={worst:.2e}, {elapsed:.1f} s")


def test_criterion_5_core_invariants():
    rng = np.random.default_rng(50500)
    t0 = time.perf_counter()
    worst_recon = 0.0
    worst_cs = 0.0
    for trial in range(500):
        m1 = int(rng.integers(1, 16))
        m2 = int(rng.integers(1, 16))
        n = int(rng.integers(1, 15))
        family = trial % 3
        if family == 0:
            a = rng.standard_normal((m1, n))
            b = rng.standard_normal((m2, n))
        elif family == 1:
            cn = int(rng.integers(0, n)) if n > 1 else 0
            inner = n - cn
            a, b = random_pair(
                rng, m1, m2, n,
                rank_a=int(rng.integers(1, min(m1, inner) + 1)),
                rank_b=int(rng.integers(1, min(m2, inner) + 1)),
                common_null=cn,
            )
        else:
            a = rng.standard_normal((m1, n))
            b = rng.standard_normal((m2, n))
            if m1 > 1:
                a[rng.choice(m1, size=int(rng.integers(1, m1)), replace=False)] = 0.0
            if m2 > 1:
                b[rng.choice(m2, size=int(rng.integers(1, m2)), replace=False)] = 0.0
        stacked = np.vstack([a, b])
        f = gsvd.gsvd_decompose(a, b)
        scale = np.linalg.norm(stacked)
        if scale > 0:
            worst_recon = max(worst_recon,
                              np.linalg.norm(f.reconstruct() - stacked) / scale)
        if f.r:
            worst_cs = max(worst_cs, float(np.max(np.abs(f.c**2 + f.s**2 - 1))))
        # Table 1 counts against independently computed ranks
        assert f.r == matcore.numerical_rank(stacked)
        assert f.r_a == matcore.numerical_rank(a)
        assert f.r_b == matcore.numerical_rank(b)
        assert int(np.sum(f.s == 0)) == f.r - f.r_b
        assert int(np.sum(f.c == 0)) == f.r - f.r_a
        assert int(np.sum((f.c > 0) & (f.s > 0))) == f.r_a + f.r_b - f.r
    elapsed = time.perf_counter() - t0
    ok = worst_recon <= 1e-11 and worst_cs <= 1e-13 and elapsed < 30
    report(5, ok, f"500 pairs, recon={worst_recon:.2e}, cs={worst_cs:.2e}, "
                  f"{elapsed:.1f} s")


def test_criterion_6_tikhonov_equivalence():
    rng = np.random.default_rng(60600)
    grid = [0.0, 0.1, 1.0, 10.0, 100.0]
    worst_solve = 0.0
    worst_damp = 0.0
    for _ in range(100):
        m1 = int(rng.integers(4, 12))
        n = int(rng.integers(2, min(m1, 6) + 1))
        m2 = int(rng.integers(2, 8))
        p = tikhonov.TikhonovProblem(rng.standard_normal((m1, n)),
                                     rng.standard_normal((m2, n)),
                                     rng.standard_normal(m1))
        base = tikhonov.base_factors(p)
        tan1 = base.s / base.c
        path = tikhonov.solve_path(p, grid)
        for lam, x, damp in path:
            xd = tikhonov.direct_solve(p, lam)
            scale = max(1.0, np.linalg.norm(xd))
            worst_solve = max(worst_solve, np.linalg.norm(x - xd) / scale)
            expected = 1.0 / (1.0 + lam**2 * tan1**2)
            worst_damp = max(worst_damp, float(np.max(np.abs(damp - expected))))
    ok = worst_solve <= 1e-9 and worst_damp <= 1e-12
    report(6, ok, f"100 problems x 5 lambdas, solve dev={worst_solve:.2e}, "
                  f"damping dev={worst_damp:.2e}")


def test_criterion_7_principal_angle_agreement():
    rng = np.random.default_rng(70700)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(3, 41))
        d1 = int(rng.integers(1, min(m, 10) + 1))
        d2 = int(rng.integers(1, min(m, 10) + 1))
        a1 = rng.standard_normal((m, d1))
        a2 = rng.standard_normal((m, d2))
        result = subgeom.principal_angles(a1, a2)
        q1 = scipy.linalg.orth(a1)
        q2 = scipy.linalg.orth(a2)
        reference = np.clip(scipy.linalg.svdvals(q1.T @ q2), 0.0, 1.0)
        k = result.cosines.size
        worst = max(worst, float(np.max(np.abs(np.sort(result.cosines)
                                               - np.sort(reference[:k])))))
    same = subgeom.principal_angles(np.eye(5)[:, :3], np.eye(5)[:, :3] * 2.0)
    orth = subgeom.principal_angles(np.eye(6)[:, :2], np.eye(6)[:, 2:5])
    exact = bool(np.all(same.cosines == 1.0) and np.all(orth.cosines == 0.0))
    ok = worst <= 1e-9 and exact
    report(7, ok, f"200 pairs, worst route gap={worst:.2e}, exact ends={exact}")


def test_criterion_8_lemniscate_identity():
    rng = np.random.default_rng(80800)
    worst_single = 0.0
    worst_pair = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((int(rng.integers(2, 7)), n))
        e = rng.standard_normal(n)
        e /= np.linalg.norm(e)
        point = subgeom.energy_point(a, e)
        _, _, v = matcore.full_svd(a)
        x = v.T @ point
        scale = max(1.0, np.linalg.norm(x))
        worst_single = max(worst_single,
                           abs(subgeom.lemniscate_residual(a, x)) / scale**6)

        b = rng.standard_normal((int(rng.integers(n, 8)), n))
        x2 = subgeom.energy_point2(a, b, e)
        f = gsvd.gsvd_decompose(a, b)
        scale2 = max(1.0, np.linalg.norm(x2))
        worst_pair = max(worst_pair,
                         abs(subgeom.lemniscate_residual2(f, x2)) / scale2**6)
    ok = worst_single <= 1e-9 and worst_pair <= 1e-9
    report(8, ok, f"100 points/form, single={worst_single:.2e}, "
                  f"pair={worst_pair:.2e}")


def test_criterion_9_jacobi_ensemble():
    t0 = time.perf_counter()
    params = jacobi.JacobiParams(m1=3, m2=5, n=1, beta=1)
    rep = jacobi.empirical_check(params, 100_000, jacobi.SeededRng(seed=90900))
    ks = rep.ks_distance

    rng = np.random.default_rng(90901)
    worst_match = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        a = rng.standard_normal((n + int(rng.integers(0, 4)), n))
        b = rng.standard_normal((n + int(rng.integers(0, 4)), n))
        lam = np.sort(np.linalg.eigvalsh(jacobi.manova_matrix(a, b)))
        f = gsvd.gsvd_decompose(a, b)
        worst_match = max(worst_match,
                          float(np.max(np.abs(lam - np.sort(f.c**2)))))

    # substitute property checks for the density beyond desk-scale n
    perm_params = jacobi.JacobiParams(m1=5, m2=6, n=3, beta=1.7)
    lam3 = np.array([0.2, 0.5, 0.8])
    sym = (jacobi.jacobi_log_density(perm_params, lam3)
           == jacobi.jacobi_log_density(perm_params, lam3[::-1]))
    total, _ = scipy.integrate.quad(
        lambda x: np.exp(jacobi.jacobi_log_density(params, [x])), 0.0, 1.0)
    norm_ok = abs(total - 1.0) <= 1e-6
    elapsed = time.perf_counter() - t0
    ok = ks < 0.01 and worst_match <= 1e-9 and sym and norm_ok and elapsed < 60
    report(9, ok, f"KS={ks:.4f}, cos^2 match={worst_match:.2e}, "
                  f"perm symmetric={sym}, n=1 mass={total:.8f}, {elapsed:.1f} s")


def test_criterion_10_cs_link_orthogonal_h():
    rng = np.random.default_rng(101000)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(3, 16))
        n = int(rng.integers(1, m + 1))
        q = random_orthonormal(rng, m, n)
        split = int(rng.integers(1, m))
        f = gsvd.gsvd_decompose(q[:split], q[split:])
        worst = max(worst, float(np.linalg.norm(f.h.T @ f.h - np.eye(f.r))))
    ok = worst <= 1e-10
    report(10, ok, f"100 orthonormal stacks, worst ||H'H - I||={worst:.2e}")


def test_criterion_11_discriminant_reduction():
    # nonzero values compared as angles atan2(s, c): an exactly-infinite
    # value and its huge finite round-trip image are 1e-15 apart there;
    # pairs finite on both sides are additionally held to 1e-8 relative
    rng = np.random.default_rng(111100)
    worst_angle = 0.0
    worst_rel = 0.0
    count_ok = True
    for _ in range(50):
        k = int(rng.integers(2, 5))
        parts = [int(rng.integers(2, 6)) for _ in range(k)]
        design = stats.cluster_design(parts)
        m = rng.standard_normal((design.p, int(rng.integers(2, 7))))
        f_full = gsvd.gsvd_decompose(design.u2.T @ m, design.u3.T @ m)
        count_ok = count_ok and int(np.sum(f_full.c > 0)) <= k - 1
        _, mg = stats.discriminant_reduce(m, design)
        f_red = gsvd.gsvd_decompose(design.u2.T @ mg, design.u3.T @ mg)
        before = np.sort(f_full.theta()[f_full.c > 0])
        after = np.sort(f_red.theta()[f_red.c > 0])
        assert before.size == after.size
        if before.size:
            worst_angle = max(worst_angle, float(np.max(np.abs(after - before))))
            finite = (before > 1e-6) & (after > 1e-6)
            if np.any(finite):
                cot_b = 1.0 / np.tan(before[finite])
                cot_a = 1.0 / np.tan(after[finite])
                worst_rel = max(worst_rel,
                                float(np.max(np.abs(cot_a - cot_b) / cot_b)))
    ok = worst_angle <= 1e-8 and worst_rel <= 1e-8 and count_ok
    report(11, ok, f"50 datasets, angle drift={worst_angle:.2e}, "
                   f"finite rel drift={worst_rel:.2e}, count<=k-1: {count_ok}")
