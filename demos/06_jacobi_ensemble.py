"""The MANOVA matrix and the Jacobi ensemble.

For Gaussian A and B the eigenvalues of (A'A + B'B)^{-1} A'A are the
squared cosines of the pair, with the beta-Jacobi joint density.  The
sampler reads them from the CS step of [A; B], batched; it is seeded and
counter-based, so every run reproduces.
"""

import numpy as np

import gsvdkit as gk
from gsvdkit import jacobi

np.set_printoptions(precision=6, suppress=True)

print("=" * 64)
print("1. MANOVA eigenvalues are squared cosines")
print("=" * 64)
rng = jacobi.SeededRng(seed=2024)
gen = rng.generator()
a = gen.standard_normal((6, 3))
b = gen.standard_normal((5, 3))
lam = np.sort(np.linalg.eigvalsh(jacobi.manova_matrix(a, b)))
f = gk.gsvd_decompose(a, b)
print(f"eigenvalues:      {lam}")
print(f"squared cosines:  {np.sort(f.c**2)}")
print(f"max gap: {np.max(np.abs(lam - np.sort(f.c**2))):.2e}")

print()
print("=" * 64)
print("2. The scalar case is a Beta distribution")
print("=" * 64)
params = jacobi.JacobiParams(m1=3, m2=5, n=1, beta=1)
report = jacobi.empirical_check(params, 50_000, jacobi.SeededRng(seed=7))
print(f"m1 = 3, m2 = 5, n = 1: eigenvalue ~ Beta(3/2, 5/2)")
print(f"KS distance over {report.n_samples} draws: {report.ks_distance:.5f}")
print(f"mean = {report.mean_sum:.5f} (theory 3/8 = 0.375, "
      f"se {report.se_sum:.5f})")

print()
print("=" * 64)
print("3. The joint density, evaluated exactly")
print("=" * 64)
arc = jacobi.JacobiParams(m1=1, m2=1, n=1, beta=1)
print(f"arcsine law at 1/2: {np.exp(jacobi.jacobi_log_density(arc, [0.5])):.10f}"
      f" = 2/pi = {2 / np.pi:.10f}")
big = jacobi.JacobiParams(m1=8, m2=9, n=4, beta=2)
lam4 = [0.15, 0.35, 0.6, 0.85]
print(f"log density at {lam4} for beta = 2, (8, 9, 4): "
      f"{jacobi.jacobi_log_density(big, lam4):.6f}")
print("(any beta > 0 evaluates; only beta in {1, 2} samples)")

print()
print("=" * 64)
print("4. Repulsion in action: a histogram of the n = 2 spectrum")
print("=" * 64)
params2 = jacobi.JacobiParams(m1=5, m2=6, n=2, beta=1)
draws = jacobi.empirical_check(params2, 20_000, jacobi.SeededRng(seed=99)).draws
gaps = draws[:, 1] - draws[:, 0]
hist, edges = np.histogram(gaps, bins=10, range=(0.0, 1.0))
peak = hist.max()
for count, lo in zip(hist, edges[:-1]):
    bar = "#" * int(40 * count / peak)
    print(f"  gap {lo:.1f}-{lo + 0.1:.1f} | {bar}")
print("tiny gaps are rare: the |l_i - l_j|^beta factor pushes the two")
print("squared cosines apart.")
