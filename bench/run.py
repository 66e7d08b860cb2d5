"""Benchmark entry point.

    python3 bench/run.py --workload {factor,analyses} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its `src/`
directory.  The BLAS/OpenMP thread count is pinned here, before anything
imports NumPy, so the library's timings do not depend on how many cores
OpenBLAS happens to find.
"""

import os
import sys

BLAS_THREADS = "1"


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
