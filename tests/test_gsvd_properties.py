"""Property tests of `gsvd_decompose` over drawn shapes and ranks.

Each block's row count is drawn on either side of the crossover at which
it is triangularized first (m > n and m >= floor(11 n / 6)), so every
combination of a tall or short A with a tall or short B is reached.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gsvdkit import gsvd  # noqa: E402
from gsvdkit.matcore import Tolerance  # noqa: E402

from conftest import check_factor_invariants, random_pair  # noqa: E402

MAX_N, MAX_M = 12, 60


def _rows(draw, n, tall):
    # A row count past the crossover when tall, else one below it.
    crossover = max(n + 1, 11 * n // 6)
    if tall:
        return draw(st.integers(crossover, MAX_M))
    return draw(st.integers(1, crossover - 1))


@st.composite
def pairs(draw):
    n = draw(st.integers(1, MAX_N))
    m1 = _rows(draw, n, draw(st.booleans()))
    m2 = _rows(draw, n, draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gaussian", "ranked", "a_zero", "b_zero"]))
    if kind == "ranked" and n > 1:
        common_null = draw(st.integers(0, n - 1))
        inner = n - common_null
        rank_a = draw(st.integers(1, min(m1, inner)))
        rank_b = draw(st.integers(1, min(m2, inner)))
        return random_pair(rng, m1, m2, n, rank_a, rank_b, common_null)
    a, b = rng.standard_normal((m1, n)), rng.standard_normal((m2, n))
    if kind == "a_zero":
        a[:] = 0.0
    if kind == "b_zero":
        b[:] = 0.0
    return a, b


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(pair=pairs(), compact=st.booleans())
def test_invariants_and_ranks(pair, compact):
    a, b = pair
    f = gsvd.gsvd_decompose(a, b, compact=compact)
    check_factor_invariants(f, a, b, recon_tol=1e-11)
    assert gsvd._ranks(a, b, Tolerance()) == (f.r, f.r_a, f.r_b)
