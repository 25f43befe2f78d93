"""The reference batched product ``mul_rows``, which the enumeration
references of ``test_nil`` multiply with, against ``Ring.mul_coords``."""

import numpy as np
from hypothesis import given, settings, strategies as st
from test_nil import mul_rows

from gradednil.ringcore import Ring, zmod

# 3^15 runs in int64, 2^31 - 1 too while at most two constants land on one
# target; 2^61 - 1 and 2^64 + 13 need Python integers.
MODULI = (3**15, 2**31 - 1, 2**61 - 1, 2**64 + 13)


@st.composite
def rings_and_rows(draw):
    m = draw(st.sampled_from(MODULI))
    rank = draw(st.integers(1, 4))
    # The extremes 0, 1, m-1 make the largest products and sums likely.
    coeff = st.one_of(st.sampled_from((0, 1, m - 1)), st.integers(0, m - 1))
    basis = st.integers(0, rank - 1)
    sc = draw(st.dictionaries(st.tuples(basis, basis),
                              st.dictionaries(basis, coeff, max_size=rank),
                              max_size=rank * rank))
    # mul_rows and mul_coords are both bilinear in the rows, so the check
    # holds for any constants, associative or not.
    ring = Ring(zmod(m), [f"b{t}" for t in range(rank)], sc, check=False)
    n = draw(st.integers(1, 5))
    rows = st.lists(st.lists(coeff, min_size=rank, max_size=rank),
                    min_size=n, max_size=n)
    return ring, draw(rows), draw(rows)


@given(rings_and_rows())
@settings(max_examples=300, deadline=None)
def test_mul_rows_matches_mul_coords(case):
    ring, A, B = case
    dtype = np.int64 if ring.coeff.size < 2**63 else object
    out = mul_rows(ring, np.array(A, dtype=dtype), np.array(B, dtype=dtype))
    assert out.shape == (len(A), ring.rank)
    for a, b, row in zip(A, B, out):
        assert tuple(int(v) for v in row) == ring.mul_coords(tuple(a), tuple(b))


def test_mul_rows_spans_chunks():
    # More rows than one chunk: every row must be multiplied exactly once.
    r = Ring(zmod(7), ["b"], {(0, 0): {0: 3}})
    A = (np.arange(40_000, dtype=np.int64) % 7).reshape(-1, 1)
    out = mul_rows(r, A, A)
    assert (out[:, 0] == A[:, 0] * A[:, 0] * 3 % 7).all()
