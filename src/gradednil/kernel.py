"""The batched ring product over Z/mZ.

``mul_rows`` multiplies coordinate rows pairwise straight from a ring's
sparse structure constants, with no dense rank^3 tensor.  Each term is
reduced as ((a_i * b_j) mod m) * c, so it is at most (m-1)^2, and a target
coordinate receiving t terms sums to at most t * (m-1)^2.  While that stays
below 2^63 the product runs exactly in int64 with a single reduction per
output; otherwise it runs in Python integers (numpy object dtype).  This is
the delayed-reduction bound of FFLAS-FFPACK (Dumas, Giorgi & Pernet, ACM
TOMS 34(3), 2008).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .ringcore import Ring

_CHUNK = 1 << 14
_INT64_LIMIT = 2**63


def kernel_dtype(ring: Ring):
    """int64 when every target's sum of reduced terms fits, else object."""
    m = ring.coeff.size
    per_target = Counter(k for terms in ring.sc.values() for k in terms)
    worst = max(per_target.values(), default=1)
    return np.int64 if worst * (m - 1) ** 2 < _INT64_LIMIT else object


def mul_rows(ring: Ring, A, B):
    """Row-wise ring product over Z/mZ: out[n] = A[n] * B[n], exact.

    ``A`` and ``B`` hold coordinate rows reduced mod m (entries in [0, m)),
    one row per element.  The result has ``kernel_dtype(ring)``.  Rows are
    taken ``_CHUNK`` at a time and transposed per chunk, so columns are
    contiguous and the working set beyond the output stays chunk-sized.
    """
    m = ring.coeff.size
    dtype = kernel_dtype(ring)
    A = np.asarray(A).astype(dtype, copy=False)
    B = np.asarray(B).astype(dtype, copy=False)
    out = np.empty(A.shape, dtype=dtype)
    for lo in range(0, A.shape[0], _CHUNK):
        a = A[lo:lo + _CHUNK].T.copy()
        b = a if B is A else B[lo:lo + _CHUNK].T.copy()
        acc = np.zeros_like(a)
        for (i, j), terms in ring.sc.items():
            prod = a[i] * b[j] % m
            for k, c in terms.items():
                acc[k] += prod if c == 1 else prod * c
        acc %= m
        out[lo:lo + _CHUNK] = acc.T
    return out
