"""Small rings the test modules share."""

from gradednil.grading import GradedRing
from gradednil.monoid import Monoid
from gradednil.ringcore import Ring


def zero_product_ring(dom, rank):
    """Basis b0..b_(rank-1), every product zero."""
    return Ring(dom, [f"b{t}" for t in range(rank)], {})


def idempotent_ring(dom):
    """One basis vector b with b^2 = b: not nilpotent."""
    return Ring(dom, ["b"], {(0, 0): {0: 1}})


def cyclic_group_ring(dom, n):
    """Basis t_0..t_{n-1} with t_i t_j = t_{(i+j) mod n}, graded over Z_n."""
    sc = {(i, j): {(i + j) % n: 1} for i in range(n) for j in range(n)}
    ring = Ring(dom, [f"t{i}" for i in range(n)], sc)
    return GradedRing(ring, Monoid.cyclic(n), list(range(n)))
