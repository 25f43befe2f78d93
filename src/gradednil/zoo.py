"""Constructors for the example rings used throughout the test suite.

Each constructor returns a validated ring or graded ring at desk scale with
known support, nil index, and nilpotency index.  Some of them are finite
truncations of infinite objects that cannot be modelled with structure
constants; the ``note`` field on the result and the NON_CONSTRUCTIBLE table
record what the truncation leaves out.
"""

from __future__ import annotations

import itertools

from .grading import GradedRing
from .monoid import Monoid
from .ringcore import CoeffDomain, Ring, fp, zmod

NON_CONSTRUCTIBLE = {
    "nagata-union": (
        "the union of the truncated commutative nil algebras over all "
        "generator counts is nil of bounded index but not nilpotent; it has "
        "no finite-rank structure-constant model"
    ),
    "positive-polynomials": (
        "polynomials with zero constant term over a field form an integer-"
        "graded ring with zero neutral component, infinite support, and no "
        "vanishing power; only the truncation modulo x^N is constructible"
    ),
    "full-grassmann": (
        "the exterior algebra on infinitely many generators without unit is "
        "nil of bounded index p in characteristic p but not nilpotent; the "
        "finite-generator truncation is nilpotent"
    ),
    "golod": (
        "a finitely generated nil ring that is not nilpotent exists but is "
        "infinite dimensional; it admits no commutation factor for any "
        "semigroup, and no finite model is constructible here"
    ),
}


def sut(n: int, domain: CoeffDomain) -> GradedRing:
    """Strictly upper triangular n x n matrices, graded by j - i over Z.

    Rank n(n-1)/2 with basis E_ij (i < j); the neutral component is zero and
    the nilpotency index is exactly n.
    """
    if n < 2:
        raise ValueError("strictly upper triangular ring needs n >= 2")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    index = {p: t for t, p in enumerate(pairs)}
    names = [f"E{i}{j}" for i, j in pairs]
    sc = {}
    for (i, j), (k, l) in itertools.product(pairs, repeat=2):
        if j == k:
            sc[(index[(i, j)], index[(k, l)])] = {index[(i, l)]: 1}
    ring = Ring(domain, names, sc)
    degrees = [j - i for i, j in pairs]
    return GradedRing(ring, Monoid.int_add(), degrees)


# The largest rank ``truncated_nagata`` and ``grassmann_star`` build.
RANK_CAP = 4096


def _check_rank(p, k):
    """Refuse the rank p^k - 1 past ``RANK_CAP`` before anything is listed.
    Every k with 2^k > RANK_CAP is past it, so p^k is formed only for a
    small k."""
    if k >= RANK_CAP.bit_length() or p**k - 1 > RANK_CAP:
        raise ValueError(f"rank {p}^{k} - 1 exceeds cap {RANK_CAP}")


def truncated_nagata(k: int, p: int) -> Ring:
    """Commutative ring on k generators with x_i^p = 0, over F_p.

    Basis: monomials with exponents below p and positive total degree, so
    the rank is p^k - 1.  Nil of bounded index; nilpotent at any finite k.
    """
    if k < 1:
        raise ValueError("need at least one generator")
    dom = fp(p)
    _check_rank(p, k)
    monos = [e for e in itertools.product(range(p), repeat=k) if any(e)]
    monos.sort(key=lambda e: (sum(e), e))
    index = {e: t for t, e in enumerate(monos)}

    def name(e):
        parts = []
        for i, a in enumerate(e):
            if a == 1:
                parts.append(f"x{i + 1}")
            elif a > 1:
                parts.append(f"x{i + 1}^{a}")
        return "*".join(parts)

    sc = {}
    for ea, eb in itertools.product(monos, repeat=2):
        es = tuple(a + b for a, b in zip(ea, eb))
        if all(a < p for a in es):
            sc[(index[ea], index[eb])] = {index[es]: 1}
    return Ring(
        dom,
        [name(e) for e in monos],
        sc,
        note=NON_CONSTRUCTIBLE["nagata-union"],
    )


def grassmann_star(k: int, domain: CoeffDomain) -> GradedRing:
    """Exterior algebra on k generators without unit, graded by parity.

    Basis: wedge products over nonempty generator subsets, with the sign of
    the shuffle; the even part is commutative and nil.  The rank is
    2^k - 1.
    """
    if k < 1:
        raise ValueError("need at least one generator")
    _check_rank(2, k)
    subsets = []
    for size in range(1, k + 1):
        subsets.extend(itertools.combinations(range(1, k + 1), size))
    subsets.sort(key=lambda s: (len(s), s))
    index = {s: t for t, s in enumerate(subsets)}
    names = ["e" + "".join(str(i) for i in s) for s in subsets]
    sc = {}
    for sa, sb in itertools.product(subsets, repeat=2):
        if set(sa) & set(sb):
            continue
        merged = tuple(sorted(sa + sb))
        inversions = sum(1 for a in sa for b in sb if a > b)
        sign = -1 if inversions % 2 else 1
        sc[(index[sa], index[sb])] = {index[merged]: sign}
    ring = Ring(domain, names, sc, note=NON_CONSTRUCTIBLE["full-grassmann"])
    degrees = [len(s) % 2 for s in subsets]
    return GradedRing(ring, Monoid.cyclic(2), degrees)


def two_z_2k(k: int) -> Ring:
    """The even residues modulo 2^k as a rank-1 ring: b*b = 2b over Z_{2^(k-1)}.

    Models the non-unital ideal of even elements; b stands for the residue 2,
    and c*b corresponds to the residue 2c.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    dom = zmod(2 ** (k - 1))
    return Ring(dom, ["b"], {(0, 0): {0: 2}})


def truncated_poly_positive(N: int, domain: CoeffDomain) -> GradedRing:
    """Polynomials with zero constant term, truncated above degree N - 1.

    Basis x, x^2, ..., x^{N-1} with x^i x^j = x^{i+j} when i + j < N, graded
    by degree over the integers; the neutral component is zero and the
    nilpotency index is exactly N.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    names = ["x" if i == 1 else f"x^{i}" for i in range(1, N)]
    sc = {}
    for i in range(1, N):
        for j in range(1, N):
            if i + j < N:
                sc[(i - 1, j - 1)] = {i + j - 1: 1}
    ring = Ring(domain, names, sc, note=NON_CONSTRUCTIBLE["positive-polynomials"])
    return GradedRing(ring, Monoid.int_add(), list(range(1, N)))
