"""Structure-constant rings over exact coefficient domains.

A ring of rank R is stored as sparse structure constants c[i][j][k] with
b_i * b_j = sum_k c[i][j][k] b_k.  Coefficients live in Z/mZ, a prime field,
or the rationals; all arithmetic is exact.  Rings carry no implicit unit.

The product walks only the nonzero constants, grouped once by left index
(the row-wise sparse product of Gustavson, ACM TOMS 4(3), 1978), and
reduces each output coordinate mod m once.  Sums are Python integers or
Fractions, so they are exact at every modulus.  The batched kernels (the
associativity check here, the symbolic expansion in ``nil``) read one flat
structure table per ring, built on first use and kept on it.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import linalg

ZMOD = "zmod"
FP = "fp"
RAT = "rat"

DEFAULT_ELEM_CAP = 2**20


class AssociativityError(ValueError):
    """Structure constants violate (b_i b_j) b_k = b_i (b_j b_k)."""

    def __init__(self, i, j, k, left, right):
        super().__init__(
            f"not associative at basis triple ({i}, {j}, {k}): "
            f"(b{i}*b{j})*b{k} = {left} but b{i}*(b{j}*b{k}) = {right}"
        )
        self.triple = (i, j, k)
        self.left = left
        self.right = right


class RingMismatchError(ValueError):
    """Operands belong to different rings."""


def facts(obj):
    """The dict of facts kept on ``obj`` (see ``kept``), made on first use."""
    return vars(obj).setdefault("facts", {})


def kept(fn):
    """``fn(obj, *args)``, computed on first use and kept in ``facts(obj)``
    under ``(fn, *args)``, so every later call with equal arguments returns
    the same value.  A call that raises keeps nothing."""

    @functools.wraps(fn)
    def known(obj, *args):
        found, key = facts(obj), (fn, *args)
        if key not in found:
            found[key] = fn(obj, *args)
        return found[key]

    return known


class StructureTable(NamedTuple):
    """The nonzero constants c b_k of b_i b_j as flat arrays, one entry per
    (i, j, k), sorted by (i, j, k): ``left`` i, ``right`` j, ``target`` k
    and ``const`` c.  ``const`` has the kernel dtype (see ``Ring.table``)."""

    left: np.ndarray
    right: np.ndarray
    target: np.ndarray
    const: np.ndarray


def _ranges(first, per):
    """(src, con): each n repeated per[n] times beside first[n], first[n] + 1,
    ..., first[n] + per[n] - 1, for a join with contiguous runs."""
    src = np.repeat(np.arange(len(per)), per)
    con = np.arange(src.size) + np.repeat(first - np.cumsum(per) + per, per)
    return src, con


# Miller-Rabin with the prime bases up to 41 decides primality exactly below
# this bound, the least strong pseudoprime to all of them (Sorenson &
# Webster, Math. Comp. 86, 2017).  No exact test is made at or above it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n):
    """Exact primality: a small prime factor decides it at any size, else
    deterministic Miller-Rabin below ``_MR_EXACT_BELOW``; past that bound
    ``ValueError``."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"primality is decided only below {_MR_EXACT_BELOW}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class CoeffDomain:
    """Exact coefficient domain: Z/mZ, F_p, or Q."""

    def __init__(self, kind, modulus=None):
        self.kind = kind
        self.modulus = modulus
        if kind == ZMOD:
            if modulus is None or modulus < 2:
                raise ValueError("zmod modulus must be >= 2")
        elif kind == FP:
            if modulus is not None and modulus >= _MR_EXACT_BELOW:
                raise ValueError(
                    f"fp modulus {modulus} is not below {_MR_EXACT_BELOW}, "
                    "the bound below which primality is decided exactly"
                )
            if modulus is None or not _is_prime(modulus):
                raise ValueError(f"fp modulus {modulus!r} is not prime")
        elif kind == RAT:
            if modulus is not None:
                raise ValueError("rat takes no modulus")
        else:
            raise ValueError(f"unknown coefficient domain kind {kind!r}")
        # plain attributes: every coefficient operation reads them
        self.finite = kind != RAT
        self.size = modulus

    def char(self):
        """Additive exponent: m for Z/mZ and F_p, 0 for Q."""
        return self.modulus if self.finite else 0

    @property
    def is_field(self):
        return self.kind in (FP, RAT)

    def normalize(self, x):
        if self.finite:
            return int(x) % self.modulus
        return Fraction(x)

    def add(self, a, b):
        return (a + b) % self.modulus if self.finite else a + b

    def sub(self, a, b):
        return (a - b) % self.modulus if self.finite else a - b

    def mul(self, a, b):
        return (a * b) % self.modulus if self.finite else a * b

    def neg(self, a):
        return (-a) % self.modulus if self.finite else -a

    def zero(self):
        return 0 if self.finite else Fraction(0)

    def one(self):
        return self.normalize(1)

    def elements(self):
        if not self.finite:
            raise ValueError("rationals are not enumerable")
        return range(self.modulus)

    def label(self):
        return self.kind if self.kind == RAT else f"{self.kind} {self.modulus}"

    def __eq__(self, other):
        return (
            isinstance(other, CoeffDomain)
            and self.kind == other.kind
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        return f"CoeffDomain({self.label()})"


def zmod(m):
    return CoeffDomain(ZMOD, m)


def fp(p):
    return CoeffDomain(FP, p)


def rat():
    return CoeffDomain(RAT)


def parse_domain(text):
    """Parse a domain label: 'zmod 8', 'fp 3', 'rat', or compact 'z8'/'f3'/'q'."""
    toks = text.strip().lower().split()
    if len(toks) == 1:
        t = toks[0]
        if t in ("rat", "q"):
            return rat()
        if t.startswith("f") and t[1:].isdigit():
            return fp(int(t[1:]))
        if t.startswith("z") and t[1:].isdigit():
            return zmod(int(t[1:]))
    elif len(toks) == 2 and toks[1].isdigit():
        if toks[0] == "zmod":
            return zmod(int(toks[1]))
        if toks[0] == "fp":
            return fp(int(toks[1]))
    raise ValueError(f"cannot parse coefficient domain {text!r}")


class Ring:
    """Finite-rank associative ring given by structure constants.

    ``sc`` maps (i, j) to {k: coeff}; missing pairs multiply to zero.
    Associativity is checked exhaustively on every basis triple unless
    ``check=False`` (used internally when it holds by construction).
    """

    def __init__(self, coeff: CoeffDomain, names, sc, check=True):
        self.coeff = coeff
        self.names = tuple(names)
        self.rank = len(self.names)
        table = {}
        for (i, j), terms in sc.items():
            if not (0 <= i < self.rank and 0 <= j < self.rank):
                raise ValueError(f"structure constant index ({i}, {j}) out of range")
            clean = {}
            for k, c in terms.items():
                if not 0 <= k < self.rank:
                    raise ValueError(f"structure constant target {k} out of range")
                if c := coeff.normalize(c):
                    clean[k] = c
            if clean:
                table[(i, j)] = clean
        self.sc = table
        # _left[i] = [(j, ((k, c), ...)), ...]: the nonzero constants of b_i b_j.
        self._left = {}
        for (i, j), terms in table.items():
            self._left.setdefault(i, []).append((j, tuple(terms.items())))
        if check:
            self._check_associativity()

    @kept
    def table(self):
        """The ``StructureTable`` of the ring, built on first use and kept.

        Its constants are int64 when every coordinate's sum of reduced terms
        stays below 2^63, else object (Python integers, or Fractions over
        Q): with t constants landing on one coordinate, each term reduced as
        ((a_i b_j) mod m) c is at most (m - 1)^2, so the sum is at most
        t (m - 1)^2 (the delayed-reduction bound of FFLAS-FFPACK, Dumas,
        Giorgi & Pernet, ACM TOMS 34(3), 2008).
        """
        trip = sorted((i, j, k, c) for (i, j), terms in self.sc.items()
                      for k, c in terms.items())
        left, right, target = (np.array([t[n] for t in trip], dtype=np.int32)
                               for n in range(3))
        m = self.coeff.modulus
        worst = int(np.bincount(target).max()) if trip else 1
        wide = not self.coeff.finite or worst * (m - 1) ** 2 >= 2**63
        const = np.array([t[3] for t in trip], dtype=object if wide else np.int64)
        table = StructureTable(left, right, target, const)
        for column in table:
            column.flags.writeable = False
        return table

    def _check_associativity(self):
        """Check (b_i b_j) b_k = b_i (b_j b_k) on every basis triple.

        One join over the structure table: (b_i b_j) b_k pairs each constant
        with those whose left index is its target, b_i (b_j b_k) pairs each
        with those whose right index is its target.  Every product, reduced
        mod m, is keyed by (i, j, k, v) packed into one integer, the right
        side's negated; one stable sort and one ``np.add.reduceat`` sum both
        sides per key.  A triple that no constant reaches is zero on both
        sides.  The kernel dtype keeps every step exact: a product is at
        most (m - 1)^2 before its reduction, and a key takes at most t terms
        below m from each side, t the constants landing on v, where
        2 t (m - 1) <= t (m - 1)^2 once m >= 3, and 2 t is far below 2^63 at
        m = 2.  Raises on the first failing triple in lexicographic order,
        its two sides computed by ``mul_coords``, in basis-index order.
        """
        left, right, target, const = self.table()
        n, m = self.rank, self.coeff.modulus
        wide = np.int64 if n**4 < 2**63 else object
        groups = np.arange(n + 1)

        def join(start, order=None):
            """Each constant (outer) against the run of constants (inner)
            whose index, read in ``order``, is its target."""
            first = start[target]
            outer, inner = _ranges(first, start[target + 1] - first)
            if order is not None:
                inner = order[inner]
            value = const[outer] * const[inner]
            if m is not None:
                value %= m
            return outer, inner, value

        def pack(*cols):
            key = np.zeros(len(cols[0]), dtype=wide)
            for col in cols:
                key = key * n + col.astype(wide)
            return key

        # (b_i b_j) b_k: outer (i, j, t), inner (t, k, v)
        outer, inner, lhs = join(np.searchsorted(left, groups))
        keys = [pack(left[outer], right[outer], right[inner], target[inner])]
        # b_i (b_j b_k): outer (j, k, t), inner (i, t, v)
        by_right = np.argsort(right, kind="stable")
        outer, inner, rhs = join(np.searchsorted(right[by_right], groups), by_right)
        keys.append(pack(left[inner], left[outer], right[outer], target[inner]))
        key = np.concatenate(keys)
        if not len(key):
            return
        order = np.argsort(key, kind="stable")
        key = key[order]
        heads = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        sums = np.add.reduceat(np.concatenate((lhs, -rhs))[order], heads)
        if m is not None:
            sums %= m
        bad = np.flatnonzero(sums != 0)
        if len(bad):
            triple = int(key[heads[bad[0]]]) // n
            i, j, k = triple // (n * n), triple // n % n, triple % n
            bi, bj, bk = (self.basis_element(t).coords for t in (i, j, k))
            sides = (self.mul_coords(self.mul_coords(bi, bj), bk),
                     self.mul_coords(bi, self.mul_coords(bj, bk)))
            raise AssociativityError(
                i, j, k, *({v: c for v, c in enumerate(side) if c} for side in sides))

    def mul_basis(self, i, j):
        return self.sc.get((i, j), {})

    def element(self, coords):
        coords = tuple(self.coeff.normalize(c) for c in coords)
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(coords)}")
        return Element(self, coords)

    def zero(self):
        return Element(self, (self.coeff.zero(),) * self.rank)

    def basis_element(self, t):
        coords = [self.coeff.zero()] * self.rank
        coords[t] = self.coeff.one()
        return Element(self, tuple(coords))

    def basis(self):
        return [self.basis_element(t) for t in range(self.rank)]

    def mul_coords(self, xs, ys):
        """Raw bilinear product of two coordinate tuples.

        Walks only the nonzero structure constants b_i b_j with x_i and y_j
        nonzero.  Over Z/mZ and F_p each output coordinate is reduced mod m
        once, at the end; the result is a normalized tuple.
        """
        out = [self.coeff.zero()] * self.rank
        for i, row in self._left.items():
            xi = xs[i]
            if not xi:
                continue
            for j, terms in row:
                yj = ys[j]
                if not yj:
                    continue
                c = xi * yj
                for k, ck in terms:
                    out[k] += c * ck
        m = self.coeff.modulus
        return tuple(out) if m is None else tuple(v % m for v in out)

    def element_count(self):
        return None if not self.coeff.finite else self.coeff.size**self.rank

    def elements(self, cap=DEFAULT_ELEM_CAP):
        """All elements in lexicographic coordinate order (finite domains)."""
        n = self.element_count()
        if n is None:
            raise ValueError("rationals are not enumerable")
        if n > cap:
            raise ValueError(f"element count {n} exceeds cap {cap}")
        for coords in itertools.product(self.coeff.elements(), repeat=self.rank):
            yield Element(self, coords)

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.coeff == other.coeff
            and self.names == other.names
            and self.sc == other.sc
        )

    def __hash__(self):
        return hash((self.coeff, self.names))

    def __repr__(self):
        return f"Ring({self.coeff.label()}, rank={self.rank})"


class Element:
    """A ring element as an immutable coordinate vector."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring, coords):
        self.ring = ring
        self.coords = coords

    def _check_same(self, other):
        if not isinstance(other, Element) or other.ring is not self.ring:
            if isinstance(other, Element) and other.ring == self.ring:
                return
            raise RingMismatchError("elements belong to different rings")

    def __add__(self, other):
        self._check_same(other)
        dom = self.ring.coeff
        return Element(
            self.ring, tuple(dom.add(a, b) for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        self._check_same(other)
        dom = self.ring.coeff
        return Element(
            self.ring, tuple(dom.sub(a, b) for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        dom = self.ring.coeff
        return Element(self.ring, tuple(dom.neg(a) for a in self.coords))

    def __mul__(self, other):
        self._check_same(other)
        return Element(self.ring, self.ring.mul_coords(self.coords, other.coords))

    def is_zero(self):
        return not any(self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.ring == other.ring
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        dom = self.ring.coeff
        parts = [
            f"{c}*{name}" if c != dom.one() else name
            for c, name in zip(self.coords, self.ring.names)
            if c
        ]
        return " + ".join(parts) if parts else "0"


def span(r: Ring, generators, form=()):
    """The canonical rows of the span of the coordinate rows ``generators``:
    the reduced row echelon form over a field, the Howell form over Z/mZ
    (see ``linalg``).  Equal spans have equal rows, and a row lies in a span
    exactly when extending the span by it leaves its rows unchanged.
    ``form``, the rows of a span already in canonical form, is kept: the
    result is its sum with the span of ``generators``, and only the
    generators are reduced."""
    dom = r.coeff
    if dom.kind == ZMOD:
        return linalg.howell(generators, r.rank, dom.modulus, form)
    return linalg.rref(generators, dom, form)


def _index_bound(r: Ring):
    """N with x^N = 0 for every nilpotent x of ``r``, and R^N = 0 when ``r``
    is nilpotent.

    For a nilpotent x the spans S_k of {x^j : j >= k} fall strictly until
    they reach 0: S_k = S_(k+1) puts x^k = x^k z with z a combination of
    powers of x, so z is nilpotent and x^k = x^k z^n = 0.  A strict chain of
    submodules of (Z/m)^rank has at most rank * Omega(m) <=
    rank * bit_length(m) steps, and one of subspaces over F_p or Q at most
    rank, so N is one more than that.  The power chain of a nilpotent ring
    is such a strict chain too (see ``power_chain``).
    """
    dom = r.coeff
    return r.rank * (1 if dom.is_field else dom.modulus.bit_length()) + 1


def _word_spans(r: Ring, gens):
    """The spans W_1, ..., W_k of the words in the coordinate rows ``gens``,
    by length, up to the first zero span W_(k+1).

    W_1 = span(gens) and W_(j+1) = span(W_j * gens), so only the generators
    multiply.  None when a span repeats an earlier one, or when W_(N+1) is
    nonzero for N = ``_index_bound``.  A repeat W_j = W_i with i < j makes
    the words periodic, so they never vanish; W_(N+1) != 0 puts a nonzero
    product of N + 1 elements in the ring.  Either way the ring is not
    nilpotent.
    """
    words, w, n = [], span(r, gens), _index_bound(r)
    while w and w not in words and len(words) < n:
        words.append(w)
        w = span(r, [r.mul_coords(row, g) for row in w for g in gens])
    return None if w else words


@kept
def power_chain(r: Ring):
    """Descending chain of product spans, one entry per product length.

    Entry t (0-based) is R^(t+1), the canonical rows (see ``span``) of the
    span of all products of t+1 elements; the chain stops at the zero span
    or at the first repeat (a nonzero stable span certifies the ring is not
    nilpotent).  Every entry before the end is a proper submodule of the
    one before it, and a strict chain of nonzero submodules of (Z/m)^rank
    has at most rank * Omega(m) members (rank over F_p or Q), so the chain
    has at most rank * Omega(m) + 1 entries, within ``_index_bound``.  The
    chain is a tuple, computed once per ring and kept on it.

    R is the identity rows, already in canonical form.  R^2 is the span of
    the structure-constant vectors b_i b_j, each distinct one reduced once.
    S is the basis vectors outside the pivot columns of R^2's canonical
    form.  If S is smaller than the basis, its word spans W_j vanish
    (``_word_spans``) and W_2 + W_3 + ... equals R^2, then R^k = W_k +
    W_(k+1) + ... for every k >= 2, whether or not S generates R: by
    induction, R^(k+1) = R * R^k is spanned by the a * s_1 s_2 ... s_j with
    j >= k, and a * s_1 lies in R^2 = W_2 + W_3 + ..., so each is a sum of
    words of length at least j + 1.  The chain is then these suffix sums,
    each the one after it extended by a word span.  Any other chain grows
    from R^2 one entry at a time as R^(k+1) = span(R^k * basis).
    """
    full = tuple(b.coords for b in r.basis())
    if not full:
        return (full,)
    distinct = {tuple(sorted(v.items())): v for v in r.sc.values()}.values()
    square = span(r, [tuple(v.get(t, 0) for t in range(r.rank)) for v in distinct])
    pivots = {linalg.lead(row) for row in square}
    gens = [b for t, b in enumerate(full) if t not in pivots]
    if len(gens) < r.rank and (words := _word_spans(r, gens)):
        suffix = [()]
        for w in reversed(words[1:]):
            suffix.append(span(r, w, suffix[-1]) if suffix[-1] else w)
        if suffix[-1] == square:
            return (full, *reversed(suffix))
    chain = [full, square]
    while chain[-1] and chain[-1] != chain[-2]:
        chain.append(span(r, [r.mul_coords(row, b) for row in chain[-1] for b in full]))
    return tuple(chain)


def generated_subalgebra(r: Ring, elements):
    """The canonical rows of the subring the elements generate: their span,
    grown by its products with the elements until they add nothing.  That
    span holds every word in the elements and is closed under products with
    them, so it is the sum of the words, which is closed under every
    product."""
    gens = [a.coords for a in elements]
    rows = span(r, gens)
    while (grown := span(r, [r.mul_coords(row, g) for row in rows for g in gens], rows)) != rows:
        rows = grown
    return rows


@kept
def min_generators(r: Ring):
    """A smallest set generating the nilpotent ring r, as a tuple of elements.

    A set S generates a nilpotent R exactly when S spans R modulo R^2:
    products land in R^2, and R = A + R^2 gives R = A + R^k for every k.
    So the count is rank - dim R^2 over a field and the largest
    dim_{F_p} R/(R^2 + pR) over the primes p | m over Z/mZ; no set can do
    with fewer, since it must span each of these quotients.  The set is
    the basis vectors outside the pivot columns of R^2 (mod p; Nakayama's
    lemma covers Z/p^k).  When the primes of m disagree on those columns,
    the per-prime lists, padded with 0, are glued with CRT idempotents:
    basis vectors alone may need more generators.  R^2 is entry 1 of the
    power chain, read off the structure constants; the chain also proves
    nilpotency, and raises ValueError otherwise.  The result is computed
    once per ring and kept on it.
    """
    chain = power_chain(r)
    if chain[-1]:
        raise ValueError("the generator count needs a nilpotent ring")
    square = chain[1] if len(chain) > 1 else ()
    if r.coeff.kind == ZMOD:
        parts = linalg.residue_pivots(square, r.rank, r.coeff.modulus)
    else:
        # the field rows are in rref: each pivot is its row's first nonzero
        parts = [(1, [linalg.lead(row) for row in square])]
    lists = [(e, [t for t in range(r.rank) if t not in pivots]) for e, pivots in parts]
    gens = [[0] * r.rank for _ in range(max(len(cols) for _, cols in lists))]
    for e, cols in lists:
        for gen, t in zip(gens, cols):
            gen[t] += e
    return tuple(r.element(g) for g in gens)


def matrix_ring(r: Ring, n: int) -> Ring:
    """The ring of n x n matrices over r, with basis E_ij(b_t).

    E_ij(a) E_kl(b) = 0 unless j = k, in which case it is E_il(ab).
    It is associative since r is, so it is built unchecked.
    """
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    rank = r.rank

    def idx(i, j, t):
        return (i * n + j) * rank + t

    names = [
        f"E{i + 1}{j + 1}({r.names[t]})"
        for i in range(n)
        for j in range(n)
        for t in range(rank)
    ]
    sc = {}
    for i in range(n):
        for j in range(n):
            for l in range(n):
                for (t, u), terms in r.sc.items():
                    entry = {idx(i, l, v): c for v, c in terms.items()}
                    if entry:
                        sc[(idx(i, j, t), idx(j, l, u))] = entry
    return Ring(r.coeff, names, sc, check=False)
