"""Structure-constant rings over exact coefficient domains.

A ring of rank R is stored as sparse structure constants c[i][j][k] with
b_i * b_j = sum_k c[i][j][k] b_k.  Coefficients live in Z/mZ, a prime field,
or the rationals; all arithmetic is exact.  Rings carry no implicit unit.

The product and the associativity check walk only the nonzero constants,
grouped once by left index (the row-wise sparse product of Gustavson, ACM
TOMS 4(3), 1978), and reduce each output coordinate mod m once.  Sums are
Python integers or Fractions, so they are exact at every modulus.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

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

    def inv(self, a):
        if not self.is_field:
            raise ValueError("inverse needs a field domain")
        if self.kind == FP:
            return pow(a, -1, self.modulus)
        return Fraction(1) / a

    def is_zero(self, a):
        return a == 0

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

    def __init__(self, coeff: CoeffDomain, names, sc, check=True, note=None):
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
                c = coeff.normalize(c)
                if not coeff.is_zero(c):
                    clean[k] = c
            if clean:
                table[(i, j)] = clean
        self.sc = table
        # _left[i] = [(j, ((k, c), ...)), ...]: the nonzero constants of b_i b_j.
        self._left = {}
        for (i, j), terms in table.items():
            self._left.setdefault(i, []).append((j, tuple(terms.items())))
        self.note = note
        # the power chain computed so far; see power_chain
        self._chain = []
        # the REFUTED nilpotency verdict once its witness is expanded; see
        # nil.nilpotency_index
        self._not_nilpotent = None
        # the bounded nil index verdict; see nil.bounded_nil_index_auto
        self._nil_index = None
        if check:
            self._check_associativity()

    def _check_associativity(self):
        """Check (b_i b_j) b_k = b_i (b_j b_k) on every basis triple.

        Both sides are expanded from the nonzero constants, one left index i
        at a time: (b_i b_j) b_k through ``_left``, b_i (b_j b_k) through the
        pairs (j, k) whose product reaches each target t.  A triple that no
        constant reaches is zero on both sides.  Raises on the first failing
        triple in lexicographic order.
        """
        into = {}
        for (j, k), terms in self.sc.items():
            for t, c in terms.items():
                into.setdefault(t, []).append((j, k, c))
        for i in range(self.rank):
            row = self._left.get(i, ())
            left = {}
            for j, terms in row:
                for t, c in terms:
                    for k, terms_tk in self._left.get(t, ()):
                        acc = left.setdefault((j, k), {})
                        for v, c2 in terms_tk:
                            acc[v] = acc.get(v, 0) + c * c2
            right = {}
            for t, terms_it in row:
                for j, k, c in into.get(t, ()):
                    acc = right.setdefault((j, k), {})
                    for v, c2 in terms_it:
                        acc[v] = acc.get(v, 0) + c * c2
            for j, k in sorted(left.keys() | right.keys()):
                lhs = self._reduced(left.get((j, k), {}))
                rhs = self._reduced(right.get((j, k), {}))
                if lhs != rhs:
                    raise AssociativityError(i, j, k, lhs, rhs)

    def _reduced(self, acc):
        """A raw sum {k: coeff} normalized, with zero coordinates dropped."""
        norm = self.coeff.normalize
        return {k: y for k, x in acc.items() if (y := norm(x))}

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

    def scale(self, c):
        dom = self.ring.coeff
        c = dom.normalize(c)
        return Element(self.ring, tuple(dom.mul(c, a) for a in self.coords))

    def is_zero(self):
        dom = self.ring.coeff
        return all(dom.is_zero(a) for a in self.coords)

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
            if not dom.is_zero(c)
        ]
        return " + ".join(parts) if parts else "0"


def mul(a: Element, b: Element) -> Element:
    return a * b


class Submodule:
    """An additive subgroup of the coordinate module in canonical form.

    Over fields the canonical form is the reduced row echelon basis; over
    Z/mZ it is the Howell normal form, so equality of forms decides equality
    of submodules and membership is a greedy reduction.
    """

    def __init__(self, ring: Ring, generators):
        self.ring = ring
        rows = [list(g.coords if isinstance(g, Element) else g) for g in generators]
        dom = ring.coeff
        if dom.kind == ZMOD:
            self.rows = linalg.howell(rows, ring.rank, dom.modulus)
        else:
            self.rows = linalg.rref(rows, ring.rank, dom)

    def contains(self, x) -> bool:
        coords = x.coords if isinstance(x, Element) else tuple(x)
        dom = self.ring.coeff
        if dom.kind == ZMOD:
            return linalg.howell_contains(self.rows, coords, dom.modulus)
        return linalg.rref_contains(self.rows, coords, dom)

    def is_zero(self) -> bool:
        return not self.rows

    def generators(self):
        return [self.ring.element(row) for row in self.rows]

    def __len__(self):
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Submodule)
            and self.ring == other.ring
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Submodule(ngens={len(self.rows)})"


def _word_spans(r: Ring, gens):
    """Spans of the words in ``gens``, by length, up to closure.

    W_1 = span(gens) and W_(k+1) = span(W_k * gens), so only the generators
    multiply.  Returns ``(words, tail)``: ``words`` is W_1 ... W_k, each
    outside the sum of the ones before it, and ``tail`` is W_(k+1), the
    first that is zero or lies in that sum.  Every later W lies in
    V = W_2 + ... + W_(k+1): W_(k+2) = W_(k+1) * gens lies in it since
    W_(k+1) lies in W_1 + ... + W_k, and if W_j lies in V, then so does
    W_(j+1) = W_j * gens, in W_3 + ... + W_(k+2).  So the words sum to the
    subring the generators span, and those of length 2 or more to V.
    """
    gens = [g.coords if isinstance(g, Element) else tuple(g) for g in gens]
    words, closure = [], None
    w = Submodule(r, gens)
    while not w.is_zero():
        if words:
            # the sum of the words so far, formed only once a nonzero W needs it
            closure = words[0] if closure is None else Submodule(r, closure.rows + words[-1].rows)
            if all(closure.contains(row) for row in w.rows):
                break
        words.append(w)
        w = Submodule(r, [r.mul_coords(row, g) for row in w.rows for g in gens])
    return words, w


def _chain_start(r: Ring):
    """The start of the power chain of a ring of nonzero rank, from its
    structure table and the words in a generating set.

    R^2 is the span of the structure-constant vectors b_i b_j, each distinct
    one reduced once.  The basis vectors S that are not unit pivots of R^2's
    canonical form give R = span(S) + R^2, since a unit pivot row is b_t
    plus a combination of columns in S.  So S generates R exactly when its
    words of length 2 or more span R^2, and then R^k = W_k + W_(k+1) + ...
    for the word spans W of S.  When S is smaller than the basis, its words
    vanish and they span R^2, the whole chain is their suffix sums.
    Otherwise the chain is returned up to R^2 for ``power_chain`` to grow by
    the basis: S is the whole basis, or S does not generate R (an
    idempotent lies in R^2, so no word in S reaches it), or its words close
    before they vanish (over Z/mZ a word span can fall back into W_1, as
    for a^2 = b, ab = ba = 2c over Z/4, nilpotent all the same).
    """
    basis = [b.coords for b in r.basis()]
    full = Submodule(r, basis)
    distinct = {tuple(sorted(v.items())): v for v in r.sc.values()}.values()
    square = Submodule(r, [tuple(v.get(t, 0) for t in range(r.rank)) for v in distinct])
    units = set()
    for row in square.rows:
        lead = next(t for t, v in enumerate(row) if v)
        if row[lead] == 1:
            units.add(lead)
    gens = [b for t, b in enumerate(basis) if t not in units]
    if len(gens) < r.rank:
        words, tail = _word_spans(r, gens)
        if tail.is_zero():
            suffix = [tail]
            for w in reversed(words[1:]):
                suffix.append(w if suffix[-1].is_zero() else Submodule(r, w.rows + suffix[-1].rows))
            if suffix[-1] == square:
                return [full] + suffix[::-1]
    return [full, square]


def power_chain(r: Ring):
    """Descending chain of product spans, one entry per product length.

    Entry t (0-based) is R^(t+1), the span of all products of t+1 elements;
    the chain stops at the zero module or at the first repeat (a nonzero
    stable span certifies the ring is not nilpotent).  Every entry before
    the end is a proper submodule of the one before it, and a strict chain
    of nonzero submodules of (Z/m)^rank has at most rank * Omega(m) members
    (rank over F_p or Q), so the chain has at most rank * Omega(m) + 1
    entries, within ``nil._index_bound``.  The entries are computed once per
    ring and kept on it.

    R^2 is read off the structure constants, and when the words in the
    basis vectors that generate R modulo R^2 vanish, the whole chain off
    their spans (see ``_chain_start``).  Any other chain grows one entry at
    a time as R^(k+1) = span(R^k * basis).
    """
    chain = r._chain
    if not chain:
        chain += _chain_start(r) if r.rank else [Submodule(r, [])]
    while not (chain[-1].is_zero() or (len(chain) > 1 and chain[-1] == chain[-2])):
        basis = [b.coords for b in r.basis()]
        products = [r.mul_coords(row, b) for row in chain[-1].rows for b in basis]
        chain.append(Submodule(r, products))
    return list(chain)


def generated_subalgebra(r: Ring, elements) -> Submodule:
    """Smallest coefficient-span closed under multiplication containing the
    set: the sum of its word spans, which multiply by the set alone."""
    words, _ = _word_spans(r, elements)
    return Submodule(r, [row for w in words for row in w.rows])


@dataclass
class MinGenerators:
    """Minimal generator count of a nilpotent ring and a generating set of that size."""

    count: int
    witness: tuple


def min_generators(r: Ring) -> MinGenerators:
    """Smallest size of a set generating the nilpotent ring r.

    A set S generates a nilpotent R exactly when S spans R modulo R^2:
    products land in R^2, and R = A + R^2 gives R = A + R^k for every k.
    So the count is rank - dim R^2 over a field and the largest
    dim_{F_p} R/(R^2 + pR) over the primes p | m over Z/mZ; no set can do
    with fewer, since it must span each of these quotients.  The witness is
    the basis vectors outside the pivot columns of R^2 (mod p; Nakayama's
    lemma covers Z/p^k).  When the primes of m disagree on those columns,
    the per-prime lists, padded with 0, are glued with CRT idempotents:
    basis vectors alone may need more generators.  R^2 is entry 1 of the
    power chain, read off the structure constants; the chain also proves
    nilpotency, and raises ValueError otherwise.
    """
    chain = power_chain(r)
    if not chain[-1].is_zero():
        raise ValueError("the generator count needs a nilpotent ring")
    square = chain[1].rows if len(chain) > 1 else ()
    if r.coeff.kind == ZMOD:
        parts = linalg.residue_pivots(square, r.rank, r.coeff.modulus)
    else:
        # the field rows are in rref: each pivot is its row's first nonzero
        parts = [(1, [next(j for j, v in enumerate(row) if v) for row in square])]
    lists = [(e, [t for t in range(r.rank) if t not in pivots]) for e, pivots in parts]
    gens = [[0] * r.rank for _ in range(max(len(cols) for _, cols in lists))]
    for e, cols in lists:
        for gen, t in zip(gens, cols):
            gen[t] += e
    return MinGenerators(len(gens), tuple(r.element(g) for g in gens))


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
