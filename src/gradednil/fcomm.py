"""Pairwise commutation factors and their checks.

The commutation factor of a pair (a, b) is an element f(a, b) of the
coefficient domain, acting on the ring by scalar multiplication; the pair
commutes up to f when a*b equals f(a, b) times b*a.  Scalar multiplication
obeys both action laws in every algebra over a commutative ring, so a factor
needs no check of its own.  A constant factor is decided on the structure
constants alone (see ``_basis_certificate``).  Every rule about a factor is
kept here: ``FMap.from_rule`` checks that a pair table covers every pair, and
``scalar_f_search`` says why it found no factor.
The diagonal lift onto the neutral component of a 2x2 matrix grading needs no
machinery of its own: that component is R x R, so the lift holds exactly when
the check on R does (see ``lift_f_to_diagonal``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .nil import Status
from .ringcore import Ring


# The work limit recorded in every report: it bounds the pointwise factor
# search over a finite domain (``scalar_f_search``).
PAIR_CAP = 10**6


class FMap:
    """A commutation factor: one scalar ``value`` for every pair, or a pair
    table ``rule`` with one scalar per pair of coordinate tuples."""

    def __init__(self, value=None, rule=None, label=""):
        self.value = value
        self.rule = rule
        self.label = label

    @classmethod
    def constant(cls, value):
        return cls(value=value, label=f"constant {value}")

    @classmethod
    def from_rule(cls, rule, ring, label="pointwise scalar rule"):
        """The pair table ``rule`` on the finite ``ring``.  It must give a
        scalar for every pair of elements: a ValueError names the first pair,
        in product order, that it leaves out."""
        rule = dict(rule)
        # lazily, so a short table stops within its first len(rule) + 1 pairs
        for ca in itertools.product(ring.coeff.elements(), repeat=ring.rank):
            for cb in itertools.product(ring.coeff.elements(), repeat=ring.rank):
                if (ca, cb) not in rule:
                    raise ValueError(f"no scalar for the pair ({ca}, {cb}); over "
                                     f"{ring.coeff.label()} every pair of elements needs one")
        return cls(rule=rule, label=label)

    def is_constant(self):
        return self.rule is None

    def __eq__(self, other):
        return isinstance(other, FMap) and (self.value, self.rule) == (other.value, other.rule)

    def __hash__(self):
        # every rule hashes alike, and __eq__ tells rules apart
        return hash(self.value)

    def __repr__(self):
        return f"FMap({self.label})"


@dataclass
class PairVerdict:
    status: Status
    witness: tuple | None = None
    note: str = ""

    @property
    def proved(self):
        return self.status == Status.PROVED


def _element_coords(ring):
    """Every coordinate tuple of a finite ``ring``, in product order."""
    return [
        tuple(coords)
        for coords in itertools.product(ring.coeff.elements(), repeat=ring.rank)
    ]


def check_f_commutative(r: Ring, f: FMap, pair_cap=PAIR_CAP, samples=10**4) -> PairVerdict:
    """Does a*b = f(a,b).(b*a) hold for all pairs?  The verdict is exact.

    A constant factor is decided on the structure constants over every
    domain (see ``_basis_certificate``).  A pair table has a scalar for
    every pair of a finite ring (``FMap.from_rule`` checks a given one, and
    ``scalar_f_search`` fills every pair), so all pairs are checked, in
    product order.  ``pair_cap`` and ``samples`` are unused; they stay
    because ``perfbench/layers.py`` binds them by name.
    """
    if f.is_constant():
        return _basis_certificate(r, f)
    coords_list = _element_coords(r)
    for ca in coords_list:
        for cb in coords_list:
            if not _pair_commutes(r, f.rule[ca, cb], ca, cb):
                return PairVerdict(Status.REFUTED, witness=(r.element(ca), r.element(cb)))
    return PairVerdict(Status.PROVED, note=f"exhaustive over {len(coords_list)}^2 pairs")


def _basis_certificate(r, f) -> PairVerdict:
    """Decide commutation up to a constant factor l on the structure
    constants alone.

    Scalar multiplication is linear, so (a, b) -> a*b - l.(b*a) is bilinear:
    it vanishes on all pairs exactly when it vanishes on the pairs
    (b_i, b_j), where it is c(i, j) - l.c(j, i).  So each basis pair compares
    two entries of the table and makes no product.  The witness of a
    refutation is the first failing basis pair.
    """
    dom = r.coeff
    lam = dom.normalize(f.value)
    for i, j in itertools.product(range(r.rank), repeat=2):
        ba = {k: y for k, c in r.mul_basis(j, i).items() if (y := dom.mul(lam, c))}
        if r.mul_basis(i, j) != ba:
            return PairVerdict(
                Status.REFUTED, witness=(r.basis_element(i), r.basis_element(j)))
    return PairVerdict(Status.PROVED, note=f"bilinear: {r.rank}^2 basis pairs")


def _scaled(dom, s, coords):
    """The scalar product s.x of a coordinate tuple x."""
    s = dom.normalize(s)
    return tuple(dom.mul(s, c) for c in coords)


def _pair_commutes(r, s, ca, cb):
    """Does a*b = s.(b*a) hold at the coordinates ``ca`` and ``cb``?"""
    return r.mul_coords(ca, cb) == _scaled(r.coeff, s, r.mul_coords(cb, ca))


def _least_factor(dom, entries):
    """The scalar l with a = l.b for every (a, b) in the list ``entries``, or
    None; of several, 1, then -1, then the least.  Over Q the first b != 0
    fixes l.  Over Z/m and F_p, a = l.b is solvable exactly when
    g = gcd(b, m) divides a, and then l = (a/g).(b/g)^-1 mod m/g; the
    Chinese remainder theorem joins these into one class c mod step."""
    if not dom.finite:
        lam = next((dom.normalize(a) / b for a, b in entries if b), dom.one())
        return lam if all(a == lam * b for a, b in entries) else None
    m, c, step = dom.modulus, 0, 1
    for a, b in entries:
        g = gcd(b, m)
        if a % g:
            return None
        n = m // g
        d = gcd(step, n)
        x = (a // g) * pow(b // g, -1, n) - c
        if x % d:
            return None
        c += step * (x // d * pow(step // d, -1, n // d) % (n // d))
        step = step // d * n
    return next(s for s in (1, m - 1, c) if (s - c) % step == 0)


def scalar_f_search(r: Ring, pair_cap=PAIR_CAP, samples=2000):
    """Scalars l with a*b = l*(b*a), one for all pairs or one per pair.

    Returns (FMap, None), or (None, why) with the reason no factor was
    found, worded for the neutral component, where ``theorems`` searches:
    over a finite domain, the count^2 element pairs exceed ``pair_cap``
    (checked first) or some pair admits no scalar; over the rationals, no
    constant holds.

    A constant l holds exactly when c(i, j) = l.c(j, i) for every basis
    pair (see ``_basis_certificate``), so it is solved from those rank^2
    pairs of entries at any modulus, preferring 1, then -1, then the least
    solution.  With none, over a finite domain each pair takes the scalar
    solved from its two products.  ``samples`` is unused; it stays because
    ``perfbench/layers.py`` binds it by name.
    """
    dom = r.coeff
    if dom.finite and (count := r.element_count()) ** 2 > pair_cap:
        return None, (f"pair search capped: {count}^2 pairs of the neutral component "
                      f"exceed pair_cap {pair_cap}")
    pairs = ((r.mul_basis(i, j), r.mul_basis(j, i))
             for i, j in itertools.product(range(r.rank), repeat=2))
    lam = _least_factor(dom, [(ab.get(k, 0), ba.get(k, 0))
                              for ab, ba in pairs for k in ab.keys() | ba.keys()])
    if lam is not None:
        return FMap.constant(lam), None
    if not dom.finite:
        return None, ("no constant l has a*b = l*(b*a) for all a, b: 1 and -1 fail on "
                      "the basis pairs, and no other constant can hold")
    coords_list = _element_coords(r)
    rule = {}
    for ca in coords_list:
        for cb in coords_list:
            lam = _least_factor(dom, list(zip(r.mul_coords(ca, cb), r.mul_coords(cb, ca))))
            if lam is None:
                a, b = r.element(ca), r.element(cb)
                return None, f"no scalar l has a*b = l*(b*a) for a = {a!r}, b = {b!r}"
            rule[(ca, cb)] = lam
    return FMap(rule=rule, label="pointwise scalar rule"), None


def lift_f_to_diagonal(base: PairVerdict) -> PairVerdict:
    """The lift of f to the diagonal of the 2x2 matrices over R, given the
    verdict ``base`` that R commutes up to f.

    The diagonal is R x R as a ring and the lifted factor (f(a, c), f(b, d))
    acts componentwise, so ((a, b), (c, d)) commutes up to the lift exactly
    when (a, c) and (b, d) commute up to f: the lift has the base status.
    """
    return base
