"""Pairwise commutation factors and their checks.

The commutation factor of a pair (a, b) is an element f(a, b) of the
coefficient domain, acting on the ring by scalar multiplication; the pair
commutes up to f when a*b equals f(a, b) times b*a.  Scalar multiplication
obeys both action laws in every algebra over a commutative ring, so a factor
needs no check of its own.  A constant factor is decided on the structure
constants alone (see ``_basis_certificate``).
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


class FMapDomainError(KeyError):
    """A pairwise rule was queried at a pair it does not cover."""


CONSTANT = "constant"
SCALAR_RULE = "scalar-rule"

# The work limit recorded in every report: it bounds the pointwise factor
# search over a finite domain (``scalar_f_search``).
PAIR_CAP = 10**6


class FMap:
    """A pairwise commutation-factor map: one scalar for every pair, or one per pair."""

    def __init__(self, kind, value=None, rule=None, label=""):
        self.kind = kind
        self.value = value
        self.rule = rule
        self.label = label
        if kind == CONSTANT and value is None:
            raise ValueError("constant map needs a value")
        if kind == SCALAR_RULE and rule is None:
            raise ValueError("rule map needs a pair table")

    @classmethod
    def constant(cls, value):
        return cls(CONSTANT, value=value, label=f"constant {value}")

    @classmethod
    def from_rule(cls, rule, label="pointwise scalar rule"):
        return cls(SCALAR_RULE, rule=dict(rule), label=label)

    def at_coords(self, ca, cb):
        if self.kind == CONSTANT:
            return self.value
        try:
            return self.rule[(ca, cb)]
        except KeyError:
            raise FMapDomainError(f"commutation factor undefined at ({ca}, {cb})")

    def is_constant(self):
        return self.kind == CONSTANT

    def __eq__(self, other):
        return (
            isinstance(other, FMap)
            and self.kind == other.kind
            and self.value == other.value
            and self.rule == other.rule
        )

    def __hash__(self):
        # every rule hashes alike, and __eq__ tells rules apart
        return hash((self.kind, self.value))

    def __repr__(self):
        return f"FMap({self.label or self.kind})"


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
    domain (see ``_basis_certificate``).  A pointwise rule lists a factor for
    every pair, which only a finite domain allows, so it is checked on all
    pairs in product order; a pair it leaves out raises ``FMapDomainError``.
    ``pair_cap`` and ``samples`` are unused; they stay because
    ``perfbench/layers.py`` binds them by name.
    """
    if f.is_constant():
        return _basis_certificate(r, f)
    count = r.element_count()
    if count is None:
        raise FMapDomainError(
            f"a pointwise rule cannot list every pair over {r.coeff.label()}")
    coords_list = _element_coords(r)
    for ca in coords_list:
        for cb in coords_list:
            if not _pair_commutes(r, f.at_coords(ca, cb), ca, cb):
                return PairVerdict(Status.REFUTED, witness=(r.element(ca), r.element(cb)))
    return PairVerdict(Status.PROVED, note=f"exhaustive over {count}^2 pairs")


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

    Returns (FMap, None) on success, (None, witness_pair) when some pair
    admits no scalar, or (None, None) when no factor is derived otherwise:
    over a finite domain when enumeration exceeds the pair cap, checked
    first, over the rationals when no constant holds.

    A constant l holds exactly when c(i, j) = l.c(j, i) for every basis
    pair (see ``_basis_certificate``), so it is solved from those rank^2
    pairs of entries at any modulus, preferring 1, then -1, then the least
    solution.  With none, over a finite domain each pair takes the scalar
    solved from its two products.  ``samples`` is unused; it stays because
    ``perfbench/layers.py`` binds it by name.
    """
    dom = r.coeff
    if dom.finite and r.element_count() ** 2 > pair_cap:
        return None, None
    pairs = ((r.mul_basis(i, j), r.mul_basis(j, i))
             for i, j in itertools.product(range(r.rank), repeat=2))
    lam = _least_factor(dom, [(ab.get(k, 0), ba.get(k, 0))
                              for ab, ba in pairs for k in ab.keys() | ba.keys()])
    if lam is not None:
        return FMap.constant(lam), None
    if not dom.finite:
        return None, None
    coords_list = _element_coords(r)
    rule = {}
    for ca in coords_list:
        for cb in coords_list:
            lam = _least_factor(dom, list(zip(r.mul_coords(ca, cb), r.mul_coords(cb, ca))))
            if lam is None:
                return None, (r.element(ca), r.element(cb))
            rule[(ca, cb)] = lam
    return FMap.from_rule(rule), None


def lift_f_to_diagonal(base: PairVerdict) -> PairVerdict:
    """The lift of f to the diagonal of the 2x2 matrices over R, given the
    verdict ``base`` that R commutes up to f.

    The diagonal is R x R as a ring and the lifted factor (f(a, c), f(b, d))
    acts componentwise, so ((a, b), (c, d)) commutes up to the lift exactly
    when (a, c) and (b, d) commute up to f: the lift has the base status.
    """
    return base
