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

from .nil import Status
from .ringcore import Ring


class FMapDomainError(KeyError):
    """A pairwise rule was queried at a pair it does not cover."""


CONSTANT = "constant"
SCALAR_RULE = "scalar-rule"


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


def check_f_commutative(r: Ring, f: FMap, pair_cap=10**6, samples=10**4) -> PairVerdict:
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


def scalar_f_search(r: Ring, pair_cap=10**6, samples=2000):
    """Scalars l with a*b = l*(b*a), one for all pairs or one per pair.

    Returns (FMap, None) on success, (None, witness_pair) when some pair
    admits no scalar, or (None, None) when no factor is derived otherwise:
    over a finite domain when enumeration exceeds the pair cap, over the
    rationals when no constant holds.

    The scalars are 1 and -1, then over a finite domain 0 and the other
    elements.  Each is put to the basis-pair certificate in turn, and the
    first that passes is returned.  Over the rationals no other constant
    can hold: if b_i*b_j = l*(b_j*b_i) and b_j*b_i = l*(b_i*b_j) for a
    nonzero product then l^2 = 1, and if every product is zero 1 holds.
    Over a finite domain with no constant factor, every pair takes the
    first scalar that fits it.  ``samples`` is unused; it stays because
    ``perfbench/layers.py`` binds it by name.
    """
    dom = r.coeff
    if dom.finite and r.element_count() ** 2 > pair_cap:
        return None, None
    rest = itertools.chain([dom.zero()], dom.elements()) if dom.finite else ()
    scalars = {}  # an ordered set: the scalars tried so far
    for c in itertools.chain([dom.one(), dom.normalize(-1)], rest):
        if c in scalars:
            continue
        scalars[c] = None
        f = FMap.constant(c)
        if _basis_certificate(r, f).proved:
            return f, None
    if not dom.finite:
        return None, None
    coords_list = _element_coords(r)
    rule = {}
    for ca in coords_list:
        for cb in coords_list:
            ab = r.mul_coords(ca, cb)
            ba = r.mul_coords(cb, ca)
            lam = next((c for c in scalars if ab == _scaled(dom, c, ba)), None)
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
