"""Semigroup actions, pairwise commutation factors, and their checks.

The commutation factor of a pair (a, b) is a semigroup element f(a, b) acting
on the ring from the left; the pair commutes up to f when a*b equals f(a, b)
acting on b*a.  Scalar actions (the multiplicative semigroup of the
coefficient domain) cover every construction in this package.  Explicit
table semigroups with a per-basis action map are supported for small cases.
The diagonal lift onto the neutral component of a 2x2 matrix grading needs no
machinery of its own: that component is R x R, so the lift holds exactly when
the check on R does (see ``lift_f_to_diagonal``).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .nil import Status
from .ringcore import Element, Ring


class ActionLawError(ValueError):
    """An action violates compatibility with the semigroup or the product."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class FMapDomainError(KeyError):
    """A pairwise rule was queried at a pair it does not cover."""


class SemigroupTable:
    """A finite semigroup on ids 0..size-1; associativity checked, no identity."""

    def __init__(self, table):
        size = len(table)
        for row in table:
            if len(row) != size or any(not 0 <= v < size for v in row):
                raise ActionLawError("semigroup table is not square over its ids")
        self.table = tuple(tuple(row) for row in table)
        self.size = size
        for a in range(size):
            for b in range(size):
                for c in range(size):
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        raise ActionLawError(
                            f"semigroup not associative at ({a}, {b}, {c})"
                        )

    def op(self, a, b):
        return self.table[a][b]


# Seeded pairs or tuples a pointwise check tries past its cap.
DEFAULT_SAMPLES = 10**4

SCALAR = "scalar"
TABLE = "table"


class Action:
    """A left semigroup action on a ring.

    * ``scalar``: the coefficient domain acts by scalar multiplication.
    * ``table``: an explicit SemigroupTable with ``act_map[(s, t)]`` giving
      the coordinates of s acting on basis vector t; extended linearly.

    A table action is validated on construction: both action laws (with the
    semigroup operation and with the ring product) on every basis vector.
    A scalar action needs no check: scalar multiplication obeys both laws in
    every algebra over a commutative ring.
    """

    def __init__(self, kind, ring: Ring, semigroup=None, act_map=None, check=True):
        self.kind = kind
        self.ring = ring
        self.semigroup = semigroup
        self.act_map = act_map
        if kind == TABLE:
            if semigroup is None or act_map is None:
                raise ActionLawError("table action needs a semigroup and an act map")
        elif kind != SCALAR:
            raise ActionLawError(f"unknown action kind {kind!r}")
        if check and kind == TABLE:
            self._validate()

    def act_coords(self, s, coords):
        dom = self.ring.coeff
        if self.kind == SCALAR:
            s = dom.normalize(s)
            return tuple(dom.mul(s, c) for c in coords)
        out = [dom.zero()] * self.ring.rank
        for t, c in enumerate(coords):
            if dom.is_zero(c):
                continue
            img = self.act_map.get((s, t))
            if img is None:
                raise FMapDomainError(f"action undefined at ({s}, basis {t})")
            for k, v in enumerate(img):
                out[k] = dom.add(out[k], dom.mul(c, v))
        return tuple(out)

    def act(self, s, x: Element) -> Element:
        return self.ring.element(self.act_coords(s, x.coords))

    def _validate(self):
        ring = self.ring
        sample = range(self.semigroup.size)
        for lam, gam in itertools.product(sample, repeat=2):
            lg = self.semigroup.op(lam, gam)
            for t in range(ring.rank):
                x = ring.basis_element(t)
                left = self.act_coords(lg, x.coords)
                right = self.act_coords(lam, self.act_coords(gam, x.coords))
                if left != right:
                    raise ActionLawError(
                        "action incompatible with semigroup product",
                        witness=(lam, gam, t),
                    )
        for lam in sample:
            for i in range(ring.rank):
                for j in range(ring.rank):
                    x = ring.basis_element(i)
                    y = ring.basis_element(j)
                    xy = ring.mul_coords(x.coords, y.coords)
                    left = self.act_coords(lam, xy)
                    right = ring.mul_coords(self.act_coords(lam, x.coords), y.coords)
                    if left != right:
                        raise ActionLawError(
                            "action incompatible with the ring product",
                            witness=(lam, i, j),
                        )


def scalar_action(ring: Ring) -> Action:
    return Action(SCALAR, ring)


CONSTANT = "constant"
SCALAR_RULE = "scalar-rule"


class FMap:
    """A pairwise commutation-factor map into an action's semigroup."""

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

    def at(self, a: Element, b: Element):
        return self.at_coords(a.coords, b.coords)

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


STANDARD = "standard"
WEAKENED = "weakened"


def f_commutator(a: Element, b: Element, f: FMap, act: Action,
                 variant=STANDARD) -> Element:
    """a*b - f(a,b).(b*a); the weakened variant uses (f(a,b).b)*a instead."""
    ab = a * b
    s = f.at(a, b)
    if variant == STANDARD:
        return ab - act.act(s, b * a)
    if variant == WEAKENED:
        return ab - act.act(s, b) * a
    raise ValueError(f"unknown commutator variant {variant!r}")


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


def check_f_commutative(
    r: Ring, f: FMap, act: Action, pair_cap=10**6, samples=DEFAULT_SAMPLES, seed=0,
    variant=STANDARD,
) -> PairVerdict:
    """Does a*b = f(a,b).(b*a) hold for all pairs?

    A constant factor is decided on the rank^2 basis pairs over every domain
    and at every ``pair_cap`` (see ``_basis_certificate``).  Other maps are
    checked exhaustively when the square of the element count fits
    ``pair_cap``, otherwise on a seeded sample of pairs (SAMPLED_OK over the
    rationals, CAPPED over finite domains).
    """
    if f.is_constant():
        return _basis_certificate(r, f, act, variant)
    dom = r.coeff
    count = r.element_count()
    if count is not None and count * count <= pair_cap:
        coords_list = _element_coords(r)
        for ca in coords_list:
            for cb in coords_list:
                if not _pair_commutes(r, act, f, ca, cb, variant):
                    return PairVerdict(
                        Status.REFUTED, witness=(r.element(ca), r.element(cb))
                    )
        return PairVerdict(Status.PROVED, note=f"exhaustive over {count}^2 pairs")
    rng = random.Random(seed)
    if dom.finite:
        sampler = lambda: tuple(rng.randrange(dom.size) for _ in range(r.rank))
    else:
        sampler = lambda: tuple(
            dom.normalize(rng.randint(-3, 3)) for _ in range(r.rank)
        )
    for _ in range(samples):
        ca, cb = sampler(), sampler()
        if not _pair_commutes(r, act, f, ca, cb, variant):
            return PairVerdict(Status.REFUTED, witness=(r.element(ca), r.element(cb)))
    return PairVerdict(
        Status.SAMPLED_OK if not dom.finite else Status.CAPPED,
        note=f"{samples} seeded pairs (seed={seed})",
    )


def _basis_certificate(r, f, act, variant=STANDARD) -> PairVerdict:
    """Decide commutation up to a constant factor on basis pairs alone.

    Every action here is linear (scalars, and table images extended
    linearly), so for a constant f both a*b - f.(b*a) and
    a*b - (f.b)*a are bilinear in (a, b): they vanish on all pairs exactly
    when they vanish on the pairs (b_i, b_j).  The witness of a refutation is
    the first failing basis pair.
    """
    basis = [r.basis_element(t).coords for t in range(r.rank)]
    for ca, cb in itertools.product(basis, repeat=2):
        if not _pair_commutes(r, act, f, ca, cb, variant):
            return PairVerdict(Status.REFUTED, witness=(r.element(ca), r.element(cb)))
    return PairVerdict(Status.PROVED, note=f"bilinear: {r.rank}^2 basis pairs")


def _pair_commutes(r, act, f, ca, cb, variant=STANDARD):
    ab = r.mul_coords(ca, cb)
    s = f.at_coords(ca, cb)
    if variant == STANDARD:
        rhs = act.act_coords(s, r.mul_coords(cb, ca))
    else:
        rhs = r.mul_coords(act.act_coords(s, cb), ca)
    return ab == rhs


def scalar_f_search(r: Ring, pair_cap=10**6, rat_bound=3, samples=2000, seed=0):
    """Pointwise search for scalars l with a*b = l*(b*a).

    Returns (FMap, None) on success, compressed to a constant map when one
    scalar works everywhere, (None, witness_pair) when some pair admits no
    scalar, or (None, None) when enumeration exceeds the pair cap.
    Candidates are tried as 1, -1, 0, then the remaining domain elements, so
    commutative rings report the constant 1.  Within the pair cap, a ring
    on which constant 1 passes the basis-pair certificate returns it without
    enumerating: the pointwise loop would pick 1 at every pair.  Over the
    rationals only a seeded sample of pairs is examined with candidates
    bounded by ``rat_bound``; a constant found that way is marked as sampled.
    """
    dom = r.coeff
    if dom.finite:
        ordered = [dom.normalize(1), dom.normalize(-1), dom.zero()]
        candidates = []
        for c in ordered + [dom.normalize(v) for v in dom.elements()]:
            if c not in candidates:
                candidates.append(c)
        count = r.element_count()
        if count * count > pair_cap:
            return None, None
        one = FMap.constant(dom.one())
        if _basis_certificate(r, one, scalar_action(r)).proved:
            return one, None
        coords_list = _element_coords(r)
        rule = {}
        for ca in coords_list:
            for cb in coords_list:
                ab = r.mul_coords(ca, cb)
                ba = r.mul_coords(cb, ca)
                lam = next(
                    (
                        c
                        for c in candidates
                        if ab == tuple(dom.mul(c, v) for v in ba)
                    ),
                    None,
                )
                if lam is None:
                    return None, (r.element(ca), r.element(cb))
                rule[(ca, cb)] = lam
        values = set(rule.values())
        if len(values) == 1:
            return FMap.constant(values.pop()), None
        return FMap.from_rule(rule), None
    candidates = [dom.normalize(1), dom.normalize(-1), dom.zero()]
    for v in range(2, rat_bound + 1):
        candidates += [dom.normalize(v), dom.normalize(-v)]
    rng = random.Random(seed)
    surviving = list(candidates)
    for _ in range(samples):
        ca = tuple(dom.normalize(rng.randint(-3, 3)) for _ in range(r.rank))
        cb = tuple(dom.normalize(rng.randint(-3, 3)) for _ in range(r.rank))
        ab = r.mul_coords(ca, cb)
        ba = r.mul_coords(cb, ca)
        surviving = [
            c for c in surviving if ab == tuple(dom.mul(c, v) for v in ba)
        ]
        if not surviving:
            return None, (r.element(ca), r.element(cb))
    return (
        FMap(CONSTANT, value=surviving[0], label=f"constant {surviving[0]} (sampled)"),
        None,
    )


def lift_f_to_diagonal(base: PairVerdict) -> PairVerdict:
    """The lift of f to the diagonal of the 2x2 matrices over R, given the
    verdict ``base`` that R commutes up to f.

    The diagonal is R x R as a ring and the lifted factor (f(a, c), f(b, d))
    acts componentwise, so ((a, b), (c, d)) commutes up to the lift exactly
    when (a, c) and (b, d) commute up to f: the lift has the base status.
    """
    return base
