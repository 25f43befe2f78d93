"""Monoid gradings on structure-constant rings.

A grading assigns a monoid element to every basis vector; the grading axiom
(nonzero c[i][j][k] forces deg k = deg i * deg j) is checked exhaustively on
construction, and the grading monoid must be left cancellative.  Gradings
derived here from checked ones hold by construction and are built unchecked.
"""

from __future__ import annotations

from .monoid import Monoid, Congruence, check_cancellative, quotient
from .ringcore import Ring, kept, matrix_ring


class GradingAxiomError(ValueError):
    """A nonzero structure constant lands outside the forced degree."""

    def __init__(self, i, j, k, expected, found):
        super().__init__(
            f"grading axiom fails at ({i}, {j}, {k}): product degree should be "
            f"{expected} but basis vector {k} has degree {found}"
        )
        self.triple = (i, j, k)


class CancellativityError(ValueError):
    """The grading monoid is not left cancellative."""


class GradedRing:
    """A ring together with a degree map on its basis."""

    def __init__(self, ring: Ring, monoid: Monoid, degrees, check=True):
        self.ring = ring
        self.monoid = monoid
        self.degrees = tuple(degrees)
        if len(self.degrees) != ring.rank:
            raise ValueError(
                f"need {ring.rank} degrees, got {len(self.degrees)}"
            )
        for g in self.degrees:
            if not monoid.contains(g):
                raise ValueError(f"degree {g!r} is not a monoid element")
        if check:
            if not check_cancellative(monoid):
                raise CancellativityError("grading monoid is not left cancellative")
            self._check_axiom()

    def _check_axiom(self):
        deg = self.degrees
        for (i, j), terms in self.ring.sc.items():
            dij = self.monoid.op(deg[i], deg[j])
            for k in terms:
                if deg[k] != dij:
                    raise GradingAxiomError(i, j, k, dij, deg[k])

    def __eq__(self, other):
        return (
            isinstance(other, GradedRing)
            and self.ring == other.ring
            and self.monoid == other.monoid
            and self.degrees == other.degrees
        )

    def __repr__(self):
        return f"GradedRing({self.ring!r}, {self.monoid!r})"


def support(gr: GradedRing):
    """Degrees carried by some basis vector (basis vectors are nonzero)."""
    return set(gr.degrees)


def component_indices(gr: GradedRing, g):
    return [t for t, d in enumerate(gr.degrees) if d == g]


@kept
def neutral_ring(gr: GradedRing):
    """The degree-e component as a ring of its own; its basis is the basis
    vectors of degree e, in order (``component_indices`` at the identity).

    Degree e is the only component guaranteed multiplicatively closed; the
    grading axiom makes the restricted structure constants well defined.
    A subring of an associative ring is associative, so the ring is built
    unchecked, once per graded ring; every caller shares it and its power
    chain.  When every degree is e the neutral ring is the ring itself.
    """
    idx = component_indices(gr, gr.monoid.identity)
    if len(idx) == gr.ring.rank:
        return gr.ring
    back = {t: a for a, t in enumerate(idx)}
    sc = {}
    for a, i in enumerate(idx):
        for b, j in enumerate(idx):
            entry = {back[k]: c for k, c in gr.ring.mul_basis(i, j).items()}
            if entry:
                sc[(a, b)] = entry
    names = [gr.ring.names[t] for t in idx]
    return Ring(gr.ring.coeff, names, sc, check=False)


def induced_quotient_grading(gr: GradedRing, c: Congruence) -> GradedRing:
    """Regrade by the quotient monoid; degrees map to congruence classes.
    The class map is a homomorphism, so only cancellativity needs a check."""
    q = quotient(gr.monoid, c)
    if not check_cancellative(q):
        raise CancellativityError("quotient monoid is not left cancellative")
    degrees = [c.class_index(g) for g in gr.degrees]
    return GradedRing(gr.ring, q, degrees, check=False)


def elementary_grading(r: Ring, n: int) -> GradedRing:
    """M_n(r) graded over the cyclic group Z_n by deg E_ij = (j - i) mod n,
    which E_ij E_jl = E_il respects."""
    mr = matrix_ring(r, n)
    monoid = Monoid.cyclic(n)
    degrees = []
    for i in range(n):
        for j in range(n):
            degrees.extend([(j - i) % n] * r.rank)
    return GradedRing(mr, monoid, degrees, check=False)


def trivial_grading(r: Ring) -> GradedRing:
    """Everything in degree e over the one-element monoid."""
    return GradedRing(r, Monoid.cyclic(1), [0] * r.rank, check=False)
