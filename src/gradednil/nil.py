"""Nil and nilpotency analysis.

Every ring here is finite (Z/m) or finite-dimensional (F_p, Q), and a nil
ring of either kind is nilpotent (Wedderburn, 1908), so the power chain
decides whether a ring is nil.  R^d = 0 proves the ring and each
homogeneous component nil.  A chain that stabilizes at R^k = R^(k+1) != 0
refutes it, and the expansion below names the witness: ``_component_nil``
on the whole basis, a point x with x^N != 0 for N the bound
``_index_bound`` that every nilpotent element meets.  Per component of a
ring that is not nilpotent, one rule decides: a P3.31 degree walk of g that
leaves the support kills x^l, and every other component, e included, takes
the same expansion with variables on its own basis only.

The bounded nil index comes from the powers of a general element
x = sum_j t_j b_j in commuting indeterminates, kept as flat sparse entries
(monomial, coordinate, coefficient) in the falling-factorial basis
prod_j (t_j)_(i_j).  A polynomial in that basis is the zero function on
(Z/m)^n exactly when every coefficient has c_I prod_j i_j! = 0 mod m
(Kempner, 1921; Singmaster, "On polynomial functions (mod m)", 1974), since
c_I prod_j i_j! is its I-th finite difference at 0.  Such terms are dropped
as they arise, so the first empty power is the exact nil index over Z/m,
over F_p (where every i_j >= p drops) and over Q (where nothing drops),
found within d - 1 products when R^d = 0.  The smallest term of the last
surviving power names a point where that power is nonzero, the witness.
A span of basis elements is nil exactly when its general element has
x^N = 0, so the same expansion decides it (``_component_nil``).  Nothing
is enumerated.
``homogeneous_power_report`` (P3.31) multiplies nothing: it walks the
powers of each support degree and reads the verdict off the grading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .grading import GradedRing, component_indices, neutral_ring, support
from .monoid import element_order
from .ringcore import (
    DEFAULT_ELEM_CAP,
    Element,
    Ring,
    _index_bound,
    _ranges,
    kept,
    power_chain,
)


class Status(str, Enum):
    # every verdict made here is PROVED or REFUTED; CAPPED stays in the
    # output contract for a work budget to produce
    PROVED = "PROVED"
    REFUTED = "REFUTED"
    CAPPED = "CAPPED"


@dataclass
class NilVerdict:
    status: Status
    index: int | None = None
    witness: Element | None = None
    note: str = ""

    @property
    def proved(self):
        return self.status == Status.PROVED

    def __repr__(self):
        bits = [self.status.value]
        if self.index is not None:
            bits.append(f"index={self.index}")
        if self.witness is not None:
            bits.append(f"witness={self.witness!r}")
        if self.note:
            bits.append(self.note)
        return f"NilVerdict({', '.join(bits)})"


def element_nil_index(a: Element) -> NilVerdict:
    """Smallest n with a^n = 0, by power iteration up to N = ``_index_bound``:
    a nilpotent a has a^N = 0, so a^N != 0 refutes it."""
    n = _index_bound(a.ring)
    acc, k = a, 1
    while not acc.is_zero():
        if k == n:
            return NilVerdict(Status.REFUTED, witness=a, note=f"x^{n} != 0")
        acc, k = acc * a, k + 1
    return NilVerdict(Status.PROVED, index=k)


# ---------------------------------------------------------------------------
# Witnesses of non-nilpotence.


def ring_is_nil(r: Ring, elem_cap=DEFAULT_ELEM_CAP) -> NilVerdict:
    """Is every element nilpotent?  The power chain decides.

    PROVED when the chain reaches zero.  Otherwise it stabilizes at
    R^k = R^(k+1) != 0, so R is not nilpotent, hence not nil (a nil ring of
    finite rank is nilpotent): REFUTED, with ``nilpotency_index``'s witness
    x, whose x^N is checked nonzero for N = ``_index_bound``.  Nothing is
    enumerated, so ``elem_cap`` is unused; it stays because
    ``perfbench/layers.py`` binds it by name.
    """
    if r.rank == 0:
        return NilVerdict(Status.PROVED, note="zero ring")
    nd = nilpotency_index(r)
    if nd.proved:
        return NilVerdict(Status.PROVED, note=f"power chain: R^{nd.index} = 0")
    k = len(power_chain(r)) - 1
    return NilVerdict(Status.REFUTED, witness=nd.witness,
                      note=f"R^{k} = R^{k + 1} != 0 and x^{_index_bound(r)} != 0 "
                      "at the witness")


# ---------------------------------------------------------------------------
# Symbolic expansion of the general element in flat sparse entries.


class SymbolicInternalError(RuntimeError):
    """A witness read off a surviving power has a zero power, or the
    expansion finds every element nilpotent in a ring whose power chain
    stabilizes nonzero; the falling-factorial criterion and Wedderburn's
    theorem make both impossible, so either indicates an implementation bug."""


def _general_powers(r: Ring, last, positions=None):
    """Yield x, x^2, ..., x^last of the general element x = sum_j t_j b_j,
    with j over the basis ``positions`` (all by default), stopping after the
    first zero power.

    A power is flat sparse entries (mono, coord, coef), one per monomial
    and coordinate: entry n is coef[n] prod_j (t_j)_(I_j) b_(coord[n]) in
    falling factorials, and row n of ``mono`` is I as the sorted multiset of
    its variable indices, padded to ``last`` columns with the sentinel
    ``rank``.  The merge that completes a power drops every coefficient that
    is a zero function (over Q only 0 is), so a power is empty exactly when
    it vanishes at every point, over Z/m, F_p and Q alike.

    Each step multiplies by x from the right.  An entry (I, i, c) and a
    constant b_i b_j = c' b_k + ... give c c' (t)_I t_j b_k, and since
    (t)_a * t = (t)_(a+1) + a (t)_a, that is the entry (I + e_j, k, c c')
    and, when a = I_j > 0, the entry (I, k, a c c').  Every entry takes all
    the constants with left index i at once, and equal (mono, coord) pairs
    are summed in one merge per step.  A constant b_i b_j with j off the
    positions meets no variable, so it is left out.  The step has no memory
    budget: its working set is entries x constants per coordinate.

    Coefficients take the dtype of the table's constants.  c c' is reduced
    mod m before it is scaled by a, and reduced again after; a is below m,
    since I_j >= m makes I_j! = 0 mod m and drops the entry.  So every
    summand is below m, and a merge group (I, k) takes at most two per
    constant with target k: with t such constants its sum is at most
    2 t (m - 1), within the t (m - 1)^2 < 2^63 that ``Ring.table`` checks
    once m >= 3, and far below 2^63 at m = 2.
    """
    dom, rank = r.coeff, r.rank
    m = dom.modulus
    left, right, target, const = r.table()
    dtype = const.dtype
    positions = np.arange(rank) if positions is None else np.asarray(positions)
    if len(positions) < rank:
        on = np.isin(right, positions)
        left, right, target, const = left[on], right[on], target[on], const[on]
    start = np.searchsorted(left, np.arange(rank + 1))
    # key[n] is entry n's mono followed by its coord, so one void view of a
    # row sorts and compares the pair
    key = np.full((len(positions), last + 1), rank, dtype=np.int32)
    key[:, 0] = key[:, last] = positions
    coef = np.ones(len(positions), dtype=dtype)
    for _ in range(last - 1):
        yield key[:, :last], key[:, last], coef
        first = start[key[:, last]]
        per = start[key[:, last] + 1] - first
        if not per.any():
            key, coef = key[:0], coef[:0]
            break
        src, con = _ranges(first, per)
        c = coef[src] * const[con]
        if m is not None:
            c %= m
        rows = key[src]
        rows[:, last] = target[con]
        j = right[con]
        a = (rows[:, :last] == j[:, None]).sum(axis=1)
        stay = np.flatnonzero(a)
        kept = c[stay] * a[stay]
        if m is not None:
            kept %= m
        kept_rows = rows[stay]
        # the degree is below last, so the last mono column is the sentinel
        rows[:, last - 1] = j
        rows[:, :last].sort(axis=1)
        key = np.concatenate((rows, kept_rows))
        flat = key.view(np.dtype((np.void, key.shape[1] * key.itemsize))).ravel()
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
        starts = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
        key = key[order[starts]]
        coef = np.add.reduceat(np.concatenate((c, kept))[order], starts)
        if m is None:
            live = coef != 0
        else:
            # Kempner: drop c with c prod_j I_j! = 0 mod m; in a sorted row
            # prod_j I_j! is the product of each index's place in its run
            coef %= m
            weight = np.ones(len(coef), dtype=dtype)
            place = np.ones(len(coef), dtype=np.int64)
            for col in range(1, last):
                run = (key[:, col] == key[:, col - 1]) & (key[:, col] < rank)
                place = np.where(run, place + 1, 1)
                weight = weight * place % m
            live = coef * weight % m != 0
        key, coef = key[live], coef[live]
        if not len(coef):
            break
    yield key[:, :last], key[:, last], coef


def _witness(r: Ring, mono, k):
    """The point t = I of a surviving power x^k, read off its entries'
    monomials: the exponent vector I smallest by total degree, then
    lexicographically.  At t = I every other surviving term (t)_J with
    J <= I has a smaller total degree, so none is left, and x^k takes the
    value c_I prod_j I_j! != 0 there; the power is checked all the same."""
    degree = (mono < r.rank).sum(axis=1)
    low = mono[degree == degree.min()]
    exps = np.zeros((len(low), r.rank + 1), dtype=np.int64)
    np.add.at(exps, (np.arange(len(low))[:, None], low), 1)
    point = tuple(min(exps[:, :-1].tolist()))
    w = r.element(point)
    acc = w
    for _ in range(k - 1):
        acc = acc * w
    if acc.is_zero():
        raise SymbolicInternalError(
            f"power {k} of the witness {w!r} is zero, but monomial {point} survives"
        )
    return w, point


def _proved_at(r: Ring, alive, s) -> NilVerdict:
    """PROVED at the first empty power x^s; ``alive`` holds the monomials
    of x^(s-1), whose ``_witness`` point the note names."""
    w, _ = _witness(r, alive, s - 1)
    return NilVerdict(Status.PROVED, index=s,
                      note=f"symbolic expansion: x^{s - 1} != 0 at x = {w!r}")


def nil_bounded_index(
    r: Ring,
    mode="symbolic",
    elem_cap=DEFAULT_ELEM_CAP,
    candidate=None,
) -> NilVerdict:
    """Smallest s up to ``candidate`` with a^s = 0 for every element.

    ``_general_powers`` expands the powers of the general element, and the
    first empty one is the exact index over Z/m, F_p and Q.  ``_witness``
    reads a point off the last surviving power: x^(s-1) != 0 there, named
    in the PROVED note, or x^candidate != 0 there, the REFUTED witness when
    the power at ``candidate`` survives.

    ``symbolic`` is the only mode, and nothing is enumerated, so
    ``elem_cap`` is unused.  Both stay because ``perfbench/layers.py`` binds
    them by name.
    """
    if mode != "symbolic":
        raise ValueError(f"unknown mode {mode!r}; only 'symbolic' remains")
    if candidate is None:
        raise ValueError("symbolic mode needs a candidate exponent")
    if r.rank == 0:
        return NilVerdict(Status.PROVED, index=1, note="zero ring")
    # x itself is never empty, so a surviving power comes before the empty one
    for s, (mono, _, coef) in enumerate(_general_powers(r, candidate), 1):
        if not len(coef):
            return _proved_at(r, alive, s)
        alive = mono
    w, point = _witness(r, mono, candidate)
    return NilVerdict(
        Status.REFUTED, witness=w,
        note=f"candidate {candidate} refuted: monomial {point} survives",
    )


@kept
def _component_nil(r: Ring, positions) -> NilVerdict:
    """PROVED at the first empty power of the general element of the span of
    the basis ``positions``, with its index, or REFUTED by the first
    ``_witness`` point of a power that is not nilpotent, every nilpotent
    element having x^N = 0 for N = ``_index_bound``.  The point of a
    surviving x^N is one, and trying each power's point stops a span that is
    not nil before its terms grow to degree N.  The verdict is kept on the
    ring under the tuple ``positions``."""
    n = _index_bound(r)
    for s, (mono, _, coef) in enumerate(_general_powers(r, n, positions), 1):
        if not len(coef):
            return _proved_at(r, alive, s)
        alive = mono
        w, _ = _witness(r, mono, 1)
        if not element_nil_index(w).proved:
            return NilVerdict(Status.REFUTED, witness=w,
                              note=f"symbolic expansion: x^{n} != 0 at the witness, the "
                              f"point of x^{s}; every nilpotent x has x^{n} = 0")
    raise SymbolicInternalError(f"x^{n} survives, but the point of its least term is nilpotent")


@kept
def bounded_nil_index_auto(r: Ring) -> NilVerdict:
    """A chain that ends nonzero: ``ring_is_nil``'s REFUTED, since a ring
    that is not nil has no bounded nil index.  Else the symbolic expansion,
    which is exact: up to d when R^d = 0, where x^d vanishes, so it always
    ends at an empty power.  The verdict is kept on the ring, so every
    caller shares one computation."""
    nd = nilpotency_index(r)
    if nd.proved:
        return nil_bounded_index(r, "symbolic", candidate=nd.index)
    return ring_is_nil(r)


@kept
def nilpotency_index(r: Ring) -> NilVerdict:
    """Smallest d with all length-d products zero, from the power chain.  A
    chain that stabilizes at R^k = R^(k+1) != 0 is REFUTED, with the witness
    of ``_component_nil`` on the whole basis, an x with x^N != 0 for N =
    ``_index_bound``.  Both verdicts are kept on the ring, so a REFUTED
    one's witness is expanded once."""
    chain = power_chain(r)
    if not chain[-1]:
        return NilVerdict(Status.PROVED, index=len(chain))
    v = _component_nil(r, tuple(range(r.rank)))
    if v.proved:
        raise SymbolicInternalError(
            f"R^{len(chain) - 1} = R^{len(chain)} != 0, but the expansion "
            f"gives every element nil index {v.index}"
        )
    return NilVerdict(Status.REFUTED, witness=v.witness,
                      note=f"product spans stabilize nonzero at length {len(chain) - 1}")


def s_nil_check(gr: GradedRing, elem_cap=DEFAULT_ELEM_CAP):
    """Nil verdict for each homogeneous component, keyed by degree.

    When the power chain reaches zero every component is PROVED nil.
    Otherwise one rule decides each support degree g.  A P3.31 degree walk
    of g that leaves the support after l steps puts x^l in a zero
    component.  Every other component, e included, takes
    ``_component_nil``, the expansion on its own basis: PROVED with its
    index, or REFUTED by a point that is not nilpotent.  No walk reaches a
    nilpotent R_e here: by T3.18 a nilpotent R_e makes R nilpotent.
    Nothing is enumerated, so ``elem_cap`` is unused; it stays because
    ``perfbench/layers.py`` binds it by name.
    """
    r = gr.ring
    nd = nilpotency_index(r)
    if nd.proved:
        note = f"power chain: R^{nd.index} = 0"
        return {g: NilVerdict(Status.PROVED, note=note) for g in sorted(support(gr))}
    out = {}
    for g, (_, end, length) in _degree_walks(gr).items():
        if end is None:
            out[g] = NilVerdict(Status.PROVED,
                                note=f"degree walk leaves the support: x^{length} = 0")
        else:
            out[g] = _component_nil(r, tuple(component_indices(gr, g)))
    return out


class DegreeWalkInternalError(RuntimeError):
    """A P3.31 degree walk ended inside the support away from e; the
    grading checks rule this out, so it indicates an implementation bug."""


@dataclass
class HomogeneousPowerReport:
    """Per-degree power-vanishing data for a grading with nil neutral part.

    For each support degree g, ``kg[g]`` letters of degree g multiply into
    the neutral component or to zero, so every such product raised to the
    neutral bounded nil index s vanishes; ``k`` is the lcm of the kg.
    """

    applicable: bool
    reason: str = ""
    s: int | None = None
    kg: dict = field(default_factory=dict)
    k: int | None = None
    per_degree: dict = field(default_factory=dict)


def homogeneous_power_report(gr: GradedRing) -> HomogeneousPowerReport:
    """Prove (a_1 ... a_{kg})^s = 0 per degree, and a^{k*s} = 0, by degrees.

    Requires a nonzero neutral component that is nil of bounded index s;
    otherwise the report is not applicable.  By the grading axiom a product
    of i factors of degree g lies in R_{g^i}.  The walk g, g^2, ... stops at
    the first power outside the support, where the product of that many
    factors is already zero, or at g^{kg} = e, where the product lies in the
    nil neutral component and its s-th power vanishes.  No other ending is
    possible: left cancellation makes the powers of g distinct until one is
    e, so with kg = min(o(g), d) either g^{o(g)} = e is reached, or kg = d
    distinct powers other than e cannot all lie among the d - 1 support
    degrees other than e.  Then a^{k*s} = (a^{kg})^{(k/kg)*s} vanishes too.
    Each ``per_degree`` entry records the walk's ``product_degree`` (e, or
    None when it left the support) and ``length``; no tuple is multiplied.
    """
    m0, _ = neutral_ring(gr)
    if m0.rank == 0:
        return HomogeneousPowerReport(False, reason="neutral component is zero")
    sv = bounded_nil_index_auto(m0)
    if not sv.proved:
        return HomogeneousPowerReport(
            False, reason=f"neutral component not proved nil of bounded index ({sv.status.value})",
        )
    walks = _degree_walks(gr)
    kg = {g: walk[0] for g, walk in walks.items()}
    report = HomogeneousPowerReport(True, s=sv.index, kg=kg, k=math.lcm(*kg.values()))
    for g, (_, end, length) in walks.items():
        report.per_degree[g] = {
            "tuples_checked": 0,
            "product_degree": end,
            "length": length,
            "status": "PASS",
        }
    return report


def _degree_walks(gr: GradedRing):
    """{g: (kg, end, length)} per support degree g, in sorted order.

    The walk g, g^2, ... stops at g^length = e (``end`` is e) or at the
    first power outside the support (``end`` is None).  It takes at most
    kg = min(o(g), d) steps; see ``homogeneous_power_report``.
    """
    supp = support(gr)
    e = gr.monoid.identity
    out = {}
    for g in sorted(supp):
        kg = int(min(element_order(gr.monoid, g), len(supp)))
        h, length = g, 1
        while h in supp and h != e:
            if length == kg:
                raise DegreeWalkInternalError(
                    f"degree walk of {g!r} ends at {h!r} after {length} steps, "
                    "inside the support and not neutral"
                )
            h = gr.monoid.op(h, g)
            length += 1
        out[g] = (kg, h if h == e else None, length)
    return out
