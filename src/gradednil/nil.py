"""Nil and nilpotency analysis.

Element nil indices use power iteration with cycle detection.  Ring-level
verdicts enumerate all elements when the coefficient domain is finite and
small enough, fall back to seeded sampling over the rationals, and can
certify a bounded nil index symbolically by expanding the power of a general
element in commuting indeterminates.  Enumeration multiplies rows in batches
with ``kernel.mul_rows``: in int64 while t * (m-1)^2 < 2^63 for the largest
number t of structure constants landing on one basis vector, and in Python
integers (numpy object dtype) otherwise, so it is exact at every modulus.
A symbolic proof is valid over every domain; a symbolic non-vanishing only
refutes over the rationals.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .grading import GradedRing, component_indices, neutral_ring, support
from .kernel import mul_rows
from .monoid import element_order
from .ringcore import DEFAULT_ELEM_CAP, Element, Ring

DEFAULT_POWER_CAP = 512
DEFAULT_TUPLE_CAP = 10**6
DEFAULT_SAMPLES = 10**4
DEFAULT_SYMBOLIC_CAP = 16


class Status(str, Enum):
    PROVED = "PROVED"
    REFUTED = "REFUTED"
    CAPPED = "CAPPED"
    SAMPLED_OK = "SAMPLED_OK"


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


def element_nil_index(a: Element, cap=DEFAULT_POWER_CAP) -> NilVerdict:
    """Smallest n with a^n = 0, by power iteration with cycle detection."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    seen = set()
    acc = a
    n = 1
    while n <= cap:
        if acc.is_zero():
            return NilVerdict(Status.PROVED, index=n)
        if acc.coords in seen:
            return NilVerdict(Status.REFUTED, witness=a, note="power sequence cycles")
        seen.add(acc.coords)
        acc = acc * a
        n += 1
    return NilVerdict(Status.CAPPED, note=f"no zero power within {cap} steps")


# ---------------------------------------------------------------------------
# Batched enumeration over finite coefficient domains.


def _coord_rows(q, positions, rank):
    """All coordinate rows supported on ``positions``, lex order, int64."""
    L = len(positions)
    rows = np.zeros((q**L, rank), dtype=np.int64)
    # One grid axis per position, most significant first: row numbers are
    # the base-q numbers the digits spell.
    grid = rows.reshape((q,) * L + (rank,))
    for axis, t in enumerate(positions):
        shape = [1] * L
        shape[axis] = q
        grid[..., t] = np.arange(q).reshape(shape)
    return rows


def _classify_all_nilpotent(ring, base, index_bound):
    """Exact nilpotence test by repeated squaring up to exponent >= bound.

    Returns the original-order row number of the first non-nilpotent element,
    or None when every row is nilpotent.  Sound because a nilpotent element
    of a finite ring has nil index at most the ring's element count.
    """
    idx = np.arange(base.shape[0])
    sq = base
    alive = sq.any(axis=1)
    idx, sq = idx[alive], sq[alive]
    e = 1
    while idx.size and e < index_bound:
        sq = mul_rows(ring, sq, sq)
        e *= 2
        alive = sq.any(axis=1)
        idx, sq = idx[alive], sq[alive]
    return int(idx.min()) if idx.size else None


def _batch_nil_indices(ring, X, power_cap):
    """Exact per-row nil indices, or the first non-nilpotent witness row.

    Returns (status, indices, witness_row).  Linear power iteration records
    exact indices; on a stalled step the survivors are classified once by
    repeated squaring so non-nil rings terminate.
    """
    count = ring.element_count()
    N = X.shape[0]
    indices = np.zeros(N, dtype=np.int64)
    idx_map = np.arange(N)
    cur = X
    base = X
    n = 1
    classified = False
    while idx_map.size:
        zero = ~cur.any(axis=1)
        died = zero.any()
        if died:
            indices[idx_map[zero]] = n
            keep = ~zero
            # Filter one array at a time, so the old cur is freed before
            # base is copied; before the first product cur is base itself.
            aliased = cur is base
            idx_map = idx_map[keep]
            cur = cur[keep]
            base = cur if aliased else base[keep]
            if not idx_map.size:
                break
        if n >= power_cap:
            return Status.CAPPED, None, None
        if not died and n > 1 and not classified:
            bad = _classify_all_nilpotent(ring, base, count)
            if bad is not None:
                return Status.REFUTED, None, base[bad]
            classified = True
        cur = mul_rows(ring, cur, base)
        n += 1
    return Status.PROVED, indices, None


def _sampled_elements(ring, samples, seed):
    """Basis vectors plus seeded random small-integer combinations."""
    rng = random.Random(seed)
    out = list(ring.basis())
    for _ in range(samples):
        coords = [rng.randint(-3, 3) for _ in range(ring.rank)]
        out.append(ring.element(coords))
    return out


def ring_is_nil(
    r: Ring,
    elem_cap=DEFAULT_ELEM_CAP,
    power_cap=DEFAULT_POWER_CAP,
    samples=100,
    seed=0,
) -> NilVerdict:
    """Is every element nilpotent?

    Exhaustive (PROVED / REFUTED with witness) when the domain is finite and
    the element count fits the cap; otherwise basis plus seeded random
    elements are tested, giving SAMPLED_OK, REFUTED, or CAPPED.
    """
    if r.rank == 0:
        return NilVerdict(Status.PROVED, note="zero ring")
    count = r.element_count()
    if count is not None and count <= elem_cap:
        X = _coord_rows(r.coeff.size, list(range(r.rank)), r.rank)
        bad = _classify_all_nilpotent(r, X, count)
        if bad is None:
            return NilVerdict(Status.PROVED, note=f"exhaustive over {count} elements")
        return NilVerdict(
            Status.REFUTED, witness=r.element([int(v) for v in X[bad]])
        )
    capped = False
    for a in _sampled_elements(r, samples, seed):
        verdict = element_nil_index(a, cap=power_cap)
        if verdict.status == Status.REFUTED:
            return NilVerdict(Status.REFUTED, witness=a)
        if verdict.status == Status.CAPPED:
            capped = True
    if capped:
        return NilVerdict(Status.CAPPED, note="some sampled power sequences hit the cap")
    return NilVerdict(
        Status.SAMPLED_OK, note=f"basis plus {samples} seeded samples (seed={seed})"
    )


# ---------------------------------------------------------------------------
# Symbolic expansion of the general element.


def _sym_general(ring):
    gen = {}
    for t in range(ring.rank):
        mono = [0] * ring.rank
        mono[t] = 1
        gen[tuple(mono)] = ring.basis_element(t).coords
    return gen


def _sym_mul(ring, A, B):
    dom = ring.coeff
    out = {}
    for ma, va in A.items():
        for mb, vb in B.items():
            vc = ring.mul_coords(va, vb)
            if all(dom.is_zero(c) for c in vc):
                continue
            key = tuple(x + y for x, y in zip(ma, mb))
            cur = out.get(key)
            if cur is None:
                out[key] = vc
            else:
                summed = tuple(dom.add(a, b) for a, b in zip(cur, vc))
                if all(dom.is_zero(c) for c in summed):
                    del out[key]
                else:
                    out[key] = summed
    return out


def symbolic_power(ring: Ring, s: int):
    """Coefficient vectors of the s-th power of the general element."""
    if s < 1:
        raise ValueError("exponent must be >= 1")
    gen = _sym_general(ring)
    cur = gen
    for _ in range(s - 1):
        cur = _sym_mul(ring, cur, gen)
    return cur


def nil_bounded_index(
    r: Ring,
    mode="enum",
    elem_cap=DEFAULT_ELEM_CAP,
    power_cap=DEFAULT_POWER_CAP,
    candidate=None,
) -> NilVerdict:
    """Smallest s with a^s = 0 for every element.

    ``enum`` takes the maximum element nil index over an exhaustive
    enumeration (finite domains).  ``symbolic`` expands the general element
    in commuting indeterminates and returns the smallest exponent up to
    ``candidate`` whose power vanishes identically; vanishing proves the
    bound over any domain, while a surviving coefficient refutes the
    candidate only over the rationals (REFUTED there, CAPPED on finite
    domains where pointwise vanishing is still possible).
    """
    if r.rank == 0:
        return NilVerdict(Status.PROVED, index=1, note="zero ring")
    if mode == "enum":
        count = r.element_count()
        if count is None or count > elem_cap:
            return NilVerdict(
                Status.CAPPED, note="enumeration infeasible; use symbolic mode"
            )
        X = _coord_rows(r.coeff.size, list(range(r.rank)), r.rank)
        status, indices, witness = _batch_nil_indices(r, X, power_cap)
        if status == Status.REFUTED:
            return NilVerdict(
                Status.REFUTED, witness=r.element([int(v) for v in witness])
            )
        if status == Status.CAPPED:
            return NilVerdict(Status.CAPPED, note=f"power cap {power_cap} hit")
        return NilVerdict(
            Status.PROVED,
            index=int(indices.max()),
            note=f"exhaustive over {count} elements",
        )
    if mode == "symbolic":
        if candidate is None:
            raise ValueError("symbolic mode needs a candidate exponent")
        gen = _sym_general(r)
        cur = gen
        s = 1
        while True:
            if not cur:
                return NilVerdict(Status.PROVED, index=s, note="symbolic expansion")
            if s >= candidate:
                mono = min(cur)
                if r.coeff.finite:
                    return NilVerdict(
                        Status.CAPPED,
                        note=f"general element power {candidate} has surviving "
                        f"monomial {mono}; pointwise vanishing not excluded",
                    )
                return NilVerdict(
                    Status.REFUTED,
                    note=f"candidate {candidate} refuted: monomial {mono} survives",
                )
            cur = _sym_mul(r, cur, gen)
            s += 1
    raise ValueError(f"unknown mode {mode!r}")


def bounded_nil_index_auto(r: Ring, elem_cap=DEFAULT_ELEM_CAP,
                           power_cap=DEFAULT_POWER_CAP,
                           symbolic_cap=DEFAULT_SYMBOLIC_CAP) -> NilVerdict:
    """Enumerate when feasible, otherwise prove symbolically."""
    if r.coeff.finite and r.element_count() <= elem_cap:
        return nil_bounded_index(r, "enum", elem_cap=elem_cap, power_cap=power_cap)
    return nil_bounded_index(r, "symbolic", candidate=symbolic_cap)


def nilpotency_index(r: Ring, cap=DEFAULT_POWER_CAP) -> NilVerdict:
    """Smallest d with all length-d products zero, from the power chain."""
    from .ringcore import power_chain

    chain = power_chain(r, cap=cap)
    if chain[-1].is_zero():
        return NilVerdict(Status.PROVED, index=len(chain))
    witness = chain[-1].generators()[0]
    return NilVerdict(
        Status.REFUTED,
        witness=witness,
        note=f"product spans stabilize nonzero at length {len(chain) - 1}",
    )


def s_nil_check(
    gr: GradedRing,
    elem_cap=DEFAULT_ELEM_CAP,
    power_cap=DEFAULT_POWER_CAP,
    samples=100,
    seed=0,
):
    """Nil verdict for each homogeneous component, keyed by degree.

    Powers of a homogeneous element wander through other components, so each
    verdict enumerates coordinate vectors supported on the component's basis
    but computes powers in the ambient ring.
    """
    r = gr.ring
    out = {}
    for g in sorted(support(gr), key=_degree_sort_key):
        idx = component_indices(gr, g)
        count = None if not r.coeff.finite else r.coeff.size ** len(idx)
        if count is not None and count <= elem_cap:
            X = _coord_rows(r.coeff.size, idx, r.rank)
            bad = _classify_all_nilpotent(r, X, r.element_count())
            if bad is None:
                out[g] = NilVerdict(Status.PROVED, note=f"exhaustive over {count}")
            else:
                out[g] = NilVerdict(
                    Status.REFUTED, witness=r.element([int(v) for v in X[bad]])
                )
            continue
        rng = random.Random(seed)
        capped = False
        verdict = None
        for _ in range(samples):
            coords = [r.coeff.zero()] * r.rank
            for t in idx:
                coords[t] = rng.randint(-3, 3)
            a = r.element(coords)
            v = element_nil_index(a, cap=power_cap)
            if v.status == Status.REFUTED:
                verdict = NilVerdict(Status.REFUTED, witness=a)
                break
            if v.status == Status.CAPPED:
                capped = True
        if verdict is None:
            verdict = (
                NilVerdict(Status.CAPPED, note="sampled power sequences hit the cap")
                if capped
                else NilVerdict(Status.SAMPLED_OK, note=f"{samples} seeded samples")
            )
        out[g] = verdict
    return out


def _degree_sort_key(g):
    return g


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
    counterexample: tuple | None = None
    seed: int = 0

    @property
    def passed(self):
        return self.applicable and self.counterexample is None


def homogeneous_power_report(
    gr: GradedRing,
    elem_cap=DEFAULT_ELEM_CAP,
    tuple_cap=DEFAULT_TUPLE_CAP,
    samples=DEFAULT_SAMPLES,
    seed=0,
) -> HomogeneousPowerReport:
    """Verify (a_1 ... a_{kg})^s = 0 per degree, plus a^{k*s} = 0 spot checks.

    Requires a nonzero neutral component that is nil of bounded index s;
    otherwise the report is not applicable.  Tuple spaces beyond the cap are
    sampled deterministically with the recorded seed.
    """
    r = gr.ring
    m0, _ = neutral_ring(gr)
    if m0.rank == 0:
        return HomogeneousPowerReport(False, reason="neutral component is zero")
    sv = bounded_nil_index_auto(m0, elem_cap=elem_cap)
    if not sv.proved:
        return HomogeneousPowerReport(
            False, reason=f"neutral component not proved nil of bounded index ({sv.status.value})"
        )
    s = sv.index
    supp = support(gr)
    d = len(supp)
    kg = {}
    for g in sorted(supp, key=_degree_sort_key):
        kg[g] = int(min(element_order(gr.monoid, g), d))
    k = math.lcm(*kg.values())
    report = HomogeneousPowerReport(True, s=s, kg=kg, k=k, seed=seed)
    rng = random.Random(seed)
    for g in sorted(supp, key=_degree_sort_key):
        idx = component_indices(gr, g)
        entry = {"tuples_checked": 0, "sampled": False, "status": "PASS"}
        tuples = _component_tuples(r, idx, kg[g], tuple_cap, samples, rng, entry)
        for tup in tuples:
            prod = tup[0]
            for x in tup[1:]:
                prod = r.mul_coords(prod, x)
            acc = prod
            for _ in range(s - 1):
                acc = r.mul_coords(acc, prod)
            entry["tuples_checked"] += 1
            if any(not r.coeff.is_zero(c) for c in acc):
                report.counterexample = (g, tup)
                entry["status"] = "FAIL"
                return report
        # bounded homogeneous conclusion: a^{k*s} = 0 on the checked degree
        for coords in _component_sample(r, idx, rng, limit=64):
            a = r.element(coords)
            acc = a
            for _ in range(k * s - 1):
                acc = acc * a
                if acc.is_zero():
                    break
            if not acc.is_zero():
                report.counterexample = (g, (coords,))
                entry["status"] = "FAIL"
                return report
        report.per_degree[g] = entry
    return report


def _component_tuples(r, idx, length, tuple_cap, samples, rng, entry):
    dom = r.coeff
    if dom.finite:
        count = dom.size ** len(idx)
        total = count**length
        if total <= tuple_cap:
            singles = []
            for digits in itertools.product(dom.elements(), repeat=len(idx)):
                coords = [dom.zero()] * r.rank
                for t, c in zip(idx, digits):
                    coords[t] = c
                singles.append(tuple(coords))
            return itertools.product(singles, repeat=length)
    entry["sampled"] = True
    out = []
    for _ in range(samples):
        tup = []
        for _ in range(length):
            coords = [dom.zero()] * r.rank
            for t in idx:
                coords[t] = dom.normalize(rng.randint(-3, 3))
            tup.append(tuple(coords))
        out.append(tuple(tup))
    return out


def _component_sample(r, idx, rng, limit):
    dom = r.coeff
    if dom.finite and dom.size ** len(idx) <= limit:
        for digits in itertools.product(dom.elements(), repeat=len(idx)):
            coords = [dom.zero()] * r.rank
            for t, c in zip(idx, digits):
                coords[t] = c
            yield tuple(coords)
        return
    for _ in range(limit):
        coords = [dom.zero()] * r.rank
        for t in idx:
            coords[t] = dom.normalize(rng.randint(-3, 3))
        yield tuple(coords)
