"""Nil and nilpotency analysis.

Ring-level nil verdicts ask the power chain first.  R^d = 0 makes the ring
and each homogeneous component nil and bounds the nil index by d; one
element with x^(d-1) != 0 makes d exact.  The basis and a fixed-seed batch
of random elements are tried: by Schwartz-Zippel (J. ACM 27(4), 1980) a
random element over F_q misses with probability at most (d-1)/q when
x^(d-1) is a nonzero polynomial in its coordinates.
When the chain does not decide whether the ring is nil: enumeration of
every element (finite domains within the cap), then seeded sampling.
Enumeration multiplies rows in batches with ``kernel.mul_rows``, exact at
every modulus.
When no tried element fixes the bounded nil index, it comes from the
powers of a general element x = sum_j t_j b_j in commuting indeterminates,
expanded by a sparse numpy scatter.  Over F_p a map F_p^n -> F_p is a
unique polynomial with every exponent below p (Lidl & Niederreiter, Finite
Fields, 1997), so exponents are reduced by t^p = t: the first vanishing
power is the exact nil index, found within d - 1 products when R^d = 0,
and a power that survives is refuted at a witness point.  Over Q the
unreduced expansion is exact too.  Over Z/m it only bounds the index from
above, so enumeration remains there, within the element cap, and goes
first; over F_p it remains only for a ring whose power chain does not
reach zero.
``homogeneous_power_report`` (P3.31) multiplies nothing: it walks the
powers of each support degree and reads the verdict off the grading.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .grading import GradedRing, component_indices, neutral_ring, support
from .kernel import kernel_dtype, mul_rows
from .monoid import element_order
from .ringcore import (
    DEFAULT_ELEM_CAP,
    FP,
    ZMOD,
    Element,
    PowerChainError,
    Ring,
    power_chain,
)

DEFAULT_POWER_CAP = 512
DEFAULT_SAMPLES = 10**4
DEFAULT_SYMBOLIC_CAP = 16
# Random elements the power-chain certificate tries beside the basis; the
# seed is fixed, so its verdicts repeat.
_CERT_SAMPLES = 32


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

    PROVED when the power chain reaches zero.  Otherwise exhaustive (PROVED
    / REFUTED with witness) when the domain is finite and the element count
    fits the cap; else basis plus seeded random elements are tested, giving
    SAMPLED_OK, REFUTED, or CAPPED.
    """
    if r.rank == 0:
        return NilVerdict(Status.PROVED, note="zero ring")
    nd = nilpotency_index(r, cap=power_cap)
    if nd.proved:
        return NilVerdict(Status.PROVED, note=f"power chain: R^{nd.index} = 0")
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
# Symbolic expansion of the general element by a sparse scatter.


class SymbolicInternalError(RuntimeError):
    """A witness read off a surviving reduced power has a zero power; the
    reduction makes this impossible, so it indicates an implementation bug."""


def _merge(parts, m):
    """Join (exps, coefs) parts, sum the coefficient columns of equal
    exponent rows, reduce them mod m (None over Q) and drop the zero ones."""
    exps = np.concatenate([e for e, _ in parts])
    coefs = np.concatenate([c for _, c in parts], axis=1)
    if not len(exps):
        return exps, coefs
    keys = exps.view(np.dtype((np.void, exps.shape[1] * exps.itemsize))).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    coefs = np.add.reduceat(coefs[:, order], starts, axis=1)
    if m is not None:
        coefs %= m
    live = (coefs != 0).any(axis=0)
    return exps[order[starts[live]]], coefs[:, live]


def _general_powers(r: Ring, last):
    """Yield x, x^2, ..., x^last of the general element x = sum_j t_j b_j,
    stopping after the first zero power.

    A power is (exps, coefs): row n of ``exps`` holds a monomial's exponents
    in t_0 .. t_{rank-1} and column n of ``coefs`` its nonzero coefficient
    vector.  Over F_p every exponent e >= 1 is reduced to ((e-1) mod (p-1))
    + 1, since t^p = t as a function on F_p; reduction is a ring map, so the
    result is the unique reduced polynomial of the map a -> a^s.  Over Z/m
    and Q the expansion is not reduced.

    Each step multiplies by x from the right, one basis index j at a time:
    through each constant b_i b_j = c b_k + ..., coefficient k gains
    coefficient i times c, and exponent j rises by one.  Blocks are merged
    into the next power whenever they hold as many monomials as the current
    one, so the working set stays near monomials x rank.  Coefficients use
    ``kernel_dtype``: a block's target sums as many reduced terms as
    ``mul_rows`` does, and a merge sums at most 2 rank + 1 values below m.
    """
    dom, rank = r.coeff, r.rank
    m = dom.modulus
    # an exponent reaches p only at powers past p - 1
    wrap = m if dom.kind == FP and m <= last else None
    dtype = kernel_dtype(r) if dom.finite else object
    by_right = {}
    for (i, j), terms in r.sc.items():
        for k, c in terms.items():
            by_right.setdefault(j, []).append((i, k, c))
    exps = np.eye(rank, dtype=np.min_scalar_type(last))
    coefs = np.eye(rank, dtype=dtype)
    for _ in range(last - 1):
        yield exps, coefs
        parts, pending = [(exps[:0], coefs[:, :0])], 0
        for j, terms in sorted(by_right.items()):
            block = np.zeros_like(coefs)
            for i, k, c in terms:
                block[k] += coefs[i] if c == 1 else coefs[i] * c
            if m is not None:
                block %= m
            live = (block != 0).any(axis=0)
            if not live.any():
                continue
            shifted = exps[live]
            shifted[:, j] += 1
            if wrap is not None:
                shifted[shifted[:, j] == wrap, j] = 1
            parts.append((shifted, block[:, live]))
            pending += len(shifted)
            if pending >= len(exps):
                parts, pending = [_merge(parts, m)], 0
        exps, coefs = _merge(parts, m)
        if not len(exps):
            break
    yield exps, coefs


def _nonzero_point(r: Ring, exps, coefs, values):
    """A point where the nonzero polynomial (exps, coefs) is nonzero.

    Fixes t_0, t_1, ... in turn to the first of ``values`` that leaves a
    nonzero polynomial.  Over F_p with reduced exponents, and over Q, one of
    any deg + 1 distinct values does (a nonzero univariate coefficient has
    at most deg roots), so ``values`` needs one more than the degree.
    """
    m = r.coeff.modulus
    point = []
    for j in range(r.rank):
        col = exps[:, j]
        rest = exps.copy()
        rest[:, j] = 0
        for v in values:
            powers = np.array([pow(v, e, m) for e in range(int(col.max()) + 1)],
                              dtype=coefs.dtype)
            scaled = coefs * powers[col]
            if m is not None:
                scaled %= m
            sub_e, sub_c = _merge([(rest, scaled)], m)
            if len(sub_e):
                break
        point.append(v)
        exps, coefs = sub_e, sub_c
    return r.element(point)


def nil_bounded_index(
    r: Ring,
    mode="enum",
    elem_cap=DEFAULT_ELEM_CAP,
    power_cap=DEFAULT_POWER_CAP,
    candidate=None,
) -> NilVerdict:
    """Smallest s with a^s = 0 for every element.

    ``enum`` takes the maximum element nil index over an exhaustive
    enumeration (finite domains).  ``symbolic`` expands the powers of the
    general element with ``_general_powers`` and returns the smallest
    exponent up to ``candidate`` whose power vanishes.  Over F_p (reduced
    exponents) and Q that exponent is exact, and a surviving monomial at
    ``candidate`` is REFUTED with a witness a, a^candidate != 0.  Over Z/m
    the expansion is not reduced: a vanishing power bounds the index from
    above, and a surviving monomial is CAPPED, since pointwise vanishing is
    still possible.
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
        dom = r.coeff
        note = "symbolic expansion"
        if dom.kind == FP:
            note += f" reduced by t^{dom.modulus} = t"
        for s, (exps, coefs) in enumerate(_general_powers(r, candidate), 1):
            if not len(exps):
                return NilVerdict(Status.PROVED, index=s, note=note)
        mono = min(map(tuple, exps.tolist()))
        if dom.kind == ZMOD:
            return NilVerdict(
                Status.CAPPED,
                note=f"general element power {candidate} has surviving "
                f"monomial {mono}; pointwise vanishing not excluded",
            )
        top = min(dom.modulus, candidate + 1) if dom.finite else candidate + 1
        w = _nonzero_point(r, exps, coefs, range(top))
        acc = w
        for _ in range(candidate - 1):
            acc = acc * w
        if acc.is_zero():
            raise SymbolicInternalError(
                f"power {candidate} of the witness {w!r} is zero, but monomial "
                f"{mono} survives"
            )
        return NilVerdict(
            Status.REFUTED, witness=w,
            note=f"candidate {candidate} refuted: monomial {mono} survives",
        )
    raise ValueError(f"unknown mode {mode!r}")


def _mul(r, A, B):
    """Row-wise product: ``kernel.mul_rows`` over Z/mZ, ``Ring.mul_coords``
    one row at a time over the rationals."""
    if r.coeff.finite:
        return mul_rows(r, A, B)
    return np.array([r.mul_coords(a, b) for a, b in zip(A, B)], dtype=object)


def _certified_index(r: Ring, power_cap) -> NilVerdict | None:
    """PROVED with index d when R^d = 0 and some tried x has x^(d-1) != 0.

    The tried elements are the basis, then ``_CERT_SAMPLES`` seeded random
    ones; the note names the first that works.  None when the chain does
    not reach zero within ``power_cap`` or no tried element works.
    """
    nd = nilpotency_index(r, cap=power_cap)
    if not nd.proved or nd.index < 2:
        return None
    d, dom = nd.index, r.coeff
    rng = random.Random(0)
    lo, hi = (0, dom.size - 1) if dom.finite else (-3, 3)
    draws = [[dom.normalize(rng.randint(lo, hi)) for _ in range(r.rank)]
             for _ in range(_CERT_SAMPLES)]
    x = np.array([b.coords for b in r.basis()] + draws,
                 dtype=kernel_dtype(r) if dom.finite else object)
    acc = x
    for _ in range(d - 2):
        acc = _mul(r, acc, x)
    hit = np.flatnonzero(acc.any(axis=1))
    if not hit.size:
        return None
    w = r.element(x[hit[0]])
    return NilVerdict(
        Status.PROVED, index=d, note=f"power chain: R^{d} = 0, x^{d - 1} != 0 at x = {w!r}"
    )


def bounded_nil_index_auto(r: Ring, elem_cap=DEFAULT_ELEM_CAP,
                           power_cap=DEFAULT_POWER_CAP,
                           symbolic_cap=DEFAULT_SYMBOLIC_CAP) -> NilVerdict:
    """The power-chain certificate; over F_p with R^d = 0, the reduced
    symbolic expansion up to d; else enumeration when feasible; else the
    symbolic expansion up to ``symbolic_cap``.  That last one refutes only
    the cap, so its REFUTED stands for "not nil" only when the chain ends
    nonzero (a nil finite-rank algebra over a field is nilpotent), and is
    CAPPED while the chain runs past ``power_cap``.  The verdict is kept on
    the ring per cap triple, so every caller with the same caps shares one
    computation."""
    key = (elem_cap, power_cap, symbolic_cap)
    if key not in r._nil_index:
        verdict = _certified_index(r, power_cap)
        nd = nilpotency_index(r, cap=power_cap)
        if verdict is None and nd.proved and r.coeff.kind == FP:
            # x^d vanishes, so the expansion ends within d - 1 products
            verdict = nil_bounded_index(r, "symbolic", candidate=nd.index)
        if verdict is None and r.coeff.finite and r.element_count() <= elem_cap:
            verdict = nil_bounded_index(r, "enum", elem_cap=elem_cap, power_cap=power_cap)
        elif verdict is None:
            verdict = nil_bounded_index(r, "symbolic", candidate=symbolic_cap)
            if verdict.status == Status.REFUTED and nd.status == Status.CAPPED:
                verdict = NilVerdict(Status.CAPPED, note=f"{nd.note}; {verdict.note}")
        r._nil_index[key] = verdict
    return r._nil_index[key]


def nilpotency_index(r: Ring, cap=DEFAULT_POWER_CAP) -> NilVerdict:
    """Smallest d with all length-d products zero, from the power chain;
    CAPPED when the chain runs past ``cap`` entries."""
    try:
        chain = power_chain(r, cap=cap)
    except PowerChainError:
        return NilVerdict(Status.CAPPED, note=f"power chain longer than power_cap {cap}")
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

    When the power chain reaches zero every component is PROVED nil.
    Otherwise, since powers of a homogeneous element wander through other
    components, each verdict enumerates coordinate vectors supported on the
    component's basis but computes powers in the ambient ring.
    """
    r = gr.ring
    nd = nilpotency_index(r, cap=power_cap)
    if nd.proved:
        note = f"power chain: R^{nd.index} = 0"
        return {g: NilVerdict(Status.PROVED, note=note) for g in sorted(support(gr))}
    out = {}
    for g in sorted(support(gr)):
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


class DegreeWalkInternalError(RuntimeError):
    """A P3.31 degree walk ended inside the support away from e; the
    grading checks rule this out, so it indicates an implementation bug."""


@dataclass
class HomogeneousPowerReport:
    """Per-degree power-vanishing data for a grading with nil neutral part.

    For each support degree g, ``kg[g]`` letters of degree g multiply into
    the neutral component or to zero, so every such product raised to the
    neutral bounded nil index s vanishes; ``k`` is the lcm of the kg.
    ``neutral`` is the verdict on that index, None for a zero component.
    """

    applicable: bool
    reason: str = ""
    s: int | None = None
    kg: dict = field(default_factory=dict)
    k: int | None = None
    per_degree: dict = field(default_factory=dict)
    neutral: NilVerdict | None = None


def homogeneous_power_report(
    gr: GradedRing, elem_cap=DEFAULT_ELEM_CAP, power_cap=DEFAULT_POWER_CAP,
    symbolic_cap=DEFAULT_SYMBOLIC_CAP,
) -> HomogeneousPowerReport:
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
    sv = bounded_nil_index_auto(m0, elem_cap=elem_cap, power_cap=power_cap,
                                symbolic_cap=symbolic_cap)
    if not sv.proved:
        return HomogeneousPowerReport(
            False, reason=f"neutral component not proved nil of bounded index ({sv.status.value})",
            neutral=sv,
        )
    supp = support(gr)
    e = gr.monoid.identity
    kg = {g: int(min(element_order(gr.monoid, g), len(supp))) for g in sorted(supp)}
    report = HomogeneousPowerReport(True, s=sv.index, kg=kg, k=math.lcm(*kg.values()), neutral=sv)
    for g in sorted(supp):
        h, length = g, 1
        while h in supp and h != e:
            if length == kg[g]:
                raise DegreeWalkInternalError(
                    f"degree walk of {g!r} ends at {h!r} after {length} steps, "
                    "inside the support and not neutral"
                )
            h = gr.monoid.op(h, g)
            length += 1
        report.per_degree[g] = {
            "tuples_checked": 0,
            "product_degree": h if h == e else None,
            "length": length,
            "status": "PASS",
        }
    return report
