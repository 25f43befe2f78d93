"""Nil and nilpotency analysis.

Every ring here is finite (Z/m) or finite-dimensional (F_p, Q), and a nil
ring of either kind is nilpotent (Wedderburn, 1908), so the power chain
decides whether a ring is nil.  R^d = 0 proves the ring and each
homogeneous component nil.  A chain that stabilizes at R^k = R^(k+1) != 0
refutes it: the witness is the first of R^k's generators, then of seeded
combinations of them, that repeated squaring past a nilpotence bound does
not kill.  Per component, P3.31's degree walk decides: a walk of g that
leaves the support kills x^l, and one that reaches e kills x^(k_g d_e) when
R_e^(d_e) = 0.  Only a degree whose walk reaches a non-nilpotent R_e is
enumerated, within the element cap, and past it tried on candidates.
Enumeration multiplies rows in batches with ``kernel.mul_rows``, exact at
every modulus.

With R^d = 0, one element with x^(d-1) != 0 makes d the bounded nil index.
The basis and a fixed-seed batch of random elements are tried: by
Schwartz-Zippel (J. ACM 27(4), 1980) a random element over F_q misses with
probability at most (d-1)/q when x^(d-1) is a nonzero polynomial in its
coordinates.  When no tried element fixes the index, it comes from the
powers of a general element x = sum_j t_j b_j in commuting indeterminates,
expanded by a sparse numpy scatter in the falling-factorial basis
prod_j (t_j)_(i_j).  A polynomial in that basis is the zero function on
(Z/m)^n exactly when every coefficient has c_I prod_j i_j! = 0 mod m
(Kempner, 1921; Singmaster, "On polynomial functions (mod m)", 1974), since
c_I prod_j i_j! is its I-th finite difference at 0.  Such terms are dropped
as they arise, so the first empty power is the exact nil index over Z/m,
over F_p (where every i_j >= p drops) and over Q (where nothing drops),
found within d - 1 products.  Nothing is enumerated for it.
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
    Element,
    PowerChainError,
    Ring,
    power_chain,
)

DEFAULT_POWER_CAP = 512
DEFAULT_SYMBOLIC_CAP = 16
# Random elements the power-chain certificate tries beside the basis; the
# seed is fixed, so its verdicts repeat.
_CERT_SAMPLES = 32
# Entries of the largest array one block of the symbolic expansion builds.
_EXPAND_ENTRIES = 1 << 18


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


def _classify_all_nilpotent(ring, base):
    """Exact nilpotence test by repeated squaring.

    Returns the original-order row number of the first non-nilpotent element,
    or None when every row is nilpotent.  A nilpotent x has x^n = 0 once n
    reaches the element count of a finite ring, or rank + 1 over Q, where x
    spans a nilpotent algebra of dimension at most rank; squaring stops past
    that exponent.
    """
    index_bound = ring.element_count() if ring.coeff.finite else ring.rank + 1
    idx = np.arange(base.shape[0])
    sq = base
    alive = sq.any(axis=1)
    idx, sq = idx[alive], sq[alive]
    e = 1
    while idx.size and e < index_bound:
        sq = _mul(ring, sq, sq)
        e *= 2
        alive = sq.any(axis=1)
        idx, sq = idx[alive], sq[alive]
    return int(idx.min()) if idx.size else None


def _mul(r, A, B):
    """Row-wise product: ``kernel.mul_rows`` over Z/mZ, ``Ring.mul_coords``
    one row at a time over the rationals."""
    if r.coeff.finite:
        return mul_rows(r, A, B)
    return np.array([r.mul_coords(a, b) for a, b in zip(A, B)], dtype=object)


def _candidates(r: Ring, rows):
    """``rows`` followed by ``_CERT_SAMPLES`` seeded combinations of them,
    one array row each; coefficients are drawn from Z/m, or from -3..3 over
    Q.  The seed is fixed, so verdicts repeat."""
    dom = r.coeff
    rng = random.Random(0)
    lo, hi = (0, dom.size - 1) if dom.finite else (-3, 3)
    coefs = [[rng.randint(lo, hi) for _ in rows] for _ in range(_CERT_SAMPLES)]
    # a combination sums len(rows) products below m^2
    exact = np.int64 if dom.finite and len(rows) * dom.size**2 < 2**63 else object
    G = np.array(rows, dtype=exact)
    X = np.concatenate([G, np.array(coefs, dtype=exact) @ G])
    if dom.finite:
        X %= dom.size
    return X.astype(kernel_dtype(r) if dom.finite else object)


def ring_is_nil(r: Ring, elem_cap=DEFAULT_ELEM_CAP, power_cap=DEFAULT_POWER_CAP) -> NilVerdict:
    """Is every element nilpotent?  The power chain decides.

    PROVED when the chain reaches zero, CAPPED when it runs past
    ``power_cap``.  Otherwise it stabilizes at R^k = R^(k+1) != 0, so R is
    not nilpotent, hence not nil (a nil ring of finite rank is nilpotent):
    REFUTED, with ``nilpotency_index``'s non-nilpotent witness from R^k, or
    with none when every tried element is nilpotent.  Nothing is
    enumerated, so ``elem_cap`` is unused; it stays because
    ``perfbench/layers.py`` binds it by name.
    """
    if r.rank == 0:
        return NilVerdict(Status.PROVED, note="zero ring")
    nd = nilpotency_index(r, cap=power_cap)
    if nd.proved:
        return NilVerdict(Status.PROVED, note=f"power chain: R^{nd.index} = 0")
    if nd.status == Status.CAPPED:
        return NilVerdict(Status.CAPPED, note=nd.note)
    k = len(power_chain(r, cap=power_cap)) - 1
    if nd.witness is not None:
        return NilVerdict(Status.REFUTED, witness=nd.witness,
                          note=f"from the stable power R^{k} = R^{k + 1}")
    return NilVerdict(
        Status.REFUTED,
        note=f"R^{k} = R^{k + 1} != 0 and a nil ring of finite rank is nilpotent "
        f"(Wedderburn 1908); every tried element of R^{k} is nilpotent",
    )


# ---------------------------------------------------------------------------
# Symbolic expansion of the general element by a sparse scatter.


class SymbolicInternalError(RuntimeError):
    """A witness read off a surviving power has a zero power; the
    falling-factorial criterion makes this impossible, so it indicates an
    implementation bug."""


def _merge(parts, m, fact):
    """Join (exps, coefs) parts, sum the coefficient columns of equal
    exponent rows and reduce them mod m (None over Q).  Given ``fact``, the
    table of a! mod m, a coefficient c of the term prod_j (t_j)_(i_j) with
    c * prod_j i_j! = 0 mod m is a zero function on (Z/m)^n, so it is
    zeroed.  Terms left with no nonzero coefficient are dropped."""
    exps = np.concatenate([e for e, _ in parts])
    coefs = np.concatenate([c for _, c in parts], axis=1)
    if not len(exps):
        return exps, coefs
    keys = exps.view(np.dtype((np.void, exps.shape[1] * exps.itemsize))).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    exps = exps[order[starts]]
    coefs = np.add.reduceat(coefs[:, order], starts, axis=1)
    if m is not None:
        coefs %= m
    if fact is not None:
        # 0! = 1! = 1, so only terms with an exponent above 1 can be zeroed
        big = exps > 1
        heavy = np.flatnonzero(big.any(axis=1))
        if heavy.size:
            weight = np.ones(heavy.size, dtype=coefs.dtype)
            for j in np.flatnonzero(big[heavy].any(axis=0)):
                weight = weight * fact[exps[heavy, j]] % m
            sub = coefs[:, heavy]
            sub[sub * weight % m == 0] = 0
            coefs[:, heavy] = sub
    live = (coefs != 0).any(axis=0)
    return exps[live], coefs[:, live]


def _general_powers(r: Ring, last):
    """Yield x, x^2, ..., x^last of the general element x = sum_j t_j b_j,
    stopping after the first zero power.

    A power is (exps, coefs): row n of ``exps`` holds the exponents I of a
    term prod_j (t_j)_(I_j) in falling factorials, and column n of
    ``coefs`` its coefficient vector.  The merge that completes a power
    zeroes every coefficient that is a zero function (over Q only 0 is), so
    a power is empty exactly when it vanishes at every point, over Z/m, F_p
    and Q alike.

    Each step multiplies by x from the right.  Through each constant
    b_i b_j = c b_k + ..., coefficient i of a term I, times c, goes to
    coefficient k of the cell (I, j), the term times t_j b_j; since
    (t)_a * t = (t)_(a+1) + a (t)_a, a cell goes to exponents I + e_j and,
    times I_j, to I itself.  The constants whose coefficient i is nonzero
    in some term are applied together to a block of terms, as many as keep
    both constants x terms and rank^2 x terms (a bound on the cells'
    coefficients) within ``_EXPAND_ENTRIES``.  The cells are merged into
    the next power whenever they hold as many terms as the current one, so
    the working set stays near terms x rank.  Coefficients use
    ``kernel_dtype``: a cell's coefficient sums as many reduced terms as
    ``mul_rows`` does, I_j is below m (a larger one has I_j! = 0 mod m), so
    a cell times I_j stays below (m-1)^2, and a merge sums at most
    2 rank + 1 values below m.
    """
    dom, rank = r.coeff, r.rank
    m = dom.modulus
    dtype = kernel_dtype(r) if dom.finite else object
    fact = None
    if m is not None:
        fact = [1]
        for a in range(1, last + 1):
            fact.append(fact[-1] * a % m)
        fact = np.array(fact, dtype=dtype)
    trip = sorted((j, k, i, c) for (i, j), terms in r.sc.items() for k, c in terms.items())
    left = np.array([i for _, _, i, _ in trip], dtype=np.intp)
    consts = np.array([c for *_, c in trip], dtype=dtype)[:, None]
    cell = np.array([j * rank + k for j, k, _, _ in trip], dtype=np.intp)
    exps = np.eye(rank, dtype=np.min_scalar_type(last))
    coefs = np.eye(rank, dtype=dtype)
    for _ in range(last - 1):
        yield exps, coefs
        parts, pending = [(exps[:0], coefs[:, :0])], 0
        use = np.flatnonzero(coefs.any(axis=1)[left])
        if not use.size:
            exps, coefs = exps[:0], coefs[:, :0]
            break
        rows, scale, cu = left[use], consts[use], cell[use]
        first = np.flatnonzero(np.concatenate(([True], cu[1:] != cu[:-1])))
        gj, gk = np.divmod(cu[first], rank)
        width = max(1, _EXPAND_ENTRIES // max(use.size, rank * rank))
        for lo in range(0, len(exps), width):
            block = coefs[rows, lo:lo + width]
            block *= scale
            block = np.add.reduceat(block, first, axis=0)
            if m is not None:
                block %= m
            # nonzeros by column n, then by (j, k): each cell (n, j) is a
            # run, and one column per cell keeps the block's cells in budget
            n, g = np.nonzero(block.T)
            if not n.size:
                continue
            js = gj[g]
            code = n * rank + js
            fresh = np.concatenate(([True], code[1:] != code[:-1]))
            term = np.cumsum(fresh) - 1
            full = np.zeros((rank, term[-1] + 1), dtype=dtype)
            full[gk[g], term] = block[g, n]
            ns, js = lo + n[fresh], js[fresh]
            a = exps[ns, js].astype(dtype)
            shifted = exps[ns]
            shifted[np.arange(ns.size), js] += 1
            stay = np.flatnonzero(a)
            kept = full[:, stay] * a[stay]
            if m is not None:
                kept %= m
            parts += [(shifted, full), (exps[ns[stay]], kept)]
            pending += ns.size + stay.size
            if pending >= len(exps):
                parts, pending = [_merge(parts, m, None)], 0
        exps, coefs = _merge(parts, m, fact)
        if not len(exps):
            break
    yield exps, coefs


def nil_bounded_index(
    r: Ring,
    mode="symbolic",
    elem_cap=DEFAULT_ELEM_CAP,
    power_cap=DEFAULT_POWER_CAP,
    candidate=None,
) -> NilVerdict:
    """Smallest s up to ``candidate`` with a^s = 0 for every element.

    ``_general_powers`` expands the powers of the general element, and the
    first empty one is the exact index over Z/m, F_p and Q.  A power that
    survives at ``candidate`` is REFUTED with a witness: take its term I
    smallest by total degree, then lexicographically.  At t = I every other
    surviving term (t)_J with J <= I has a smaller total degree, so none is
    left, and x^candidate takes the value c_I prod_j I_j! != 0 there.

    ``symbolic`` is the only mode, and nothing is enumerated, so
    ``elem_cap`` and ``power_cap`` are unused.  The three stay because
    ``perfbench/layers.py`` binds them by name.
    """
    if mode != "symbolic":
        raise ValueError(f"unknown mode {mode!r}; only 'symbolic' remains")
    if candidate is None:
        raise ValueError("symbolic mode needs a candidate exponent")
    if r.rank == 0:
        return NilVerdict(Status.PROVED, index=1, note="zero ring")
    for s, (exps, coefs) in enumerate(_general_powers(r, candidate), 1):
        if not len(exps):
            return NilVerdict(Status.PROVED, index=s, note="symbolic expansion")
    point = min(exps.tolist(), key=lambda e: (sum(e), e))
    w = r.element(point)
    acc = w
    for _ in range(candidate - 1):
        acc = acc * w
    if acc.is_zero():
        raise SymbolicInternalError(
            f"power {candidate} of the witness {w!r} is zero, but monomial "
            f"{tuple(point)} survives"
        )
    return NilVerdict(
        Status.REFUTED, witness=w,
        note=f"candidate {candidate} refuted: monomial {tuple(point)} survives",
    )


def _certified_index(r: Ring, power_cap) -> NilVerdict | None:
    """PROVED with index d when R^d = 0 and some tried x has x^(d-1) != 0.

    The tried elements are the basis, then ``_CERT_SAMPLES`` seeded random
    combinations of it; the note names the first that works.  None when the
    chain does not reach zero within ``power_cap`` or no tried element works.
    """
    nd = nilpotency_index(r, cap=power_cap)
    if not nd.proved or nd.index < 2:
        return None
    d = nd.index
    x = _candidates(r, [b.coords for b in r.basis()])
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


def bounded_nil_index_auto(r: Ring, power_cap=DEFAULT_POWER_CAP,
                           symbolic_cap=DEFAULT_SYMBOLIC_CAP) -> NilVerdict:
    """A chain that ends nonzero: ``ring_is_nil``'s REFUTED, since a ring
    that is not nil has no bounded nil index.  Else the power-chain
    certificate.  Else the symbolic expansion, which is exact: up to d when
    R^d = 0, where x^d vanishes, or up to ``symbolic_cap`` when the chain
    runs past ``power_cap``.  There only an index within ``power_cap``
    stands; a term surviving at ``symbolic_cap`` refutes only the cap, and
    an index past ``power_cap`` is past the cap, so both are CAPPED.  The
    verdict is kept on the ring per cap pair, so every caller with the same
    caps shares one computation."""
    key = (power_cap, symbolic_cap)
    if key not in r._nil_index:
        nd = nilpotency_index(r, cap=power_cap)
        if nd.status == Status.REFUTED:
            verdict = ring_is_nil(r, power_cap=power_cap)
        else:
            verdict = _certified_index(r, power_cap)
        if verdict is None and nd.proved:
            verdict = nil_bounded_index(r, "symbolic", candidate=nd.index)
        elif verdict is None:
            verdict = nil_bounded_index(r, "symbolic", candidate=symbolic_cap)
            if not verdict.proved:
                verdict = NilVerdict(Status.CAPPED, note=f"{nd.note}; {verdict.note}")
            elif verdict.index > power_cap:
                verdict = NilVerdict(Status.CAPPED, note=f"{nd.note}; symbolic "
                                     f"index {verdict.index} is past it")
        r._nil_index[key] = verdict
    return r._nil_index[key]


def nilpotency_index(r: Ring, cap=DEFAULT_POWER_CAP) -> NilVerdict:
    """Smallest d with all length-d products zero, from the power chain;
    CAPPED when the chain runs past ``cap`` entries.  A chain that
    stabilizes at R^k = R^(k+1) != 0 is REFUTED, with the first of R^k's
    generators, then of seeded combinations of them, that is not nilpotent
    as witness, or with none when every tried element is nilpotent.  The
    chain is the same at every cap, so the REFUTED verdict is searched once
    and kept on the ring beside it."""
    try:
        chain = power_chain(r, cap=cap)
    except PowerChainError:
        return NilVerdict(Status.CAPPED, note=f"power chain longer than power_cap {cap}")
    if chain[-1].is_zero():
        return NilVerdict(Status.PROVED, index=len(chain))
    if r._not_nilpotent is None:
        X = _candidates(r, chain[-1].rows)
        bad = _classify_all_nilpotent(r, X)
        r._not_nilpotent = NilVerdict(
            Status.REFUTED,
            witness=None if bad is None else r.element(X[bad]),
            note=f"product spans stabilize nonzero at length {len(chain) - 1}",
        )
    return r._not_nilpotent


def s_nil_check(gr: GradedRing, elem_cap=DEFAULT_ELEM_CAP, power_cap=DEFAULT_POWER_CAP):
    """Nil verdict for each homogeneous component, keyed by degree.

    When the power chain reaches zero every component is PROVED nil.
    Otherwise P3.31's degree walk decides.  A walk of g that leaves the
    support after l steps puts x^l in a zero component.  One that reaches e
    after k_g steps puts x^(k_g) in R_e, so x^(k_g d_e) = 0 when
    R_e^(d_e) = 0.  Degree e of a neutral ring that is not nilpotent takes
    ``ring_is_nil`` of that ring.  A degree g != e whose walk reaches it is
    enumerated within ``elem_cap``, with powers taken in the ambient ring;
    past the cap its basis and seeded combinations are tried, giving
    REFUTED or CAPPED.
    """
    r = gr.ring
    nd = nilpotency_index(r, cap=power_cap)
    if nd.proved:
        note = f"power chain: R^{nd.index} = 0"
        return {g: NilVerdict(Status.PROVED, note=note) for g in sorted(support(gr))}
    m0, idx0 = neutral_ring(gr)
    nd0 = nilpotency_index(m0, cap=power_cap)
    out = {}
    for g, (_, end, length) in _degree_walks(gr).items():
        if end is None:
            out[g] = NilVerdict(Status.PROVED,
                                note=f"degree walk leaves the support: x^{length} = 0")
        elif nd0.proved:
            out[g] = NilVerdict(
                Status.PROVED,
                note=f"degree walk reaches e, R_e^{nd0.index} = 0: x^{length * nd0.index} = 0",
            )
        elif g == end:
            out[g] = v = ring_is_nil(m0, power_cap=power_cap)
            if v.witness is not None:
                coords = np.zeros(r.rank, dtype=object)
                coords[idx0] = v.witness.coords
                v.witness = r.element(coords)
        else:
            idx = component_indices(gr, g)
            count = r.coeff.size ** len(idx) if r.coeff.finite else None
            exhaustive = count is not None and count <= elem_cap
            X = (_coord_rows(r.coeff.size, idx, r.rank) if exhaustive
                 else _candidates(r, [r.basis_element(t).coords for t in idx]))
            bad = _classify_all_nilpotent(r, X)
            if bad is not None:
                out[g] = NilVerdict(Status.REFUTED, witness=r.element(X[bad]))
            elif exhaustive:
                out[g] = NilVerdict(Status.PROVED, note=f"exhaustive over {count}")
            else:
                out[g] = NilVerdict(Status.CAPPED, note=f"basis and {_CERT_SAMPLES} seeded "
                                    "combinations nilpotent; enumeration capped")
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
    gr: GradedRing, power_cap=DEFAULT_POWER_CAP, symbolic_cap=DEFAULT_SYMBOLIC_CAP,
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
    sv = bounded_nil_index_auto(m0, power_cap=power_cap, symbolic_cap=symbolic_cap)
    if not sv.proved:
        return HomogeneousPowerReport(
            False, reason=f"neutral component not proved nil of bounded index ({sv.status.value})",
            neutral=sv,
        )
    walks = _degree_walks(gr)
    kg = {g: walk[0] for g, walk in walks.items()}
    report = HomogeneousPowerReport(True, s=sv.index, kg=kg, k=math.lcm(*kg.values()), neutral=sv)
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
