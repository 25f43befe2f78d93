"""Verified nilpotency bounds for graded rings.

Every check in the registry evaluates one explicit bound formula with exact
arbitrary-precision arithmetic, computes the corresponding index on the given
ring, and reports PASS, FAIL or NOT_APPLICABLE; every verdict is exact, so
no check reports CAPPED, which stays for a work budget.  Applicability is
always decided by computed predicates (never asserted by the caller), and a
FAIL on an applicable check is a hard inconsistency that carries a full
witness bundle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

from .fcomm import PAIR_CAP, FMap, check_f_commutative, lift_f_to_diagonal, scalar_f_search
from .grading import (
    CancellativityError,
    GradedRing,
    induced_quotient_grading,
    neutral_ring,
    support,
)
from .monoid import Congruence, CongruenceError
from .nil import (
    Status,
    bounded_nil_index_auto,
    element_nil_index,
    homogeneous_power_report,
    nil_bounded_index,
    nilpotency_index,
    ring_is_nil,
)
from .ringcore import Ring, kept, matrix_ring, min_generators, power_chain


class CheckStatus(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    NOT_APPLICABLE = "NOT_APPLICABLE"
    CAPPED = "CAPPED"


@dataclass
class TheoremCheck:
    id: str
    anchor: str
    reason: str = ""
    bound: object = None
    observed: object = None
    status: CheckStatus = CheckStatus.NOT_APPLICABLE
    witnesses: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def applicable(self):
        return self.status != CheckStatus.NOT_APPLICABLE

    def to_dict(self):
        return {
            "id": self.id,
            "anchor": self.anchor,
            "applicable": self.applicable,
            "reason": self.reason,
            "bound": self.bound,
            "observed": self.observed,
            "status": self.status.value,
            "witnesses": {k: repr(v) for k, v in self.witnesses.items()},
            "details": dict(self.details),
        }


def geometric_support_sum(d: int) -> int:
    """d + d^2 + ... + d^(2d), the subproduct-count bound for support size d."""
    return sum(d**t for t in range(1, 2 * d + 1))


def nil_index_bound(s: int, d: int) -> int:
    """Upper bound on the nil index when the neutral part has nil index s.

    Equals 2*s*d^2*(d^(2d) - 1)/(d - 1) for d > 1; the geometric-sum form
    also covers d = 1, where the quotient form degenerates.
    """
    return 2 * s * d * geometric_support_sum(d)


def _fail(check, **witnesses):
    check.status = CheckStatus.FAIL
    check.witnesses.update(witnesses)
    return check


def _na(check, reason):
    check.status = CheckStatus.NOT_APPLICABLE
    check.reason = reason
    return check


def _judge_nilpotency(check, ndv, witness="non_nilpotent"):
    """Observe the verdict ``ndv``, a nilpotency index unless ``witness``
    names another, against the printed ``check.bound``: a number bounds the
    index above (every index is at least 1), and [lo, hi] bounds it on both
    sides.  An unproved verdict FAILs with its witness under ``witness``."""
    if not ndv.proved:
        return _fail(check, **{witness: ndv.witness})
    check.observed = ndv.index
    lo, hi = check.bound if isinstance(check.bound, list) else (1, check.bound)
    check.status = CheckStatus.PASS if lo <= ndv.index <= hi else CheckStatus.FAIL
    return check


def _nil_index(check, r, not_nil):
    """The bounded nil index verdict on ``r``.  Unless it is PROVED,
    ``check`` is finished: NOT_APPLICABLE for reason ``not_nil``, since
    ``r`` is refuted nil."""
    sv = bounded_nil_index_auto(r)
    if not sv.proved:
        _na(check, not_nil)
    return sv


_NO_FACTOR = "no commutation factor supplied or derived"


@kept
def _commutes(r, f):
    """The verdict that ``r`` commutes up to ``f``, kept on the ring under
    the factor, so an equal factor reuses it."""
    return check_f_commutative(r, f)


def _f_commutative(check, r, f, where=""):
    """The verdict that ``r`` commutes up to ``f``, or None with ``check``
    finished: NOT_APPLICABLE with no factor or at a refuting pair (``where``
    prefixes its reason)."""
    if f is None:
        _na(check, _NO_FACTOR)
        return None
    fc = _commutes(r, f)
    if fc.status == Status.REFUTED:
        _na(check, f"{where}not f-commutative at {fc.witness}")
        return None
    return fc


def _grading_data(gr: GradedRing):
    return len(support(gr)), neutral_ring(gr)[0]


# ---------------------------------------------------------------------------
# Individual checks.


def verify_empty_neutral_bound(gr: GradedRing) -> TheoremCheck:
    """P3.03: zero neutral component forces nd <= d + 1."""
    d, m0 = _grading_data(gr)
    check = TheoremCheck("P3.03", "neutral component zero: nd <= d+1", bound=d + 1)
    if m0.rank != 0:
        return _na(check, "neutral component is nonzero")
    return _judge_nilpotency(check, nilpotency_index(gr.ring))


def verify_neutral_nil_fcomm_bound(gr: GradedRing, f: FMap | None) -> TheoremCheck:
    """T3.15: nil f-commutative neutral part makes the whole ring nil.

    With the neutral nil index s known, nd_nil(R) <= 2*s*d*(d + ... + d^(2d)).
    """
    d, m0 = _grading_data(gr)
    check = TheoremCheck(
        "T3.15",
        "neutral nil and commuting up to f: ring nil, "
        "nd_nil <= 2*s*d*(d+...+d^(2d))",
    )
    if m0.rank == 0:
        check.bound = d + 1
        check.details["path"] = "zero neutral component, nd <= d+1 applies"
        return _judge_nilpotency(check, nilpotency_index(gr.ring))
    fc = _f_commutative(check, m0, f, "neutral component ")
    if fc is None:
        return check
    check.details["f_commutative"] = fc.status.value
    sv = _nil_index(check, m0, "neutral component is not nil")
    if not sv.proved:
        return check
    s = sv.index
    check.bound = nil_index_bound(s, d)
    check.details["neutral_nil_index"] = s
    check.details["support_size"] = d
    return _judge_nilpotency(check, bounded_nil_index_auto(gr.ring), "non_nil")


def verify_nilpotent_neutral_bounds(gr: GradedRing) -> TheoremCheck:
    """T3.18: nilpotent neutral part of index r gives r <= nd <= d*r (d+1 if r=1)."""
    d, m0 = _grading_data(gr)
    check = TheoremCheck(
        "T3.18", "neutral nilpotent of index r: r <= nd <= d*r (r>1), nd <= d+1 (r=1)",
    )
    rv = nilpotency_index(m0)
    if not rv.proved:
        return _na(check, "neutral component is not nilpotent")
    r = rv.index
    check.bound = [r, d + 1 if r == 1 else d * r]
    check.details["neutral_nilpotency_index"] = r
    return _judge_nilpotency(check, nilpotency_index(gr.ring))


@kept
def _generator_nil_index(r):
    """Largest nil index of the generators ``min_generators`` picks, 1 for
    none; the caller has proved ``r`` nilpotent, so each generator's index
    is PROVED."""
    return max((element_nil_index(g).index for g in min_generators(r)), default=1)


def verify_generated_nil_ring_bound(r: Ring, f: FMap | None) -> TheoremCheck:
    """T3.19: a nil ring commuting up to f with n generators is nilpotent,
    s <= nd <= (s-1)*n + 1 with s the largest generator nil index."""
    check = TheoremCheck("T3.19", "nil, f-commutative, n generators: s <= nd <= (s-1)*n+1")
    if not _nil_index(check, r, "ring is not nil").proved:
        return check
    if r.rank and _f_commutative(check, r, f) is None:
        return check
    # a ring with a bounded nil index is nilpotent, so ndv is PROVED
    ndv = nilpotency_index(r)
    gens = min_generators(r)
    n, s = len(gens), _generator_nil_index(r)
    check.details["generators"] = n
    check.details["generator_nil_index"] = s
    check.bound = [s, (s - 1) * n + 1]
    check.witnesses["generators"] = gens
    return _judge_nilpotency(check, ndv)


def verify_generated_neutral_bound(gr: GradedRing, f: FMap | None) -> TheoremCheck:
    """T3.20: nil f-commutative neutral part with n generators:
    s <= nd <= d*((s-1)*n + 1); if the neutral part is zero, nd <= d + 1."""
    d, m0 = _grading_data(gr)
    check = TheoremCheck(
        "T3.20",
        "neutral nil, f-commutative, n generators: s <= nd <= d*((s-1)*n+1)",
    )
    if m0.rank == 0:
        check.bound = [1, d + 1]
        return _judge_nilpotency(check, nilpotency_index(gr.ring))
    if f is None:  # not applicable, whatever the neutral nil index
        return _na(check, _NO_FACTOR)
    if not _nil_index(check, m0, "neutral component is not nil").proved:
        return check
    if _f_commutative(check, m0, f, "neutral component ") is None:
        return check
    ndv = nilpotency_index(gr.ring)
    if not ndv.proved:
        return _judge_nilpotency(check, ndv)
    n, s = len(min_generators(m0)), _generator_nil_index(m0)
    check.details.update(
        {"generators": n, "generator_nil_index": s, "support_size": d}
    )
    check.bound = [s, d * ((s - 1) * n + 1)]
    return _judge_nilpotency(check, ndv)


def verify_index2_char_bound(gr: GradedRing) -> TheoremCheck:
    """P3.17: neutral nil index 2 and no 2-torsion force (R_e)^3 = 0, nd <= 3d."""
    d, m0 = _grading_data(gr)
    check = TheoremCheck(
        "P3.17", "neutral nil index 2, char != 2: cube of neutral part zero, nd <= 3d",
        bound=3 * d,
    )
    dom = gr.ring.coeff
    char = dom.char()
    if char % 2 == 0 and char != 0:
        return _na(check, f"coefficient characteristic {char} has 2-torsion")
    sv = _nil_index(check, m0, "neutral component is not nil")
    if not sv.proved:
        return check
    if sv.index != 2:
        return _na(check, f"neutral nil index is {sv.index}, not 2")
    # R_e has a bounded nil index, so it is nilpotent and cube is PROVED;
    # past index 3, the first row of R_e^3 (chain entry 2) is nonzero
    cube = nilpotency_index(m0)
    check.details["neutral_nilpotency_index"] = cube.index
    if cube.index > 3:
        return _fail(check, neutral_cube_nonzero=m0.element(power_chain(m0)[2][0]))
    return _judge_nilpotency(check, nilpotency_index(gr.ring))


def verify_field_bounded_index_bound(gr: GradedRing) -> TheoremCheck:
    """T3.24: over a field of characteristic 0 or p > s, bounded neutral nil
    index s makes the algebra nilpotent with nd <= d*(2^s - 1) for p > s,
    nd <= d*q with q = 2^s - 1 (s <= 4) or s^2 (s >= 5) for p = 0, and
    nd <= d + 1 when s = 1."""
    d, m0 = _grading_data(gr)
    check = TheoremCheck(
        "T3.24",
        "field scalars, neutral nil index s: nd <= d*(2^s-1) for char > s; "
        "nd <= d*q, q = 2^s-1 (s<=4) or s^2 (s>=5), for char 0; nd <= d+1 for s=1",
    )
    dom = gr.ring.coeff
    if not dom.is_field:
        return _na(check, f"coefficients {dom.label()} are not a field")
    p = dom.char()
    sv = _nil_index(check, m0, "neutral component is not nil of bounded index")
    if not sv.proved:
        return check
    s = sv.index
    check.details.update({"neutral_nil_index": s, "char": p, "support_size": d})
    if s == 1:
        check.bound = d + 1
    elif p == 0:
        q = 2**s - 1 if s <= 4 else s * s
        check.bound = d * q
    elif p > s:
        check.bound = d * (2**s - 1)
    else:
        return _na(check, f"characteristic {p} is neither 0 nor > nil index {s}")
    return _judge_nilpotency(check, nilpotency_index(gr.ring))


def verify_product_length_vanishing(gr: GradedRing) -> TheoremCheck:
    """C3.28: field characteristic outside {2, 3} and neutral nil index
    s in {2, 3, 4}: every product of d*(2^s - 1) elements vanishes."""
    d, m0 = _grading_data(gr)
    check = TheoremCheck(
        "C3.28", "products of length d*(2^s-1) vanish for s in {2,3,4}, char not 2 or 3",
    )
    dom = gr.ring.coeff
    if not dom.is_field:
        return _na(check, f"coefficients {dom.label()} are not a field")
    if dom.char() in (2, 3):
        return _na(check, f"characteristic {dom.char()} excluded")
    if m0.rank == 0:
        return _na(check, "neutral nil index is 1, outside {2,3,4}")
    sv = _nil_index(check, m0, "neutral component is not nil")
    if not sv.proved:
        return check
    s = sv.index
    if s not in (2, 3, 4):
        return _na(check, f"neutral nil index {s} outside {{2,3,4}}")
    check.bound = d * (2**s - 1)
    # Nilpotency index <= the bound is exactly "every product of that
    # length vanishes"; the power chain proves it.
    return _judge_nilpotency(check, nilpotency_index(gr.ring))


def verify_matrix_nil_transfer(r: Ring, f: FMap | None) -> TheoremCheck:
    """T3.26: for a nil ring commuting up to f, the 2x2 matrices are nil.

    The diagonal component of the elementary grading is R x R as a ring, so
    the lift of f holds exactly when R commutes up to f, and the diagonal
    nil index is R's: both are read off the verdicts on R.  M_2(R)^k is
    M_2(R^k), so M_2(R) has R's nilpotency index d, and the exact symbolic
    expansion of its bounded nil index up to d is checked against the bound.
    """
    check = TheoremCheck("T3.26", "2x2 matrices over a nil f-commutative ring are nil")
    sv = _nil_index(check, r, "ring is not nil")
    if not sv.proved:
        return check
    if r.rank == 0:
        check.bound = 1
        check.observed = 1
        check.status = CheckStatus.PASS
        return check
    fc = _f_commutative(check, r, f)
    if fc is None:
        return check
    check.details["diagonal_lift"] = lift_f_to_diagonal(fc).status.value
    check.details["diagonal_nil_index"] = sv.index
    check.bound = nil_index_bound(sv.index, 2)
    nd = nilpotency_index(r).index
    return _judge_nilpotency(check, nil_bounded_index(matrix_ring(r, 2), candidate=nd),
                             "non_nil_matrix")


def verify_diagonal_power_reduction(r: Ring, n=2) -> TheoremCheck:
    """T3.29-REDUCTION: diagonal powers are componentwise, so the diagonal
    component of the n x n matrix grading is nil exactly when the base ring is.

    That component is R^n as a ring, so the one nil verdict on R, read
    off R's power chain, decides both.
    """
    check = TheoremCheck(
        "T3.29-REDUCTION",
        "diag(b_1..b_n)^s = diag(b_1^s..b_n^s); diagonal component nil iff base nil",
    )
    base_nil = ring_is_nil(r)
    check.details["base_nil"] = base_nil.status.value
    check.details["diagonal_nil"] = base_nil.status.value
    check.observed = base_nil.status.value
    check.status = CheckStatus.PASS
    return check


def verify_homogeneous_power_vanishing(gr: GradedRing) -> TheoremCheck:
    """P3.31: with nonzero neutral part nil of bounded index s, products of
    k_g = min(order(g), d) homogeneous factors of degree g vanish at power s,
    and k = lcm of the k_g bounds all homogeneous nil indices by k*s.

    Proved by degrees: such a product lies in R_{g^i} for i factors, so the
    walk g, g^2, ... reaches a degree outside the support (the product is
    zero) or e at i = k_g (the product is in the nil neutral part)."""
    check = TheoremCheck(
        "P3.31",
        "per-degree products of k_g = min(o(g), d) factors vanish at the "
        "neutral nil index; k = lcm(k_g)",
    )
    report = homogeneous_power_report(gr)
    if not report.applicable:
        return _na(check, report.reason)
    check.bound = {"k": report.k, "kg": {str(g): v for g, v in report.kg.items()}}
    check.details["neutral_nil_index"] = report.s
    check.details["per_degree"] = {
        str(g): dict(v) for g, v in report.per_degree.items()
    }
    check.observed = "PROVED"
    check.status = CheckStatus.PASS
    return check


def verify_quotient_grading_transfer(
    gr: GradedRing, cong: Congruence | None, pair_cap=PAIR_CAP
) -> TheoremCheck:
    """C3.04: rerun the zero-neutral bound, the f-commutative transfer, and
    the nilpotent-neutral bounds on the grading induced by a congruence;
    also check that the coarse neutral part is nilpotent iff the ring is.
    Without a congruence the check is not applicable."""
    check = TheoremCheck("C3.04", "checks transfer to the grading induced by a monoid congruence")
    if cong is None:
        return _na(check, "no congruence supplied")
    try:
        induced = induced_quotient_grading(gr, cong)
    except (CancellativityError, CongruenceError) as exc:
        return _na(check, f"induced grading rejected: {exc}")
    check.details["induced_support_size"] = len(support(induced))
    f, _ = _derive_fmap(induced, pair_cap)
    if f is not None:
        check.details["derived_factor"] = f.label
    sub = {
        "P3.03": verify_empty_neutral_bound(induced),
        "T3.15": verify_neutral_nil_fcomm_bound(induced, f),
        "T3.18": verify_nilpotent_neutral_bounds(induced),
    }
    check.details["sub_checks"] = {k: v.status.value for k, v in sub.items()}
    m0, _ = neutral_ring(induced)
    coarse = nilpotency_index(m0)
    whole = nilpotency_index(gr.ring)
    equiv = coarse.proved == whole.proved
    check.details["coarse_neutral_nilpotent"] = coarse.proved
    check.details["ring_nilpotent"] = whole.proved
    if not equiv:
        return _fail(check, coarse=coarse.witness, whole=whole.witness)
    statuses = {v.status for v in sub.values()}
    if CheckStatus.FAIL in statuses:
        check.status = CheckStatus.FAIL
        check.witnesses = {k: v.witnesses for k, v in sub.items() if v.witnesses}
    elif CheckStatus.PASS in statuses:
        check.status = CheckStatus.PASS
    else:
        return _na(check, "no sub-check applicable to the induced grading")
    return check


# ---------------------------------------------------------------------------
# Aggregate report.


@dataclass
class VerifierReport:
    checks: list
    pair_cap: int
    timings: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_dict(self):
        return {
            "checks": [c.to_dict() for c in self.checks],
            "caps": {"pair_cap": self.pair_cap},
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
            "notes": list(self.notes),
        }

    def to_text(self):
        lines = []
        for c in self.checks:
            bits = [f"{c.id:<16} {c.status.value:<15}"]
            if c.bound is not None:
                bits.append(f"bound={c.bound}")
            if c.observed is not None:
                bits.append(f"observed={c.observed}")
            if c.reason:
                bits.append(f"({c.reason})")
            lines.append(" ".join(bits))
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"caps: {dict(pair_cap=self.pair_cap)}")
        return "\n".join(lines)


def _derive_fmap(gr: GradedRing, pair_cap):
    """The scalar factor search on the neutral component, used when the
    caller supplies no commutation factor.

    Returns (f, why); when no factor is found, ``why`` says whether the
    neutral component is zero, which pair no scalar fits, that no constant
    holds over the rationals, or that the pair search was capped.
    """
    m0, _ = neutral_ring(gr)
    if m0.rank == 0:
        return None, "the neutral component is zero"
    fmap, witness = scalar_f_search(m0, pair_cap=pair_cap)
    if fmap is not None:
        return fmap, None
    if witness is not None:
        a, b = witness
        return None, f"no scalar l has a*b = l*(b*a) for a = {a!r}, b = {b!r}"
    if not m0.coeff.finite:
        return None, (
            "no constant l has a*b = l*(b*a) for all a, b: 1 and -1 fail on "
            "the basis pairs, and no other constant can hold"
        )
    count = m0.element_count()
    return None, (
        f"pair search capped: {count}^2 pairs of the neutral component "
        f"exceed pair_cap {pair_cap}"
    )


def full_report(
    gr: GradedRing,
    f: FMap | None = None,
    pair_cap: int = PAIR_CAP,
    congruence: Congruence | None = None,
    only: str | None = None,
) -> VerifierReport:
    """Run every check on a graded ring, in registry order, or only the
    check with id ``only``.

    The supplied commutation factor pertains to the neutral component; when
    none is given (a spec without ``[fmap]``, or with ``rule = auto``) one is
    derived here by ``scalar_f_search``, under ``pair_cap``.
    Ring-level checks (T3.19, T3.26, T3.29-REDUCTION) run on the neutral
    component ring.
    """
    notes = []
    if f is None:
        f, why = _derive_fmap(gr, pair_cap)
        if f is not None:
            notes.append(f"commutation factor derived automatically: {f.label}")
        else:
            notes.append(f"no commutation factor derived: {why}")
    m0, _ = neutral_ring(gr)
    # The check registry.  Each entry looks its verify_* function up in the
    # module globals when it runs, so a wrapper installed on that name sees
    # every call.
    registry = {
        "C3.04": lambda: verify_quotient_grading_transfer(gr, congruence, pair_cap),
        "C3.28": lambda: verify_product_length_vanishing(gr),
        "P3.03": lambda: verify_empty_neutral_bound(gr),
        "P3.17": lambda: verify_index2_char_bound(gr),
        "P3.31": lambda: verify_homogeneous_power_vanishing(gr),
        "T3.15": lambda: verify_neutral_nil_fcomm_bound(gr, f),
        "T3.18": lambda: verify_nilpotent_neutral_bounds(gr),
        "T3.19": lambda: verify_generated_nil_ring_bound(m0, f),
        "T3.20": lambda: verify_generated_neutral_bound(gr, f),
        "T3.24": lambda: verify_field_bounded_index_bound(gr),
        "T3.26": lambda: verify_matrix_nil_transfer(m0, f),
        "T3.29-REDUCTION": lambda: verify_diagonal_power_reduction(m0, 2),
    }
    if only is not None and only not in registry:
        raise ValueError(f"unknown check id {only!r}")
    checks, timings = [], {}
    for name in registry if only is None else [only]:
        t0 = time.monotonic()
        checks.append(registry[name]())
        timings[name] = time.monotonic() - t0
    return VerifierReport(checks, pair_cap, timings, notes)
