"""Verified nilpotency bounds for graded rings.

Every check in the registry evaluates one explicit bound formula with exact
arbitrary-precision arithmetic, computes the corresponding index on the given
ring, and reports PASS, FAIL, NOT_APPLICABLE, or CAPPED.  Applicability is
always decided by computed predicates (never asserted by the caller), and a
FAIL on an applicable check is a hard inconsistency that carries a full
witness bundle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

from .fcomm import (
    DEFAULT_SAMPLES,
    Action,
    FMap,
    check_f_commutative,
    lift_f_to_diagonal,
    scalar_action,
    scalar_f_search,
)
from .grading import (
    CancellativityError,
    GradedRing,
    induced_quotient_grading,
    neutral_ring,
    support,
)
from .monoid import Congruence, CongruenceError
from .nil import (
    DEFAULT_POWER_CAP,
    DEFAULT_SYMBOLIC_CAP,
    Status,
    bounded_nil_index_auto,
    element_nil_index,
    homogeneous_power_report,
    nilpotency_index,
    ring_is_nil,
)
from .ringcore import Ring, matrix_ring, min_generators


class CheckStatus(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    NOT_APPLICABLE = "NOT_APPLICABLE"
    CAPPED = "CAPPED"


@dataclass
class Caps:
    """Work limits and the sampling seed, recorded in every report."""

    power_cap: int = DEFAULT_POWER_CAP
    pair_cap: int = 10**6
    samples: int = DEFAULT_SAMPLES
    seed: int = 0

    def to_dict(self):
        return {
            "power_cap": self.power_cap,
            "pair_cap": self.pair_cap,
            "samples": self.samples,
            "seed": self.seed,
        }


@dataclass
class TheoremCheck:
    id: str
    anchor: str
    applicable: bool
    reason: str = ""
    bound: object = None
    observed: object = None
    status: CheckStatus = CheckStatus.NOT_APPLICABLE
    witnesses: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

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
            "details": {k: _plain(v) for k, v in self.details.items()},
        }


def _plain(v):
    if isinstance(v, (int, str, bool, float, type(None))):
        return v
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, set):
        return [_plain(x) for x in sorted(v, key=repr)]
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return repr(v)


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
    check.applicable = False
    check.reason = reason
    return check


def _capped(check, reason):
    check.status = CheckStatus.CAPPED
    check.reason = reason
    return check


def _judge_nilpotency(check, ndv, holds):
    """Observe the nilpotency verdict ``ndv``: PASS or FAIL by ``holds(index)``.
    A power chain past the cap is CAPPED, never FAIL; a ring that is not
    nilpotent FAILs with ``nilpotency_index``'s non-nilpotent witness."""
    if ndv.status == Status.CAPPED:
        return _capped(check, ndv.note)
    if not ndv.proved:
        return _fail(check, non_nilpotent=ndv.witness)
    check.observed = ndv.index
    check.status = CheckStatus.PASS if holds(ndv.index) else CheckStatus.FAIL
    return check


def _nil_index(check, r, caps, not_nil, uncertified):
    """The bounded nil index verdict on ``r`` under ``caps``.  Unless it is
    PROVED, ``check`` is finished: NOT_APPLICABLE for reason ``not_nil`` when
    ``r`` is refuted nil and that reason is given, else CAPPED for reason
    ``uncertified``."""
    sv = bounded_nil_index_auto(r, power_cap=caps.power_cap)
    if sv.status == Status.REFUTED and not_nil:
        _na(check, not_nil)
    elif not sv.proved:
        _capped(check, uncertified)
    return sv


_NO_FACTOR = "no commutation factor supplied or derived"


def _f_commutative(check, r, f, act, caps, where=""):
    """The verdict that ``r`` commutes up to ``f``, or None with ``check``
    finished: NOT_APPLICABLE with no factor or at a refuting pair (``where``
    prefixes its reason), CAPPED when the pair check is capped."""
    if f is None or act is None:
        _na(check, _NO_FACTOR)
        return None
    fc = check_f_commutative(
        r, f, act, pair_cap=caps.pair_cap, samples=caps.samples, seed=caps.seed
    )
    if fc.status == Status.REFUTED:
        _na(check, f"{where}not f-commutative at {fc.witness}")
    elif fc.status == Status.CAPPED:
        _capped(check, "f-commutativity check capped")
    else:
        return fc
    return None


def _grading_data(gr: GradedRing):
    supp = support(gr)
    m0, idx = neutral_ring(gr)
    return supp, len(supp), m0, idx


# ---------------------------------------------------------------------------
# Individual checks.


def verify_empty_neutral_bound(gr: GradedRing, caps=Caps()) -> TheoremCheck:
    """P3.03: zero neutral component forces nd <= d + 1."""
    supp, d, m0, _ = _grading_data(gr)
    check = TheoremCheck(
        "P3.03", "neutral component zero: nd <= d+1", True, bound=d + 1
    )
    if m0.rank != 0:
        return _na(check, "neutral component is nonzero")
    ndv = nilpotency_index(gr.ring, cap=caps.power_cap)
    return _judge_nilpotency(check, ndv, lambda nd: nd <= d + 1)


def verify_neutral_nil_fcomm_bound(
    gr: GradedRing, f: FMap | None, act: Action | None, caps=Caps()
) -> TheoremCheck:
    """T3.15: nil f-commutative neutral part makes the whole ring nil.

    With the neutral nil index s known, nd_nil(R) <= 2*s*d*(d + ... + d^(2d)).
    """
    supp, d, m0, _ = _grading_data(gr)
    check = TheoremCheck(
        "T3.15",
        "neutral nil and commuting up to f: ring nil, "
        "nd_nil <= 2*s*d*(d+...+d^(2d))",
        True,
    )
    if m0.rank == 0:
        check.bound = d + 1
        check.details["path"] = "zero neutral component, nd <= d+1 applies"
        ndv = nilpotency_index(gr.ring, cap=caps.power_cap)
        return _judge_nilpotency(check, ndv, lambda nd: nd <= d + 1)
    fc = _f_commutative(check, m0, f, act, caps, "neutral component ")
    if fc is None:
        return check
    check.details["f_commutative"] = fc.status.value
    sv = _nil_index(check, m0, caps, "neutral component is not nil",
                    "neutral nil index could not be certified")
    if not sv.proved:
        return check
    s = sv.index
    check.bound = nil_index_bound(s, d)
    check.details["neutral_nil_index"] = s
    check.details["support_size"] = d
    whole = bounded_nil_index_auto(gr.ring, power_cap=caps.power_cap)
    if whole.status == Status.REFUTED:
        return _fail(check, non_nil=whole.witness)
    if not whole.proved:
        return _capped(check, "nil index of the whole ring could not be certified")
    check.observed = whole.index
    check.status = (
        CheckStatus.PASS if whole.index <= check.bound else CheckStatus.FAIL
    )
    return check


def verify_nilpotent_neutral_bounds(gr: GradedRing, caps=Caps()) -> TheoremCheck:
    """T3.18: nilpotent neutral part of index r gives r <= nd <= d*r (d+1 if r=1)."""
    supp, d, m0, _ = _grading_data(gr)
    check = TheoremCheck(
        "T3.18", "neutral nilpotent of index r: r <= nd <= d*r (r>1), nd <= d+1 (r=1)",
        True,
    )
    rv = nilpotency_index(m0, cap=caps.power_cap)
    if rv.status == Status.CAPPED:
        return _capped(check, rv.note)
    if rv.status != Status.PROVED:
        return _na(check, "neutral component is not nilpotent")
    r = rv.index
    lo, hi = (r, d + 1) if r == 1 else (r, d * r)
    check.bound = [lo, hi]
    check.details["neutral_nilpotency_index"] = r
    ndv = nilpotency_index(gr.ring, cap=caps.power_cap)
    return _judge_nilpotency(check, ndv, lambda nd: lo <= nd <= hi)


def _generator_nil_index(witness, caps):
    """Largest nil index of the generators, 1 for none.  Each is at most the
    nilpotency index, which the caller has proved within the power cap."""
    return max((element_nil_index(g, cap=caps.power_cap).index for g in witness), default=1)


def verify_generated_nil_ring_bound(
    r: Ring, f: FMap | None, act: Action | None, caps=Caps()
) -> TheoremCheck:
    """T3.19: a nil ring commuting up to f with n generators is nilpotent,
    s <= nd <= (s-1)*n + 1 with s the largest generator nil index."""
    check = TheoremCheck(
        "T3.19", "nil, f-commutative, n generators: s <= nd <= (s-1)*n+1", True
    )
    if not _nil_index(check, r, caps, "ring is not nil", "nil certificate unavailable").proved:
        return check
    if r.rank and _f_commutative(check, r, f, act, caps) is None:
        return check
    ndv = nilpotency_index(r, cap=caps.power_cap)
    if not ndv.proved:
        return _judge_nilpotency(check, ndv, None)
    mg = min_generators(r)
    n, s = mg.count, _generator_nil_index(mg.witness, caps)
    check.details["generators"] = n
    check.details["generator_nil_index"] = s
    check.bound = [s, (s - 1) * n + 1]
    check.witnesses["generators"] = mg.witness
    return _judge_nilpotency(check, ndv, lambda nd: s <= nd <= (s - 1) * n + 1)


def verify_generated_neutral_bound(
    gr: GradedRing, f: FMap | None, act: Action | None, caps=Caps()
) -> TheoremCheck:
    """T3.20: nil f-commutative neutral part with n generators:
    s <= nd <= d*((s-1)*n + 1); if the neutral part is zero, nd <= d + 1."""
    supp, d, m0, _ = _grading_data(gr)
    check = TheoremCheck(
        "T3.20",
        "neutral nil, f-commutative, n generators: s <= nd <= d*((s-1)*n+1)",
        True,
    )
    if m0.rank == 0:
        check.bound = [1, d + 1]
        ndv = nilpotency_index(gr.ring, cap=caps.power_cap)
        return _judge_nilpotency(check, ndv, lambda nd: nd <= d + 1)
    if f is None or act is None:  # not applicable, whatever the neutral nil index
        return _na(check, _NO_FACTOR)
    if not _nil_index(check, m0, caps, "neutral component is not nil",
                      "neutral nil certificate unavailable").proved:
        return check
    if _f_commutative(check, m0, f, act, caps, "neutral component ") is None:
        return check
    ndv = nilpotency_index(gr.ring, cap=caps.power_cap)
    if not ndv.proved:
        return _judge_nilpotency(check, ndv, None)
    mg = min_generators(m0)
    n, s = mg.count, _generator_nil_index(mg.witness, caps)
    check.details.update(
        {"generators": n, "generator_nil_index": s, "support_size": d}
    )
    check.bound = [s, d * ((s - 1) * n + 1)]
    return _judge_nilpotency(check, ndv, lambda nd: s <= nd <= check.bound[1])


def verify_index2_char_bound(gr: GradedRing, caps=Caps()) -> TheoremCheck:
    """P3.17: neutral nil index 2 and no 2-torsion force (R_e)^3 = 0, nd <= 3d."""
    supp, d, m0, _ = _grading_data(gr)
    check = TheoremCheck(
        "P3.17", "neutral nil index 2, char != 2: cube of neutral part zero, nd <= 3d",
        True, bound=3 * d,
    )
    dom = gr.ring.coeff
    char = dom.char()
    if char % 2 == 0 and char != 0:
        return _na(check, f"coefficient characteristic {char} has 2-torsion")
    if m0.rank == 0:
        return _na(check, "neutral nil index is 1, not 2")
    sv = _nil_index(check, m0, caps, "neutral component is not nil",
                    "neutral nil index could not be certified")
    if not sv.proved:
        return check
    if sv.index != 2:
        return _na(check, f"neutral nil index is {sv.index}, not 2")
    cube = nilpotency_index(m0, cap=caps.power_cap)
    if cube.status == Status.CAPPED:
        return _capped(check, cube.note)
    check.details["neutral_nilpotency_index"] = (
        cube.index if cube.proved else "not nilpotent"
    )
    if not (cube.proved and cube.index <= 3):
        return _fail(check, neutral_cube_nonzero=cube.witness)
    ndv = nilpotency_index(gr.ring, cap=caps.power_cap)
    return _judge_nilpotency(check, ndv, lambda nd: nd <= 3 * d)


def verify_field_bounded_index_bound(gr: GradedRing, caps=Caps()) -> TheoremCheck:
    """T3.24: over a field of characteristic 0 or p > s, bounded neutral nil
    index s makes the algebra nilpotent with nd <= d*(2^s - 1) for p > s,
    nd <= d*q with q = 2^s - 1 (s <= 4) or s^2 (s >= 5) for p = 0, and
    nd <= d + 1 when s = 1."""
    supp, d, m0, _ = _grading_data(gr)
    check = TheoremCheck(
        "T3.24",
        "field scalars, neutral nil index s: nd <= d*(2^s-1) for char > s; "
        "nd <= d*q, q = 2^s-1 (s<=4) or s^2 (s>=5), for char 0; nd <= d+1 for s=1",
        True,
    )
    dom = gr.ring.coeff
    if not dom.is_field:
        return _na(check, f"coefficients {dom.label()} are not a field")
    p = dom.char()
    if m0.rank == 0:
        s = 1
    else:
        sv = _nil_index(check, m0, caps, "neutral component is not nil of bounded index",
                        "neutral nil index could not be certified")
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
    ndv = nilpotency_index(gr.ring, cap=caps.power_cap)
    return _judge_nilpotency(check, ndv, lambda nd: nd <= check.bound)


def verify_product_length_vanishing(gr: GradedRing, caps=Caps()) -> TheoremCheck:
    """C3.28: field characteristic outside {2, 3} and neutral nil index
    s in {2, 3, 4}: every product of d*(2^s - 1) elements vanishes."""
    supp, d, m0, _ = _grading_data(gr)
    check = TheoremCheck(
        "C3.28", "products of length d*(2^s-1) vanish for s in {2,3,4}, char not 2 or 3",
        True,
    )
    dom = gr.ring.coeff
    if not dom.is_field:
        return _na(check, f"coefficients {dom.label()} are not a field")
    if dom.char() in (2, 3):
        return _na(check, f"characteristic {dom.char()} excluded")
    if m0.rank == 0:
        return _na(check, "neutral nil index is 1, outside {2,3,4}")
    sv = _nil_index(check, m0, caps, "neutral component is not nil",
                    "neutral nil index could not be certified")
    if not sv.proved:
        return check
    s = sv.index
    if s not in (2, 3, 4):
        return _na(check, f"neutral nil index {s} outside {{2,3,4}}")
    length = d * (2**s - 1)
    check.bound = length
    # Nilpotency index <= length is exactly "every product of length
    # `length` vanishes"; the power chain proves it.
    ndv = nilpotency_index(gr.ring, cap=caps.power_cap)
    return _judge_nilpotency(check, ndv, lambda nd: nd <= length)


def verify_matrix_nil_transfer(
    r: Ring, f: FMap | None, act: Action | None, caps=Caps()
) -> TheoremCheck:
    """T3.26: for a nil ring commuting up to f, the 2x2 matrices are nil.

    The diagonal component of the elementary grading is R x R as a ring, so
    the lift of f holds exactly when R commutes up to f, and the diagonal
    nil index is R's: both are read off the verdicts on R.  The matrix
    ring's bounded nil index, from its power chain or the exact symbolic
    expansion, is checked against the bound.
    """
    check = TheoremCheck(
        "T3.26", "2x2 matrices over a nil f-commutative ring are nil", True
    )
    sv = _nil_index(check, r, caps, "ring is not nil", "nil certificate unavailable")
    if not sv.proved:
        return check
    if r.rank == 0:
        check.bound = 1
        check.observed = 1
        check.status = CheckStatus.PASS
        return check
    fc = _f_commutative(check, r, f, act, caps)
    if fc is None:
        return check
    check.details["diagonal_lift"] = lift_f_to_diagonal(fc).status.value
    check.details["diagonal_nil_index"] = sv.index
    check.bound = nil_index_bound(sv.index, 2)
    m2_nil = bounded_nil_index_auto(
        matrix_ring(r, 2), power_cap=caps.power_cap,
        symbolic_cap=max(DEFAULT_SYMBOLIC_CAP, sv.index * 4),
    )
    if m2_nil.status == Status.REFUTED:
        return _fail(check, non_nil_matrix=m2_nil.witness)
    if not m2_nil.proved:
        return _capped(check, "matrix ring nil index not certified")
    check.observed = m2_nil.index
    check.status = (
        CheckStatus.PASS if m2_nil.index <= check.bound else CheckStatus.FAIL
    )
    return check


def verify_diagonal_power_reduction(r: Ring, n=2, caps=Caps()) -> TheoremCheck:
    """T3.29-REDUCTION: diagonal powers are componentwise, so the diagonal
    component of the n x n matrix grading is nil exactly when the base ring is.

    That component is R^n as a ring, so the one nil verdict on R, read
    off R's power chain, decides both.
    """
    check = TheoremCheck(
        "T3.29-REDUCTION",
        "diag(b_1..b_n)^s = diag(b_1^s..b_n^s); diagonal component nil iff base nil",
        True,
    )
    base_nil = ring_is_nil(r, power_cap=caps.power_cap)
    check.details["base_nil"] = base_nil.status.value
    check.details["diagonal_nil"] = base_nil.status.value
    check.observed = base_nil.status.value
    check.status = CheckStatus.PASS
    return check


def verify_homogeneous_power_vanishing(gr: GradedRing, caps=Caps()) -> TheoremCheck:
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
        True,
    )
    report = homogeneous_power_report(gr, caps.power_cap)
    if not report.applicable:
        capped = report.neutral is not None and report.neutral.status == Status.CAPPED
        return (_capped if capped else _na)(check, report.reason)
    check.bound = {"k": report.k, "kg": {str(g): v for g, v in report.kg.items()}}
    check.details["neutral_nil_index"] = report.s
    check.details["per_degree"] = {
        str(g): dict(v) for g, v in report.per_degree.items()
    }
    check.observed = "PROVED"
    check.status = CheckStatus.PASS
    return check


def verify_quotient_grading_transfer(
    gr: GradedRing, cong: Congruence | None, caps=Caps(),
    f: FMap | None = None, act: Action | None = None,
) -> TheoremCheck:
    """C3.04: rerun the zero-neutral bound, the f-commutative transfer, and
    the nilpotent-neutral bounds on the grading induced by a congruence;
    also check that the coarse neutral part is nilpotent iff the ring is.
    Without a congruence the check is not applicable."""
    check = TheoremCheck(
        "C3.04",
        "checks transfer to the grading induced by a monoid congruence",
        True,
    )
    if cong is None:
        return _na(check, "no congruence supplied")
    try:
        induced = induced_quotient_grading(gr, cong)
    except (CancellativityError, CongruenceError) as exc:
        return _na(check, f"induced grading rejected: {exc}")
    check.details["induced_support_size"] = len(support(induced))
    if f is None or act is None:
        f, act, _ = _derive_fmap(induced, caps)
        if f is not None:
            check.details["derived_factor"] = f.label
    sub = {
        "P3.03": verify_empty_neutral_bound(induced, caps),
        "T3.15": verify_neutral_nil_fcomm_bound(induced, f, act, caps),
        "T3.18": verify_nilpotent_neutral_bounds(induced, caps),
    }
    check.details["sub_checks"] = {k: v.status.value for k, v in sub.items()}
    m0, _ = neutral_ring(induced)
    coarse = nilpotency_index(m0, cap=caps.power_cap)
    whole = nilpotency_index(gr.ring, cap=caps.power_cap)
    if Status.CAPPED in (coarse.status, whole.status):
        return _capped(check, f"power chain longer than power_cap {caps.power_cap}")
    equiv = coarse.proved == whole.proved
    check.details["coarse_neutral_nilpotent"] = coarse.proved
    check.details["ring_nilpotent"] = whole.proved
    if not equiv:
        return _fail(check, coarse=coarse.witness, whole=whole.witness)
    statuses = {v.status for v in sub.values()}
    if CheckStatus.FAIL in statuses:
        check.status = CheckStatus.FAIL
        check.witnesses = {k: v.witnesses for k, v in sub.items() if v.witnesses}
    elif CheckStatus.CAPPED in statuses:
        check.status = CheckStatus.CAPPED
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
    caps: Caps
    seed: int
    timings: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_dict(self):
        return {
            "checks": [c.to_dict() for c in self.checks],
            "caps": self.caps.to_dict(),
            "seed": self.seed,
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
        lines.append(f"seed: {self.seed}; caps: {self.caps.to_dict()}")
        return "\n".join(lines)

    def worst(self):
        order = [CheckStatus.FAIL, CheckStatus.CAPPED]
        for status in order:
            if any(c.status == status for c in self.checks):
                return status
        return CheckStatus.PASS


def _derive_fmap(gr: GradedRing, caps):
    """Pointwise scalar search on the neutral component, used when the caller
    supplies no commutation factor.

    Returns (f, act, why); when no factor is found, ``why`` says whether the
    neutral component is zero, the pair search was capped, or which pair no
    scalar fits.
    """
    m0, _ = neutral_ring(gr)
    if m0.rank == 0:
        return None, None, "the neutral component is zero"
    fmap, witness = scalar_f_search(m0, pair_cap=caps.pair_cap, seed=caps.seed)
    if fmap is not None:
        return fmap, scalar_action(m0), None
    if witness is None:
        count = m0.element_count()
        return None, None, (
            f"pair search capped: {count}^2 pairs of the neutral component "
            f"exceed pair_cap {caps.pair_cap}"
        )
    a, b = witness
    return None, None, f"no scalar l has a*b = l*(b*a) for a = {a!r}, b = {b!r}"


def full_report(
    gr: GradedRing,
    f: FMap | None = None,
    act: Action | None = None,
    caps: Caps | None = None,
    congruence: Congruence | None = None,
    only: str | None = None,
) -> VerifierReport:
    """Run every check on a graded ring, in registry order, or only the
    check with id ``only``.

    The supplied commutation factor pertains to the neutral component; when
    none is given a pointwise scalar rule is searched for automatically.
    Ring-level checks (T3.19, T3.26, T3.29-REDUCTION) run on the neutral
    component ring.
    """
    caps = caps or Caps()
    notes = []
    if f is None or act is None:
        f, act, why = _derive_fmap(gr, caps)
        if f is not None:
            notes.append(f"commutation factor derived automatically: {f.label}")
        else:
            notes.append(f"no commutation factor derived: {why}")
    m0, _ = neutral_ring(gr)
    # The check registry.  Each entry looks its verify_* function up in the
    # module globals when it runs, so a wrapper installed on that name sees
    # every call.
    registry = {
        "C3.04": lambda: verify_quotient_grading_transfer(gr, congruence, caps),
        "C3.28": lambda: verify_product_length_vanishing(gr, caps),
        "P3.03": lambda: verify_empty_neutral_bound(gr, caps),
        "P3.17": lambda: verify_index2_char_bound(gr, caps),
        "P3.31": lambda: verify_homogeneous_power_vanishing(gr, caps),
        "T3.15": lambda: verify_neutral_nil_fcomm_bound(gr, f, act, caps),
        "T3.18": lambda: verify_nilpotent_neutral_bounds(gr, caps),
        "T3.19": lambda: verify_generated_nil_ring_bound(m0, f, act, caps),
        "T3.20": lambda: verify_generated_neutral_bound(gr, f, act, caps),
        "T3.24": lambda: verify_field_bounded_index_bound(gr, caps),
        "T3.26": lambda: verify_matrix_nil_transfer(m0, f, act, caps),
        "T3.29-REDUCTION": lambda: verify_diagonal_power_reduction(m0, 2, caps),
    }
    if only is not None and only not in registry:
        raise ValueError(f"unknown check id {only!r}")
    checks, timings = [], {}
    for name in registry if only is None else [only]:
        t0 = time.monotonic()
        checks.append(registry[name]())
        timings[name] = time.monotonic() - t0
    return VerifierReport(checks, caps, caps.seed, timings, notes)
