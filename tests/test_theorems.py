from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings, strategies as st
from rings import cyclic_group_ring, idempotent_ring, zero_product_ring

from gradednil import theorems
from gradednil.fcomm import FMap, scalar_f_search
from gradednil.grading import GradedRing, elementary_grading, neutral_ring, trivial_grading
from gradednil.monoid import Congruence, Monoid
from gradednil.nil import (
    NilVerdict,
    Status,
    bounded_nil_index_auto,
    nil_bounded_index,
    nilpotency_index,
)
from gradednil.ringcore import (
    Element,
    Ring,
    facts,
    fp,
    matrix_ring,
    min_generators,
    power_chain,
    rat,
    zmod,
)
from gradednil.theorems import (
    CheckStatus,
    TheoremCheck,
    _judge_nilpotency,
    full_report,
    geometric_support_sum,
    nil_index_bound,
    verify_diagonal_power_reduction,
    verify_empty_neutral_bound,
    verify_field_bounded_index_bound,
    verify_generated_neutral_bound,
    verify_generated_nil_ring_bound,
    verify_homogeneous_power_vanishing,
    verify_index2_char_bound,
    verify_matrix_nil_transfer,
    verify_neutral_nil_fcomm_bound,
    verify_nilpotent_neutral_bounds,
    verify_product_length_vanishing,
    verify_quotient_grading_transfer,
)
from gradednil.zoo import grassmann_star, sut, truncated_nagata, truncated_poly_positive, two_z_2k

from test_ringcore import CHAIN_DOMAINS, nilpotent_rings


def derived_factor(ring):
    return scalar_f_search(ring)[0]


def test_bound_formulas():
    assert geometric_support_sum(1) == 2
    assert geometric_support_sum(2) == 30
    # 2*s*d^2*(d^(2d)-1)/(d-1) at s=2, d=2: 2*2*4*15 = 240
    assert nil_index_bound(2, 2) == 240
    assert nil_index_bound(3, 2) == 360
    assert nil_index_bound(2, 2) == 2 * 2 * 2**2 * (2**4 - 1) // (2 - 1)
    assert nil_index_bound(2, 3) == 2 * 2 * 3**2 * (3**6 - 1) // (3 - 1)


def test_empty_neutral_sut5_tight():
    chk = verify_empty_neutral_bound(sut(5, fp(2)))
    assert chk.status == CheckStatus.PASS
    assert chk.bound == 5 and chk.observed == 5


def test_empty_neutral_not_applicable_on_trivial_grading():
    chk = verify_empty_neutral_bound(trivial_grading(two_z_2k(3)))
    assert chk.status == CheckStatus.NOT_APPLICABLE


def test_empty_neutral_zero_ring():
    gr = trivial_grading(Ring(fp(2), [], {}))
    chk = verify_empty_neutral_bound(gr)
    assert chk.status == CheckStatus.PASS
    assert chk.observed == 1


def test_nil_fcomm_grassmann_f3():
    gr = grassmann_star(2, fp(3))
    f = derived_factor(neutral_ring(gr))
    chk = verify_neutral_nil_fcomm_bound(gr, f)
    assert chk.status == CheckStatus.PASS
    # neutral part is span{e12} with nil index 2, support size 2: bound 240
    assert chk.bound == nil_index_bound(2, 2) == 240
    assert chk.observed == 2


def test_nil_fcomm_degenerate_support_size_one():
    gr = trivial_grading(two_z_2k(3))
    f = derived_factor(gr.ring)
    chk = verify_neutral_nil_fcomm_bound(gr, f)
    assert chk.status == CheckStatus.PASS
    assert chk.bound == nil_index_bound(3, 1) == 2 * 3 * 1 * 2
    assert chk.observed == 3


def test_nil_fcomm_not_applicable_without_factor():
    gr = trivial_grading(two_z_2k(3))
    chk = verify_neutral_nil_fcomm_bound(gr, None)
    assert chk.status == CheckStatus.NOT_APPLICABLE


def test_nilpotent_neutral_m2_two_z8():
    gr = elementary_grading(two_z_2k(3), 2)
    chk = verify_nilpotent_neutral_bounds(gr)
    assert chk.status == CheckStatus.PASS
    assert chk.bound == [3, 6]
    assert chk.observed == 3
    assert chk.details["neutral_nilpotency_index"] == 3


def test_nilpotent_neutral_r1_path_sut3():
    chk = verify_nilpotent_neutral_bounds(sut(3, fp(2)))
    assert chk.status == CheckStatus.PASS
    assert chk.bound == [1, 3]
    assert chk.observed == 3


def test_nilpotent_neutral_trivial_grading_tight():
    gr = trivial_grading(sut(4, fp(2)).ring)
    chk = verify_nilpotent_neutral_bounds(gr)
    assert chk.status == CheckStatus.PASS
    assert chk.bound == [4, 4]


def test_nilpotent_neutral_not_applicable():
    gr = trivial_grading(idempotent_ring(fp(2)))
    chk = verify_nilpotent_neutral_bounds(gr)
    assert chk.status == CheckStatus.NOT_APPLICABLE


def test_generated_nil_two_z8_tight():
    r = two_z_2k(3)
    f = derived_factor(r)
    chk = verify_generated_nil_ring_bound(r, f)
    assert chk.status == CheckStatus.PASS
    assert chk.details["generators"] == 1
    assert chk.details["generator_nil_index"] == 3
    assert chk.bound == [3, 3] and chk.observed == 3


def test_generated_nil_zero_product_rank2():
    r = zero_product_ring(fp(2), 2)
    f = derived_factor(r)
    chk = verify_generated_nil_ring_bound(r, f)
    assert chk.status == CheckStatus.PASS
    assert chk.bound == [2, 3] and chk.observed == 2


def test_generated_nil_grassmann_tight():
    r = grassmann_star(2, fp(3)).ring
    f = derived_factor(r)
    chk = verify_generated_nil_ring_bound(r, f)
    assert chk.status == CheckStatus.PASS
    assert chk.details["generators"] == 2
    assert chk.details["generator_nil_index"] == 2
    assert chk.bound == [2, 3] and chk.observed == 3


def test_generated_nil_not_applicable_when_not_nil():
    r = idempotent_ring(fp(2))
    chk = verify_generated_nil_ring_bound(r, FMap.constant(1))
    assert chk.status == CheckStatus.NOT_APPLICABLE


def test_generated_neutral_m2_two_z8():
    gr = elementary_grading(two_z_2k(3), 2)
    f = derived_factor(neutral_ring(gr))
    chk = verify_generated_neutral_bound(gr, f)
    assert chk.status == CheckStatus.PASS
    assert chk.details["generators"] == 2
    assert chk.details["generator_nil_index"] == 3
    assert chk.bound == [3, 10]
    assert chk.observed == 3


def test_generated_neutral_zero_component_clause():
    chk = verify_generated_neutral_bound(sut(3, fp(2)), None)
    assert chk.status == CheckStatus.PASS
    assert chk.bound == [1, 3]


def test_index2_char_grassmann_f3_tight():
    gr = trivial_grading(grassmann_star(2, fp(3)).ring)
    chk = verify_index2_char_bound(gr)
    assert chk.status == CheckStatus.PASS
    assert chk.bound == 3 and chk.observed == 3
    assert chk.details["neutral_nilpotency_index"] == 3


def test_index2_char_rejects_char2():
    gr = trivial_grading(grassmann_star(2, fp(2)).ring)
    chk = verify_index2_char_bound(gr)
    assert chk.status == CheckStatus.NOT_APPLICABLE


def test_index2_char_rejects_other_indices():
    gr = trivial_grading(two_z_2k(3))  # nil index 3
    chk = verify_index2_char_bound(gr)
    assert chk.status == CheckStatus.NOT_APPLICABLE


def test_field_bounded_index_grassmann_q():
    gr = grassmann_star(2, rat())
    chk = verify_field_bounded_index_bound(gr)
    assert chk.status == CheckStatus.PASS
    assert chk.details["neutral_nil_index"] == 2
    assert chk.details["char"] == 0
    assert chk.bound == 6 and chk.observed == 3


def test_field_bounded_index_char_p_case():
    gr = grassmann_star(2, fp(5))
    chk = verify_field_bounded_index_bound(gr)
    assert chk.status == CheckStatus.PASS
    assert chk.bound == 6  # d * (2^s - 1) with d=2, s=2


def test_field_bounded_index_small_char_rejected():
    gr = grassmann_star(2, fp(2))  # p = 2 = s
    chk = verify_field_bounded_index_bound(gr)
    assert chk.status == CheckStatus.NOT_APPLICABLE


def test_field_bounded_index_s1_clause():
    chk = verify_field_bounded_index_bound(sut(4, fp(2)))
    assert chk.status == CheckStatus.PASS
    assert chk.bound == 4  # d + 1 with d = 3
    assert chk.observed == 4


def test_field_bounded_index_needs_field():
    gr = trivial_grading(two_z_2k(3))
    chk = verify_field_bounded_index_bound(gr)
    assert chk.status == CheckStatus.NOT_APPLICABLE


def test_product_length_grassmann_f5():
    gr = grassmann_star(2, fp(5))
    chk = verify_product_length_vanishing(gr)
    assert chk.status == CheckStatus.PASS
    assert chk.bound == 6  # d(2^s - 1) = 2 * 3


def test_product_length_excludes_char3():
    gr = grassmann_star(2, fp(3))
    chk = verify_product_length_vanishing(gr)
    assert chk.status == CheckStatus.NOT_APPLICABLE


def test_product_length_needs_a_neutral_nil_index_in_2_to_4():
    # x, ..., x^4 over Q, trivially graded: the neutral nil index is 5
    chk = verify_product_length_vanishing(trivial_grading(truncated_poly_positive(5, rat()).ring))
    assert chk.status == CheckStatus.NOT_APPLICABLE
    assert chk.reason == "neutral nil index 5 outside {2,3,4}"


def test_matrix_transfer_two_z8():
    r = two_z_2k(3)
    f = derived_factor(r)
    chk = verify_matrix_nil_transfer(r, f)
    assert chk.status == CheckStatus.PASS
    assert chk.details["diagonal_nil_index"] == 3
    assert chk.bound == nil_index_bound(3, 2) == 360
    assert chk.observed <= 360


def test_matrix_transfer_rank1_zero_ring():
    r = zero_product_ring(fp(3), 1)
    f = derived_factor(r)
    chk = verify_matrix_nil_transfer(r, f)
    assert chk.status == CheckStatus.PASS


def test_matrix_transfer_not_applicable_non_nil():
    r = idempotent_ring(fp(2))
    chk = verify_matrix_nil_transfer(r, FMap.constant(1))
    assert chk.status == CheckStatus.NOT_APPLICABLE


MATRIX_TRANSFER_RINGS = {
    "2Z_8": lambda: two_z_2k(3),
    "nagata23": lambda: truncated_nagata(2, 3),
    "grassmann2-f3": lambda: grassmann_star(2, fp(3)).ring,
    "grassmann3-f5": lambda: grassmann_star(3, fp(5)).ring,
    "grassmann2-q": lambda: grassmann_star(2, rat()).ring,
    "sut4-z6": lambda: sut(4, zmod(6)).ring,
    "tpoly5-q": lambda: truncated_poly_positive(5, rat()).ring,
    "M2-2Z_8": lambda: matrix_ring(two_z_2k(3), 2),
}


def assert_matrix_transfer_matches_reference(r):
    # M_2(R)^k = M_2(R^k), so T3.26 takes R's nilpotency index as the
    # candidate for the matrices' expansion; their own chain is the reference
    assert len(power_chain(matrix_ring(r, 2))) == len(power_chain(r))
    nd = nilpotency_index(r)
    if not nd.proved:
        return None
    ref = bounded_nil_index_auto(matrix_ring(r, 2))
    assert nil_bounded_index(matrix_ring(r, 2), candidate=nd.index) == ref
    chk = verify_matrix_nil_transfer(r, derived_factor(r))
    if chk.bound is not None and r.rank:
        assert chk.observed == ref.index
        assert chk.status == (CheckStatus.PASS if ref.index <= chk.bound else CheckStatus.FAIL)
    return chk


@pytest.mark.parametrize("make", MATRIX_TRANSFER_RINGS.values(), ids=MATRIX_TRANSFER_RINGS)
def test_matrix_transfer_matches_matrix_chain_reference(make):
    r = make()
    chk = assert_matrix_transfer_matches_reference(r)
    # the rings with a constant factor reach the matrices' expansion
    assert chk.status == (CheckStatus.PASS if derived_factor(r) else CheckStatus.NOT_APPLICABLE)


@given(nilpotent_rings(CHAIN_DOMAINS, st.booleans()))
@settings(max_examples=40, deadline=None)
def test_matrix_transfer_matches_matrix_chain_reference_on_random_rings(r):
    assert_matrix_transfer_matches_reference(r)


def test_matrix_nil_verdict_predicate_sizes_2_and_3():
    r = two_z_2k(3)
    for n in (2, 3):
        v = bounded_nil_index_auto(matrix_ring(r, n))
        assert v.proved


def test_diagonal_reduction_two_z8():
    chk = verify_diagonal_power_reduction(two_z_2k(3))
    assert chk.status == CheckStatus.PASS
    assert chk.details["base_nil"] == "PROVED"
    assert chk.details["diagonal_nil"] == "PROVED"


def test_diagonal_reduction_zero_ring():
    chk = verify_diagonal_power_reduction(zero_product_ring(fp(2), 1))
    assert chk.status == CheckStatus.PASS


def test_diagonal_reduction_non_nil_agrees():
    chk = verify_diagonal_power_reduction(idempotent_ring(fp(2)))
    assert chk.status == CheckStatus.PASS
    assert chk.details["base_nil"] == "REFUTED"
    assert chk.details["diagonal_nil"] == "REFUTED"


def test_homogeneous_power_m2_two_z8():
    gr = elementary_grading(two_z_2k(3), 2)
    chk = verify_homogeneous_power_vanishing(gr)
    assert chk.status == CheckStatus.PASS
    assert chk.bound["kg"] == {"0": 1, "1": 2}
    assert chk.bound["k"] == 2


def test_homogeneous_power_not_applicable_zero_neutral():
    chk = verify_homogeneous_power_vanishing(sut(4, fp(2)))
    assert chk.status == CheckStatus.NOT_APPLICABLE


def test_quotient_transfer_zero_neutral_class():
    # Z_4-graded ring supported on {1, 3}; classes {0,2} vs {1,3}: the
    # neutral class misses the support, so the induced grading has a zero
    # neutral part and the d+1 bound applies.
    sc = {(0, 1): {1: 0}}  # no products: a square-zero pair in degrees 1, 3
    ring = Ring(fp(2), ["a", "c"], {})
    gr = GradedRing(ring, Monoid.cyclic(4), [1, 3])
    cong = Congruence(gr.monoid, [[0, 2], [1, 3]])
    chk = verify_quotient_grading_transfer(gr, cong)
    assert chk.status == CheckStatus.PASS
    assert chk.details["sub_checks"]["P3.03"] == "PASS"
    assert chk.details["induced_support_size"] == 1


def test_quotient_transfer_all_in_one_class():
    gr = cyclic_group_ring(fp(2), 4)
    cong = Congruence(gr.monoid, [[0, 1, 2, 3]])
    chk = verify_quotient_grading_transfer(gr, cong)
    # the ring has an identity element, so nothing nil applies, but the
    # nilpotent-iff equivalence must hold and nothing may FAIL
    assert chk.status in (CheckStatus.NOT_APPLICABLE, CheckStatus.PASS)
    assert chk.details["coarse_neutral_nilpotent"] == chk.details["ring_nilpotent"]


def test_quotient_transfer_non_cancellative_quotient_not_applicable():
    # a finite left-cancellative monoid is a group, so no spec reaches this:
    # the grading is built unchecked over a monoid whose 1 absorbs
    m = Monoid.from_table([[0, 1], [1, 1]])
    ring = Ring(fp(2), ["a", "b"], {(0, 0): {0: 1}, (1, 1): {1: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}})
    gr = GradedRing(ring, m, [0, 1], check=False)
    chk = verify_quotient_grading_transfer(gr, Congruence(m, [[0], [1]]))
    assert chk.status == CheckStatus.NOT_APPLICABLE
    assert chk.reason == "induced grading rejected: quotient monoid is not left cancellative"


def test_quotient_transfer_lets_other_errors_propagate(monkeypatch):
    # only a rejected grading is NOT_APPLICABLE; any other error is a bug
    def broken(gr, c):
        raise RuntimeError("bug in the induced grading")

    monkeypatch.setattr(theorems, "induced_quotient_grading", broken)
    gr = cyclic_group_ring(fp(2), 4)
    with pytest.raises(RuntimeError, match="bug in the induced grading"):
        verify_quotient_grading_transfer(gr, Congruence(gr.monoid, [[0, 2], [1, 3]]))


def test_quotient_transfer_identity_congruence():
    gr = cyclic_group_ring(fp(2), 4)
    cong = Congruence(gr.monoid, [[0], [1], [2], [3]])
    chk = verify_quotient_grading_transfer(gr, cong)
    assert chk.details["induced_support_size"] == 4


def test_full_report_sut5():
    rep = full_report(sut(5, fp(2)))
    by_id = {c.id: c for c in rep.checks}
    assert by_id["P3.03"].status == CheckStatus.PASS
    assert by_id["P3.31"].status == CheckStatus.NOT_APPLICABLE
    assert by_id["T3.18"].status == CheckStatus.PASS
    assert not {c.status for c in rep.checks} & {CheckStatus.FAIL, CheckStatus.CAPPED}
    assert [c.id for c in rep.checks] == sorted(c.id for c in rep.checks)
    assert rep.notes == ["no commutation factor derived: the neutral component is zero"]


def test_full_report_names_the_pair_no_scalar_fits():
    # E12*E23 = E13 while E23*E12 = 0, so no l gives E12*E23 = l*(E23*E12)
    rep = full_report(trivial_grading(sut(3, fp(2)).ring))
    assert rep.notes == [
        "no commutation factor derived: no scalar l has a*b = l*(b*a) "
        "for a = E12, b = E23"
    ]


def test_full_report_m2_two_z8():
    rep = full_report(elementary_grading(two_z_2k(3), 2))
    by_id = {c.id: c for c in rep.checks}
    for cid in ("T3.18", "T3.20", "T3.26", "P3.31", "T3.15", "T3.19"):
        assert by_id[cid].status == CheckStatus.PASS, cid
    assert by_id["T3.24"].status == CheckStatus.NOT_APPLICABLE
    assert not {c.status for c in rep.checks} & {CheckStatus.FAIL, CheckStatus.CAPPED}


def test_full_report_zero_ring():
    rep = full_report(trivial_grading(Ring(fp(2), [], {})))
    assert not {c.status for c in rep.checks} & {CheckStatus.FAIL, CheckStatus.CAPPED}
    by_id = {c.id: c for c in rep.checks}
    assert by_id["P3.03"].observed == 1


def test_an_equal_factor_reuses_the_kept_verdict():
    # every report derives a new FMap, and a caller may build an equal one;
    # the f-commutativity verdict is kept under the factor's value, so
    # repeated reports on one ring add no entry to its facts
    gr = grassmann_star(2, zmod(4))
    m0 = neutral_ring(gr)
    full_report(gr)
    size = len(facts(m0))
    full_report(gr)
    assert len(facts(m0)) == size
    coords = [e.coords for e in m0.elements()]
    for _ in range(2):
        rule = FMap.from_rule({(a, b): 1 for a in coords for b in coords}, m0)
        rep = full_report(gr, f=rule)
        assert {c.id: c for c in rep.checks}["T3.15"].status == CheckStatus.PASS
    assert len(facts(m0)) == size + 1
    # every fact is kept by ``kept``, under (function, *arguments)
    assert all(isinstance(key, tuple) and callable(key[0]) for key in facts(m0))


def test_t319_and_t320_power_each_generator_once(monkeypatch):
    # both read the largest generator nil index of R_e, kept on R_e: M_2(2Z_8)
    # has R_e = 2Z_8 x 2Z_8, with two generators
    calls = []
    power = theorems.element_nil_index
    monkeypatch.setattr(theorems, "element_nil_index", lambda a: calls.append(a) or power(a))
    gr = elementary_grading(two_z_2k(3), 2)
    checks = {c.id: c for c in full_report(gr).checks}
    assert checks["T3.19"].status == checks["T3.20"].status == CheckStatus.PASS
    assert len(calls) == len(set(calls)) == len(min_generators(neutral_ring(gr))) == 2


def test_full_report_serializes():
    rep = full_report(trivial_grading(two_z_2k(3)))
    d = rep.to_dict()
    assert set(d) == {"checks", "caps", "timings", "notes"}
    # the power chain always ends and nothing is sampled, so the pair cap
    # of the factor search is the one cap recorded, and there is no seed
    assert d["caps"] == {"pair_cap": 10**6}
    for chk in d["checks"]:
        assert {"id", "anchor", "status", "bound", "observed"} <= set(chk)
    text = rep.to_text()
    assert "T3.19" in text and "caps: {'pair_cap': 1000000}" in text
    assert "seed" not in text


def test_no_applicable_check_fails_across_examples():
    # an applicable FAIL would contradict a proved statement
    gradeds = [
        sut(3, fp(2)),
        sut(6, fp(2)),
        grassmann_star(2, fp(3)),
        grassmann_star(2, fp(5)),
        grassmann_star(2, rat()),
        elementary_grading(two_z_2k(3), 2),
        trivial_grading(two_z_2k(4)),
        trivial_grading(idempotent_ring(fp(3))),
    ]
    for gr in gradeds:
        rep = full_report(gr)
        for chk in rep.checks:
            assert chk.status != CheckStatus.FAIL, (gr, chk.id, chk.witnesses)


# ---------------------------------------------------------------------------
# Every check is judged by the bound it prints: a kept verdict seeded at the
# bound PASSes, one past it (or one below an interval's lo) FAILs, and an
# unproved verdict FAILs with its witness under the check's witness key.


def _nilpotency(ring_of):
    """Seeds the kept nilpotency index of the ring ``ring_of(obj)``.  An
    index past the ring's own comes with a kept power chain of that length,
    its last nonzero entry repeated, since past the bound the judge reads
    its witness off the chain."""
    def seed(obj, verdict, monkeypatch):
        r = ring_of(obj)
        chain = power_chain(r)
        if verdict.proved and verdict.index > len(chain):
            pad = chain[-2:-1] * (verdict.index - len(chain))
            facts(r)[(power_chain.__wrapped__,)] = chain[:-1] + pad + chain[-1:]
        facts(r)[(nilpotency_index.__wrapped__,)] = verdict
    return seed


def _expansion(verdict, monkeypatch):
    """Replaces ``nil_bounded_index``, which the judge asks past the bound
    for an x with x^hi != 0, by the expansion of a ring whose bounded nil
    index is the seeded one: below that index, a basis vector is such an x."""
    def expand(ring, candidate):
        if verdict.proved and candidate < verdict.index:
            return NilVerdict(Status.REFUTED, witness=ring.basis_element(0))
        return verdict
    monkeypatch.setattr(theorems, "nil_bounded_index", expand)


def _bounded_nil(gr, verdict, monkeypatch):
    facts(gr.ring)[(bounded_nil_index_auto.__wrapped__,)] = verdict
    _expansion(verdict, monkeypatch)


def _matrix_expansion(r, verdict, monkeypatch):
    # T3.26 builds M_2(R) afresh on every call and expands it up to R's
    # nilpotency index, so the expansion is replaced, and a proved index
    # is R's too: M_2(R) has R's nilpotency index
    if verdict.proved:
        facts(r)[(nilpotency_index.__wrapped__,)] = verdict
    _expansion(verdict, monkeypatch)


def _whole(gr):
    return gr.ring


def _itself(r):
    return r


class Boundary(NamedTuple):
    id: str
    make: Callable  # a fresh graded ring, or ring, for the check
    run: Callable  # the check on it
    bound: object  # the bound it prints
    seed: Callable  # (obj, verdict, monkeypatch): seeds the verdict it judges
    witness: str  # the key of an unproved verdict's witness


BOUNDARY = {
    "P3.03 sut(5,F_2)": Boundary(
        "P3.03", lambda: sut(5, fp(2)), verify_empty_neutral_bound, 5,
        _nilpotency(_whole), "non_nilpotent"),
    "T3.15 grassmann(2,F_3)": Boundary(
        "T3.15", lambda: grassmann_star(2, fp(3)),
        lambda gr: verify_neutral_nil_fcomm_bound(gr, derived_factor(neutral_ring(gr))), 240,
        _bounded_nil, "non_nil"),
    "T3.15 zero neutral sut(4,F_2)": Boundary(
        "T3.15", lambda: sut(4, fp(2)), lambda gr: verify_neutral_nil_fcomm_bound(gr, None), 4,
        _nilpotency(_whole), "non_nilpotent"),
    "T3.18 M_2(2Z_8)": Boundary(
        "T3.18", lambda: elementary_grading(two_z_2k(3), 2), verify_nilpotent_neutral_bounds,
        [3, 6], _nilpotency(_whole), "non_nilpotent"),
    "T3.19 grassmann(2,F_3) ring": Boundary(
        "T3.19", lambda: grassmann_star(2, fp(3)).ring,
        lambda r: verify_generated_nil_ring_bound(r, derived_factor(r)), [2, 3],
        _nilpotency(_itself), "non_nilpotent"),
    "T3.20 M_2(2Z_8)": Boundary(
        "T3.20", lambda: elementary_grading(two_z_2k(3), 2),
        lambda gr: verify_generated_neutral_bound(gr, derived_factor(neutral_ring(gr))), [3, 10],
        _nilpotency(_whole), "non_nilpotent"),
    "T3.20 zero neutral sut(4,F_2)": Boundary(
        "T3.20", lambda: sut(4, fp(2)), lambda gr: verify_generated_neutral_bound(gr, None),
        [1, 4], _nilpotency(_whole), "non_nilpotent"),
    "P3.17 grassmann(2,F_3)": Boundary(
        "P3.17", lambda: grassmann_star(2, fp(3)), verify_index2_char_bound, 6,
        _nilpotency(_whole), "non_nilpotent"),
    "T3.24 char 0 grassmann(2,Q)": Boundary(
        "T3.24", lambda: grassmann_star(2, rat()), verify_field_bounded_index_bound, 6,
        _nilpotency(_whole), "non_nilpotent"),
    "T3.24 char p > s grassmann(2,F_5)": Boundary(
        "T3.24", lambda: grassmann_star(2, fp(5)), verify_field_bounded_index_bound, 6,
        _nilpotency(_whole), "non_nilpotent"),
    "T3.24 s = 1 sut(4,F_2)": Boundary(
        "T3.24", lambda: sut(4, fp(2)), verify_field_bounded_index_bound, 4,
        _nilpotency(_whole), "non_nilpotent"),
    "C3.28 grassmann(2,F_5)": Boundary(
        "C3.28", lambda: grassmann_star(2, fp(5)), verify_product_length_vanishing, 6,
        _nilpotency(_whole), "non_nilpotent"),
    "T3.26 2Z_8": Boundary(
        "T3.26", lambda: two_z_2k(3), lambda r: verify_matrix_nil_transfer(r, derived_factor(r)),
        360, _matrix_expansion, "non_nil_matrix"),
}

# Both set PASS without comparing two independently computed values, so no
# kept verdict makes them FAIL (ROADMAP direction 16).  C3.04 has no bound of
# its own: it is judged by its sub-checks, tested below.
CANNOT_FAIL = {
    "T3.29-REDUCTION": "direction 16: reads one nil verdict for both sides",
    "P3.31": "direction 16: proved by degrees, no index is compared",
}


def _boundary_seeds():
    """(case, seeded index, expected status): at hi and one past it, and at
    lo and one below it for an interval with lo > 1."""
    for name, case in BOUNDARY.items():
        lo, hi = case.bound if isinstance(case.bound, list) else (1, case.bound)
        seeds = [(hi, CheckStatus.PASS), (hi + 1, CheckStatus.FAIL)]
        if lo > 1:
            seeds += [(lo, CheckStatus.PASS), (lo - 1, CheckStatus.FAIL)]
        for index, status in seeds:
            yield pytest.param(case, index, status, id=f"{name} at {index}")


def test_the_boundary_cases_cover_the_registry():
    registry = {c.id for c in full_report(sut(3, fp(2))).checks}
    judged = {case.id for case in BOUNDARY.values()}
    assert judged | set(CANNOT_FAIL) | {"C3.04"} == registry
    assert not judged & set(CANNOT_FAIL)


@pytest.mark.parametrize("case, index, status", _boundary_seeds())
def test_every_bound_check_judges_the_bound_it_prints(case, index, status, monkeypatch):
    obj = case.make()
    chk = case.run(obj)  # keeps every other verdict the check reads
    assert (chk.id, chk.status, chk.bound) == (case.id, CheckStatus.PASS, case.bound)
    verdict = NilVerdict(Status.PROVED, index=index)
    case.seed(obj, verdict, monkeypatch)
    chk = case.run(obj)
    assert (chk.status, chk.bound, chk.observed) == (status, case.bound, index)
    # a FAIL names its witness: below lo the verdict, past hi an element
    # that the seeded ring's chain or expansion gives
    witness = chk.witnesses.get(case.witness)
    lo = case.bound[0] if isinstance(case.bound, list) else 1
    if status == CheckStatus.PASS:
        assert witness is None
    elif index < lo:
        assert witness == verdict
    else:
        assert isinstance(witness, Element) and not witness.is_zero()


@pytest.mark.parametrize("case", BOUNDARY.values(), ids=BOUNDARY)
def test_every_bound_check_fails_an_unproved_verdict_under_its_witness_key(case, monkeypatch):
    obj = case.make()
    case.run(obj)
    witness = object()
    case.seed(obj, NilVerdict(Status.REFUTED, witness=witness), monkeypatch)
    chk = case.run(obj)
    assert chk.status == CheckStatus.FAIL and chk.applicable
    assert chk.witnesses[case.witness] is witness


@pytest.mark.parametrize("index, status", [(2, CheckStatus.PASS), (3, CheckStatus.FAIL)])
def test_quotient_transfer_is_judged_by_its_sub_checks(index, status):
    # the zero-neutral class of test_quotient_transfer_zero_neutral_class:
    # the induced grading has support size 1, so P3.03 and T3.15 print the
    # bound 2 and T3.18 prints [1, 2], all judged on the ring's own index
    ring = Ring(fp(2), ["a", "c"], {})
    gr = GradedRing(ring, Monoid.cyclic(4), [1, 3])
    cong = Congruence(gr.monoid, [[0, 2], [1, 3]])
    assert verify_quotient_grading_transfer(gr, cong).status == CheckStatus.PASS
    _nilpotency(_itself)(ring, NilVerdict(Status.PROVED, index=index), None)
    chk = verify_quotient_grading_transfer(gr, cong)
    assert chk.status == status
    assert chk.details["sub_checks"] == dict.fromkeys(("P3.03", "T3.15", "T3.18"), status.value)
    # a FAIL carries each sub-check's witness: a, the first row of the
    # seeded chain's entry 1, is nonzero in the seeded R^2
    if status == CheckStatus.FAIL:
        sub = {"non_nilpotent": ring.basis_element(0)}
        assert chk.witnesses == dict.fromkeys(("P3.03", "T3.15", "T3.18"), sub)
    else:
        assert chk.witnesses == {}


def test_judge_names_a_nonzero_element_of_r_hi_past_a_nilpotency_bound():
    # sut(5, F_2) has nilpotency index 5; with the bound 4 the FAIL names a
    # nonzero element of R^4 = span{E15} (E12 E23 E34 E45 = E15)
    r = sut(5, fp(2)).ring
    chk = _judge_nilpotency(TheoremCheck("X", "", bound=4), r, nilpotency_index(r))
    assert (chk.status, chk.observed) == (CheckStatus.FAIL, 5)
    w = chk.witnesses["non_nilpotent"]
    e = {name: r.basis_element(t) for t, name in enumerate(r.names)}
    assert w == e["E12"] * e["E23"] * e["E34"] * e["E45"] == e["E15"]


@pytest.mark.parametrize("ring, index", [
    (grassmann_star(2, fp(3)).ring, 2),
    (truncated_poly_positive(4, fp(5)).ring, 4),
], ids=["grassmann2-f3", "poly4-f5"])
def test_judge_names_an_x_with_a_nonzero_power_past_a_nil_bound(ring, index):
    # one below the bounded nil index, the FAIL names an x with x^hi != 0
    verdict = bounded_nil_index_auto(ring)
    assert verdict.index == index
    hi = index - 1
    chk = _judge_nilpotency(TheoremCheck("X", "", bound=hi), ring, verdict, "non_nil")
    assert chk.status == CheckStatus.FAIL
    x = chk.witnesses["non_nil"]
    power = x
    for _ in range(hi - 1):
        power = power * x
    assert not power.is_zero()


def test_judge_refuses_a_witness_key_it_does_not_know():
    # the key says which index is judged, so an unknown one is an error,
    # even on a PASS, and never falls back to another kind of witness
    r = sut(3, fp(2)).ring
    with pytest.raises(KeyError, match="non_nilpotnet"):
        _judge_nilpotency(TheoremCheck("X", "", bound=3), r, nilpotency_index(r),
                          "non_nilpotnet")


@pytest.mark.parametrize("index", [3, 4])
def test_index2_char_cube_fail_names_a_nonzero_cube(index):
    # x, x^2, x^3 over F_5, trivially graded, with the bounded nil index of
    # R_e = R seeded to 2: a neutral nilpotency index of 3 passes the cube
    # test and its bound 3d = 3; at 4, R_e^3 = span{x^3} is nonzero and the
    # FAIL names x^3
    r = truncated_poly_positive(4, fp(5)).ring
    facts(r)[(bounded_nil_index_auto.__wrapped__,)] = NilVerdict(Status.PROVED, index=2)
    facts(r)[(nilpotency_index.__wrapped__,)] = NilVerdict(Status.PROVED, index=index)
    chk = verify_index2_char_bound(trivial_grading(r))
    assert chk.details["neutral_nilpotency_index"] == index
    if index == 3:
        assert (chk.status, chk.observed, chk.witnesses) == (CheckStatus.PASS, 3, {})
    else:
        assert chk.status == CheckStatus.FAIL
        assert chk.witnesses == {"neutral_cube_nonzero": r.element((0, 0, 1))}
        assert chk.to_dict()["witnesses"] == {"neutral_cube_nonzero": "x^3"}


def test_applicable_is_read_off_the_status():
    rep = full_report(grassmann_star(2, fp(3)))
    for chk in rep.checks:
        assert chk.applicable == (chk.status != CheckStatus.NOT_APPLICABLE)
        assert chk.to_dict()["applicable"] == chk.applicable
