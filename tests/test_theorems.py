import pytest
from hypothesis import given, settings, strategies as st
from rings import cyclic_group_ring, idempotent_ring, zero_product_ring

from gradednil import theorems
from gradednil.fcomm import FMap, scalar_f_search
from gradednil.grading import GradedRing, elementary_grading, neutral_ring, trivial_grading
from gradednil.monoid import Congruence, Monoid
from gradednil.nil import bounded_nil_index_auto, nil_bounded_index, nilpotency_index
from gradednil.ringcore import Ring, facts, fp, matrix_ring, min_generators, power_chain, rat, zmod
from gradednil.theorems import (
    CheckStatus,
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
    f = derived_factor(gr_neutral(gr))
    chk = verify_neutral_nil_fcomm_bound(gr, f)
    assert chk.status == CheckStatus.PASS
    # neutral part is span{e12} with nil index 2, support size 2: bound 240
    assert chk.bound == nil_index_bound(2, 2) == 240
    assert chk.observed == 2


def gr_neutral(gr):
    from gradednil.grading import neutral_ring

    m0, _ = neutral_ring(gr)
    return m0


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
    f = derived_factor(gr_neutral(gr))
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
    chk = verify_diagonal_power_reduction(two_z_2k(3), 2)
    assert chk.status == CheckStatus.PASS
    assert chk.details["base_nil"] == "PROVED"
    assert chk.details["diagonal_nil"] == "PROVED"


def test_diagonal_reduction_zero_ring():
    chk = verify_diagonal_power_reduction(zero_product_ring(fp(2), 1), 2)
    assert chk.status == CheckStatus.PASS


def test_diagonal_reduction_non_nil_agrees():
    chk = verify_diagonal_power_reduction(idempotent_ring(fp(2)), 2)
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
    m0, _ = neutral_ring(gr)
    full_report(gr)
    size = len(facts(m0))
    full_report(gr)
    assert len(facts(m0)) == size
    coords = [e.coords for e in m0.elements()]
    for _ in range(2):
        rule = FMap.from_rule({(a, b): 1 for a in coords for b in coords})
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
    assert len(calls) == len(set(calls)) == len(min_generators(neutral_ring(gr)[0])) == 2


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
