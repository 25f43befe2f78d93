import pytest

from gradednil.grading import elementary_grading, trivial_grading
from gradednil.nil import (
    Status,
    bounded_nil_index_auto,
    element_nil_index,
    homogeneous_power_report,
    nil_bounded_index,
    nilpotency_index,
    ring_is_nil,
    s_nil_check,
    symbolic_power,
)
from gradednil.ringcore import Ring, fp, matrix_ring, rat, zmod
from gradednil.zoo import grassmann_star, sut, truncated_nagata, two_z_2k


def idempotent_ring(dom):
    return Ring(dom, ["b"], {(0, 0): {0: 1}})


def zero_product_ring(dom, rank):
    return Ring(dom, [f"b{t}" for t in range(rank)], {})


def test_element_nil_index_two_in_z8():
    r = two_z_2k(3)
    v = element_nil_index(r.basis_element(0))
    assert v.proved and v.index == 3


def test_element_nil_index_idempotent_refuted():
    r = idempotent_ring(fp(5))
    v = element_nil_index(r.basis_element(0))
    assert v.status == Status.REFUTED
    assert v.witness == r.basis_element(0)


def test_element_nil_index_grassmann_mixed():
    r = grassmann_star(2, fp(3)).ring
    x_plus_xy = r.element([1, 0, 1])  # e1 + e12
    v = element_nil_index(x_plus_xy)
    assert v.proved and v.index == 2


def test_ring_is_nil_sut3():
    v = ring_is_nil(sut(3, fp(2)).ring)
    assert v.proved


def test_ring_is_nil_idempotent_witness():
    v = ring_is_nil(idempotent_ring(fp(2)))
    assert v.status == Status.REFUTED
    assert not v.witness.is_zero()
    assert element_nil_index(v.witness).status == Status.REFUTED


def test_ring_is_nil_m2_two_z8_exhaustive():
    m2 = matrix_ring(two_z_2k(3), 2)
    assert m2.element_count() == 256
    v = ring_is_nil(m2)
    assert v.proved


def test_ring_is_nil_rationals_sampled():
    v = ring_is_nil(grassmann_star(2, rat()).ring)
    assert v.status == Status.SAMPLED_OK


def test_bounded_index_enum_two_z8():
    v = nil_bounded_index(two_z_2k(3), "enum")
    assert v.proved and v.index == 3


def test_bounded_index_enum_two_z16():
    v = nil_bounded_index(two_z_2k(4), "enum")
    assert v.proved and v.index == 4


def test_bounded_index_symbolic_grassmann_q():
    v = nil_bounded_index(grassmann_star(2, rat()).ring, "symbolic", candidate=4)
    assert v.proved and v.index == 2


def test_bounded_index_zero_conventions():
    assert nil_bounded_index(Ring(fp(2), [], {}), "enum").index == 1
    assert nil_bounded_index(zero_product_ring(fp(3), 2), "enum").index == 2


def test_bounded_index_symbolic_refuted_over_q():
    v = nil_bounded_index(idempotent_ring(rat()), "symbolic", candidate=3)
    assert v.status == Status.REFUTED
    assert "monomial" in v.note


def test_bounded_index_symbolic_capped_on_finite():
    v = nil_bounded_index(idempotent_ring(fp(2)), "symbolic", candidate=3)
    assert v.status == Status.CAPPED


def test_enum_and_symbolic_agree_on_finite_domains():
    for ring in (two_z_2k(3), grassmann_star(2, fp(3)).ring,
                 truncated_nagata(2, 2)):
        enum = nil_bounded_index(ring, "enum")
        sym = nil_bounded_index(ring, "symbolic", candidate=8)
        assert enum.proved and sym.proved
        assert enum.index == sym.index


def test_symbolic_power_vanishes_grassmann():
    r = grassmann_star(2, rat()).ring
    assert symbolic_power(r, 2) == {}
    assert symbolic_power(r, 1) != {}


@pytest.mark.parametrize("n, expected", [(3, 3), (4, 4), (5, 5)])
def test_nilpotency_index_sut(n, expected):
    v = nilpotency_index(sut(n, fp(2)).ring)
    assert v.proved and v.index == expected


def test_nilpotency_index_zero_ring():
    assert nilpotency_index(Ring(fp(3), [], {})).index == 1


def test_nilpotency_index_refuted():
    v = nilpotency_index(idempotent_ring(fp(3)))
    assert v.status == Status.REFUTED


def test_s_nil_check_sut3():
    out = s_nil_check(sut(3, fp(2)))
    assert set(out) == {1, 2}
    assert all(v.proved for v in out.values())


def test_s_nil_check_trivial_grading():
    out = s_nil_check(trivial_grading(two_z_2k(3)))
    assert list(out) == [0]
    assert out[0].proved


def test_s_nil_check_elementary_m2_f2_refutes_diagonal():
    f2 = idempotent_ring(fp(2))
    gr = elementary_grading(f2, 2)
    out = s_nil_check(gr)
    assert out[0].status == Status.REFUTED  # E11 is idempotent
    # E12 + E21 squares to the identity matrix, so degree 1 is not nil either
    assert out[1].status == Status.REFUTED
    for v in out.values():
        assert element_nil_index(v.witness).status == Status.REFUTED


def test_nilpotent_implies_bounded_implies_nil():
    for ring in (two_z_2k(3), sut(4, fp(2)).ring, truncated_nagata(1, 3),
                 grassmann_star(2, fp(3)).ring):
        nd = nilpotency_index(ring)
        s = nil_bounded_index(ring, "enum")
        nil = ring_is_nil(ring)
        assert nd.proved and s.proved and nil.proved
        assert s.index <= nd.index


def test_homogeneous_power_report_m2_two_z8():
    gr = elementary_grading(two_z_2k(3), 2)
    rep = homogeneous_power_report(gr)
    assert rep.applicable and rep.passed
    assert rep.s == 3
    assert rep.kg == {0: 1, 1: 2}
    assert rep.k == 2
    assert rep.per_degree[1]["tuples_checked"] == 256


def test_homogeneous_power_report_requires_nonzero_neutral():
    rep = homogeneous_power_report(sut(3, fp(2)))
    assert not rep.applicable


def test_homogeneous_power_report_kg_rule():
    # int-add grading: orders are infinite, so k_g = d for every degree.
    gr = sut(5, fp(2))
    # not applicable (neutral zero), but the kg rule is exercised via a
    # shifted example: use the parity-graded exterior algebra instead.
    g2 = grassmann_star(2, fp(3))
    rep = homogeneous_power_report(g2)
    assert rep.applicable
    assert rep.kg == {0: 1, 1: 2}  # o(0)=1, o(1)=2, d=2
    assert rep.k == 2


def test_bounded_auto_switches_to_symbolic():
    v = bounded_nil_index_auto(grassmann_star(2, rat()).ring)
    assert v.proved and v.index == 2


def test_group_ring_refutations_pick_first_witness():
    # basis t0, t1 with t_i t_j = t_{(i+j) mod 2}: t1^2 = t0, t1^3 = t1, so
    # both t0 and t1 power-cycle without dying while t0 + t1 squares to zero
    r = Ring(fp(2), ["t0", "t1"], {(0, 0): {0: 1}, (0, 1): {1: 1},
                                   (1, 0): {1: 1}, (1, 1): {0: 1}})
    nil = ring_is_nil(r)
    assert nil.status == Status.REFUTED
    assert nil.witness.coords == (0, 1)  # lexicographically first non-nilpotent
    bounded = nil_bounded_index(r, "enum")
    assert bounded.status == Status.REFUTED
    assert element_nil_index(bounded.witness).status == Status.REFUTED
    nd = nilpotency_index(r)
    assert nd.status == Status.REFUTED


def test_enumeration_exact_near_int64_limit():
    # b^2 = -3b over Z/3^15, so b^n = (-3)^(n-1) b and b has nil index 16.
    # Unreduced products of size (m-1)^3 overflow int64 here.
    m = 3**15
    r = Ring(zmod(m), ["b"], {(0, 0): {0: m - 3}})
    assert element_nil_index(r.basis_element(0)).index == 16
    assert ring_is_nil(r, elem_cap=m).proved
    v = nil_bounded_index(r, "enum", elem_cap=m, power_cap=100)
    assert v.proved and v.index == 16


@pytest.mark.parametrize("ring", [
    two_z_2k(3), matrix_ring(two_z_2k(3), 2),
    sut(3, fp(2)).ring, matrix_ring(sut(3, fp(2)).ring, 2),
    grassmann_star(2, fp(3)).ring, truncated_nagata(1, 3),
    matrix_ring(truncated_nagata(1, 3), 2), idempotent_ring(fp(3)),
], ids=lambda r: f"{r.coeff.label()}-rank{r.rank}")
def test_enum_bounded_index_matches_elementwise_maximum(ring):
    per_element = [element_nil_index(a) for a in ring.elements()]
    v = nil_bounded_index(ring, "enum")
    if any(e.status == Status.REFUTED for e in per_element):
        assert v.status == Status.REFUTED
        assert element_nil_index(v.witness).status == Status.REFUTED
    else:
        assert v.proved and v.index == max(e.index for e in per_element)
