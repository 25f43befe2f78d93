import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st
from rings import cyclic_group_ring

from gradednil.grading import (
    CancellativityError,
    GradedRing,
    GradingAxiomError,
    component_indices,
    elementary_grading,
    induced_quotient_grading,
    neutral_ring,
    support,
    trivial_grading,
)
from gradednil.monoid import Congruence, Monoid
from gradednil.ringcore import Ring, fp, matrix_ring, span, zmod
from gradednil.zoo import (
    grassmann_star,
    sut,
    truncated_nagata,
    truncated_poly_positive,
    two_z_2k,
)

from test_ringcore import CHAIN_DOMAINS, nilpotent_rings


def test_sut3_support():
    gr = sut(3, fp(2))
    assert support(gr) == {1, 2}


def test_trivial_grading_support():
    gr = trivial_grading(two_z_2k(3))
    assert support(gr) == {0}


def test_elementary_grading_of_m2_f2():
    f2_idem = Ring(fp(2), ["u"], {(0, 0): {0: 1}})  # M_2 of this is M_2(F_2)
    gr = elementary_grading(f2_idem, 2)
    assert support(gr) == {0, 1}
    # degree 0: diagonal E11, E22; degree 1: antidiagonal E12, E21
    assert component_indices(gr, 0) == [0, 3]
    assert component_indices(gr, 1) == [1, 2]


def test_component_spans():
    gr = sut(3, fp(2))
    assert component_indices(gr, 1) == [0, 2] and component_indices(gr, 2) == [1]
    c1 = span(gr.ring, [gr.ring.basis_element(t).coords for t in component_indices(gr, 1)])
    assert c1 == ((1, 0, 0), (0, 0, 1))  # span{E12, E23}
    assert component_indices(gr, 0) == []


def test_neutral_ring_of_elementary_grading_is_product():
    r = two_z_2k(3)
    gr = elementary_grading(r, 2)
    m0 = neutral_ring(gr)
    assert m0.rank == 2
    assert component_indices(gr, gr.monoid.identity) == [0, 3]
    # componentwise product ring: b_i * b_j = 0 for i != j, b_i^2 = 2 b_i
    assert m0.sc == {(0, 0): {0: 2}, (1, 1): {1: 2}}


@pytest.mark.parametrize("make", [
    lambda: sut(5, fp(2)),
    lambda: elementary_grading(two_z_2k(3), 2),
    lambda: grassmann_star(3, fp(5)),
    lambda: trivial_grading(truncated_nagata(2, 3)),
    lambda: elementary_grading(grassmann_star(2, fp(3)).ring, 2),
    lambda: truncated_poly_positive(4, zmod(6)),
    lambda: cyclic_group_ring(fp(2), 3),
], ids=["sut5", "m2-2z8", "grass3-f5", "nagata23", "m2-grass2-f3", "poly4-z6",
        "group-ring-z3"])
def test_neutral_ring_is_built_once_and_associative(make):
    gr = make()
    m0 = neutral_ring(gr)
    assert neutral_ring(gr) is m0
    # built unchecked; the full associativity check must agree
    checked = Ring(m0.coeff, m0.names, m0.sc, check=True)
    assert checked.sc == m0.sc
    idx = component_indices(gr, gr.monoid.identity)
    assert [gr.ring.names[t] for t in idx] == list(m0.names)


def test_neutral_ring_of_trivial_grading_is_the_ring():
    r = truncated_nagata(2, 3)
    gr = trivial_grading(r)
    assert neutral_ring(gr) is r
    assert component_indices(gr, gr.monoid.identity) == list(range(r.rank))


def test_grading_axiom_mutation_detected():
    gr = sut(3, fp(2))
    degrees = list(gr.degrees)
    degrees[1] = 5  # E13 should have degree 2
    with pytest.raises(GradingAxiomError) as err:
        GradedRing(gr.ring, gr.monoid, degrees)
    assert err.value.triple == (0, 2, 1)


def test_structure_constant_mutation_detected():
    gr = sut(3, fp(2))
    sc = {k: dict(v) for k, v in gr.ring.sc.items()}
    sc[(0, 1)] = {0: 1}  # E12*E13 = E12 breaks the grading (and associativity)
    with pytest.raises((GradingAxiomError, Exception)):
        ring = Ring(gr.ring.coeff, gr.ring.names, sc)
        GradedRing(ring, gr.monoid, gr.degrees)


def test_non_cancellative_monoid_rejected():
    m = Monoid.from_table([[0, 1], [1, 1]])
    ring = Ring(fp(2), ["a", "b"], {(0, 0): {0: 1}, (1, 1): {1: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}})
    with pytest.raises(CancellativityError):
        GradedRing(ring, m, [0, 1])


def test_induced_quotient_grading_z4_mod2():
    gr = cyclic_group_ring(fp(2), 4)
    cong = Congruence(gr.monoid, [[0, 2], [1, 3]])
    q = induced_quotient_grading(gr, cong)
    assert support(q) == {0, 1}
    assert component_indices(q, 0) == [0, 2]  # R_0bar = R_0 + R_2
    assert component_indices(q, 1) == [1, 3]


def test_induced_quotient_all_in_one_class():
    gr = cyclic_group_ring(fp(2), 4)
    cong = Congruence(gr.monoid, [[0, 1, 2, 3]])
    q = induced_quotient_grading(gr, cong)
    assert support(q) == {0}
    m0 = neutral_ring(q)
    assert m0.rank == gr.ring.rank


def test_induced_quotient_support_shrinks():
    gr = cyclic_group_ring(fp(2), 6)
    cong = Congruence(gr.monoid, [[0, 3], [1, 4], [2, 5]])
    q = induced_quotient_grading(gr, cong)
    assert len(support(q)) == 3
    assert len(support(gr)) == 6


def rechecked(gr):
    """``gr`` rebuilt with every check: cancellativity and the axiom."""
    return GradedRing(gr.ring, gr.monoid, gr.degrees, check=True)


@pytest.mark.parametrize("n,classes", [
    (4, [[0, 2], [1, 3]]), (4, [[0, 1, 2, 3]]), (6, [[0, 3], [1, 4], [2, 5]]),
])
def test_induced_quotient_grading_passes_full_check(n, classes):
    # built unchecked: the class map is a homomorphism, so the axiom carries over
    q = induced_quotient_grading(cyclic_group_ring(fp(2), n),
                                 Congruence(Monoid.cyclic(n), classes))
    assert rechecked(q) == q


@given(nilpotent_rings(CHAIN_DOMAINS, st.booleans()), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_derived_structures_pass_full_check(r, n):
    # M_n(r), its elementary grading and the trivial grading are built
    # unchecked; the checks they skip must all pass
    mr = matrix_ring(r, n)
    assert Ring(mr.coeff, mr.names, mr.sc, check=True).sc == mr.sc
    gr = elementary_grading(r, n)
    assert gr.ring.sc == mr.sc and rechecked(gr) == gr
    assert rechecked(trivial_grading(r)) == trivial_grading(r)


def test_elementary_grading_size_one_is_trivial():
    r = two_z_2k(3)
    gr = elementary_grading(r, 1)
    assert support(gr) == {0}


def test_elementary_grading_m2_two_z8_support():
    gr = elementary_grading(two_z_2k(3), 2)
    assert support(gr) == {0, 1}


def test_homogeneous_parts_split():
    # x = E12 + E13 + E23 in sut(3) splits by degree into E12 + E23 and E13
    gr = sut(3, fp(2))
    x = gr.ring.element([1, 1, 1])
    parts = {g: tuple(c if d == g else 0 for c, d in zip(x.coords, gr.degrees))
             for g in support(gr)}
    assert set(parts) == {1, 2}
    assert parts[1] == (1, 0, 1)
    assert parts[2] == (0, 1, 0)


@pytest.mark.parametrize("k", [2, 3])
def test_homogeneous_expansion_identity(k):
    # The product of k elements equals the sum of the products of their
    # homogeneous parts over all degree tuples, exactly.
    gr = elementary_grading(two_z_2k(3), 2)
    rng = random.Random(k)
    r = gr.ring
    elems = [r.element([rng.randrange(4) for _ in range(r.rank)]) for _ in range(k)]
    prod = elems[0]
    for x in elems[1:]:
        prod = prod * x
    parts = [[r.element([c if d == g else 0 for c, d in zip(x.coords, gr.degrees)])
              for g in support(gr)] for x in elems]
    total = r.zero()
    for combo in itertools.product(*parts):
        term = combo[0]
        for x in combo[1:]:
            term = term * x
        total = total + term
    assert total == prod


def test_degree_count_must_match_rank():
    gr = sut(3, fp(2))
    with pytest.raises(ValueError):
        GradedRing(gr.ring, gr.monoid, [1, 2])


def test_grassmann_parity_grading_valid():
    gr = grassmann_star(3, fp(3))
    assert support(gr) == {0, 1}
    assert len(component_indices(gr, 1)) == 4  # e1, e2, e3, e123
    m0 = neutral_ring(gr)
    assert m0.rank == 3  # e12, e13, e23
