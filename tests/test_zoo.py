import pytest
from test_nil import enum_bounded_index

from gradednil.grading import component_indices, neutral_ring, support
from gradednil.nil import nil_bounded_index, nilpotency_index, ring_is_nil
from gradednil.ringcore import fp, rat
from gradednil.zoo import (
    NON_CONSTRUCTIBLE,
    grassmann_star,
    sut,
    truncated_nagata,
    truncated_poly_positive,
    two_z_2k,
)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_sut_ground_truth(n):
    gr = sut(n, fp(2))
    assert gr.ring.rank == n * (n - 1) // 2
    assert support(gr) == set(range(1, n))
    assert component_indices(gr, 0) == []
    nd = nilpotency_index(gr.ring)
    assert nd.proved and nd.index == n


def test_sut_rejects_small_n():
    with pytest.raises(ValueError):
        sut(1, fp(2))


def test_truncated_nagata_k1_p2():
    r = truncated_nagata(1, 2)
    assert r.rank == 1
    b = r.basis_element(0)
    assert (b * b).is_zero()


def test_truncated_nagata_k2_p2_bounded_index():
    r = truncated_nagata(2, 2)
    assert r.rank == 3
    s = enum_bounded_index(r)
    assert s.proved and s.index == 2  # squares vanish in characteristic 2
    assert r.note == NON_CONSTRUCTIBLE["nagata-union"]


def test_truncated_nagata_k1_p3_nilpotency():
    r = truncated_nagata(1, 3)
    nd = nilpotency_index(r)
    assert nd.proved and nd.index == 3


def test_truncated_nagata_commutative():
    r = truncated_nagata(2, 3)
    for a in r.basis():
        for b in r.basis():
            assert a * b == b * a


def test_grassmann_star_f3():
    gr = grassmann_star(2, fp(3))
    assert gr.ring.rank == 3
    m0, idx = neutral_ring(gr)
    assert [gr.ring.names[t] for t in idx] == ["e12"]
    nd = nilpotency_index(gr.ring)
    assert nd.proved and nd.index == 3


def test_grassmann_star_k1_square_zero():
    gr = grassmann_star(1, fp(3))
    assert gr.ring.rank == 1
    b = gr.ring.basis_element(0)
    assert (b * b).is_zero()


def test_grassmann_star_q_symbolic():
    gr = grassmann_star(2, rat())
    v = nil_bounded_index(gr.ring, "symbolic", candidate=4)
    assert v.proved and v.index == 2


def test_grassmann_even_part_commutative():
    gr = grassmann_star(3, fp(5))
    m0, _ = neutral_ring(gr)
    for a in m0.basis():
        for b in m0.basis():
            assert a * b == b * a


def test_grassmann_anticommutes_on_generators():
    gr = grassmann_star(3, fp(5))
    r = gr.ring
    e1, e2 = r.basis_element(0), r.basis_element(1)
    assert e1 * e2 == -(e2 * e1)
    assert (e1 * e1).is_zero()


@pytest.mark.parametrize("k, nd", [(2, 2), (3, 3), (4, 4)])
def test_two_z_2k_nilpotency(k, nd):
    v = nilpotency_index(two_z_2k(k))
    assert v.proved and v.index == nd


def test_two_z_2k_matches_even_residues():
    # b <-> residue 2 mod 16; c*b <-> residue 2c
    r = two_z_2k(4)
    for c1 in range(8):
        for c2 in range(8):
            prod = r.element([c1]) * r.element([c2])
            expected = ((2 * c1) * (2 * c2) // 2) % 8
            assert prod.coords == (expected,)


def test_two_z_2k_elements_all_nilpotent():
    assert ring_is_nil(two_z_2k(4)).proved


@pytest.mark.parametrize("N", [2, 3, 4])
def test_truncated_poly_ground_truth(N):
    gr = truncated_poly_positive(N, rat())
    assert support(gr) == set(range(1, N))
    assert component_indices(gr, 0) == []
    nd = nilpotency_index(gr.ring)
    assert nd.proved and nd.index == N


def test_truncated_poly_tightness_note():
    gr = truncated_poly_positive(4, fp(2))
    assert "infinite support" in gr.ring.note or "no vanishing power" in gr.ring.note


def test_non_constructible_notes_exist():
    assert set(NON_CONSTRUCTIBLE) == {
        "nagata-union", "positive-polynomials", "full-grassmann", "golod",
    }
    for note in NON_CONSTRUCTIBLE.values():
        assert len(note) > 20
