import time

import pytest
from test_nil import enum_bounded_index

from gradednil.cli import ZOO, main

from gradednil.grading import component_indices, neutral_ring, support
from gradednil.nil import nil_bounded_index, nilpotency_index, ring_is_nil
from gradednil.ringcore import fp, rat
from gradednil.zoo import (
    NON_CONSTRUCTIBLE,
    RANK_CAP,
    _check_rank,
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
    assert ZOO["truncated-nagata"][3] == "nagata-union"


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
    m0 = neutral_ring(gr)
    assert m0.names == ("e12",)
    idx = component_indices(gr, gr.monoid.identity)
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
    m0 = neutral_ring(gr)
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
    note = NON_CONSTRUCTIBLE[ZOO["truncated-poly"][3]]
    assert "infinite support" in note or "no vanishing power" in note


def test_non_constructible_notes_exist():
    assert set(NON_CONSTRUCTIBLE) == {
        "nagata-union", "positive-polynomials", "full-grassmann", "golod",
    }
    for note in NON_CONSTRUCTIBLE.values():
        assert len(note) > 20


@pytest.mark.parametrize("argv", [
    ["sut", "--n", "3", "--domain", "fp 2"],
    ["truncated-nagata", "--k", "2", "--p", "2"],
    ["grassmann-star", "--k", "2", "--domain", "fp 3"],
    ["two-z-2k", "--k", "3"],
    ["truncated-poly", "--n", "3", "--domain", "fp 2"],
], ids=lambda argv: argv[0])
def test_zoo_spec_ends_with_the_note_its_table_entry_names(argv, capsys):
    assert main(["zoo", *argv]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    key = ZOO[argv[0]][3]
    if key is None:
        assert not last.startswith("# note:")
    else:
        assert last == f"# note: {NON_CONSTRUCTIBLE[key]}"


@pytest.mark.parametrize("k", [40, 10**9])
@pytest.mark.parametrize("argv", [["truncated-nagata", "--p", "2"],
                                  ["grassmann-star", "--domain", "fp 2"]],
                         ids=["truncated-nagata", "grassmann-star"])
def test_zoo_refuses_a_rank_past_the_cap_before_building(argv, k, capsys):
    # rank 2^k - 1 is compared with the cap before any basis is listed, and
    # 2^k is not formed for a k this large
    t0 = time.monotonic()
    assert main(["zoo", *argv, "--k", str(k)]) == 3
    assert time.monotonic() - t0 < 0.5
    assert capsys.readouterr().err == f"error: rank 2^{k} - 1 exceeds cap {RANK_CAP}\n"


def test_zoo_rank_cap_boundary():
    # 3^7 - 1 = 2186 and 2^12 - 1 = 4095 are within the cap, 3^8 - 1 = 6560
    # and 2^13 - 1 = 8191 past it
    assert RANK_CAP == 4096
    _check_rank(3, 7)
    _check_rank(2, 12)
    with pytest.raises(ValueError, match=r"rank 3\^8 - 1 exceeds cap 4096"):
        truncated_nagata(8, 3)
    with pytest.raises(ValueError, match=r"rank 2\^13 - 1 exceeds cap 4096"):
        grassmann_star(13, fp(2))
