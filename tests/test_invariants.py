"""Cross-module invariants and synthetic bound instances."""

import json

import pytest
from test_nil import enum_bounded_index

from gradednil.cli import main
from gradednil.grading import (
    GradedRing,
    elementary_grading,
    neutral_ring,
    trivial_grading,
)
from gradednil.monoid import Monoid
from gradednil.nil import (
    homogeneous_power_report,
    nil_bounded_index,
    ring_is_nil,
    s_nil_check,
)
from gradednil.ringcore import Ring, fp, power_chain, rat, span
from gradednil.specfile import emit_graded
from gradednil.theorems import (
    CheckStatus,
    geometric_support_sum,
    nil_index_bound,
    verify_field_bounded_index_bound,
    verify_generated_neutral_bound,
    verify_generated_nil_ring_bound,
    verify_product_length_vanishing,
)
from gradednil.fcomm import scalar_f_search
from gradednil.zoo import grassmann_star, sut, truncated_nagata, two_z_2k


def chain_ring(dom, length):
    """Basis u1..u_{length} with u_i u_j = u_{i+j}; bounded nil index length+1."""
    sc = {}
    for i in range(1, length + 1):
        for j in range(1, length + 1):
            if i + j <= length:
                sc[(i - 1, j - 1)] = {i + j - 1: 1}
    return Ring(dom, [f"u{i}" for i in range(1, length + 1)], sc)


def with_square_zero_tail(base, deg_tail=1):
    """Glue a square-zero degree-1 basis vector onto a degree-0 ring."""
    sc = {k: dict(v) for k, v in base.sc.items()}
    ring = Ring(base.coeff, list(base.names) + ["x"], sc)
    return GradedRing(ring, Monoid.cyclic(2), [0] * base.rank + [deg_tail])


def test_power_chain_is_monotone_descending():
    for ring in (sut(4, fp(2)).ring, two_z_2k(4), truncated_nagata(2, 3)):
        chain = power_chain(ring)
        for bigger, smaller in zip(chain, chain[1:]):
            # extending a canonical form by a subspace leaves it unchanged
            assert span(ring, smaller, bigger) == bigger


@pytest.mark.parametrize("n", [2, 3])
def test_elementary_neutral_is_n_fold_product(n):
    r = two_z_2k(3)
    gr = elementary_grading(r, n)
    m0, _ = neutral_ring(gr)
    assert m0.rank == n * r.rank
    expected = {}
    for blk in range(n):
        for (i, j), terms in r.sc.items():
            expected[(blk * r.rank + i, blk * r.rank + j)] = {
                blk * r.rank + k: c for k, c in terms.items()
            }
    assert m0.sc == expected


def test_kg_uses_support_size_for_infinite_orders():
    # integer grading with a nonzero neutral part: o(1) is infinite, so
    # k_1 = d = 2
    base = chain_ring(fp(5), 2)
    rank = base.rank + 1
    sc = {k: dict(v) for k, v in base.sc.items()}
    ring = Ring(fp(5), list(base.names) + ["x"], sc)
    gr = GradedRing(ring, Monoid.int_add(), [0] * base.rank + [1])
    rep = homogeneous_power_report(gr)
    assert rep.applicable
    assert rep.kg == {0: 1, 1: 2}
    assert rep.k == 2


def test_ring_nil_implies_component_nil():
    for gr in (sut(3, fp(2)), grassmann_star(2, fp(3)),
               elementary_grading(two_z_2k(3), 2)):
        assert ring_is_nil(gr.ring).proved
        comp = s_nil_check(gr)
        assert all(v.proved for v in comp.values())


def test_field_bound_char5_s3_instance():
    # neutral part of nil index 3 over F_5, support size 2: bound 2*(2^3-1) = 14
    gr = with_square_zero_tail(chain_ring(fp(5), 2))
    chk = verify_field_bounded_index_bound(gr)
    assert chk.status == CheckStatus.PASS
    assert chk.details["neutral_nil_index"] == 3
    assert chk.details["char"] == 5
    assert chk.bound == 14
    assert chk.observed == 3


def test_field_bound_char0_s5_instance():
    # neutral nil index 5 over the rationals: q = s^2 = 25, bound d*q = 50
    gr = with_square_zero_tail(chain_ring(rat(), 4))
    chk = verify_field_bounded_index_bound(gr)
    assert chk.status == CheckStatus.PASS
    assert chk.details["neutral_nil_index"] == 5
    assert chk.bound == 50
    assert chk.observed == 5


def test_product_length_s3_d1_instance():
    # trivial grading, s = 3, char 5: product length 1 * (2^3 - 1) = 7
    gr = trivial_grading(chain_ring(fp(5), 2))
    chk = verify_product_length_vanishing(gr)
    assert chk.status == CheckStatus.PASS
    assert chk.bound == 7


def test_trivial_grading_t320_reduces_to_t319():
    r = two_z_2k(3)
    f, _ = scalar_f_search(r)
    ring_chk = verify_generated_nil_ring_bound(r, f)
    graded_chk = verify_generated_neutral_bound(trivial_grading(r), f)
    assert ring_chk.status == graded_chk.status == CheckStatus.PASS
    assert graded_chk.bound[1] == ring_chk.bound[1]  # d = 1
    assert ring_chk.observed == graded_chk.observed


def test_bound_arithmetic_stays_exact_for_large_supports():
    for d in (1, 2, 3, 7, 10):
        total = sum(d**t for t in range(1, 2 * d + 1))
        assert geometric_support_sum(d) == total
        if d > 1:
            assert nil_index_bound(3, d) == 2 * 3 * d * d * (d ** (2 * d) - 1) // (d - 1)
    assert nil_index_bound(4, 10) > 10**20  # arbitrary precision, no overflow


def test_symbolic_enum_agreement_chain_ring():
    r = chain_ring(fp(5), 3)
    enum = enum_bounded_index(r)
    sym = nil_bounded_index(r, "symbolic", candidate=8)
    assert enum.proved and sym.proved and enum.index == sym.index == 4


def test_cli_env_caps_override(tmp_path, capsys, monkeypatch):
    gr = sut(3, fp(2))
    path = tmp_path / "s3.spec"
    path.write_text(emit_graded(gr))
    # the pair cap is read from the environment; the seed and sample count
    # are no longer read, since nothing is sampled
    monkeypatch.setenv("GRADEDNIL_PAIR_CAP", "99")
    monkeypatch.setenv("GRADEDNIL_SEED", "abc")
    monkeypatch.setenv("GRADEDNIL_SAMPLES", "0")
    code = main(["report", str(path), "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["caps"] == {"pair_cap": 99} and "seed" not in data
