"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Every tolerance is exact; runtimes are asserted against the
stated budgets.
"""

import itertools
import random
import time

import pytest
from lemma35_reference import neutral_split, neutral_split_bruteforce
from test_fcomm import rewrite_identity_check
from test_nil import enum_bounded_index

from gradednil.fcomm import FMap, scalar_f_search
from gradednil.grading import (
    GradedRing,
    GradingAxiomError,
    component_indices,
    elementary_grading,
    neutral_ring,
    support,
    trivial_grading,
)
from gradednil.monoid import Monoid
from gradednil.nil import (
    Status,
    homogeneous_power_report,
    nil_bounded_index,
    nilpotency_index,
)
from gradednil.ringcore import (
    AssociativityError,
    Ring,
    fp,
    matrix_ring,
    power_chain,
    rat,
)
from gradednil.theorems import (
    CheckStatus,
    nil_index_bound,
    verify_field_bounded_index_bound,
    verify_generated_nil_ring_bound,
    verify_index2_char_bound,
    verify_matrix_nil_transfer,
    verify_nilpotent_neutral_bounds,
)
from gradednil.words import DegreeWord, ProductVerdict, block_degrees, small_gap_blocks
from gradednil.zoo import grassmann_star, sut, two_z_2k

SEED = 20260810


def _criterion(num, ok, detail, elapsed, budget):
    ok = ok and elapsed < budget
    line = (
        f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} "
        f"({detail}; {elapsed:.2f}s < {budget}s)"
    )
    print(line)
    assert ok, line


def test_criterion_01_zero_neutral_tightness():
    t0 = time.monotonic()
    for n in (3, 4, 5, 6):
        gr = sut(n, fp(2))
        d = len(support(gr))
        assert d == n - 1
        assert component_indices(gr, 0) == []
        nd = nilpotency_index(gr.ring)
        assert nd.proved and nd.index == d + 1 == n
    _criterion(1, True, "sut(3..6): d = n-1, zero neutral part, nd = d+1",
               time.monotonic() - t0, 1.0)


def test_criterion_02_03_split_oracle_equivalence_and_gap_bound():
    t0 = time.monotonic()
    checked = decomposed = 0
    for n in (2, 3, 4):
        monoid = Monoid.cyclic(n)
        for size in range(1, n + 1):
            for rest in itertools.combinations(range(1, n), size - 1):
                supp = frozenset((0,) + rest)
                d = len(supp)
                for r in (2, 3):
                    length = r * d
                    count = n**length
                    if count <= 10**6:
                        words = itertools.product(range(n), repeat=length)
                    else:
                        rng = random.Random(SEED)
                        words = (
                            tuple(rng.randrange(n) for _ in range(length))
                            for _ in range(100_000)
                        )
                    for letters in words:
                        w = DegreeWord(monoid, tuple(letters))
                        got = neutral_split(w, r, supp)
                        ref = neutral_split_bruteforce(w, r, supp)
                        assert ref is not None, (n, supp, r, letters)
                        gz = got == ProductVerdict.FORCED_ZERO
                        assert gz == (ref == ProductVerdict.FORCED_ZERO), (
                            n, supp, r, letters,
                        )
                        if not gz:
                            assert all(
                                g == 0 for g in block_degrees(w, got)
                            ), (letters, got.cuts)
                            selected = small_gap_blocks(got, d)
                            assert len(selected) >= r // 2 + 1
                            decomposed += 1
                        checked += 1
    elapsed = time.monotonic() - t0
    _criterion(
        2, checked > 900_000,
        f"split vs brute force agree on {checked} words", elapsed, 60.0,
    )
    _criterion(
        3, decomposed > 0,
        f"gap bound held on all {decomposed} decompositions", 0.0, 60.0,
    )


def test_criterion_04_matrix_grading_bounds():
    t0 = time.monotonic()
    gr = elementary_grading(two_z_2k(3), 2)
    chk = verify_nilpotent_neutral_bounds(gr)
    ok = (
        chk.status == CheckStatus.PASS
        and chk.details["neutral_nilpotency_index"] == 3
        and len(support(gr)) == 2
        and chk.bound == [3, 6]
        and 3 <= chk.observed <= 6
    )
    _criterion(4, ok, f"M_2 over even residues mod 8: r=3, d=2, nd={chk.observed}",
               time.monotonic() - t0, 5.0)


def test_criterion_05_matrix_nil_instances():
    t0 = time.monotonic()
    cases = [
        ("2Z_8", two_z_2k(3), 3),
        ("2Z_16", two_z_2k(4), 4),
        ("grassmann(2, F_3)", grassmann_star(2, fp(3)).ring, 2),
    ]
    details = []
    ok = True
    for label, base, s_expected in cases:
        s = enum_bounded_index(base)
        ok = ok and s.proved and s.index == s_expected
        m2 = matrix_ring(base, 2)
        assert m2.element_count() <= 2**20
        v = enum_bounded_index(m2)
        bound = nil_index_bound(s.index, 2)
        assert bound == 2 * s.index * 2**2 * (2**4 - 1) // (2 - 1)
        ok = ok and v.proved and v.index <= bound
        fmap, _ = scalar_f_search(base)
        chk = verify_matrix_nil_transfer(base, fmap)
        ok = ok and chk.status == CheckStatus.PASS
        details.append(f"{label}: nd_nil(M_2)={v.index} <= {bound}")
    _criterion(5, ok, "; ".join(details), time.monotonic() - t0, 120.0)


def test_criterion_06_generated_ring_tightness():
    t0 = time.monotonic()
    r1 = two_z_2k(3)
    f1, _ = scalar_f_search(r1)
    chk1 = verify_generated_nil_ring_bound(r1, f1)
    ok = (
        chk1.status == CheckStatus.PASS
        and chk1.details["generators"] == 1
        and chk1.details["generator_nil_index"] == 3
        and chk1.observed == 3 == (3 - 1) * 1 + 1
    )
    r2 = grassmann_star(2, fp(3)).ring
    f2, _ = scalar_f_search(r2)
    chk2 = verify_generated_nil_ring_bound(r2, f2)
    ok = ok and (
        chk2.status == CheckStatus.PASS
        and chk2.details["generators"] == 2
        and chk2.details["generator_nil_index"] == 2
        and chk2.observed == 3 == (2 - 1) * 2 + 1
    )
    _criterion(6, ok, "nd = (s-1)n+1 tight on both rings",
               time.monotonic() - t0, 5.0)


def test_criterion_07_field_characteristic_zero_bound():
    t0 = time.monotonic()
    gr = grassmann_star(2, rat())
    m0 = neutral_ring(gr)
    sym = nil_bounded_index(m0, "symbolic", candidate=8)
    chk = verify_field_bounded_index_bound(gr)
    ok = (
        sym.proved and sym.index == 2
        and chk.status == CheckStatus.PASS
        and chk.details["char"] == 0
        and chk.bound == 2 * (2**2 - 1) == 6
        and chk.observed == 3
    )
    _criterion(7, ok, f"rationals: s=2 symbolic, bound 6, nd={chk.observed}",
               time.monotonic() - t0, 10.0)


def test_criterion_08_index2_bound():
    t0 = time.monotonic()
    gr = trivial_grading(grassmann_star(2, fp(3)).ring)
    m0 = neutral_ring(gr)
    s = enum_bounded_index(m0)
    chain = power_chain(m0)
    chk = verify_index2_char_bound(gr)
    ok = (
        s.proved and s.index == 2
        and not chain[-1] and len(chain) <= 3
        and chk.status == CheckStatus.PASS
        and chk.bound == 3 and chk.observed == 3
    )
    _criterion(8, ok, "char 3, s=2, neutral cube zero, nd=3 <= 3d=3",
               time.monotonic() - t0, 5.0)


def test_criterion_09_homogeneous_tuple_powers():
    t0 = time.monotonic()
    gr = elementary_grading(two_z_2k(3), 2)
    rep = homogeneous_power_report(gr)
    ok = (
        rep.applicable
        and rep.kg == {0: 1, 1: 2} and rep.k == 2 and rep.s == 3
        and rep.per_degree[1]["product_degree"] == 0
        and rep.per_degree[1]["length"] == 2
    )
    # independent recomputation: every pair from the antidiagonal component,
    # multiplied and cubed, must vanish
    r = gr.ring
    idx = component_indices(gr, 1)
    singles = []
    for digits in itertools.product(range(4), repeat=len(idx)):
        coords = [0] * r.rank
        for t, c in zip(idx, digits):
            coords[t] = c
        singles.append(r.element(coords))
    for a in singles:
        for b in singles:
            prod = a * b
            assert (prod * prod * prod).is_zero()
    _criterion(9, ok, "k_1=2, k=lcm=2, all 256 pairs cube to zero",
               time.monotonic() - t0, 10.0)


def test_criterion_10_rewriting_identities():
    t0 = time.monotonic()
    r1 = two_z_2k(3)
    v1 = rewrite_identity_check(
        r1, FMap.constant(1), tuple_cap=1, samples=10_000, seed=SEED
    )
    r2 = grassmann_star(2, fp(3)).ring
    f2, _ = scalar_f_search(r2)
    v2 = rewrite_identity_check(
        r2, f2, tuple_cap=1, samples=10_000, seed=SEED
    )
    ok = v1.status != Status.REFUTED and v2.status != Status.REFUTED
    _criterion(10, ok, "both chains exact on 10^4 seeded tuples per ring",
               time.monotonic() - t0, 30.0)


def _independent_invalid(dom, rank, sc, monoid, degrees):
    """Definition-level validity check used to screen mutations.

    Recomputes associativity and the grading axiom with direct loops; returns
    True when the mutated data violates one of them.
    """
    m = dom.modulus

    def terms(i, j):
        return sc.get((i, j), {})

    for i in range(rank):
        for j in range(rank):
            for k in range(rank):
                left = {}
                for t, c in terms(i, j).items():
                    for v, c2 in terms(t, k).items():
                        left[v] = (left.get(v, 0) + c * c2) % m
                right = {}
                for t, c in terms(j, k).items():
                    for v, c2 in terms(i, t).items():
                        right[v] = (right.get(v, 0) + c * c2) % m
                if {v: c for v, c in left.items() if c} != {
                    v: c for v, c in right.items() if c
                }:
                    return True
    for (i, j), entry in sc.items():
        dij = monoid.op(degrees[i], degrees[j])
        for k, c in entry.items():
            if c % m and degrees[k] != dij:
                return True
    return False


def test_criterion_11_mutation_suite():
    t0 = time.monotonic()
    pool = [
        sut(4, fp(2)),
        grassmann_star(2, fp(3)),
        elementary_grading(two_z_2k(3), 2),
    ]
    rng = random.Random(SEED)
    rejected = 0
    attempts = 0
    while rejected < 100:
        attempts += 1
        assert attempts < 5000, "mutation generator stalled"
        gr = rng.choice(pool)
        r = gr.ring
        m = r.coeff.modulus
        sc = {k: dict(v) for k, v in r.sc.items()}
        degrees = list(gr.degrees)
        if rng.random() < 0.5:
            # single degree entry
            t = rng.randrange(r.rank)
            if gr.monoid.kind == "table":
                candidates = list(gr.monoid.elements())
            else:
                candidates = list(range(-2, 7))
            choices = [g for g in candidates if g != degrees[t]]
            degrees[t] = rng.choice(choices)
        else:
            # single structure constant entry
            i, j, k = (rng.randrange(r.rank) for _ in range(3))
            old = sc.get((i, j), {}).get(k, 0)
            new = rng.choice([c for c in range(m) if c != old])
            entry = sc.setdefault((i, j), {})
            if new:
                entry[k] = new
            else:
                entry.pop(k, None)
            if not entry:
                del sc[(i, j)]
        if not _independent_invalid(r.coeff, r.rank, sc, gr.monoid, degrees):
            continue  # the rare mutation that stays valid is not a rejection case
        with pytest.raises((AssociativityError, GradingAxiomError)) as err:
            mutated = Ring(r.coeff, r.names, sc)
            GradedRing(mutated, gr.monoid, degrees)
        assert hasattr(err.value, "triple") and len(err.value.triple) == 3
        rejected += 1
    _criterion(
        11, rejected == 100,
        f"100 invalid single-entry mutations rejected with named triples "
        f"({attempts} sampled)",
        time.monotonic() - t0, 10.0,
    )
