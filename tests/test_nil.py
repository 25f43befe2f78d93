import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from test_ringcore import nilpotent_rings

from gradednil import kernel, nil
from gradednil.grading import (
    GradedRing,
    component_indices,
    elementary_grading,
    neutral_ring,
    support,
    trivial_grading,
)
from gradednil.monoid import Monoid, element_order
from gradednil.nil import (
    DEFAULT_POWER_CAP,
    HomogeneousPowerReport,
    Status,
    bounded_nil_index_auto,
    element_nil_index,
    homogeneous_power_report,
    nil_bounded_index,
    nilpotency_index,
    ring_is_nil,
    s_nil_check,
)
from gradednil.ringcore import Ring, fp, matrix_ring, rat, zmod
from gradednil.zoo import grassmann_star, sut, truncated_nagata, two_z_2k


def idempotent_ring(dom):
    return Ring(dom, ["b"], {(0, 0): {0: 1}})


def enumerated_is_nil(r):
    """ring_is_nil's enumeration path, run past the power-chain certificate."""
    X = nil._coord_rows(r.coeff.size, list(range(r.rank)), r.rank)
    return nil._classify_all_nilpotent(r, X, r.element_count()) is None


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
    assert v.witness.coords == (1,)  # the chain stays silent; enumeration picks it
    assert not v.witness.is_zero()
    assert element_nil_index(v.witness).status == Status.REFUTED


def test_ring_is_nil_m2_two_z8_exhaustive():
    m2 = matrix_ring(two_z_2k(3), 2)
    assert m2.element_count() == 256
    v = ring_is_nil(m2)
    assert v.proved
    assert enumerated_is_nil(m2)


def test_ring_is_nil_rationals_sampled():
    # the power chain proves R^3 = 0, so no sampling is needed
    v = ring_is_nil(grassmann_star(2, rat()).ring)
    assert v.status == Status.PROVED
    assert v.note == "power chain: R^3 = 0"


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


def test_bounded_index_symbolic_refuted_with_witness_over_fp():
    # x^3 = t^3 b reduces to t b over F_2, nonzero at t = 1: b^3 = b
    v = nil_bounded_index(idempotent_ring(fp(2)), "symbolic", candidate=3)
    assert v.status == Status.REFUTED
    assert v.witness.coords == (1,)
    assert element_nil_index(v.witness).status == Status.REFUTED
    # unreduced over Z/4, a surviving monomial may still vanish pointwise
    v = nil_bounded_index(idempotent_ring(zmod(4)), "symbolic", candidate=3)
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
    (e1, c1), (e2, c2) = nil._general_powers(r, 4)
    assert sym_dict(e1, c1) == {(1, 0, 0): (1, 0, 0), (0, 1, 0): (0, 1, 0),
                                (0, 0, 1): (0, 0, 1)}
    assert sym_dict(e2, c2) == {}


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
    assert rep.applicable
    assert rep.s == 3
    assert rep.kg == {0: 1, 1: 2}
    assert rep.k == 2
    # the walk: two factors of degree 1 multiply into degree 0
    assert rep.per_degree[1]["product_degree"] == 0
    assert rep.per_degree[1]["length"] == 2


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
    # R^3 = 0 but x^2 = 0 for every x: the certificate is silent, and the
    # symbolic expansion gives the index
    v = bounded_nil_index_auto(grassmann_star(2, rat()).ring)
    assert v.proved and v.index == 2
    assert v.note == "symbolic expansion"


def test_bounded_auto_keeps_its_verdict_per_caps(monkeypatch):
    # the symbolic expansion runs once per ring and cap triple
    modes = []
    expand = nil.nil_bounded_index

    def counted(r, mode="enum", **kw):
        modes.append(mode)
        return expand(r, mode, **kw)

    monkeypatch.setattr(nil, "nil_bounded_index", counted)
    r = grassmann_star(2, rat()).ring
    first = bounded_nil_index_auto(r)
    assert bounded_nil_index_auto(r) == first
    assert modes == ["symbolic"]
    other = bounded_nil_index_auto(r, symbolic_cap=4)
    assert modes == ["symbolic", "symbolic"]
    assert other.proved and other.index == first.index == 2


@pytest.mark.parametrize("dom", [fp(2), rat()], ids=["f2", "q"])
def test_bounded_auto_keeps_a_capped_chain_capped(dom):
    # sut(6) has nil index 6: x^3 != 0 refutes a symbolic cap of 3, not
    # nil-ness, while the power chain runs past its cap
    v = bounded_nil_index_auto(sut(6, dom).ring, elem_cap=1, power_cap=2, symbolic_cap=3)
    assert v.status == Status.CAPPED
    assert v.note.startswith("power chain longer than power_cap 2; candidate 3 refuted")
    # a chain that ends nonzero proves the ring not nil, so REFUTED stands
    v = bounded_nil_index_auto(idempotent_ring(dom), elem_cap=1, symbolic_cap=3)
    assert v.status == Status.REFUTED
    assert element_nil_index(v.witness).status == Status.REFUTED


def test_homogeneous_power_report_uses_the_callers_power_cap():
    gr = elementary_grading(two_z_2k(3), 2)
    rep = homogeneous_power_report(gr, power_cap=1)
    assert not rep.applicable and rep.neutral.status == Status.CAPPED
    assert homogeneous_power_report(gr).neutral.proved


# ---------------------------------------------------------------------------
# The power-chain certificate against the enumeration it goes before.


def certificate_witness(r, verdict):
    """The element the certificate's note names, found among all elements."""
    text = verdict.note.split(" at x = ", 1)[1]
    return next(a for a in r.elements() if repr(a) == text)


@given(nilpotent_rings(domains=(fp(2), fp(3), zmod(4), zmod(6))))
@settings(max_examples=60, deadline=None)
def test_certified_index_matches_enumeration(r):
    assume(r.element_count() <= 6**6)
    assert ring_is_nil(r).proved
    assert all(v.proved for v in s_nil_check(trivial_grading(r)).values())
    enum = nil_bounded_index(r, "enum")
    cert = nil._certified_index(r, DEFAULT_POWER_CAP)
    if cert is not None:
        assert cert.proved and cert.index == enum.index
        assert cert.index == nilpotency_index(r).index
        if r.element_count() <= 4096:
            w = certificate_witness(r, cert)
            assert element_nil_index(w).index == cert.index
    assert bounded_nil_index_auto(r).index == enum.index


def d4_ring():
    # F_2[A,B]/(A^3, B^3, A^2B - AB^2, degree >= 4); basis A B A2 AB B2 V
    A, B, A2, AB, B2, V = range(6)
    sc = {(A, A): {A2: 1}, (A, B): {AB: 1}, (B, A): {AB: 1}, (B, B): {B2: 1},
          (A, AB): {V: 1}, (AB, A): {V: 1}, (B, AB): {V: 1}, (AB, B): {V: 1},
          (A, B2): {V: 1}, (B2, A): {V: 1}, (B, A2): {V: 1}, (A2, B): {V: 1}}
    return Ring(fp(2), ["A", "B", "A2", "AB", "B2", "V"], sc)


def test_certificate_silent_on_d4_ring():
    # R^4 = 0, and x^3 = (t1^2 t2 + t1 t2^2) V vanishes at every point of F_2^2
    r = d4_ring()
    assert nilpotency_index(r).index == 4
    assert nil._certified_index(r, DEFAULT_POWER_CAP) is None
    v = bounded_nil_index_auto(r)
    assert v.proved and v.index == 3
    assert v.note == "symbolic expansion reduced by t^2 = t"


def test_d4_ring_symbolic_index_is_exact():
    # unreduced, x^3 survives and the index read 4; reduced by t^2 = t it
    # is 3, as enumeration says, on every path
    r = d4_ring()
    assert nil_bounded_index(r, "enum").index == 3
    v = nil_bounded_index(r, "symbolic", candidate=8)
    assert v.proved and v.index == 3
    assert bounded_nil_index_auto(r, elem_cap=32).index == 3
    low = nil_bounded_index(r, "symbolic", candidate=2)
    assert low.status == Status.REFUTED
    assert element_nil_index(low.witness).index == 3


# ---------------------------------------------------------------------------
# The symbolic scatter against enumeration and the dict expansion it replaced.


def sym_dict(exps, coefs):
    """A scatter power as {exponents: coefficient vector}."""
    return {tuple(int(v) for v in e): tuple(int(v) if isinstance(v, np.integer) else v
                                            for v in c)
            for e, c in zip(exps, coefs.T)}


def sym_powers_reference(ring, last):
    """x, x^2, ..., x^last as dicts, by the dict expansion the scatter
    replaced: one ``mul_coords`` per pair of monomials, Python integers or
    Fractions throughout, exponents reduced by t^p = t over F_p."""
    dom = ring.coeff

    def reduce(e):
        return e if dom.kind != "fp" or e < dom.modulus else (e - 1) % (dom.modulus - 1) + 1

    gen = {tuple(int(t == j) for t in range(ring.rank)): ring.basis_element(j).coords
           for j in range(ring.rank)}
    cur, out = gen, [gen]
    for _ in range(last - 1):
        nxt = {}
        for ma, va in cur.items():
            for mb, vb in gen.items():
                key = tuple(reduce(x + y) for x, y in zip(ma, mb))
                prev = nxt.get(key, (dom.zero(),) * ring.rank)
                nxt[key] = tuple(dom.add(a, b) for a, b in zip(prev, ring.mul_coords(va, vb)))
        cur = {k: v for k, v in nxt.items() if any(v)}
        out.append(cur)
        if not cur:
            break
    return out


def scatter_dicts(ring, last):
    return [sym_dict(e, c) for e, c in nil._general_powers(ring, last)]


@given(nilpotent_rings(domains=(zmod(4), zmod(6), rat())))
@settings(max_examples=40, deadline=None)
def test_unreduced_scatter_matches_dict_expansion(r):
    assert scatter_dicts(r, 6) == sym_powers_reference(r, 6)


@given(nilpotent_rings(domains=(fp(2**61 - 1), zmod(2**63 - 25))))
@settings(max_examples=30, deadline=None)
def test_scatter_matches_python_integers_near_int64_limit(r):
    # the constant -1 becomes m - 1, so products run far past int64
    assert scatter_dicts(r, 6) == sym_powers_reference(r, 6)


def test_scatter_in_int64_at_the_kernel_bound():
    # the D4 ring with every constant -1 over the largest prime below 2^30:
    # V receives 8 terms of up to (p-1)^2, so the scatter runs in int64 with
    # sums just below 2^63
    p = 1073741789
    r = d4_ring()
    r = Ring(fp(p), r.names, {ij: {k: -1 for k in t} for ij, t in r.sc.items()})
    assert kernel.kernel_dtype(r) is np.int64
    assert scatter_dicts(r, 4) == sym_powers_reference(r, 4)


@given(nilpotent_rings(domains=(fp(2), fp(3), fp(5))))
@settings(max_examples=60, deadline=None)
def test_reduced_scatter_matches_enumeration(r):
    assume(r.element_count() <= 5**5)
    enum = nil_bounded_index(r, "enum")
    sym = nil_bounded_index(r, "symbolic", candidate=nilpotency_index(r).index)
    assert sym.proved and sym.index == enum.index
    assert bounded_nil_index_auto(r).index == enum.index
    if enum.index > 1:
        low = nil_bounded_index(r, "symbolic", candidate=enum.index - 1)
        assert low.status == Status.REFUTED
        assert element_nil_index(low.witness).index == enum.index
    # each reduced power is the map a -> a^s, point by point
    powers = scatter_dicts(r, enum.index)
    assert powers == sym_powers_reference(r, enum.index)
    dom = r.coeff
    for a in itertools.islice(r.elements(), 125):
        acc = a
        for poly in powers:
            value = [0] * r.rank
            for mono, vec in poly.items():
                w = math.prod(pow(x, e, dom.modulus) for x, e in zip(a.coords, mono))
                value = [(v + w * c) % dom.modulus for v, c in zip(value, vec)]
            assert tuple(value) == acc.coords
            acc = acc * a


def test_certificate_decides_m2_grassmann2_f3():
    # no basis element has a nonzero square; a seeded random element does
    r = matrix_ring(grassmann_star(2, fp(3)).ring, 2)
    v = bounded_nil_index_auto(r)
    assert v.proved and v.index == 3
    assert v.note.startswith("power chain: R^3 = 0, x^2 != 0 at x = ")
    assert ring_is_nil(r).note == "power chain: R^3 = 0"


def test_certificate_takes_a_basis_witness_first():
    v = bounded_nil_index_auto(two_z_2k(3))
    assert v.proved and v.index == 3
    assert v.note == "power chain: R^3 = 0, x^2 != 0 at x = b"


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
    assert enumerated_is_nil(r)
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


# ---------------------------------------------------------------------------
# P3.31: the degree walk against the tuple-by-tuple loop it replaced.


def reference_component_tuples(r, idx, length, tuple_cap, samples, rng, entry):
    dom = r.coeff
    if dom.finite:
        count = dom.size ** len(idx)
        if count**length <= tuple_cap:
            singles = []
            for digits in itertools.product(dom.elements(), repeat=len(idx)):
                coords = [dom.zero()] * r.rank
                for t, c in zip(idx, digits):
                    coords[t] = c
                singles.append(tuple(coords))
            return itertools.product(singles, repeat=length)
    entry["sampled"] = True
    out = []
    for _ in range(samples):
        tup = []
        for _ in range(length):
            coords = [dom.zero()] * r.rank
            for t in idx:
                coords[t] = dom.normalize(rng.randint(-3, 3))
            tup.append(tuple(coords))
        out.append(tuple(tup))
    return out


def reference_component_sample(r, idx, rng, limit):
    dom = r.coeff
    if dom.finite and dom.size ** len(idx) <= limit:
        for digits in itertools.product(dom.elements(), repeat=len(idx)):
            coords = [dom.zero()] * r.rank
            for t, c in zip(idx, digits):
                coords[t] = c
            yield tuple(coords)
        return
    for _ in range(limit):
        coords = [dom.zero()] * r.rank
        for t in idx:
            coords[t] = dom.normalize(rng.randint(-3, 3))
        yield tuple(coords)


def reference_power_report(gr, tuple_cap=10**6, samples=10**4, seed=0):
    """Every tuple multiplied one at a time with Ring.mul_coords.

    Returns the report and the first tuple whose power does not vanish, or
    None."""
    r = gr.ring
    m0, _ = neutral_ring(gr)
    if m0.rank == 0:
        return HomogeneousPowerReport(False, reason="neutral component is zero"), None
    sv = bounded_nil_index_auto(m0)
    if not sv.proved:
        return HomogeneousPowerReport(False, reason="neutral not proved nil"), None
    s = sv.index
    supp = sorted(support(gr))
    kg = {g: int(min(element_order(gr.monoid, g), len(supp))) for g in supp}
    k = math.lcm(*kg.values())
    report = HomogeneousPowerReport(True, s=s, kg=kg, k=k)
    rng = random.Random(seed)
    for g in supp:
        idx = component_indices(gr, g)
        entry = {"tuples_checked": 0, "sampled": False, "status": "PASS"}
        tuples = reference_component_tuples(r, idx, kg[g], tuple_cap, samples, rng, entry)
        for tup in tuples:
            prod = tup[0]
            for x in tup[1:]:
                prod = r.mul_coords(prod, x)
            acc = prod
            for _ in range(s - 1):
                acc = r.mul_coords(acc, prod)
            entry["tuples_checked"] += 1
            if any(not r.coeff.is_zero(c) for c in acc):
                return report, (g, tup)
        for coords in reference_component_sample(r, idx, rng, limit=64):
            a = r.element(coords)
            acc = a
            for _ in range(k * s - 1):
                acc = acc * a
                if acc.is_zero():
                    break
            if not acc.is_zero():
                return report, (g, (coords,))
        report.per_degree[g] = entry
    return report, None


def int_add_chain_grading():
    # chain ring u1, u2 (u1^2 = u2) in degree 0 plus a square-zero x in
    # degree 1 of the integers: o(1) is infinite, so k_1 = d = 2
    sc = {(0, 0): {1: 1}}
    ring = Ring(fp(5), ["u1", "u2", "x"], sc)
    return GradedRing(ring, Monoid.int_add(), [0, 0, 1])


def z5_graded_on_012():
    # F_3-ring graded by Z_5: u in degree 0 (u^2 = 0), x in degree 1 and
    # y = x^2 in degree 2; o(1) = 5 > d = 3, and x^3 lies in empty degree 3
    ring = Ring(fp(3), ["u", "x", "y"], {(1, 1): {2: 1}})
    return GradedRing(ring, Monoid.cyclic(5), [0, 1, 2])


# The walk's record per degree: (product_degree, length).  Degree e ends at
# once; elsewhere the walk reaches e at k_g = o(g), or leaves the support at
# finite order o(g) > d or at infinite order.
@pytest.mark.parametrize("gr, walks", [
    (elementary_grading(two_z_2k(3), 3), {0: (0, 1), 1: (0, 3), 2: (0, 3)}),
    (z5_graded_on_012(), {0: (0, 1), 1: (None, 3), 2: (None, 2)}),
    (int_add_chain_grading(), {0: (0, 1), 1: (None, 2)}),
], ids=["m3-2z8-z3", "z5-supp-012", "chain-int-add"])
def test_degree_walk_records(gr, walks):
    rep = homogeneous_power_report(gr)
    got = {g: (e["product_degree"], e["length"]) for g, e in rep.per_degree.items()}
    assert got == walks
    assert all(e["tuples_checked"] == 0 and e["status"] == "PASS"
               for e in rep.per_degree.values())


@pytest.mark.parametrize("gr, caps", [
    (elementary_grading(two_z_2k(3), 2), {}),
    (grassmann_star(2, fp(3)), {}),
    (int_add_chain_grading(), {}),
    (grassmann_star(3, zmod(2**61 - 1)), {"tuple_cap": 1, "samples": 300}),
    (grassmann_star(3, zmod(2**64 + 13)), {"tuple_cap": 1, "samples": 300}),
    (grassmann_star(2, rat()), {"samples": 300}),
    (elementary_grading(two_z_2k(3), 3), {"tuple_cap": 1, "samples": 300}),
    (z5_graded_on_012(), {}),
], ids=["m2-2z8", "grass2-f3", "chain-int-add", "grass3-z2^61-1",
        "grass3-z2^64+13", "grass2-q", "m3-2z8-z3", "z5-supp-012"])
def test_power_report_matches_tuple_loop(gr, caps):
    got = homogeneous_power_report(gr)
    want, counterexample = reference_power_report(gr, seed=5, **caps)
    assert got.applicable and want.applicable
    assert counterexample is None
    assert (got.s, got.k, got.kg) == (want.s, want.k, want.kg)
    assert got.per_degree.keys() == want.kg.keys()
    assert all(e["status"] == "PASS" for e in got.per_degree.values())


def test_degree_walk_raises_inside_the_support():
    # An unchecked grading by {e, a} with a*a = a, which is not left
    # cancellative: the walk of a stays at a, inside the support.
    monoid = Monoid.from_table([[0, 1], [1, 1]])
    ring = Ring(fp(2), ["u", "x"], {})
    gr = GradedRing(ring, monoid, [0, 1], check=False)
    with pytest.raises(nil.DegreeWalkInternalError, match="walk of 1 ends at 1"):
        homogeneous_power_report(gr)


# ---------------------------------------------------------------------------
# The row-wise products of the enumeration paths (``nil._coord_rows`` rows
# multiplied by ``nil._mul``) against the tuple-by-tuple loop.


def first_failing_tuple(r, tuples, exponent):
    for tup in tuples:
        prod = tup[0]
        for x in tup[1:]:
            prod = r.mul_coords(prod, x)
        acc = prod
        for _ in range(exponent - 1):
            acc = r.mul_coords(acc, prod)
        if any(acc):
            return tup
    return None


def random_ring(dom, rank, rnd):
    sc = {}
    for i, j in itertools.product(range(rank), repeat=2):
        if rnd.random() < 0.7:
            sc[(i, j)] = {rnd.randrange(rank): rnd.randint(-2, 2)}
    # the tuple check is multilinear, so associativity does not matter here
    return Ring(dom, [f"b{t}" for t in range(rank)], sc, check=False)


def first_failing_batched(r, singles, length, exponent, per=64):
    """First tuple of ``singles`` rows, in ``itertools.product`` order, whose
    product raised to ``exponent`` is nonzero, multiplied ``per`` tuples at a
    time: tuple n takes as its p-th factor the row numbered by the p-th
    base-count digit of n, most significant first."""
    count = singles.shape[0]
    total = count**length
    for lo in range(0, total, per):
        n = np.arange(lo, min(lo + per, total))
        factors = [singles[n // count ** (length - 1 - p) % count] for p in range(length)]
        prod = factors[0]
        for x in factors[1:]:
            prod = nil._mul(r, prod, x)
        acc = prod
        for _ in range(exponent - 1):
            acc = nil._mul(r, acc, prod)
        bad = np.flatnonzero(acc.any(axis=1))
        if bad.size:
            return tuple(tuple(int(v) for v in f[bad[0]]) for f in factors)
    return None


@pytest.mark.parametrize("case", range(12))
def test_batched_tuples_fail_at_the_first_product_order_tuple(case, monkeypatch):
    # Chunks of a few rows, so the first failure often lies past the first.
    monkeypatch.setattr(kernel, "_CHUNK", 8)
    rnd = random.Random(case)
    dom = [fp(2), fp(3), zmod(4)][case % 3]
    rank = rnd.randint(2, 4)
    r = random_ring(dom, rank, rnd)
    idx = sorted(rnd.sample(range(rank), rnd.randint(1, rank)))
    length, exponent = rnd.randint(2, 3), rnd.randint(1, 2)
    singles = nil._coord_rows(dom.size, idx, rank)
    got = first_failing_batched(r, singles, length, exponent)
    # the reference builds its rows itself, so this also pins the lex order
    # of ``_coord_rows``
    tuples = reference_component_tuples(
        r, idx, length, len(singles) ** length, 0, None, {})
    assert got == first_failing_tuple(r, tuples, exponent)
