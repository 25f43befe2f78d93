import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import Phase, find, given, settings, strategies as st
from rings import zero_product_ring

from gradednil import fcomm
from gradednil.fcomm import (
    FMap,
    FMapDomainError,
    PairVerdict,
    _basis_certificate,
    _element_coords,
    _pair_commutes,
    _scaled,
    check_f_commutative,
    lift_f_to_diagonal,
    scalar_f_search,
)
from gradednil.grading import elementary_grading, neutral_ring
from gradednil.nil import Status, bounded_nil_index_auto
from gradednil.ringcore import CoeffDomain, Ring, fp, matrix_ring, rat, zmod
from gradednil.specfile import emit_spec, parse_spec_text
from gradednil.theorems import PAIR_CAP, _derive_fmap
from gradednil.zoo import grassmann_star, sut, truncated_nagata, two_z_2k

from test_ringcore import CHAIN_DOMAINS, nilpotent_rings


def m2_f2():
    # M_2(F_2) as the matrix ring over the one-dimensional unital model
    return matrix_ring(Ring(fp(2), ["u"], {(0, 0): {0: 1}}), 2)


def all_elements(r):
    return list(r.elements())


def commutes(r, f, ca, cb):
    """Does the pair at coordinates ``ca``, ``cb`` commute up to ``f``?"""
    return _pair_commutes(r, f.at_coords(ca, cb), ca, cb)


def test_commutator_with_factor_one_vanishes_on_commutative():
    r = two_z_2k(3)
    f = FMap.constant(1)
    for a in all_elements(r):
        for b in all_elements(r):
            assert commutes(r, f, a.coords, b.coords)


def test_zero_factor_gives_plain_product():
    # with factor 0 a pair commutes exactly when its plain product a*b is 0
    r = m2_f2()
    f = FMap.constant(0)
    a, b = r.basis_element(0), r.basis_element(1)
    assert not (a * b).is_zero() and not commutes(r, f, a.coords, b.coords)
    assert (b * a).is_zero() and commutes(r, f, b.coords, a.coords)
    v = check_f_commutative(r, f)
    assert v.status == Status.REFUTED
    assert not (v.witness[0] * v.witness[1]).is_zero()


def test_minus_one_factor_on_grassmann():
    r = grassmann_star(2, fp(3)).ring
    f = FMap.constant(-1)
    for a in all_elements(r):
        for b in all_elements(r):
            assert commutes(r, f, a.coords, b.coords)
    assert check_f_commutative(r, f).status == Status.PROVED


def test_check_f_commutative_proved():
    r = two_z_2k(3)
    v = check_f_commutative(r, FMap.constant(1))
    assert v.status == Status.PROVED


def test_check_f_commutative_refuted_on_matrices():
    r = m2_f2()
    v = check_f_commutative(r, FMap.constant(1))
    assert v.status == Status.REFUTED
    a, b = v.witness
    assert a * b != b * a or not (a * b - (b * a)).is_zero()


def test_zero_product_ring_commutes_up_to_anything():
    r = zero_product_ring(fp(3), 2)
    for value in (0, 1, 2):
        v = check_f_commutative(r, FMap.constant(value))
        assert v.status == Status.PROVED


def test_scalar_search_commutative_gives_constant_one():
    fmap, witness = scalar_f_search(two_z_2k(3))
    assert witness is None
    assert fmap.is_constant() and fmap.value == 1


def test_scalar_search_grassmann_minus_one_on_nonzero_products():
    # -1 holds on every pair, so the search returns it as a constant; the
    # pointwise reference takes -1 on the pairs with a nonzero product and
    # 1, the first scalar, on the others, where every scalar fits
    r = grassmann_star(2, fp(3)).ring
    fmap, witness = scalar_f_search(r)
    assert witness is None
    assert fmap == FMap.constant(2) and fmap.label == "constant 2"
    rule, _ = pointwise_search_reference(r)
    assert rule.kind == "scalar-rule"
    for (ca, cb), lam in rule.rule.items():
        assert lam == (2 if any(r.mul_coords(cb, ca)) else 1)
    assert check_f_commutative(r, rule).status == Status.PROVED
    # the rule lists R's pairs and no other
    with pytest.raises(FMapDomainError):
        rule.at_coords((9, 9, 9), (9, 9, 9))


def test_pair_table_fmap_with_table_action():
    # a pair-table factor on a zero-product ring; the action is the scalar
    # one, the only kind left
    r = zero_product_ring(fp(3), 1)
    f = FMap("pair-table", rule={(a.coords, b.coords): 0
                                 for a in all_elements(r)
                                 for b in all_elements(r)})
    v = check_f_commutative(r, f)
    assert v.status == Status.PROVED
    with pytest.raises(FMapDomainError):
        f.at_coords((9,), (9,))


def test_scalar_search_none_on_matrices():
    fmap, witness = scalar_f_search(m2_f2())
    assert fmap is None
    a, b = witness
    ab, ba = a * b, b * a
    assert not ab.is_zero() and ba.is_zero()


def test_search_result_always_passes_check():
    for ring in (two_z_2k(3), grassmann_star(2, fp(3)).ring,
                 zero_product_ring(zmod(6), 2)):
        fmap, _ = scalar_f_search(ring)
        assert fmap is not None
        v = check_f_commutative(ring, fmap)
        assert v.status == Status.PROVED


# the reference's status when no sampled tuple refutes: the program makes no
# such verdict
SAMPLED = "SAMPLED"


def rewrite_identity_check(r, f, tuple_cap=10**6, samples=10**4, seed=0):
    """Verify both commutation-factor rewriting chains on 7-tuples.

    For x, m1, y, m2, z, m3, t the product x m1 y m2 z m3 t must equal

      (f(x,m1).m1)(f(xy,m2).m2)(f(xyz,m3).m3) x y z t          (left chain)
      x (f(m1,y).y)(f(m1 m2,z).z) m1 m2 m3 t                   (right chain)

    whenever the ring commutes up to f.  Exhaustive when the 7-th power of
    the element count fits the cap, else seeded samples.
    """
    dom = r.coeff
    act = lambda s, coords: _scaled(dom, s, coords)
    count = r.element_count()
    exhaustive = count is not None and count**7 <= tuple_cap
    if exhaustive:
        coords_list = _element_coords(r)
        tuples = itertools.product(coords_list, repeat=7)
    else:
        rng = random.Random(seed)
        if dom.finite:
            draw = lambda: tuple(rng.randrange(dom.size) for _ in range(r.rank))
        else:
            draw = lambda: tuple(
                dom.normalize(rng.randint(-2, 2)) for _ in range(r.rank)
            )
        tuples = (tuple(draw() for _ in range(7)) for _ in range(samples))
    checked = 0
    for x, m1, y, m2, z, m3, t in tuples:
        mul = r.mul_coords
        lhs = mul(mul(mul(mul(mul(mul(x, m1), y), m2), z), m3), t)
        xy = mul(x, y)
        xyz = mul(xy, z)
        left = mul(
            mul(
                mul(act(f.at_coords(x, m1), m1),
                    act(f.at_coords(xy, m2), m2)),
                act(f.at_coords(xyz, m3), m3),
            ),
            mul(xyz, t),
        )
        m1m2 = mul(m1, m2)
        right = mul(
            mul(
                mul(x, act(f.at_coords(m1, y), y)),
                act(f.at_coords(m1m2, z), z),
            ),
            mul(mul(m1m2, m3), t),
        )
        if lhs != left or lhs != right:
            side = "left" if lhs != left else "right"
            return PairVerdict(
                Status.REFUTED,
                witness=tuple(r.element(c) for c in (x, m1, y, m2, z, m3, t)),
                note=f"{side} rewriting chain differs",
            )
        checked += 1
    note = f"{checked} tuples ({'exhaustive' if exhaustive else f'seed={seed}'})"
    return PairVerdict(
        Status.PROVED if exhaustive else SAMPLED, note=note
    )


def test_rewrite_identities_commutative():
    r = two_z_2k(3)
    v = rewrite_identity_check(r, FMap.constant(1))
    assert v.status == Status.PROVED  # 4^7 tuples, exhaustive


def test_rewrite_identities_zero_product():
    r = zero_product_ring(fp(2), 2)
    v = rewrite_identity_check(r, FMap.constant(1))
    assert v.status == Status.PROVED


def test_rewrite_identities_grassmann_rule_sampled():
    r = grassmann_star(2, fp(3)).ring
    fmap, _ = pointwise_search_reference(r)
    v = rewrite_identity_check(r, fmap, samples=2000, seed=7)
    assert v.status == SAMPLED


def test_rewrite_identities_fail_without_f_commutativity():
    # constant 1 on a noncommutative ring: the chains must break somewhere
    r = m2_f2()
    v = rewrite_identity_check(r, FMap.constant(1), samples=500)
    assert v.status == Status.REFUTED
    assert len(v.witness) == 7


def test_lift_commutative_base():
    r = two_z_2k(3)
    base = check_f_commutative(r, FMap.constant(1))
    assert lift_f_to_diagonal(base).status == Status.PROVED


def test_lift_grassmann_rule():
    # the pointwise rule is decided on R's pairs alone
    r = grassmann_star(2, fp(3)).ring
    fmap, _ = pointwise_search_reference(r)
    assert fmap.kind == "scalar-rule"
    base = check_f_commutative(r, fmap)
    assert base.note == "exhaustive over 27^2 pairs"
    assert lift_f_to_diagonal(base).status == Status.PROVED


# --- The basis-pair certificate for constant factors, checked against the
# element-pair loops it replaced, kept here as references.


def exhaustive_reference(r, f):
    """Every element pair through ``_pair_commutes``; REFUTED at the first failure."""
    coords = [e.coords for e in r.elements()]
    for ca in coords:
        for cb in coords:
            if not commutes(r, f, ca, cb):
                return Status.REFUTED
    return Status.PROVED


def basis_pair_reference(r, f):
    """The basis pairs in product order, each multiplied out through
    ``_pair_commutes``; REFUTED at the first failure."""
    basis = [r.basis_element(t).coords for t in range(r.rank)]
    for ca, cb in itertools.product(basis, repeat=2):
        if not commutes(r, f, ca, cb):
            return PairVerdict(Status.REFUTED, witness=(r.element(ca), r.element(cb)))
    return PairVerdict(Status.PROVED, note=f"bilinear: {r.rank}^2 basis pairs")


def scalar_order(dom):
    """1, -1, 0 and then the other elements of a finite domain, each once."""
    return list(dict.fromkeys([dom.normalize(1), dom.normalize(-1), dom.zero(),
                               *dom.elements()]))


def pointwise_search_reference(r):
    """The pointwise scalar search over a finite domain, without any shortcut:
    every pair takes the first scalar that fits it, and the rule is
    compressed to a constant when every pair takes the same one."""
    dom = r.coeff
    candidates = scalar_order(dom)
    coords = [e.coords for e in r.elements()]
    rule = {}
    for ca in coords:
        for cb in coords:
            ab, ba = r.mul_coords(ca, cb), r.mul_coords(cb, ca)
            lam = next((c for c in candidates
                        if ab == tuple(dom.mul(c, v) for v in ba)), None)
            if lam is None:
                return None, (r.element(ca), r.element(cb))
            rule[(ca, cb)] = lam
    values = set(rule.values())
    if len(values) == 1:
        return FMap.constant(values.pop()), None
    return FMap.from_rule(rule), None


@st.composite
def constant_factor_cases(draw, dom, max_rank):
    """A random ring and a constant factor for it.

    Unless the products are drawn freely the ring is twisted,
    b_j b_i = mu * b_i b_j for i < j, and the factor is often mu, so that
    PROVED and REFUTED both occur.
    Rings skip their associativity check: the certificate needs only
    bilinearity.
    """
    if dom.finite:
        coeff = st.one_of(st.just(0), st.sampled_from((1, -1, 2)),
                          st.integers(0, dom.size - 1))
    else:
        coeff = st.one_of(st.just(0), st.sampled_from((1, -1, 2)),
                          st.fractions(min_value=-5, max_value=5, max_denominator=4))
    rank = draw(st.integers(1, max_rank))
    mu = draw(st.one_of(st.sampled_from((1, -1, 0)), coeff))
    free = draw(st.booleans())
    zero_diagonal = draw(st.booleans())

    def vector():
        return {k: draw(coeff) for k in range(rank)}

    sc = {}
    for i in range(rank):
        sc[(i, i)] = {} if zero_diagonal else vector()
        for j in range(i + 1, rank):
            sc[(i, j)] = vector()
            sc[(j, i)] = vector() if free else {k: mu * c for k, c in sc[(i, j)].items()}
    ring = Ring(dom, [f"b{t}" for t in range(rank)], sc, check=False)
    value = dom.normalize(draw(st.one_of(st.just(mu), st.sampled_from((1, -1, 0)), coeff)))
    return ring, FMap.constant(value)


# element count at most 64, so the reference loop stays small
SMALL = [(fp(2), 3), (zmod(4), 3), (fp(5), 2), (zmod(6), 2)]


@pytest.mark.parametrize("dom,max_rank", SMALL, ids=["f2", "z4", "f5", "z6"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_certificate_matches_exhaustive_reference(dom, max_rank, data):
    r, f = data.draw(constant_factor_cases(dom, max_rank))
    v = check_f_commutative(r, f, pair_cap=0)
    assert v.status == exhaustive_reference(r, f)
    assert v == basis_pair_reference(r, f)
    if v.status == Status.REFUTED:
        a, b = v.witness
        assert not commutes(r, f, a.coords, b.coords)
    else:
        assert v.note == f"bilinear: {r.rank}^2 basis pairs"


@pytest.mark.parametrize("dom", [zmod(2**61 - 1), zmod(2**64 + 13), rat()],
                         ids=lambda d: d.label())
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_certificate_holds_on_random_pairs_past_enumeration(dom, data):
    r, f = data.draw(constant_factor_cases(dom, 3))
    v = check_f_commutative(r, f)
    assert v == basis_pair_reference(r, f)
    if v.status == Status.REFUTED:
        a, b = v.witness
        assert not commutes(r, f, a.coords, b.coords)
        return
    assert v.status == Status.PROVED
    rng = random.Random(11)
    if dom.finite:
        draw = lambda: tuple(rng.randrange(dom.size) for _ in range(r.rank))
    else:
        draw = lambda: tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                             for _ in range(r.rank))
    for _ in range(50):
        assert commutes(r, f, draw(), draw())


def test_certificate_refutes_on_a_diagonal_pair_only():
    # b0*b0 = b1 and every other product is zero: with f = -1 only the pair
    # (b0, b0) fails, 2*b1 != 0 over F_5
    r = Ring(fp(5), ["b0", "b1"], {(0, 0): {1: 1}})
    v = check_f_commutative(r, FMap.constant(-1))
    assert v.status == Status.REFUTED
    assert v.witness == (r.basis_element(0), r.basis_element(0))


def test_constant_minus_one_on_rational_grassmann_is_proved():
    r = grassmann_star(2, rat()).ring
    v = check_f_commutative(r, FMap.constant(-1))
    assert v.status == Status.PROVED
    assert v.note == "bilinear: 3^2 basis pairs"


@pytest.mark.parametrize("ring", [
    two_z_2k(3),
    grassmann_star(2, fp(3)).ring,
    m2_f2(),
    zero_product_ring(zmod(6), 2),
], ids=["2Z_8", "grassmann2-f3", "M2-f2", "zero-product-z6"])
def test_scalar_search_matches_pointwise_reference(ring):
    assert_search_matches_reference(ring)


def search_reference(r):
    """What ``scalar_f_search`` returns, read off the pointwise reference: its
    witness or its constant unchanged; in place of a rule, the first scalar
    in ``scalar_order`` that ``basis_pair_reference`` proves, else the rule."""
    ref, witness = pointwise_search_reference(r)
    if ref is None or ref.is_constant():
        return ref, witness
    for c in scalar_order(r.coeff):
        if basis_pair_reference(r, FMap.constant(c)).proved:
            return FMap.constant(c), None
    return ref, None


def assert_search_matches_reference(r):
    fmap, witness = scalar_f_search(r)
    ref, ref_witness = search_reference(r)
    assert witness == ref_witness
    if ref is None:
        assert fmap is None
    else:
        assert (fmap.kind, fmap.value, fmap.label) == (ref.kind, ref.value, ref.label)
        assert fmap == ref


# element count at most 64, so the reference's 64^2 pairs stay cheap
SEARCH_DOMAINS = [(fp(2), 3), (fp(3), 3), (zmod(4), 3), (zmod(6), 2)]


@pytest.mark.parametrize("dom,max_rank", SEARCH_DOMAINS, ids=["f2", "f3", "z4", "z6"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_scalar_search_matches_pointwise_reference_on_random_rings(dom, max_rank, data):
    r, _ = data.draw(constant_factor_cases(dom, max_rank))
    assert_search_matches_reference(r)


def test_random_rings_reach_a_rule_with_a_constant():
    # the strategy draws rings on which the reference builds a rule, though
    # a constant holds and the search returns it, as on grassmann-star(2)
    def reference_kind(case):
        ref, _ = pointwise_search_reference(case[0])
        return ref is not None and not ref.is_constant()

    # about 4% of draws qualify, so 1,000 draws all miss with odds below 1e-17
    unshrunk = settings(database=None, phases=[Phase.generate], max_examples=1000)
    r, _ = find(constant_factor_cases(fp(3), 3), reference_kind, settings=unshrunk)
    assert scalar_f_search(r)[0].is_constant()


def test_d7_ring_derives_a_constant_with_no_product(monkeypatch):
    # M_2(grassmann-star(2, F_3)) derived a rule on all 729^2 pairs of its
    # neutral component, R x R, though -1 holds
    gr = elementary_grading(grassmann_star(2, fp(3)).ring, 2)
    calls = []
    mul = Ring.mul_coords

    def counted(self, a, b):
        calls.append((a, b))
        return mul(self, a, b)

    monkeypatch.setattr(Ring, "mul_coords", counted)
    fmap, why = _derive_fmap(gr, PAIR_CAP)
    assert why is None and calls == []
    assert fmap == FMap.constant(2) and fmap.label == "constant 2"


def test_factor_three_over_z8_is_solved_with_no_certificate_or_product(monkeypatch):
    # b0 b1 = b2 and b1 b0 = 3 b2 over Z/8: 3 is the factor, since 3*3 = 1;
    # a scan of the scalars puts 1, 7, 0, 2 and 3 to the certificate
    r = Ring(zmod(8), ["b0", "b1", "b2"], {(0, 1): {2: 1}, (1, 0): {2: 3}})
    certified, multiplied = [], []
    certificate, mul = _basis_certificate, Ring.mul_coords

    def recorded(ring, f):
        certified.append(f.value)
        return certificate(ring, f)

    def counted(self, a, b):
        multiplied.append((a, b))
        return mul(self, a, b)

    monkeypatch.setattr(fcomm, "_basis_certificate", recorded)
    monkeypatch.setattr(Ring, "mul_coords", counted)
    fmap, witness = scalar_f_search(r)
    assert witness is None and fmap.label == "constant 3"
    assert certified == [] and multiplied == []


def test_factor_near_2_62_is_solved_at_once(monkeypatch):
    # m = 2^62 - 1 = 3 * (m/3), and l = 1 mod 3, l = -1 mod m/3, so l^2 = 1
    # while l is neither 1 nor -1: a scan of the scalars would put about
    # 2m/3 of them to the certificate before reaching l
    m, lam = 2**62 - 1, 3074457345618258601
    assert (lam % 3, (lam + 1) % (m // 3), lam * lam % m) == (1, 0, 1)
    r = Ring(zmod(m), ["b0", "b1", "b2"], {(0, 1): {2: lam}, (1, 0): {2: 1}})

    def refused(*args):
        raise AssertionError("the search tried a scalar or listed the domain")

    monkeypatch.setattr(fcomm, "_basis_certificate", refused)
    monkeypatch.setattr(CoeffDomain, "elements", refused)
    fmap, witness = scalar_f_search(r, pair_cap=r.element_count() ** 2)
    assert witness is None and fmap.label == f"constant {lam}"


class Enumerated(Exception):
    """Raised in place of listing a ring's elements."""


def solved_constant(r):
    """The constant ``scalar_f_search`` solves on a ring over a finite
    domain, with the pair cap at count^2, or None when it finds none and
    turns to the element pairs, which are then not listed."""
    def listed(ring):
        raise Enumerated

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fcomm, "_element_coords", listed)
        try:
            fmap, witness = scalar_f_search(r, pair_cap=r.element_count() ** 2)
        except Enumerated:
            return None
    assert witness is None and fmap.is_constant()
    return fmap.value


def scanned_constant(r):
    """The scan the solve replaced: the first scalar in ``scalar_order``
    that ``basis_pair_reference`` proves, or None."""
    return next((c for c in scalar_order(r.coeff)
                 if basis_pair_reference(r, FMap.constant(c)).proved), None)


@st.composite
def factored_rings(draw, dom, max_rank):
    """A ring over Z/m that commutes up to a drawn l, often neither 1 nor -1.

    b_i b_j = l.(b_j b_i) for i < j, which l fits on the pair (j, i) too
    when (l^2 - 1).(b_j b_i) = 0, so b_j b_i is drawn in the annihilator of
    l^2 - 1, and a square in that of l - 1.  Its entries are multiples of
    divisors of m, so the solve meets classes modulo several divisors.  Now
    and then one entry is moved off, so that l, and perhaps every scalar,
    fails.
    """
    m = dom.modulus
    rank = draw(st.integers(1, max_rank))
    lam = draw(st.integers(0, m - 1))
    square, twist = m // gcd(lam - 1, m), m // gcd(lam * lam - 1, m)

    def vector(step):
        return {k: step * draw(st.integers(0, m - 1)) for k in range(rank)}

    sc = {}
    for i in range(rank):
        sc[(i, i)] = vector(square)
        for j in range(i + 1, rank):
            sc[(j, i)] = vector(twist)
            sc[(i, j)] = {k: lam * c for k, c in sc[(j, i)].items()}
    if draw(st.integers(0, 4)) == 0:
        i, j, k = (draw(st.integers(0, rank - 1)) for _ in range(3))
        sc[(i, j)][k] = sc[(i, j)].get(k, 0) + draw(st.integers(1, m - 1))
    return Ring(dom, [f"b{t}" for t in range(rank)], sc, check=False)


# CRT on moduli that are not coprime (Z/12, Z/30, Z/36), a modulus that is
# not squarefree (Z/12, Z/36) and a field
@pytest.mark.parametrize("dom", [zmod(12), zmod(30), zmod(36), fp(7)], ids=str)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_solved_constant_is_the_first_the_scan_proves(dom, data):
    r = data.draw(st.one_of(constant_factor_cases(dom, 3).map(lambda case: case[0]),
                            factored_rings(dom, 3)))
    assert solved_constant(r) == scanned_constant(r)


def test_factored_rings_reach_constants_past_the_signs():
    # the strategy draws rings whose least factor is neither 1 nor -1, and
    # rings with no constant factor; each kind is 6% of draws or more,
    # so 1,000 draws all miss with odds below 1e-26
    unshrunk = settings(database=None, phases=[Phase.generate], max_examples=1000)
    for dom in (zmod(12), zmod(36)):
        find(factored_rings(dom, 3), lambda r: solved_constant(r) not in
             (None, 1, dom.modulus - 1), settings=unshrunk)
        find(factored_rings(dom, 3), lambda r: solved_constant(r) is None,
             settings=unshrunk)


@pytest.mark.parametrize("dom", [zmod(2**61 - 1), zmod(2**64 + 13)], ids=str)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_solved_constant_passes_the_certificate_past_enumeration(dom, data):
    r, f = data.draw(constant_factor_cases(dom, 3))
    lam = solved_constant(r)
    proved = [c for c in (1, -1) if basis_pair_reference(r, FMap.constant(c)).proved]
    if lam is None:
        assert not proved and not basis_pair_reference(r, f).proved
        return
    assert basis_pair_reference(r, FMap.constant(lam)).proved
    if proved:
        assert lam == dom.normalize(proved[0])


def test_constant_one_never_lists_the_domain(monkeypatch):
    # the scalars are made one at a time, so a search that stops at 1 costs
    # nothing at any modulus; at p = 2^61 - 1 a list of the domain's
    # elements could not be built
    p = 2**61 - 1

    def listed(dom):
        raise AssertionError(f"the search listed the elements of {dom}")

    monkeypatch.setattr(CoeffDomain, "elements", listed)
    fmap, witness = scalar_f_search(zero_product_ring(fp(p), 1), pair_cap=p * p)
    assert witness is None and fmap.label == "constant 1"


def rational_constant_reference(r):
    """The constant a ring over Q commutes up to, or None: l is solved from
    the first basis pair (b_i, b_j) with b_j*b_i != 0 (1 if there is none)
    and kept if it passes the basis-pair certificate."""
    lam = Fraction(1)
    basis = [r.basis_element(t).coords for t in range(r.rank)]
    for ca, cb in itertools.product(basis, repeat=2):
        ab, ba = r.mul_coords(ca, cb), r.mul_coords(cb, ca)
        k = next((k for k, v in enumerate(ba) if v), None)
        if k is not None:
            lam = ab[k] / ba[k]
            break
    f = FMap.constant(lam)
    return f if _basis_certificate(r, f).proved else None


@st.composite
def twisted_minus_one_rings(draw):
    """A ring over Q twisted by mu = -1, b_j b_i = -(b_i b_j) for i < j,
    with a zero diagonal three times in four, so that it often commutes up
    to -1; otherwise a square b_i b_i is drawn, which -1 fits only if it is
    zero.  Now and then one coefficient of one b_j b_i is moved off the
    twist, so that no constant fits."""
    coeff = st.one_of(st.just(Fraction(0)), st.sampled_from((1, -1, 2)).map(Fraction),
                      st.fractions(min_value=-5, max_value=5, max_denominator=4))
    rank = draw(st.integers(2, 4))
    zero_diagonal = draw(st.integers(0, 3)) > 0

    def vector():
        return {k: draw(coeff) for k in range(rank)}

    sc = {}
    for i in range(rank):
        sc[(i, i)] = {} if zero_diagonal else vector()
        for j in range(i + 1, rank):
            sc[(i, j)] = vector()
            sc[(j, i)] = {k: -c for k, c in sc[(i, j)].items()}
    if draw(st.integers(0, 4)) == 0:
        i, j = sorted(draw(st.lists(st.integers(0, rank - 1), min_size=2, max_size=2,
                                    unique=True)))
        k = draw(st.integers(0, rank - 1))
        sc[(j, i)][k] = sc[(j, i)].get(k, 0) + draw(coeff)
    return Ring(rat(), [f"b{t}" for t in range(rank)], sc, check=False)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_rational_search_finds_the_constant_exactly(data):
    # over Q the search puts 1 and -1 to the certificate: exact, since no
    # other constant can pass; the twisted rings test the -1 branch
    r = data.draw(st.one_of(constant_factor_cases(rat(), 3).map(lambda case: case[0]),
                            twisted_minus_one_rings()))
    fmap, witness = scalar_f_search(r)
    ref = rational_constant_reference(r)
    assert witness is None
    if ref is None:
        assert fmap is None
    else:
        assert fmap.is_constant()
        assert (fmap.value, fmap.label) == (ref.value, ref.label)


def test_twisted_rings_reach_the_minus_one_branch():
    # the strategy draws rings on which the search and the reference both
    # return -1, and rings twisted by -1 on which neither returns a constant
    def values(r):
        return [getattr(f, "value", None)
                for f in (scalar_f_search(r)[0], rational_constant_reference(r))]

    unshrunk = settings(database=None, phases=[Phase.generate])
    find(twisted_minus_one_rings(), lambda r: values(r) == [-1, -1], settings=unshrunk)
    find(twisted_minus_one_rings(), lambda r: values(r) == [None, None], settings=unshrunk)


def test_rational_grassmann_derives_minus_one_exactly():
    fmap, witness = scalar_f_search(grassmann_star(2, rat()).ring)
    assert witness is None
    assert fmap == FMap.constant(-1) and fmap.label == "constant -1"


def test_pointwise_rule_over_the_rationals_is_a_domain_error():
    q = Ring(rat(), ["b"], {(0, 0): {0: 2}})
    rule = FMap.from_rule({((Fraction(1),), (Fraction(1),)): Fraction(1)})
    with pytest.raises(FMapDomainError, match="every pair over rat"):
        check_f_commutative(q, rule)


def test_scalar_action_validation_at_large_modulus():
    # the scalar action is never validated, so a constant factor parses and
    # is decided at a modulus far past any list of its scalars
    r = Ring(zmod(2**61 - 1), ["b"], {(0, 0): {0: 3}})
    parsed = parse_spec_text(emit_spec(r, fmap_mode="constant 1"))
    assert parsed.fmap == FMap.constant(1)
    assert check_f_commutative(r, parsed.fmap).proved


# --- The scalar action is not validated: scalar multiplication obeys both
# action laws in every algebra over a commutative ring.  The loop that once
# validated actions is kept here as a reference, over the scalars it sampled.


def scalar_law_failure(r, act_coords):
    """The first (law, witness) at which ``act_coords`` breaks an action law on
    basis vectors, or None; scalars 0, +-1, +-2 and the whole domain when it
    has at most 64 elements."""
    dom = r.coeff
    sample = [dom.normalize(v) for v in (0, 1, -1, 2, -2)]
    if dom.finite and dom.size <= 64:
        sample += [dom.normalize(v) for v in dom.elements()]
    basis = [r.basis_element(t).coords for t in range(r.rank)]
    for lam, gam in itertools.product(sample, repeat=2):
        for t, x in enumerate(basis):
            if act_coords(dom.mul(lam, gam), x) != act_coords(lam, act_coords(gam, x)):
                return "semigroup", (lam, gam, t)
    for lam in sample:
        for i, j in itertools.product(range(r.rank), repeat=2):
            xy = r.mul_coords(basis[i], basis[j])
            if act_coords(lam, xy) != r.mul_coords(act_coords(lam, basis[i]), basis[j]):
                return "product", (lam, i, j)
    return None


@given(nilpotent_rings(CHAIN_DOMAINS, st.booleans()))
@settings(max_examples=100, deadline=None)
def test_scalar_action_obeys_action_laws(r):
    assert scalar_law_failure(r, lambda s, coords: _scaled(r.coeff, s, coords)) is None


def test_scalar_law_reference_catches_a_broken_action():
    r = two_z_2k(3)
    shifted = lambda s, coords: _scaled(r.coeff, r.coeff.add(s, 1), coords)
    assert scalar_law_failure(r, shifted)[0] == "semigroup"


def test_constant_certificate_multiplies_nothing(monkeypatch):
    # a constant factor is decided on the structure constants alone
    r = truncated_nagata(3, 3)
    calls = []
    mul = Ring.mul_coords

    def counted(self, a, b):
        calls.append((a, b))
        return mul(self, a, b)

    monkeypatch.setattr(Ring, "mul_coords", counted)
    v = check_f_commutative(r, FMap.constant(1))
    assert v.status == Status.PROVED and calls == []


# --- The diagonal lift.  T3.26 reads it off the check on R, because the
# neutral component of the 2x2 elementary grading is R x R.  The element-pair
# loop it replaced is kept here as a reference: every pair of that component,
# with the lifted factor (f(a, c), f(b, d)) acting on each diagonal block.


def diagonal_lift_reference(r, f):
    """Every pair ((a, b), (c, d)) of the diagonal; REFUTED at the first pair
    that does not commute up to the componentwise lift of f."""
    m0, _ = neutral_ring(elementary_grading(r, 2))
    n = r.rank

    def lifted_act(s, coords):
        return _scaled(r.coeff, s[0], coords[:n]) + _scaled(r.coeff, s[1], coords[n:])

    coords = [e.coords for e in m0.elements()]
    for ca in coords:
        for cb in coords:
            s = (f.at_coords(ca[:n], cb[:n]), f.at_coords(ca[n:], cb[n:]))
            if m0.mul_coords(ca, cb) != lifted_act(s, m0.mul_coords(cb, ca)):
                return Status.REFUTED
    return Status.PROVED


@st.composite
def lift_cases(draw, dom, rank):
    """An associative ring R of at most 8 elements and a factor map.

    Over F_2 at rank 3, R is square-zero: b_0 and b_1 multiply into b_2, which
    annihilates everything, so every triple product vanishes whatever the
    coefficients, and R need not commute.  At rank 1, b*b = c*b.  The map is
    a constant or a pointwise scalar rule; a rule drawn from the scalars that
    fit each pair is often valid, so PROVED and REFUTED both occur.
    """
    coeff = st.integers(0, dom.size - 1)
    if rank == 1:
        sc = {(0, 0): {0: draw(coeff)}}
    else:
        sc = {(i, j): {2: draw(coeff)} for i in range(2) for j in range(2)}
    r = Ring(dom, [f"b{t}" for t in range(rank)], sc)
    coords = [e.coords for e in r.elements()]
    pairs = [(ca, cb) for ca in coords for cb in coords]
    if draw(st.booleans()):
        f = FMap.constant(draw(coeff))
    else:
        fit = draw(st.booleans())
        rule = {}
        for ca, cb in pairs:
            ba = r.mul_coords(cb, ca)
            ok = [s for s in range(dom.size) if r.mul_coords(ca, cb) == _scaled(dom, s, ba)]
            rule[(ca, cb)] = draw(st.sampled_from(ok) if fit and ok else coeff)
        f = FMap.from_rule(rule)
    return r, f


@pytest.mark.parametrize("dom,rank", [(fp(2), 3), (zmod(4), 1), (zmod(6), 1),
                                      (fp(7), 1)], ids=["f2", "z4", "z6", "f7"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_lift_matches_diagonal_pair_reference(dom, rank, data):
    r, f = data.draw(lift_cases(dom, rank))
    # every pointwise rule is checked on all of its pairs, so a pair cap of
    # 0 leaves the verdict exact
    base = check_f_commutative(r, f, pair_cap=0)
    assert lift_f_to_diagonal(base).status == diagonal_lift_reference(r, f)


@pytest.mark.parametrize("ring", [
    sut(5, fp(2)).ring,
    matrix_ring(two_z_2k(3), 2),
    grassmann_star(3, fp(5)).ring,
    truncated_nagata(2, 3),
], ids=["sut5", "m2z8", "grass3", "nagata23"])
def test_diagonal_nil_index_is_the_base_index(ring):
    # T3.26 takes the diagonal nil index from R; recomputed on R x R it agrees
    m0, _ = neutral_ring(elementary_grading(ring, 2))
    base, diag = bounded_nil_index_auto(ring), bounded_nil_index_auto(m0)
    assert base.proved
    assert (diag.status, diag.index) == (base.status, base.index)
