import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradednil import ringcore
from gradednil.nil import _index_bound
from gradednil.ringcore import (
    AssociativityError,
    Ring,
    RingMismatchError,
    Submodule,
    fp,
    generated_subalgebra,
    matrix_ring,
    min_generators,
    mul,
    parse_domain,
    power_chain,
    rat,
    zmod,
)
from gradednil.zoo import (
    grassmann_star,
    sut,
    truncated_nagata,
    truncated_poly_positive,
    two_z_2k,
)


def zero_product_ring(dom, rank):
    return Ring(dom, [f"b{t}" for t in range(rank)], {})


def idempotent_ring(dom):
    return Ring(dom, ["b"], {(0, 0): {0: 1}})


def test_domain_parsing_and_validation():
    assert parse_domain("zmod 6").label() == "zmod 6"
    assert parse_domain("f5") == fp(5)
    assert parse_domain("q") == rat()
    with pytest.raises(ValueError):
        fp(6)
    with pytest.raises(ValueError):
        zmod(1)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    assert [n for n in range(10**5) if ringcore._is_prime(n) != trial(n)] == []


@pytest.mark.parametrize("n", [
    3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
    3825123056546413051,  # strong pseudoprime to every prime base up to 31
    43 * 10**23,  # past the Miller-Rabin bound, but the base 2 divides it
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not ringcore._is_prime(n)


def test_base_41_exposes_the_least_pseudoprime_to_bases_up_to_37():
    # the former exactness bound: composite, yet a strong probable prime to
    # every prime base up to 37
    assert not ringcore._is_prime(318665857834031151167461)
    with pytest.raises(ValueError, match="not prime"):
        fp(318665857834031151167461)


@pytest.mark.parametrize("m", [2**89 - 1, 3317044064679887385961981, 2 * 10**30])
def test_fp_refuses_moduli_past_the_exact_primality_bound(m):
    # 2^89 - 1 is prime but past the bound; the bound itself is a strong
    # pseudoprime to every prime base up to 41
    with pytest.raises(ValueError, match="not below 3317044064679887385961981"):
        fp(m)
    if m % 2:
        with pytest.raises(ValueError, match="decided only below"):
            ringcore._is_prime(m)


def test_fp_accepts_moduli_near_the_int64_limit():
    # trial division to sqrt(2^61 - 1) did not finish; Miller-Rabin is instant
    assert fp(2**61 - 1).modulus == 2**61 - 1
    assert fp(2**63 - 25).modulus == 2**63 - 25
    with pytest.raises(ValueError, match="not prime"):
        fp(2**63 - 1)


def test_sut3_matrix_units_multiply():
    r = sut(3, fp(2)).ring
    e12, e13, e23 = r.basis()
    assert e12 * e23 == e13
    assert (e23 * e12).is_zero()
    assert (e12 * e12).is_zero()


def test_two_z8_model_square():
    r = two_z_2k(3)
    b = r.basis_element(0)
    assert b * b == b.scale(2)


def test_zero_ring_products_vanish():
    r = zero_product_ring(fp(3), 2)
    a = r.element([1, 2])
    assert (a * a).is_zero()


def test_ring_mismatch_rejected():
    a = two_z_2k(3).basis_element(0)
    b = zero_product_ring(zmod(4), 1).basis_element(0)
    with pytest.raises(RingMismatchError):
        mul(a, b)


def test_associativity_violation_names_triple():
    # x*x = y, x*y = x is not associative: (xx)x = yx = 0, x(xx) = xy = x.
    with pytest.raises(AssociativityError) as err:
        Ring(fp(2), ["x", "y"], {(0, 0): {1: 1}, (0, 1): {0: 1}})
    assert err.value.triple == (0, 0, 0)


def test_element_arithmetic():
    r = two_z_2k(3)
    a = r.element([3])
    b = r.element([2])
    assert (a + b).coords == (1,)
    assert (a - b).coords == (1,)
    assert (-a).coords == (1,)
    assert a.scale(2).coords == (2,)


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=64, deadline=None)
def test_random_element_associativity_grassmann(i, j, k):
    r = grassmann_star(2, fp(5)).ring
    rng = random.Random(i * 16 + j * 4 + k)
    a = r.element([rng.randrange(5) for _ in range(3)])
    b = r.element([rng.randrange(5) for _ in range(3)])
    c = r.element([rng.randrange(5) for _ in range(3)])
    assert (a * b) * c == a * (b * c)


def test_matrix_ring_size_one_keeps_constants():
    r = two_z_2k(3)
    m1 = matrix_ring(r, 1)
    assert m1.rank == r.rank
    assert m1.sc == r.sc


def test_matrix_ring_over_zero_ring_is_zero():
    m2 = matrix_ring(zero_product_ring(fp(2), 1), 2)
    assert m2.rank == 4
    assert m2.sc == {}


def test_matrix_ring_m2_two_z8():
    r = two_z_2k(3)
    m2 = matrix_ring(r, 2)
    # E11(b) * E12(b) = E12(b*b) = E12(2b)
    e11 = m2.basis_element(0)
    e12 = m2.basis_element(1)
    prod = e11 * e12
    assert prod == e12.scale(2)
    # E12(b) * E11(b) = 0: inner indices do not match
    assert (e12 * e11).is_zero()


def test_power_chain_sut3():
    r = sut(3, fp(2)).ring
    chain = power_chain(r)
    assert len(chain) == 3
    assert len(chain[0]) == 3
    assert chain[1].rows == ((0, 1, 0),)  # span{E13}
    assert chain[2].is_zero()


def test_power_chain_two_z8():
    chain = power_chain(two_z_2k(3))
    assert [list(s.rows) for s in chain] == [[(1,)], [(2,)], []]


def test_power_chain_stabilizes_on_idempotent():
    chain = power_chain(idempotent_ring(fp(3)))
    assert len(chain) == 2
    assert chain[0] == chain[1]
    assert not chain[-1].is_zero()


def reference_power_chain(r):
    """The power chain recomputed from scratch, kept nowhere, as rows."""
    basis = [b.coords for b in r.basis()]
    chain = [Submodule(r, basis)]
    while not chain[-1].is_zero() and (len(chain) == 1 or chain[-1] != chain[-2]):
        chain.append(Submodule(r, [r.mul_coords(row, b) for row in chain[-1].rows for b in basis]))
    return [s.rows for s in chain]


def chain_rows(r):
    return [s.rows for s in power_chain(r)]


def plus_idempotent(r):
    """r x F e with e^2 = e: not nilpotent, and e lies in R^2."""
    e = r.rank
    sc = dict(r.sc)
    sc[(e, e)] = {e: 1}
    return Ring(r.coeff, list(r.names) + ["e"], sc)


@pytest.mark.parametrize("make", [
    lambda: Ring(fp(2), [], {}),
    lambda: zero_product_ring(fp(3), 2),
    lambda: two_z_2k(3),
    lambda: sut(4, fp(2)).ring,
    lambda: idempotent_ring(fp(3)),
    lambda: Ring(zmod(3**6), ["b"], {(0, 0): {0: 3**6 - 3}}),
    lambda: grassmann_star(2, rat()).ring,
    lambda: matrix_ring(idempotent_ring(fp(2)), 2),
    lambda: plus_idempotent(sut(3, fp(2)).ring),
    # R^2 = span(2b) has the non-unit Howell pivot 2, so b stays a generator
    lambda: Ring(zmod(4), ["a", "b"], {(0, 0): {1: 2}}),
    lambda: Ring(zmod(6), ["b"], {(0, 0): {0: 2}}),
    # R^2 = span(b, 2c) has the unit pivot b, so S = {a, c}; W_3 = span(2c)
    # lies in W_1, so the words close nonzero, yet the ring is nilpotent
    lambda: Ring(zmod(4), ["a", "b", "c"], {(0, 0): {1: 1}, (0, 1): {2: 2}, (1, 0): {2: 2}}),
], ids=["rank0", "zero-f3", "2z8", "sut4", "idempotent", "z3^6", "grassmann2-q",
        "m2-f2", "sut3+idempotent", "z4-howell-pivot", "z6-2b", "z4-words-close"])
def test_power_chain_memo_matches_reference_at_every_cap(make):
    # the chain has no cap; the one kept on the ring is read on every later call
    r = make()
    want = reference_power_chain(make())
    assert chain_rows(r) == want
    assert chain_rows(r) == want


@pytest.mark.parametrize("make, dims", [
    (lambda: matrix_ring(truncated_nagata(3, 3), 2), [104, 92, 68, 40, 16, 4, 0]),
    (lambda: matrix_ring(truncated_nagata(4, 3), 2), [320, 304, 264, 200, 124, 60, 20, 4, 0]),
], ids=["m2-nagata33", "m2-nagata43"])
def test_power_chain_dimensions_of_m2_nagata(make, dims):
    assert [len(s) for s in power_chain(make())] == dims


def test_submodule_membership_over_zmod():
    r = matrix_ring(two_z_2k(3), 2)
    sub = Submodule(r, [r.basis_element(0).scale(2)])
    assert sub.contains(r.basis_element(0).scale(2))
    assert not sub.contains(r.basis_element(0))


def test_generated_subalgebra_two_z8():
    r = two_z_2k(3)
    closure = generated_subalgebra(r, [r.basis_element(0)])
    assert closure == Submodule(r, r.basis())


def test_generated_subalgebra_checks_every_row_of_a_word_span():
    # a^2 = a and ab = ac = c: W_2 = span(a, c) leads with a, which lies in
    # W_1 = span(a, b), while c does not
    r = Ring(fp(2), ["a", "b", "c"], {(0, 0): {0: 1}, (0, 1): {2: 1}, (0, 2): {2: 1}})
    assert generated_subalgebra(r, r.basis()[:2]) == Submodule(r, r.basis())


def test_min_generators_two_z8():
    res = min_generators(two_z_2k(3))
    assert res.count == 1
    assert res.witness[0].coords == (1,)


def test_min_generators_zero_product_rank2():
    res = min_generators(zero_product_ring(fp(2), 2))
    assert res.count == 2


def test_min_generators_sut3():
    res = min_generators(sut(3, fp(2)).ring)
    assert res.count == 2
    names = {repr(w) for w in res.witness}
    assert names == {"E12", "E23"}


def test_min_generators_rank0():
    res = min_generators(Ring(fp(2), [], {}))
    assert res.count == 0


def test_min_generators_grassmann2_over_q():
    # e1 e2 spans R^2, so e1 and e2 generate; over Q no subset search can run
    r = grassmann_star(2, rat()).ring
    res = min_generators(r)
    assert res.count == 2
    assert {repr(w) for w in res.witness} == {"e1", "e2"}
    assert generated_subalgebra(r, res.witness) == Submodule(r, r.basis())


def test_min_generators_rejects_a_ring_that_is_not_nilpotent():
    with pytest.raises(ValueError, match="nilpotent"):
        min_generators(idempotent_ring(fp(3)))


def exhaustive_min_generators_reference(r, elem_cap=4096, combo_cap=2000):
    """Smallest generating element subset, by trying every subset in
    lexicographic order through ``generated_subalgebra``.

    Returns (count, witness), or None when the element count passes
    ``elem_cap`` or ``combo_cap`` subsets were tried without an answer.
    """
    full = Submodule(r, r.basis())
    if r.rank == 0:
        return 0, ()
    n_elems = r.element_count()
    if n_elems is None or n_elems > elem_cap:
        return None
    elems = [e for e in r.elements(cap=elem_cap) if not e.is_zero()]
    subsets = itertools.chain.from_iterable(
        itertools.combinations(elems, size) for size in range(1, r.rank + 1))
    for combo in itertools.islice(subsets, combo_cap):
        if generated_subalgebra(r, combo) == full:
            return len(combo), combo
    return None


def monomial_ring(dom, seeds, weight):
    """Nilpotent ring on the words of ``seeds`` and all their factors:
    b_u b_v = weight[last of u, first of v] b_uv when uv is one of the words,
    else 0.  The junction weight is a 2-cocycle, so the ring is associative;
    zero-divisor weights put multiples such as 3a into R^2."""
    words = sorted({w[i:j] for w in seeds for i in range(len(w))
                    for j in range(i + 1, len(w) + 1)}, key=lambda w: (len(w), w))
    index = {w: t for t, w in enumerate(words)}
    sc = {}
    for u, v in itertools.product(words, repeat=2):
        if u + v in index:
            sc[(index[u], index[v])] = {index[u + v]: weight[(u[-1], v[0])]}
    return Ring(dom, words, sc)


def change_basis(r, upper):
    """r in the basis b'_i = b_i + sum_{t > i} upper[i][t] b_t."""
    dom, n = r.coeff, r.rank
    rows = [tuple(dom.normalize(1 if t == i else upper[i][t] if t > i else 0)
                  for t in range(n)) for i in range(n)]

    def new_coords(x):
        y = []
        for j in range(n):
            y.append(dom.sub(x[j], sum(dom.mul(y[i], rows[i][j]) for i in range(j))))
        return y

    sc = {}
    for i, j in itertools.product(range(n), repeat=2):
        y = new_coords(r.mul_coords(rows[i], rows[j]))
        sc[(i, j)] = {k: c for k, c in enumerate(y) if c}
    return Ring(dom, [f"b{t}" for t in range(n)], sc)


@st.composite
def nilpotent_rings(draw, domains=(fp(2), fp(3), zmod(4), zmod(6), zmod(12), rat()),
                    idempotent=st.just(False)):
    """A monomial ring in a random upper unitriangular basis; with an
    idempotent adjoined (``plus_idempotent``) when ``idempotent`` draws True."""
    dom = draw(st.sampled_from(domains))
    seeds = draw(st.lists(st.text("xy", min_size=1, max_size=3), min_size=1, max_size=2))
    values = (0, 1, 2, 3, 4, 6, -1) if dom.finite else (0, 1, 2, Fraction(1, 2), -3)
    weight = {(a, b): draw(st.sampled_from(values)) for a in "xy" for b in "xy"}
    r = monomial_ring(dom, seeds, weight)
    if draw(idempotent):
        r = plus_idempotent(r)
    upper = [[draw(st.sampled_from(values)) for _ in range(r.rank)] for _ in range(r.rank)]
    return change_basis(r, upper)


CHAIN_DOMAINS = (zmod(4), zmod(6), zmod(8), zmod(9), fp(2), fp(3), rat(), zmod(2**64 + 13))


@given(nilpotent_rings(CHAIN_DOMAINS, st.booleans()))
@settings(max_examples=150, deadline=None)
def test_power_chain_matches_reference(r):
    assert chain_rows(r) == reference_power_chain(r)


@st.composite
def one_dimensional_rings(draw):
    """b^2 = c b over Z/m (m a power of 2 or composite), F_p or Q: R^n is
    spanned by c^(n-1) b, so over Z/p^k with p dividing c once the chain
    has k + 1 entries."""
    dom = draw(st.sampled_from([zmod(2**k) for k in (1, 5, 12, 63, 64)]
                               + [zmod(360), zmod(3**10), zmod(2**64 + 13), fp(2**61 - 1), rat()]))
    c = draw(st.sampled_from([0, 1, 2, 3, 6]) | st.integers(0, 2**64))
    return Ring(dom, ["b"], {(0, 0): {0: c}})


@given(nilpotent_rings(CHAIN_DOMAINS, st.booleans()) | one_dimensional_rings())
@settings(max_examples=200, deadline=None)
def test_power_chain_length_within_the_index_bound(r):
    # each entry before the end is a proper submodule of the one before it,
    # so the chain ends without a cap, within the bound every nilpotent
    # element's index meets
    assert len(power_chain(r)) <= _index_bound(r)


@given(nilpotent_rings(CHAIN_DOMAINS, st.booleans()), st.data())
@settings(max_examples=100, deadline=None)
def test_generated_subalgebra_matches_reference(r, data):
    gens = data.draw(st.lists(st.sampled_from(r.basis()), max_size=3))
    assert generated_subalgebra(r, gens) == reference_generated_subalgebra(r, gens)


def reference_generated_subalgebra(r, elements):
    """Close the span under all products of its generators until it stops growing."""
    span = Submodule(r, list(elements))
    while True:
        gens = span.generators()
        bigger = Submodule(r, gens + [a * b for a in gens for b in gens])
        if bigger == span:
            return span
        span = bigger


@given(nilpotent_rings())
@settings(max_examples=60, deadline=None)
def test_min_generators_matches_exhaustive_reference(r):
    res = min_generators(r)
    assert len(res.witness) == res.count
    assert generated_subalgebra(r, res.witness) == Submodule(r, r.basis())
    ref = exhaustive_min_generators_reference(r)
    if ref is not None:
        assert res.count == ref[0]


@pytest.mark.parametrize("make", [
    lambda: sut(3, fp(2)).ring,
    lambda: two_z_2k(3),
    lambda: two_z_2k(4),
    lambda: grassmann_star(2, fp(3)).ring,
    lambda: zero_product_ring(fp(2), 3),
    lambda: Ring(zmod(12), ["a", "b"], {(0, 0): {1: 6}}),
], ids=["sut3", "2z8", "2z16", "grassmann2-f3", "zero-f2", "rank2-z12"])
def test_min_generators_matches_reference_on_zoo_rings(make):
    r = make()
    assert min_generators(r).count == exhaustive_min_generators_reference(r)[0]


def two_prime_ring(p, q):
    # c^2 = q a and d^2 = p b over Z/pq: mod p, R^2 + pR holds a; mod q, b
    return Ring(zmod(p * q), ["a", "b", "c", "d"], {(2, 2): {0: q}, (3, 3): {1: p}})


@pytest.mark.parametrize("p, q", [(2, 3), (2**61 - 1, 2**31 - 1)], ids=["z6", "z-large"])
def test_min_generators_glues_primes_with_crt_idempotents(p, q):
    r = two_prime_ring(p, q)
    full = Submodule(r, r.basis())
    res = min_generators(r)
    assert res.count == len(res.witness) == 3
    assert generated_subalgebra(r, res.witness) == full
    # basis vectors alone need all four
    assert not any(generated_subalgebra(r, combo) == full
                   for combo in itertools.combinations(r.basis(), 3))


def dense_mul(ring, xs, ys):
    """Reference product: every basis pair, reduced after each operation."""
    dom = ring.coeff
    out = [dom.zero()] * ring.rank
    for i, xi in enumerate(xs):
        if dom.is_zero(xi):
            continue
        for j, yj in enumerate(ys):
            if dom.is_zero(yj):
                continue
            terms = ring.sc.get((i, j))
            if not terms:
                continue
            c = dom.mul(xi, yj)
            for k, ck in terms.items():
                out[k] = dom.add(out[k], dom.mul(c, ck))
    return tuple(out)


def brute_force_associativity(ring):
    """First ((i, j, k), left, right) over all rank^3 triples, or None."""
    dom = ring.coeff

    def acc(sums, k, c):
        v = dom.add(sums.get(k, dom.zero()), c)
        if dom.is_zero(v):
            sums.pop(k, None)
        else:
            sums[k] = v

    for i, j, k in itertools.product(range(ring.rank), repeat=3):
        left, right = {}, {}
        for t, c in ring.sc.get((i, j), {}).items():
            for v, c2 in ring.sc.get((t, k), {}).items():
                acc(left, v, dom.mul(c, c2))
        for t, c in ring.sc.get((j, k), {}).items():
            for v, c2 in ring.sc.get((i, t), {}).items():
                acc(right, v, dom.mul(c, c2))
        if left != right:
            return (i, j, k), left, right
    return None


def coefficients(dom):
    """Zero, the extremes, and values outside [0, m): act_coords results and
    raw tuples reach the product unreduced."""
    if not dom.finite:
        return st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=12))
    m = dom.modulus
    return st.one_of(st.sampled_from((0, 1, m - 1, m, -1)), st.integers(-2 * m, 2 * m))


@st.composite
def tables(draw, domains, max_rank, max_terms, min_pairs=0):
    dom = draw(st.sampled_from(domains))
    rank = draw(st.integers(1, max_rank))
    basis = st.integers(0, rank - 1)
    terms = st.dictionaries(basis, coefficients(dom), min_size=min(min_pairs, 1),
                            max_size=max_terms)
    sc = draw(st.dictionaries(st.tuples(basis, basis), terms,
                              min_size=min(min_pairs, rank * rank), max_size=rank * rank))
    return dom, [f"b{t}" for t in range(rank)], sc


@st.composite
def products(draw):
    dom, names, sc = draw(tables(
        (zmod(3**15), zmod(2**61 - 1), zmod(2**64 + 13), fp(5), rat()), 6, 6))
    # Both products are bilinear, so they must agree on any constants.
    ring = Ring(dom, names, sc, check=False)
    vec = st.lists(st.one_of(st.just(dom.zero()), coefficients(dom)),
                   min_size=ring.rank, max_size=ring.rank).map(tuple)
    return ring, draw(vec), draw(vec)


@given(products())
@settings(max_examples=400, deadline=None)
def test_mul_coords_matches_dense_reference(case):
    ring, xs, ys = case
    got = ring.mul_coords(xs, ys)
    want = dense_mul(ring, xs, ys)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


# Four or more filled pairs: about three in four tables are not associative.
@given(tables((fp(2), zmod(4), fp(3), zmod(2**64 + 13), rat()), 4, 2, min_pairs=4))
@settings(max_examples=400, deadline=None)
def test_associativity_check_matches_brute_force(case):
    dom, names, sc = case
    expect = brute_force_associativity(Ring(dom, names, sc, check=False))
    if expect is None:
        Ring(dom, names, sc)
        return
    with pytest.raises(AssociativityError) as err:
        Ring(dom, names, sc)
    assert (err.value.triple, err.value.left, err.value.right) == expect


@pytest.mark.parametrize("make", [
    lambda: sut(4, zmod(6)).ring,
    lambda: truncated_nagata(3, 3),
    lambda: grassmann_star(3, fp(5)).ring,
    lambda: grassmann_star(2, rat()).ring,
    lambda: two_z_2k(3),
    lambda: truncated_poly_positive(5, fp(3)).ring,
], ids=["sut4-z6", "nagata33", "grassmann3-f5", "grassmann2-q", "2z8", "poly5-f3"])
def test_associativity_check_accepts_zoo_and_matrix_rings(make):
    # Ring() and matrix_ring() both run the check; a false violation raises.
    r = make()
    assert Ring(r.coeff, r.names, r.sc) == r
    assert matrix_ring(r, 2).rank == 4 * r.rank


# ---------------------------------------------------------------------------
# Diagonal powers of matrix rings (the reduction behind T3.29).


def diagonal_tuples(r, n, samples, seed=0):
    """(exhaustive, tuples): every n-tuple of elements when there are at
    most 4096, otherwise ``samples`` seeded random ones."""
    dom = r.coeff
    count = r.element_count()
    if count is not None and r.rank and count**n <= 4096:
        singles = list(itertools.product(dom.elements(), repeat=r.rank))
        return True, list(itertools.product(singles, repeat=n))
    rng = random.Random(seed)
    lo, hi = (0, dom.size - 1) if dom.finite else (-3, 3)
    return False, [
        tuple(tuple(dom.normalize(rng.randint(lo, hi)) for _ in range(r.rank))
              for _ in range(n))
        for _ in range(samples)
    ]


def check_diagonal_powers(r, n, samples):
    """diag(b_1..b_n)^s = diag(b_1^s..b_n^s) in M_n(r) for s = 2, 3, 4:
    the diagonal of the matrix ring multiplies componentwise.  Returns
    whether every n-tuple was tried."""
    mr = matrix_ring(r, n)
    dom = r.coeff

    def diag(entries):
        coords = [dom.zero()] * mr.rank
        for i, x in enumerate(entries):
            coords[(i * n + i) * r.rank:(i * n + i + 1) * r.rank] = x
        return tuple(coords)

    exhaustive, tuples = diagonal_tuples(r, n, samples)
    for entries in tuples:
        a = diag(entries)
        acc, powers = a, list(entries)
        for s in (2, 3, 4):
            acc = mr.mul_coords(acc, a)
            powers = [r.mul_coords(p, x) for p, x in zip(powers, entries)]
            assert acc == diag(powers), (entries, s)
    return exhaustive


@pytest.mark.parametrize("make, n, exhaustive", [
    (lambda: two_z_2k(3), 2, True),
    (lambda: two_z_2k(3), 3, True),
    (lambda: idempotent_ring(fp(2)), 2, True),
    (lambda: zero_product_ring(fp(2), 1), 2, True),
    (lambda: sut(3, fp(2)).ring, 2, True),
    (lambda: grassmann_star(2, fp(3)).ring, 2, True),
    (lambda: grassmann_star(3, fp(2)).ring, 2, False),
    (lambda: grassmann_star(2, rat()).ring, 2, False),
], ids=["2z8", "2z8-n3", "idempotent-f2", "zero-f2", "sut3", "grassmann2-f3",
        "grassmann3-f2", "grassmann2-q"])
def test_matrix_ring_diagonal_powers_are_componentwise(make, n, exhaustive):
    assert check_diagonal_powers(make(), n, samples=200) == exhaustive


@given(nilpotent_rings())
@settings(max_examples=30, deadline=None)
def test_matrix_ring_diagonal_powers_on_random_rings(r):
    check_diagonal_powers(r, 2, samples=20)
