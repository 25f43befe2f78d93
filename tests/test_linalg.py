import itertools
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from gradednil.linalg import howell, residue_pivots, rref
from gradednil.ringcore import fp, rat


def brute_span(rows, ncols, m):
    span = {(0,) * ncols}
    work = [(0,) * ncols]
    gens = [tuple(v % m for v in r) for r in rows]
    while work:
        v = work.pop()
        for g in gens:
            w = tuple((a + b) % m for a, b in zip(v, g))
            if w not in span:
                span.add(w)
                work.append(w)
    return span


@given(
    st.sampled_from([2, 3, 4, 6, 8, 9]),
    st.integers(1, 3),
    st.lists(st.lists(st.integers(0, 11), min_size=3, max_size=3), max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_howell_membership_matches_bruteforce(m, _seed, rows):
    # The form is canonical, so v lies in the span exactly when extending
    # the form by v leaves it unchanged.
    ncols = 3
    form = howell(rows, ncols, m)
    span = brute_span(rows, ncols, m)
    for vec in itertools.product(range(m), repeat=ncols):
        assert (howell([list(vec)], ncols, m, form) == form) == (vec in span)


def test_howell_reemits_the_annihilator_of_an_improved_pivot():
    # over Z/6, (2, 1) improves the pivot 4 of (4, 0) to 2 and leaves (0, 2);
    # the improved pivot's annihilator multiple 3 * (2, 1) = (0, 3) then
    # brings in (0, 1).  Without it the form is ((2, 1), (0, 2)), from which
    # greedy reduction does not reach (0, 1)
    assert howell([(2, 1), (4, 0)], 2, 6) == ((2, 0), (0, 1))


@given(
    st.sampled_from([6, 12, 18, 30, 36]),
    st.lists(st.lists(st.integers(0, 35), min_size=2, max_size=2), max_size=4),
)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_howell_membership_matches_bruteforce_over_two_primes(m, rows):
    # a modulus with two distinct primes is where a pivot improves to a gcd
    # that is not a prime power, and its annihilator matters; two columns
    # keep the m^2 membership tests per draw cheap
    ncols = 2
    form = howell(rows, ncols, m)
    span = brute_span(rows, ncols, m)
    for vec in itertools.product(range(m), repeat=ncols):
        assert (howell([list(vec)], ncols, m, form) == form) == (vec in span)


@given(
    st.sampled_from([2, 3, 5]),
    st.lists(st.lists(st.integers(0, 11), min_size=3, max_size=3), max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_rref_membership_matches_bruteforce(p, rows):
    # over F_p the additive span is the linear span
    ncols, dom = 3, fp(p)
    form = rref(rows, dom)
    span = brute_span(rows, ncols, p)
    for vec in itertools.product(range(p), repeat=ncols):
        assert (rref([list(vec)], dom, form) == form) == (vec in span)


@given(
    st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), max_size=4),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_rref_membership_over_q_matches_rank(rows, halves):
    # v lies in the span over Q exactly when appending it keeps the rank;
    # the candidates are small vectors and a combination of the rows with
    # coefficients in (1/2)Z, always a member
    ncols, dom = 3, rat()
    form = rref(rows, dom)
    rank = np.linalg.matrix_rank(np.array(rows + [[0] * ncols], dtype=float))
    member = [sum((Fraction(c, 2) * row[k] for c, row in zip(halves, rows)), Fraction(0))
              for k in range(ncols)]
    for vec in itertools.chain(itertools.product(range(-1, 2), repeat=ncols), [member]):
        grown = np.linalg.matrix_rank(np.array(rows + [list(vec)], dtype=float))
        assert (rref([list(vec)], dom, form) == form) == (grown == rank)


@given(
    st.sampled_from([4, 6, 8]),
    st.lists(st.lists(st.integers(0, 11), min_size=2, max_size=2), min_size=1, max_size=3),
    st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_howell_is_canonical(m, rows, rnd):
    ncols = 2
    form = howell(rows, ncols, m)
    span = brute_span(rows, ncols, m)
    regenerated = rnd.sample(sorted(span), min(len(span), 5))
    unit = m - 1  # -1 is always a unit
    regenerated += [tuple(unit * v % m for v in r) for r in rows]
    if brute_span(regenerated, ncols, m) == span:
        assert howell(regenerated, ncols, m) == form


def test_howell_pivots_divide_modulus():
    form = howell([[2, 1, 0], [0, 4, 2], [3, 3, 3]], 3, 12)
    for row in form:
        lead = next(v for v in row if v)
        assert 12 % lead == 0


def test_rref_over_f2():
    dom = fp(2)
    form = rref([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dom)
    assert form == ((1, 0, 1), (0, 1, 1))
    assert rref([[1, 1, 0]], dom, form) == form
    assert rref([[0, 0, 1]], dom, form) != form


def test_rref_over_q_is_canonical():
    dom = rat()
    a = rref([[2, 4], [1, 3]], dom)
    b = rref([[1, 2], [0, 1], [3, 7]], dom)
    assert a == b == ((1, 0), (0, 1))


def test_empty_and_zero_rows():
    assert howell([], 3, 6) == ()
    assert howell([[0, 0, 0]], 3, 6) == ()
    assert rref([[0, 0]], rat()) == ()


@given(
    st.sampled_from([fp(2), fp(5), rat()]),
    st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), max_size=5),
    st.lists(st.integers(0, 5), max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_rref_ignores_zero_rows(dom, rows, slots):
    ncols = 3
    mixed = list(rows)
    for slot in slots:
        mixed.insert(slot % (len(mixed) + 1), [dom.zero()] * ncols)
    assert rref(mixed, dom) == rref(rows, dom)


def rref_reference(rows, ncols, dom):
    """The coordinate-by-coordinate reduction ``rref`` replaced, through the
    domain's methods: the reference its plain-int and Fraction arithmetic
    is checked against."""
    pivots = {}  # leading column -> row

    def reduce(row):
        row = list(row)
        for j in sorted(pivots):
            if row[j] != 0:
                c = row[j]
                prow = pivots[j]
                row = [dom.sub(row[t], dom.mul(c, prow[t])) for t in range(ncols)]
        return row

    for row in rows:
        if not any(row):
            continue
        row = reduce([dom.normalize(v) for v in row])
        lead = next((j for j, v in enumerate(row) if v != 0), None)
        if lead is None:
            continue
        inv = pow(row[lead], -1, dom.modulus) if dom.finite else 1 / row[lead]
        row = [dom.mul(inv, v) for v in row]
        for j, prow in list(pivots.items()):
            c = prow[lead]
            if c != 0:
                pivots[j] = [dom.sub(prow[t], dom.mul(c, row[t])) for t in range(ncols)]
        pivots[lead] = row
    return tuple(tuple(pivots[j]) for j in sorted(pivots))


@st.composite
def field_rows(draw):
    dom = draw(st.sampled_from([fp(2), fp(3), fp(5), fp(2**61 - 1), rat()]))
    ncols = draw(st.integers(1, 6))
    if dom.finite:
        # small entries make dependent rows and pivots of 1 common; large
        # ones reach past the modulus and the int64 range
        entry = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
    else:
        entry = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=7))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=8))
    # repeat some rows scaled, so spans are not all of full rank
    for i in draw(st.lists(st.integers(0, 7), max_size=3)):
        if rows:
            rows.append([2 * v for v in rows[i % len(rows)]])
    return dom, ncols, rows


@given(field_rows())
@settings(max_examples=300, deadline=None)
def test_rref_matches_the_domain_method_reference(case):
    dom, ncols, rows = case
    form = rref(rows, dom)
    ref = rref_reference(rows, ncols, dom)
    assert form == ref
    # the same entry types: ints over F_p, Fractions over Q
    assert [type(v) for row in form for v in row] == [type(v) for row in ref for v in row]


def rref_pivots(rows, p):
    return tuple(next(j for j, v in enumerate(row) if v) for row in rref(rows, fp(p)))


@given(
    st.sampled_from([2, 5, 4, 6, 12, 30, 36, 210]),
    st.lists(st.lists(st.integers(0, 250), min_size=4, max_size=4), max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_residue_pivots_match_rref_mod_each_prime(m, rows):
    parts = residue_pivots(rows, 4, m)
    assert sum(e for e, _ in parts) % m == 1
    for p in (p for p in range(2, m + 1) if m % p == 0 and all(p % d for d in range(2, p))):
        # exactly one part holds p: its idempotent is 1 mod p, the others 0
        [(e, pivots)] = [(e, piv) for e, piv in parts if e % p == 1]
        assert all(e2 % p == 0 for e2, _ in parts if e2 != e)
        assert e * e % m == e
        assert pivots == rref_pivots(rows, p)


@st.composite
def kept_and_new_rows(draw):
    """(reducer, old, new): rows over F_p, Q, Z/4, Z/12 or a modulus near
    2^63, split into the rows of a kept form and the rows added to it."""
    kind = draw(st.sampled_from(["fp 3", "fp 2^61-1", "rat", "z4", "z12", "z2^63-1"]))
    ncols = draw(st.integers(1, 5))
    if kind == "rat":
        dom = rat()
        entry = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=5))

        def reduce(rows, form=()):
            return rref(rows, dom, form)
    else:
        m = {"fp 3": 3, "fp 2^61-1": 2**61 - 1, "z4": 4, "z12": 12, "z2^63-1": 2**63 - 1}[kind]
        entry = st.one_of(st.integers(0, 12), st.integers(0, m - 1))
        if kind.startswith("fp"):
            dom = fp(m)

            def reduce(rows, form=()):
                return rref(rows, dom, form)
        else:
            def reduce(rows, form=()):
                return howell(rows, ncols, m, form)
    rows = st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5)
    old, new = draw(rows), draw(rows)
    # repeat a kept row, scaled, among the new ones
    if old and draw(st.booleans()):
        new.append([2 * v for v in old[draw(st.integers(0, len(old) - 1))]])
    return reduce, old, new


@given(kept_and_new_rows())
@settings(max_examples=400, deadline=None)
def test_extending_a_kept_form_matches_the_form_from_scratch(case):
    reduce, old, new = case
    kept = reduce(old)
    extended = reduce(new, kept)
    assert extended == reduce(old + new)
    assert [type(v) for row in extended for v in row] == [
        type(v) for row in reduce(old + new) for v in row]
    # extending by nothing, or by rows already in the span, keeps the form
    assert reduce([], kept) == kept
    assert reduce([list(row) for row in kept], kept) == kept
