import pytest
from hypothesis import given, settings, strategies as st

from gradednil.monoid import (
    INFINITE,
    Congruence,
    CongruenceError,
    Monoid,
    MonoidError,
    check_cancellative,
    element_order,
    quotient,
)
from gradednil.specfile import parse_spec_text


def test_cyclic_group_is_cancellative():
    assert check_cancellative(Monoid.cyclic(3))


def test_int_add_is_cancellative():
    assert check_cancellative(Monoid.int_add())


def test_one_sided_failure_detected():
    # {e, z} with z absorbing on the left: the z row is constant.
    m = Monoid.from_table([[0, 1], [1, 1]])
    assert not check_cancellative(m)


def test_identity_law_enforced():
    with pytest.raises(MonoidError):
        Monoid.from_table([[0, 0], [1, 1]])


def test_associativity_enforced():
    # 0 is an identity but (1*1)*2 != 1*(1*2) for this table.
    with pytest.raises(MonoidError, match="associative"):
        Monoid.from_table([[0, 1, 2], [1, 2, 2], [2, 2, 1]])


def test_element_order_cyclic():
    z4 = Monoid.cyclic(4)
    assert element_order(z4, 1) == 4
    assert element_order(z4, 2) == 2
    assert element_order(z4, 0) == 1


def test_element_order_int_add():
    m = Monoid.int_add()
    assert element_order(m, 0) == 1
    assert element_order(m, 1) == INFINITE
    assert element_order(m, -7) == INFINITE


def test_element_order_no_identity_in_cycle():
    # z^n = z for the absorbing element: never reaches the identity.
    m = Monoid.from_table([[0, 1], [1, 1]])
    assert element_order(m, 1) == INFINITE


def test_element_order_unknown_id():
    with pytest.raises(MonoidError):
        element_order(Monoid.cyclic(3), 5)


def test_quotient_z4_mod2():
    z4 = Monoid.cyclic(4)
    c = Congruence(z4, [[0, 2], [1, 3]])
    q = quotient(z4, c)
    assert q == Monoid.cyclic(2)


def test_quotient_all_in_one_class():
    z4 = Monoid.cyclic(4)
    c = Congruence(z4, [[0, 1, 2, 3]])
    q = quotient(z4, c)
    assert q.size == 1


def test_quotient_z6_mod3():
    z6 = Monoid.cyclic(6)
    c = Congruence(z6, [[0, 3], [1, 4], [2, 5]])
    assert quotient(z6, c) == Monoid.cyclic(3)


def test_congruence_must_partition():
    z4 = Monoid.cyclic(4)
    with pytest.raises(CongruenceError):
        Congruence(z4, [[0, 1], [1, 2, 3]])
    with pytest.raises(CongruenceError):
        Congruence(z4, [[0, 1]])


def test_congruence_compatibility_witness():
    z4 = Monoid.cyclic(4)
    with pytest.raises(CongruenceError) as err:
        Congruence(z4, [[0, 1], [2], [3]])
    g, h, k, t = err.value.witness
    # recheck the violation directly on the table
    cls = {0: 0, 1: 0, 2: 1, 3: 2}
    assert cls[z4.op(g, k)] != cls[z4.op(h, t)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_finite_left_cancellative_orders_are_finite(n):
    m = Monoid.cyclic(n)
    assert check_cancellative(m)
    for g in m.elements():
        assert element_order(m, g) != INFINITE


@pytest.mark.parametrize(
    "n, classes",
    [(4, [[0, 2], [1, 3]]), (6, [[0, 3], [1, 4], [2, 5]]), (6, [[0, 2, 4], [1, 3, 5]])],
)
def test_quotient_preserves_left_cancellativity(n, classes):
    m = Monoid.cyclic(n)
    q = quotient(m, Congruence(m, classes))
    assert check_cancellative(q)


def test_power_sequence_is_eventually_periodic():
    m = Monoid.from_table([[0, 1, 2], [1, 1, 1], [2, 1, 1]])
    seen = []
    acc = 2
    for _ in range(10):
        seen.append(acc)
        acc = m.op(acc, 2)
    assert len(set(seen)) < len(seen)


@st.composite
def cyclic_congruences(draw):
    """Z_n for n <= 12 and its congruence mod a divisor d, classes shuffled."""
    n = draw(st.integers(1, 12))
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    return n, draw(st.permutations([list(range(i, n, d)) for i in range(d)]))


@given(cyclic_congruences())
@settings(max_examples=150, deadline=None)
def test_unchecked_cyclic_and_quotient_monoids_obey_the_laws(n_classes):
    # Monoid.cyclic and quotient skip the cubic table proof; the tables they
    # build pass it, and the quotient's identity is class 0 whatever order
    # the classes are given in
    n, classes = n_classes
    m = Monoid.cyclic(n)
    m._validate_table()
    q = quotient(m, Congruence(m, classes))
    q._validate_table()
    assert q == Monoid.from_table(q.table) == Monoid.cyclic(len(classes))


def test_spec_file_tables_are_still_checked():
    # only derived monoids skip the proof; a table read from a spec keeps it
    text = ("[monoid]\nkind = table\nsize = 3\ntable = 0 1 2  1 2 2  2 0 1\n"
            "[ring]\ncoeff = fp 2\nrank = 1\nnames = a\n[grading]\ndeg = 1\n")
    with pytest.raises(MonoidError, match="not associative"):
        parse_spec_text(text)


def pairwise_compatibility(m, classes):
    """Reference for ``Congruence._validate_compatibility``: every pair g < h
    of each class against every k, in the congruence's canonical class
    order.  Returns the (message, witness) of the first failure, or None."""
    classes = sorted((sorted(set(c)) for c in classes),
                     key=lambda c: (m.identity not in c, c[0]))
    index = {g: i for i, c in enumerate(classes) for g in c}
    for cls in classes:
        for g in cls:
            for h in cls:
                if g >= h:
                    continue
                for k in range(m.size):
                    if index[m.op(g, k)] != index[m.op(h, k)]:
                        return (f"incompatible: {g}~{h} and {k}~{k} but "
                                f"{g}*{k}={m.op(g, k)} !~ {h}*{k}={m.op(h, k)}", (g, h, k, k))
                    if index[m.op(k, g)] != index[m.op(k, h)]:
                        return (f"incompatible: {k}~{k} and {g}~{h} but "
                                f"{k}*{g}={m.op(k, g)} !~ {k}*{h}={m.op(k, h)}", (k, k, g, h))
    return None


@st.composite
def partitioned_monoids(draw):
    """A cyclic, max, truncated-add or (not commutative) left-zero monoid of
    size <= 10 and a random partition of its elements, each element given a
    random class label."""
    n = draw(st.integers(1, 10))
    op = draw(st.sampled_from([lambda a, b: (a + b) % n, max, lambda a, b: min(a + b, n - 1),
                               lambda a, b: a or b]))
    m = Monoid.from_table([[op(a, b) for b in range(n)] for a in range(n)])
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    classes = {}
    for g, label in enumerate(labels):
        classes.setdefault(label, []).append(g)
    return m, list(classes.values())


@given(partitioned_monoids())
@settings(max_examples=400, deadline=None)
def test_compatibility_per_class_matches_the_pairwise_loop(case):
    # comparing each member with its class's first member alone finds the
    # pairwise loop's first failure, with the same message and witness
    m, classes = case
    try:
        Congruence(m, classes)
        got = None
    except CongruenceError as exc:
        got = (str(exc), exc.witness)
    assert got == pairwise_compatibility(m, classes)
