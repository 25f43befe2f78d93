import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from lemma35_reference import _subproduct_rows, neutral_split, neutral_split_bruteforce

from gradednil import words as words_module
from gradednil.monoid import Monoid, MonoidError
from gradednil.words import (
    Decomposition,
    DegreeWord,
    ProductVerdict,
    SplitInternalError,
    _brute_batch,
    _split_batch,
    _verdict_text,
    block_degrees,
    exhaustive_splits,
    small_gap_blocks,
    write_oracle,
)

Z2 = Monoid.cyclic(2)
Z3 = Monoid.cyclic(3)
Z4 = Monoid.cyclic(4)
ZADD = Monoid.int_add()


@given(
    st.lists(
        st.one_of(
            st.integers(-3, 6), st.booleans(), st.floats(0, 4), st.none(),
            st.just("1"),
        ),
        max_size=6,
    ),
    st.sampled_from([Monoid.cyclic(1), Z4, ZADD]),
)
@settings(max_examples=300, deadline=None)
def test_degree_word_accepts_exactly_the_contained_degrees(gs, m):
    if all(m.contains(g) for g in gs):
        assert DegreeWord(m, gs).degrees == tuple(gs)
    else:
        with pytest.raises(ValueError, match="is not a monoid element"):
            DegreeWord(m, gs)


def test_subproduct_degrees_z2():
    assert set().union(*_subproduct_rows(DegreeWord(Z2, (1, 1)))) == {0, 1}


def test_subproduct_degrees_single_letter():
    assert set().union(*_subproduct_rows(DegreeWord(Z3, (2,)))) == {2}


def test_subproduct_degrees_int_add():
    assert set().union(*_subproduct_rows(DegreeWord(ZADD, (1, 2, 1)))) == {1, 2, 3, 4}


# The per-word verdicts that words.product_verdict gave, now read off the
# reference neutral_split.


def test_product_verdict_prefix_escape():
    # the prefix 1+1+1+1+1 leaves the support {1, 2, 3, 4} at the fifth letter
    w = DegreeWord(ZADD, (1,) * 8)
    assert neutral_split(w, 2, {1, 2, 3, 4}) == ProductVerdict.FORCED_ZERO


def test_product_verdict_all_neutral():
    w = DegreeWord(Z4, (0, 0, 0))
    dec = neutral_split(w, 3, {0})
    assert dec != ProductVerdict.FORCED_ZERO and dec.cuts == (0, 1, 2, 3)


def test_product_verdict_missing_identity():
    # without the identity in the support, 1*1 = 0 leaves it
    w = DegreeWord(Z2, (1, 1))
    assert neutral_split(w, 2, {1}) == ProductVerdict.FORCED_ZERO


def test_neutral_split_z2_alternating():
    w = DegreeWord(Z2, (1, 1, 1, 1))
    dec = neutral_split(w, 2, {0, 1})
    assert dec.cuts == (0, 2, 4)
    assert block_degrees(w, dec) == [0, 0]


def test_neutral_split_all_neutral_word():
    w = DegreeWord(Z4, (0, 0))
    dec = neutral_split(w, 2, {0})
    assert dec.cuts == (0, 1, 2)


def test_neutral_split_z3_run():
    w = DegreeWord(Z3, (1, 1, 1, 1, 1, 1))
    dec = neutral_split(w, 2, {0, 1, 2})
    assert dec.cuts == (0, 3, 6)
    assert block_degrees(w, dec) == [0, 0]


def test_neutral_split_repeat_branch():
    # No neutral prefix: 1,2,3 over int-add with support {1,2,3}; d=3, r=2
    # falls to the repeated-degree branch only if some degree repeats r+1
    # times; this word instead violates the support and is forced zero.
    w = DegreeWord(ZADD, (1, 1, 1, 1, 1, 1))
    assert neutral_split(w, 2, {1, 2, 3}) == ProductVerdict.FORCED_ZERO


def test_neutral_split_rejects_bad_length():
    with pytest.raises(ValueError):
        neutral_split(DegreeWord(Z2, (1, 1, 1)), 2, {0, 1})
    with pytest.raises(ValueError):
        neutral_split(DegreeWord(Z2, (1, 1)), 1, {0, 1})


def test_small_gap_blocks_all_small():
    assert small_gap_blocks(Decomposition((0, 2, 4)), 2) == [1, 2]


def test_small_gap_blocks_r3():
    assert small_gap_blocks(Decomposition((0, 1, 2, 3)), 1) == [1, 2, 3]


def test_small_gap_blocks_arithmetic():
    # gaps 1 and 5, both <= 2*3: two selected, and r=2 guarantees >= 2
    assert small_gap_blocks(Decomposition((0, 1, 6)), 3) == [1, 2]


def test_bruteforce_all_neutral():
    w = DegreeWord(Z4, (0, 0))
    dec = neutral_split_bruteforce(w, 2, {0})
    assert dec.cuts == (0, 1, 2)


def _agree(monoid, supp, r):
    d = len(supp)
    mismatches = []
    for letters in itertools.product(range(monoid.size), repeat=r * d):
        w = DegreeWord(monoid, letters)
        got = neutral_split(w, r, supp)
        ref = neutral_split_bruteforce(w, r, supp)
        assert ref is not None, f"brute force failed on {letters}"
        gz = got == ProductVerdict.FORCED_ZERO
        rz = ref == ProductVerdict.FORCED_ZERO
        if gz != rz:
            mismatches.append(letters)
            continue
        if not gz:
            assert all(g == monoid.identity for g in block_degrees(w, got))
            small_gap_blocks(got, d)
    assert not mismatches


def test_oracle_equivalence_z2_r2_full_support():
    _agree(Z2, {0, 1}, 2)


def test_oracle_equivalence_z3_r2_full_support():
    _agree(Z3, {0, 1, 2}, 2)


def test_oracle_equivalence_z3_r2_partial_support():
    _agree(Z3, {0, 1}, 2)


def test_oracle_equivalence_z4_r3_small_support():
    _agree(Z4, {0, 2}, 3)


@given(st.integers(2, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_pigeonhole_dichotomy(n, data):
    # On any clean word, either the identity occurs r times among the
    # prefixes or some other degree occurs r + 1 times; neutral_split raises
    # internally otherwise, so a completed call is the assertion.
    monoid = Monoid.cyclic(n)
    r = data.draw(st.integers(2, 3))
    supp_rest = data.draw(st.sets(st.integers(1, n - 1), max_size=n - 1))
    supp = {0} | supp_rest
    d = len(supp)
    letters = data.draw(
        st.lists(st.integers(0, n - 1), min_size=r * d, max_size=r * d)
    )
    w = DegreeWord(monoid, tuple(letters))
    result = neutral_split(w, r, supp)
    if isinstance(result, Decomposition):
        assert all(g == 0 for g in block_degrees(w, result))


def test_oracle_equivalence_klein_four_group():
    # the non-cyclic group of order 4 (XOR on two bits)
    klein = Monoid.from_table([[i ^ j for j in range(4)] for i in range(4)])
    _agree(klein, {0, 1}, 2)
    _agree(klein, {0, 1, 2}, 2)


def test_oracle_equivalence_int_add_letters():
    # integer degrees, including ones outside the support
    supp = {0, 1, 2}
    mismatches = []
    for letters in itertools.product((-1, 0, 1, 2), repeat=6):
        w = DegreeWord(ZADD, letters)
        got = neutral_split(w, 2, supp)
        ref = neutral_split_bruteforce(w, 2, supp)
        assert ref is not None
        gz = got == ProductVerdict.FORCED_ZERO
        if gz != (ref == ProductVerdict.FORCED_ZERO):
            mismatches.append(letters)
        elif not gz:
            assert all(g == 0 for g in block_degrees(w, got))
    assert not mismatches


def _s3():
    """The symmetric group S_3 as a table monoid; (p*q)(i) = p(q(i))."""
    perms = list(itertools.permutations(range(3)))  # the identity first
    index = {p: i for i, p in enumerate(perms)}
    return Monoid.from_table(
        [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    )


def _relabel(monoid, ids):
    """``monoid`` with element g renamed ``ids[g]``."""
    table = [[0] * monoid.size for _ in range(monoid.size)]
    for a, row in enumerate(monoid.table):
        for b, g in enumerate(row):
            table[ids[a]][ids[b]] = ids[g]
    return Monoid.from_table(table, identity=ids[monoid.identity])


S3 = _s3()
KLEIN = Monoid.from_table([[i ^ j for j in range(4)] for i in range(4)])
# Z_4 and S_3 with the identity at id 2 and 4, so that the kernels' identity
# indexing and smallest-id tie-break see ids that differ from the elements'
# usual order
Z4_E2 = _relabel(Z4, [2, 0, 3, 1])
S3_E4 = _relabel(S3, [4, 0, 5, 2, 1, 3])

# (monoid, support, r): supports with and without the identity; every word
# count stays at or below 6^6.
WALK_CASES = [
    (Z2, {0, 1}, 2), (Z2, {0, 1}, 3), (Z2, {1}, 3),
    (Z3, {0, 1}, 2), (Z3, {0, 1}, 3), (Z3, {0, 1, 2}, 2), (Z3, {1, 2}, 2),
    (Z4, {0, 2}, 3), (Z4, {0, 1, 3}, 2), (Z4, {1, 2}, 2), (Z4, {1, 3}, 3),
    (Monoid.cyclic(5), {0, 1}, 2), (Monoid.cyclic(5), {0, 2, 3}, 2),
    (Monoid.cyclic(5), {2, 3}, 3),
    (KLEIN, {0, 1}, 3), (KLEIN, {0, 1, 2}, 2), (KLEIN, {1, 2}, 2),
    (S3, {0, 1}, 2), (S3, {0, 3}, 3), (S3, {0, 1, 3}, 2), (S3, {1, 2}, 2),
    (S3, {2, 3, 4}, 2),
    (Z4_E2, {2, 0}, 3), (Z4_E2, {0, 1, 2}, 2), (Z4_E2, {0, 3}, 2), (Z4_E2, {0, 1}, 3),
    (S3_E4, {4, 0}, 2), (S3_E4, {0, 2, 4}, 2), (S3_E4, {1, 4, 5}, 2), (S3_E4, {0, 5}, 2),
    # {e, c, c^2} for a 3-cycle c: clean words whose prefix degrees tie
    # between c and c^2, which the smallest-id tie-break decides
    (S3_E4, {1, 2, 4}, 2),
]


WALK_IDS = [f"{m.size}-{sorted(s)}-r{r}" + (f"-e{m.identity}" if m.identity else "")
            for m, s, r in WALK_CASES]


def _unpack(walk):
    """``(letters, split, brute)`` per word from the ``(tails, blocks)`` of
    ``exhaustive_splits``, with each side's verdict as a per-word function
    returns it."""
    tails, blocks = walk
    for head, split, brute in blocks:
        for i, tail in enumerate(tails.tolist()):
            yield head + tuple(tail), split.verdict(i), brute.verdict(i)


@pytest.mark.parametrize("monoid,supp,r", WALK_CASES, ids=WALK_IDS)
def test_exhaustive_walk_matches_per_word_functions(monoid, supp, r):
    # Same words in the same order, same verdicts and the same cuts as
    # neutral_split and neutral_split_bruteforce word by word.
    words = itertools.product(monoid.elements(), repeat=r * len(supp))
    split_count = 0
    walk = _unpack(exhaustive_splits(monoid, r, supp))
    for got, letters in itertools.zip_longest(walk, words):
        w = DegreeWord(monoid, letters)
        want = (letters, neutral_split(w, r, supp), neutral_split_bruteforce(w, r, supp))
        assert got == want
        split_count += isinstance(want[1], Decomposition)
    # A clean word over a cancellative monoid has neutral blocks, so a
    # support without the identity forces every product to zero.
    assert (split_count > 0) == (monoid.identity in supp)


@pytest.mark.parametrize("chunk", [1, 10**9], ids=["one-word-chunks", "one-letter-heads"])
@pytest.mark.parametrize("monoid,supp,r", WALK_CASES, ids=WALK_IDS)
def test_exhaustive_walk_at_the_extreme_chunk_sizes(monkeypatch, monoid, supp, r, chunk):
    # _BLOCK = 1 leaves an empty tail, so every block is one word, a head of
    # n letters; 10**9 leaves heads of one letter and a tail of n - 1, so
    # there are size blocks, one per one-letter head.
    monkeypatch.setattr(words_module, "_BLOCK", chunk)
    test_exhaustive_walk_matches_per_word_functions(monoid, supp, r)


@pytest.mark.parametrize("monoid,supp,r,block,j", [
    (Z3, {0, 1, 2}, 2, 20, 3),      # 3**2 < 20 <= 3**3
    (KLEIN, {0, 1, 2}, 2, 50, 3),   # 4**2 < 50 <= 4**3
    (S3_E4, {1, 2, 4}, 2, 1100, 4),  # 6**3 < 1100 <= 6**4
    (Z3, {0, 1, 2}, 2, 10**4, 5),   # 3**5 < 10**4: capped at n - 1
], ids=["z3", "klein", "s3-e4", "z3-capped"])
def test_exhaustive_walk_holds_one_head_per_block(monkeypatch, monoid, supp, r, block, j):
    # Every block is one head followed by every tail: the tail count is
    # size**j for the least j with size**j >= _BLOCK, at most n - 1, and
    # there are size**(n - j) blocks.  The per-word functions decide every
    # word of each, in order.
    monkeypatch.setattr(words_module, "_BLOCK", block)
    n = r * len(supp)
    tails, walk = exhaustive_splits(monoid, r, supp)
    blocks = list(walk)
    assert tails.shape == (monoid.size**j, j)
    assert [head for head, _, _ in blocks] == list(
        itertools.product(range(monoid.size), repeat=n - j))
    assert all(len(split.zero) == len(brute.zero) == len(tails) for _, split, brute in blocks)
    test_exhaustive_walk_matches_per_word_functions(monoid, supp, r)


@pytest.mark.parametrize("block", [1, 5, 10**9], ids=["one-word", "two-letter-heads",
                                                      "one-letter-heads"])
def test_exhaustive_write_prints_every_reference_line_in_order(monkeypatch, block):
    # Across blocks of every size, the walk writes each word's line as the
    # per-word reference gives it, each once and in order, leads and all.
    monkeypatch.setattr(words_module, "_BLOCK", block)
    out = io.StringIO()
    assert write_oracle(Z3, 2, {0, 1}, out) == 0
    want = []
    for letters in itertools.product(range(3), repeat=4):
        w = DegreeWord(Z3, letters)
        mark, suffix = _verdict_text(neutral_split(w, 2, {0, 1}),
                                     neutral_split_bruteforce(w, 2, {0, 1}), 2)
        want.append(mark + "word=[" + ", ".join(map(str, letters)) + suffix)
    assert out.getvalue() == "".join(want) + "disagreements: 0\n"


# (monoid, r, support, word length, ValueError subclass, message): each breaks
# one rule of ``words._check_split_args``, and the rules before it hold
NOT_LEFT_CANCELLATIVE = Monoid.from_table([[0, 1], [1, 1]])
REFUSED = {
    "none": (None, 2, {0, 1}, 4, MonoidError, "needs a table monoid"),
    "int-add": (ZADD, 2, {0, 1}, 4, MonoidError, "needs a table monoid"),
    "not-left-cancellative": (NOT_LEFT_CANCELLATIVE, 2, {0, 1}, 4, ValueError,
                              "left-cancellative"),
    "r-1": (Z4, 1, {0, 1}, 2, ValueError, "^r must be greater than 1, got 1$"),
    "empty-support": (Z4, 2, set(), 0, ValueError, "^supp needs a nonempty support"),
    "support-0-7": (Z4, 2, {0, 7}, 4, ValueError, r"element ids in 0\.\.3, got \[0, 7\]"),
    "support-0-a": (Z4, 2, {0, "a"}, 4, ValueError, r"got \[0, 'a'\]"),
    "length": (Z4, 2, {0, 1}, 3, ValueError, r"word length must be r\*d = 4"),
}


def _word(monoid, n):
    """n neutral letters; over None only the empty word can be built."""
    return DegreeWord(monoid, (0,) * n if monoid is not None else ())


def _write(entry):
    """``write_oracle`` in one mode, failing if it wrote anything, whether or
    not it raised."""
    def write(monoid, r, supp, n):
        out = io.StringIO()
        try:
            write_oracle(monoid, r, supp, out, None if entry == "exhaustive" else (0,) * n)
        finally:
            assert out.getvalue() == ""
    return write


ENTRIES = {
    "exhaustive_splits": lambda monoid, r, supp, n: exhaustive_splits(monoid, r, supp),
    "neutral_split": lambda monoid, r, supp, n: words_module.neutral_split(
        _word(monoid, n), r, supp),
    "neutral_split_bruteforce": lambda monoid, r, supp, n: words_module.neutral_split_bruteforce(
        _word(monoid, n), r, supp),
    "write_oracle-word": _write("word"),
    "write_oracle-exhaustive": _write("exhaustive"),
}


REFUSALS = [
    (entry, rule) for entry in ENTRIES for rule in REFUSED
    # a walk takes no word, so its word length cannot be wrong
    if rule != "length" or entry in ("neutral_split", "neutral_split_bruteforce",
                                     "write_oracle-word")]


@pytest.mark.parametrize("entry, rule", REFUSALS)
def test_every_entry_point_refuses_what_a_split_cannot_take(monkeypatch, entry, rule):
    # an input error, ValueError or MonoidError, raised before any kernel or
    # written line; never SplitInternalError, which marks an implementation
    # bug (a RuntimeError, so pytest.raises lets it through and the test fails)
    monoid, r, supp, n, error, message = REFUSED[rule]

    def kernel(*args):
        raise AssertionError("a kernel ran")

    monkeypatch.setattr(words_module, "_split_batch", kernel)
    monkeypatch.setattr(words_module, "_brute_batch", kernel)
    with pytest.raises(error, match=message):
        ENTRIES[entry](monoid, r, supp, n)


def test_no_refusal_names_a_command_line_flag():
    # ``words`` names its parameters, r and supp; the flags that give them
    # are the command line's to name
    messages = []
    for entry, rule in REFUSALS:
        monoid, r, supp, n, error, _ = REFUSED[rule]
        with pytest.raises(error) as refused:
            ENTRIES[entry](monoid, r, supp, n)
        messages.append(str(refused.value))
    with pytest.raises(ValueError, match="int64") as refused:
        exhaustive_splits(Z4, 9, {0, 1, 2, 3})
    messages.append(str(refused.value))
    with pytest.raises(ValueError, match="not a monoid element") as refused:
        write_oracle(Z4, 2, {0, 1}, io.StringIO(), (0, 7, 0, 0))
    messages.append(str(refused.value))
    assert [m for m in messages if "--" in m] == []


@pytest.mark.parametrize("word", [(0, 0, 0, 1, 0, 0, 0, 1), None], ids=["word", "exhaustive"])
def test_write_oracle_reads_a_repeated_support_id_once(word):
    # d is the support's size as a set in the length check and in the
    # small-gap rule alike: cuts (0, 1, 2, 3, 8) leave block 4 out at 2d = 4
    lines = []
    for supp in ([0, 0, 1], {0, 1}):
        out = io.StringIO()
        write_oracle(Z2, 4, supp, out, word)
        lines.append(out.getvalue())
    assert lines[0] == lines[1]
    assert "cuts=(0, 1, 2, 3, 8) small-gap blocks=[1, 2, 3]\n" in lines[0]


def test_degree_word_names_the_first_bad_letter():
    with pytest.raises(ValueError, match="degree 3 is not a monoid element"):
        DegreeWord(Z3, (0, 3, 1.0))
    with pytest.raises(ValueError, match="degree 1.0 is not a monoid element"):
        DegreeWord(Z3, (0, 1.0, 3))
    with pytest.raises(ValueError, match="degree -1 is not a monoid element"):
        DegreeWord(Z3, (-1,))
    with pytest.raises(ValueError, match="degree 'a' is not a monoid element"):
        DegreeWord(ZADD, (1, "a"))
    assert DegreeWord(ZADD, (-5, 7, True)).degrees == (-5, 7, True)
    assert DegreeWord(Z3, ()).degrees == ()


def test_exhaustive_walk_matches_per_word_on_non_commuting_words():
    # In S_3 the clean words over a support of at most 3 elements have
    # pairwise commuting letters, so the order of a product never shows.
    # Over {e, s, c, s*c} (s = 1 a transposition, c = 3 a 3-cycle,
    # s*c = 5 but c*s = 2 is outside) a clean word can hold s right before
    # c, so multiplying in the wrong order changes verdicts.  Of the 6^8
    # words, those with a letter outside the support are FORCED_ZERO on
    # both sides (a letter is a subproduct); the per-word functions decide
    # the 4^8 others.
    supp = {0, 1, 3, 5}
    assert S3.op(1, 3) == 5 and S3.op(3, 1) == 2
    words = itertools.product(S3.elements(), repeat=8)
    clean = 0
    walk = _unpack(exhaustive_splits(S3, 2, supp))
    for got, letters in itertools.zip_longest(walk, words):
        if supp.issuperset(letters):
            w = DegreeWord(S3, letters)
            want = (letters, neutral_split(w, 2, supp), neutral_split_bruteforce(w, 2, supp))
            clean += isinstance(want[1], Decomposition)
        else:
            want = (letters, ProductVerdict.FORCED_ZERO, ProductVerdict.FORCED_ZERO)
        assert got == want
    assert clean == 2304


def test_batched_split_raises_on_the_words_the_per_word_split_raises_on():
    # 1*0 = 1*1: not left cancellative, so a pigeonholed block can be
    # non-neutral; every entry point of ``words`` refuses this monoid before
    # a kernel runs, so the kernels are called directly here.
    nc = Monoid.from_table([[0, 1], [1, 1]])
    table = np.array(nc.table)
    inside = np.ones(2, dtype=bool)
    words = list(itertools.product(range(2), repeat=4))
    raises = []
    for letters in words:
        try:
            neutral_split(DegreeWord(nc, letters), 2, {0, 1})
            per_word = False
        except SplitInternalError:
            per_word = True
        try:
            _split_batch(table, nc.identity, inside, np.array([letters]), 2)(())
            batched = False
        except SplitInternalError:
            batched = True
        assert batched == per_word, letters
        raises.append(per_word)
    assert 0 < sum(raises) < len(words)
    # a batch holding one such word raises as a whole
    with pytest.raises(SplitInternalError, match=r"word \[0, 1, 0, 1\]"):
        _split_batch(table, nc.identity, inside, np.array(words), 2)(())


def test_a_subproduct_that_re_enters_the_support_still_forces_zero():
    # Over Z_4 with support {0, 1}, the word 1,1,1,1,0,0 has the subproduct
    # 1*1 = 2 outside the support, and the longer 1*1*1*1 = 0 back inside.
    # Cut into head and tail anywhere, the 2 lies in the head, in the tail
    # or across the cut, and both kernels must find it there.
    letters = (1, 1, 1, 1, 0, 0)
    w = DegreeWord(Z4, letters)
    assert Z4.op(1, 1) == 2 and block_degrees(w, Decomposition((0, 4))) == [0]
    assert neutral_split(w, 3, {0, 1}) == ProductVerdict.FORCED_ZERO
    assert neutral_split_bruteforce(w, 3, {0, 1}) == ProductVerdict.FORCED_ZERO
    table = np.array(Z4.table)
    inside = np.isin(np.arange(4), [0, 1])
    for kernel in (_split_batch, _brute_batch):
        for k in range(len(letters) + 1):
            run = kernel(table, Z4.identity, inside, np.array([letters[k:]]), 3)
            assert run(letters[:k]).verdict(0) == ProductVerdict.FORCED_ZERO, \
                (kernel.__name__, k)
    # The brute twin extends every degree letter by letter through ``table``
    # and tests the support on the degrees directly: with every degree
    # inside (d = 4, so the word has r*d = 12 letters), its block 1..4 is
    # neutral only because 1*1 = 2 and 2*1 = 3 are read from the table and
    # 3*1 = 0 follows them.
    everywhere = np.ones(4, dtype=bool)
    long_word = np.array([letters + (0,) * 6])
    splits = _brute_batch(table, Z4.identity, everywhere, long_word, 3)(())
    assert splits.verdict(0) == Decomposition((0, 4, 5, 6))


# Every monoid the kernels are cross-checked on: identities at 0, 2 and 4.
KERNEL_MONOIDS = [Monoid.cyclic(size) for size in range(2, 7)] + [KLEIN, S3, Z4_E2, S3_E4]


@given(st.sampled_from(KERNEL_MONOIDS), st.data())
@settings(max_examples=300, deadline=None)
def test_head_tail_kernels_match_per_word_functions(monoid, data):
    # A random head of k letters, 0 <= k <= n, before a block of random
    # tails: both kernels give each word head + tail the verdict and cuts
    # the per-word functions give it.  Half the examples draw their letters
    # from the support alone, where most words are clean.
    size = monoid.size
    supp = data.draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=min(size, 4)))
    supp |= data.draw(st.sampled_from([set(), {monoid.identity}]))
    r = data.draw(st.integers(2, 3))
    n = r * len(supp)
    letter = st.sampled_from(data.draw(st.sampled_from([sorted(supp), list(range(size))])))
    k = data.draw(st.integers(0, n))
    head = tuple(data.draw(st.lists(letter, min_size=k, max_size=k)))
    tails = data.draw(st.lists(st.lists(letter, min_size=n - k, max_size=n - k),
                               min_size=1, max_size=6))
    dtype = np.min_scalar_type(size - 1)
    table = np.array(monoid.table, dtype=dtype)
    inside = np.isin(np.arange(size), sorted(supp))
    block = np.array(tails, dtype=dtype).reshape(len(tails), n - k)
    split = _split_batch(table, monoid.identity, inside, block, r)(head)
    brute = _brute_batch(table, monoid.identity, inside, block, r)(head)
    for i, tail in enumerate(tails):
        w = DegreeWord(monoid, head + tuple(tail))
        assert split.verdict(i) == neutral_split(w, r, supp), w.degrees
        assert brute.verdict(i) == neutral_split_bruteforce(w, r, supp), w.degrees


@given(st.sampled_from([Monoid.cyclic(size) for size in range(2, 7)] + [S3]), st.data())
@settings(max_examples=300, deadline=None)
def test_kernels_on_one_word_print_the_reference_line_at_every_head_length(monoid, data):
    # One random word, cut into a head of k letters and a (1, n - k) tail at
    # every k from 1 to n - 1: both kernels give the oracle line the per-word
    # reference gives.  neutral_split and neutral_split_bruteforce, which
    # run the kernels at k = 1, give the reference's verdicts.
    size = monoid.size
    supp = data.draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=min(size, 4)))
    supp |= data.draw(st.sampled_from([set(), {monoid.identity}]))
    r = data.draw(st.integers(2, 3))
    n = r * len(supp)
    letter = st.sampled_from(data.draw(st.sampled_from([sorted(supp), list(range(size))])))
    w = DegreeWord(monoid, tuple(data.draw(st.lists(letter, min_size=n, max_size=n))))
    want = (neutral_split(w, r, supp), neutral_split_bruteforce(w, r, supp))
    assert (words_module.neutral_split(w, r, supp),
            words_module.neutral_split_bruteforce(w, r, supp)) == want, w.degrees
    table, e, inside = words_module._kernel_input(monoid, supp)
    letters = np.array(w.degrees, dtype=table.dtype).reshape(1, n)
    for k in range(1, n):
        got = [kernel(table, e, inside, letters[:, k:], r)(w.degrees[:k]).verdict(0)
               for kernel in (_split_batch, _brute_batch)]
        assert _verdict_text(*got, len(supp)) == _verdict_text(*want, len(supp)), (w.degrees, k)
