"""Degree-word combinatorics: forced-zero prediction and neutral splits.

A degree word records the degrees of a product of homogeneous elements.  If
any contiguous subproduct degree leaves the support, the ring product is
forced to vanish.  Otherwise, for a word of length r*d over a support of
size d (r > 1), pigeonholing the prefix degrees yields r consecutive blocks
each of neutral degree; ``neutral_split`` constructs the cut positions and
``neutral_split_bruteforce`` re-derives the verdict by exhaustive search,
each by running one batched kernel on the word alone.

``exhaustive_splits`` decides both on every word of length r*d over a table
monoid, each word factored as head . tail: the tails of the last j letters
form one array, kept on the contiguous last axis, and a block is one head
followed by every tail, so each numpy kernel call covers the size**j
tails, at least ``_BLOCK`` words unless j is capped at r*d - 1.  Each
kernel is built for the one head length k = r*d - j and builds what
depends on the tail and k alone once, indexed at most by the degree g a
head hands to the tail, in time and memory linear in the tails and in the
narrowest dtypes that hold them, and then works only on the block's
head.  ``_split_batch`` reads the prefix degrees past the head as g times
the tail's prefix degrees (associativity) and applies the pigeonhole cut
rule to their counts; ``_brute_batch`` extends every degree letter by
letter through ``table``, tests the support on each, and finds the first
cut sequence by a reachability DP over neutral blocks.  Neither reads the other's tables, so
the brute force stays an independent twin of the split; the per-word
functions of ``tests/lemma35_reference.py`` are the reference both are
tested against.  ``write_oracle`` writes the lines of ``oracle lemma-3-5``,
one word's or the whole walk's.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import accumulate, product
from operator import lt, sub

import numpy as np

from .monoid import TABLE, Monoid, MonoidError, check_cancellative

# Fewest words per kernel call of ``exhaustive_splits``, short of a tail of
# r*d - 1 letters: the tail count size**j is at least ``_BLOCK`` and, j being
# the least such, fewer than size * ``_BLOCK``, so a call covers enough words
# to keep numpy's per-call overhead small, and the kernels' temporaries,
# which grow with the words of a block, bound the walk's peak memory.
_BLOCK = 1 << 12


class ProductVerdict(Enum):
    FORCED_ZERO = "FORCED_ZERO"


FORCED_ZERO = ProductVerdict.FORCED_ZERO


class SplitInternalError(RuntimeError):
    """The pigeonhole dichotomy failed; indicates an implementation bug."""


@dataclass(frozen=True)
class DegreeWord:
    monoid: Monoid
    degrees: tuple

    def __post_init__(self):
        degrees = tuple(self.degrees)
        object.__setattr__(self, "degrees", degrees)
        for g in degrees:
            if not self.monoid.contains(g):
                raise ValueError(f"degree {g!r} is not a monoid element")

    def __len__(self):
        return len(self.degrees)


@dataclass(frozen=True)
class Decomposition:
    """Cut positions s_0 < ... < s_r; block j spans letters s_{j-1}+1 .. s_j."""

    cuts: tuple

    def __post_init__(self):
        cuts = tuple(self.cuts)
        object.__setattr__(self, "cuts", cuts)
        if not all(map(lt, cuts, cuts[1:])):
            raise ValueError("cut positions must be strictly increasing")

    @property
    def blocks(self):
        return list(zip(self.cuts, self.cuts[1:]))

    def gaps(self):
        return list(map(sub, self.cuts[1:], self.cuts))


def block_degrees(w: DegreeWord, dec: Decomposition):
    """The degree of each block of a decomposition."""
    return [reduce(w.monoid.op, w.degrees[a:b]) for a, b in dec.blocks]


def _check_split_args(monoid, r, supp, n):
    """Refuse what Lemma 3.5's split cannot take, in this order: a monoid
    that is not a table monoid or not left cancellative (the cuts at
    repeated prefix degrees have neutral quotients only by left
    cancellation), r <= 1, a support that is empty or holds a non-element,
    and a word length n other than r*d.  Every entry point runs it first."""
    if not isinstance(monoid, Monoid) or monoid.kind != TABLE:
        raise MonoidError(f"a neutral split needs a table monoid, got {monoid!r}")
    if not check_cancellative(monoid):
        raise ValueError("a neutral split needs a left-cancellative monoid")
    if r <= 1:
        raise ValueError(f"r must be greater than 1, got {r}")
    if not supp or not all(map(monoid.contains, supp)):
        got = sorted(supp, key=lambda g: (type(g).__name__, g))
        raise ValueError(f"supp needs a nonempty support of element ids in "
                         f"0..{monoid.size - 1}, got {got}")
    if n != r * len(supp):
        raise ValueError(f"word length must be r*d = {r * len(supp)}")


def _kernel_input(monoid: Monoid, supp):
    """The kernels' ``(table, e, inside)``: the table in the narrowest dtype
    that holds every element id, the identity, and ``supp`` as a mask."""
    table = np.array(monoid.table, dtype=np.min_scalar_type(monoid.size - 1))
    return table, monoid.identity, np.isin(np.arange(monoid.size), list(supp))


def _one_word(monoid: Monoid, degrees, r: int, supp):
    """The kernels' arguments for the word ``degrees`` alone, a one-row tail
    and its first letter as the head, once ``_check_split_args`` and
    ``DegreeWord`` pass it."""
    supp = set(supp)
    _check_split_args(monoid, r, supp, len(degrees))
    degrees = DegreeWord(monoid, degrees).degrees
    table, e, inside = _kernel_input(monoid, supp)
    tail = np.array(degrees[1:], dtype=table.dtype).reshape(1, len(degrees) - 1)
    return (table, e, inside, tail, r), degrees[:1]


def neutral_split(w: DegreeWord, r: int, supp):
    """Cut a clean word of length r*d over a table monoid into r consecutive
    neutral blocks, by ``_split_batch`` on the word alone: FORCED_ZERO when
    some contiguous subproduct leaves the support, else the cuts at the
    first r prefixes of neutral degree, if r have it, or at the first r+1 of
    the most frequent other degree (the smallest on a tie), whose quotients
    are neutral by left cancellation.  Raises what ``_check_split_args``
    raises, and ``SplitInternalError`` on a broken dichotomy or block.
    """
    args, head = _one_word(w.monoid, w.degrees, r, supp)
    return _split_batch(*args)(head).verdict(0)


def small_gap_blocks(dec: Decomposition, d: int):
    """Indices (1-based) of blocks spanning at most 2d letters.

    For a split of a length r*d word into r neutral blocks, at least
    floor(r/2) + 1 blocks qualify; fewer indicates an implementation bug.
    """
    selected = [i for i, gap in enumerate(dec.gaps(), start=1) if gap <= 2 * d]
    r = len(dec.cuts) - 1
    r_hat = r // 2
    if len(selected) < r_hat + 1:
        raise SplitInternalError(
            f"only {len(selected)} blocks with gap <= {2 * d}, expected >= {r_hat + 1}"
        )
    return selected


def neutral_split_bruteforce(w: DegreeWord, r: int, supp):
    """Exhaustive-search twin of ``neutral_split``, by ``_brute_batch`` on the
    word alone: FORCED_ZERO, re-derived from every subproduct degree, else
    the lexicographically first cuts of r neutral blocks, never pigeonholing
    prefixes, or None if there are none (which would contradict the
    pigeonhole construction).  Raises what ``_check_split_args`` raises.
    """
    args, head = _one_word(w.monoid, w.degrees, r, supp)
    return _brute_batch(*args)(head).verdict(0)


@dataclass(frozen=True)
class Splits:
    """One side's verdicts on a batch of words.

    Word i is FORCED_ZERO where ``zero[i]``; otherwise ``cuts[i]`` holds its
    cut positions s_0 < ... < s_r, or all -1 when it has no cut sequence.
    """

    zero: np.ndarray
    cuts: np.ndarray

    def verdict(self, i):
        """Word i's verdict: FORCED_ZERO, a ``Decomposition`` or None."""
        if self.zero[i]:
            return FORCED_ZERO
        cuts = self.cuts[i].tolist()
        return None if cuts[0] < 0 else Decomposition(tuple(cuts))

    @classmethod
    def forced_zero(cls, m, r):
        """m words, all FORCED_ZERO."""
        return cls(np.ones(m, dtype=bool), np.full((m, r + 1), -1, dtype=np.intp))


def _times(table, g, x):
    """``table[g, x]`` elementwise, for arrays of ids that broadcast: one take
    from the flat table, the index computed in the narrowest unsigned dtype
    that holds every flat position."""
    at = g.astype(np.min_scalar_type(table.size - 1)) * table.shape[1] + x
    return table.ravel().take(at)


def _split_batch(table, e, inside, tails, r):
    """``neutral_split`` on the words head + tail, for every row of ``tails``,
    returned as a function of the head, a tuple of the k = r*d - j letters
    that every word of length n = r*d has before a tail of j; word i of its
    ``Splits`` is the head followed by tail i.

    Products are read from ``within``, the table with every product outside
    the support replaced by ``size``, whose row and column keep it: a degree
    extended letter by letter reads ``size`` from the first subproduct that
    leaves the support on.  Built here once from the tail alone: its
    subproduct triangle ``tri``, whose last row tests the support on every
    subproduct; and, per starting degree g among the keys supp + {e}, G[g]
    = ``within[g, S]`` for the tail's prefix degrees S (the prefix degrees
    of g followed by the tail, by associativity), with the support tested
    on them and the count of each key among them.  A head's own triangle
    gives its subproducts P_a of letters a+1..k and its prefix degrees B_0
    = e, B_1..B_k: a word is clean iff the head is and every G[P_a] stays
    inside, its prefix degrees are B_0..B_k followed by G[B_k], and their
    counts are the head's plus G[B_k]'s.  The cuts pigeonhole those
    degrees: the first r+1 positions of e if it occurs r+1 times, else of
    the most frequent other degree (a score of the count shifted past K-1
    minus the key's rank sends ties to the smallest id), read off
    cumulative hit counts.  Each block's degree is read from one flat
    table, G then ``tri`` then a row of e and a row of not e: block a+1..b
    lies at G[P_a] at b - k if a < k < b, at tri[b - k, a - k] if a >= k,
    and in the row that gives the head's own verdict on it if b <= k.
    Raises ``SplitInternalError`` if a clean word breaks the dichotomy or
    gets a non-neutral block.  Every table is linear in the tails: (j+1)^2
    degrees per tail in ``tri``, K(j+1) in G and K^2 counts, for K keys.
    Degrees take the narrowest unsigned dtype that holds ``size``, counts
    and positions the narrowest above n: uint8, as the oracle walks only
    n <= 62.
    """
    m, j = tails.shape
    n = r * int(np.count_nonzero(inside))
    k = n - j
    size = len(table)
    within = np.full((size + 1, size + 1), size, dtype=np.min_scalar_type(size))
    within[:size, :size] = np.where(inside[table], table, size)
    keys = np.flatnonzero(inside | (np.arange(size) == e)).astype(within.dtype)
    K = len(keys)
    shift, by_rank = (K - 1).bit_length(), keys[::-1].copy()
    # the sentinel takes rank 0, on a word that is not clean
    rank = np.zeros(size + 1, dtype=np.intp)
    rank[keys] = np.arange(K)
    re = int(rank[e])
    # tri[b, a]: the degree of tail letters a+1..b (e where a >= b)
    tri = np.full((j + 1, j + 1, m), e, dtype=within.dtype)
    for b in range(1, j + 1):
        tri[b, :b] = _times(within, tri[b - 1, :b], tails[:, b - 1])
    clean = (tri[j, :j] < size).all(axis=0)
    G = within[keys].take(tri[:, 0], axis=1)
    clean_from = clean & (G[:, 1:] < size).all(axis=1)
    count_from = np.empty((K, K, m), dtype=np.min_scalar_type(j))
    for c, g in enumerate(keys):
        np.add.reduce((G[:, 1:] == g).view(np.uint8), axis=1, dtype=count_from.dtype,
                      out=count_from[:, c])
    source = np.concatenate((G.ravel(), tri.ravel(), np.full(m, e, dtype=G.dtype),
                             np.full(m, e ^ 1, dtype=G.dtype)))
    neutral_row, broken_row = G.size + tri.size, G.size + tri.size + m
    column = np.arange(m)
    rows = within.tolist()
    pos = np.min_scalar_type(n + 1)
    # score: the count shifted past K - 1 - rank, so the largest is the most
    # frequent degree, ties going to the smallest id; e scores above all
    # when it occurs r+1 times, else 0
    score_t = np.min_scalar_type((n + 2) << shift)
    tie_break = (K - 1 - np.arange(K, dtype=score_t))[:, None]
    e_score = score_t.type(((n + 2) << shift) | (K - 1 - re))
    # the parts of a block's start in ``source`` that do not depend on the
    # head: past the head, tri's offset where a >= k and G's at b - k where
    # a < k, to which G[P_a]'s row is added
    a = np.arange(n + 1)[:, None]
    b = np.arange(n + 1)
    tb = np.maximum(b - k, 0)
    past = np.where(a >= k, G.size + (tb * (j + 1) + a - k) * m, tb * m)
    cross, beyond = (a < k) & (b > k), b > k
    a_row, b_head, a_head = np.minimum(a[:, 0], k), np.minimum(b, k), np.minimum(a, k)

    def split(head):
        # the head's own triangle, [a][b] the degree of letters a+1..b
        # (e where b <= a), made in Python: a head has few letters
        head_tri = []
        for a in range(k + 1):
            sub = [e] * (a + 1)
            for x in head[a:]:
                sub.append(rows[sub[-1]][x])
            head_tri.append(sub)
        if not all(sub[-1] < size for sub in head_tri[:k]):
            return Splits.forced_zero(m, r)
        head_tri = np.array(head_tri, dtype=within.dtype).T
        P = rank[head_tri[k]]
        word_clean = clean & clean_from[P[:k]].all(axis=0)

        own = (head_tri[:, 0, None] == keys).sum(axis=0, dtype=pos)
        score = np.add(count_from[P[0]], own[:, None], dtype=score_t)
        neutral = score[re] > r
        score <<= shift
        score |= tie_break
        np.multiply(neutral, e_score, out=score[re])
        target = by_rank.take(score.max(axis=0) & ((1 << shift) - 1))
        prefix = np.empty((n + 1, m), dtype=within.dtype)
        prefix[:k + 1] = head_tri[:, 0, None]
        prefix[k + 1:] = G[P[0], 1:]
        seen = np.equal(prefix, target, out=np.empty((n + 1, m), dtype=pos))
        for p in range(1, n + 1):
            seen[p] += seen[p - 1]
        # hit i (from 0) is at the number of positions with at most i hits so
        # far; a word with fewer hits reads n+1, clipped to n, and is broken
        cuts = np.empty((r + 1, m), dtype=pos)
        for i in range(r + 1):
            np.add.reduce((seen <= i).view(np.uint8), axis=0, dtype=pos, out=cuts[i])
        cuts = np.minimum(cuts, n, out=cuts).astype(np.intp)

        # where block a+1..b starts in ``source``, per (a, b)
        start = past + cross * (P[a_row] * ((j + 1) * m))[:, None]
        inner = head_tri[b_head, a_head] == e
        start = np.where(beyond, start, np.where(inner, neutral_row, broken_row))
        blocks = source.take(start.ravel().take(cuts[:-1] * (n + 1) + cuts[1:]) + column) == e
        broken = (seen[n] <= r) | ~blocks.all(axis=0)
        bad = np.flatnonzero(word_clean & broken)
        if bad.size:
            raise SplitInternalError(
                f"word {list(head) + tails[bad[0]].tolist()}: pigeonhole "
                "dichotomy failed or a block is not neutral"
            )
        cuts[:, ~word_clean] = -1
        return Splits(~word_clean, cuts.T)

    return split


def _brute_batch(table, e, inside, tails, r):
    """``neutral_split_bruteforce`` on the words head + tail, for every row of
    ``tails``, returned as a function of the head, a tuple of the k = r*d - j
    letters that every word of length n = r*d has before a tail of j; word i
    of its ``Splits`` is the head followed by tail i.

    Every degree is extended letter by letter through ``table`` and the
    support is tested on each.  Built here once from the tail alone:
    ``neutral[L][c]``, that tail letters c+1..c+L have neutral degree, and
    from those a reachability DP over shifted slices, ``first[t, c]``, the
    shortest neutral block at c that t-1 more can follow (0 if none); and,
    for every starting degree g in the support at once, E[g], g extended by
    the tail letters, tested against the support and reduced to
    ``cross[t, g]``, the shortest c >= 1 with E[g][c] neutral and t-1 blocks
    placeable after tail letter c.  The head's subproducts are extended the
    same way, and they add only the DP rows of their own k start positions:
    a block from head position a is a head subproduct or, past the head,
    Q_a = h_{a+1}..h_k extended by E[Q_a].  The smallest reachable cut, then
    the shortest block at each step, read from the head's DP rows and
    ``first`` laid end to end, is the lexicographically first cut sequence;
    a clean word with none gets cuts of -1 (None).  Every table is linear
    in the tails: j(j+1)/2 neutral flags and (r+1)(j+1) DP entries per
    tail, and (r+1) cross entries per support element, lengths in the
    narrowest unsigned dtype above j.
    """
    m, j = tails.shape
    supp = np.flatnonzero(inside)
    n = r * len(supp)
    k = n - j
    slot = np.zeros(len(table), dtype=np.intp)
    slot[supp] = np.arange(len(supp))
    x = tails.T
    clean = np.ones(m, dtype=bool)
    neutral = [None]
    degs = x
    for length in range(1, j + 1):
        if length > 1:
            degs = _times(table, degs[:-1], x[length - 1:])
        clean &= inside.take(degs).all(axis=0)
        neutral.append(degs == e)
    lengths = np.min_scalar_type(j + 1)
    first = np.zeros((r + 1, j + 1, m), dtype=lengths)
    reach = np.ones((r + 1, j + 1, m), dtype=bool)
    for t in range(1, r + 1):
        for length in range(j, 0, -1):  # the shortest block writes last
            np.copyto(first[t, :j + 1 - length], length,
                      where=neutral[length] & reach[t - 1, length:])
        reach[t] = first[t] > 0
    # the first reachable cut in the tail; far below 0 if none, so that no
    # head length lifts it to a position
    tail_start = np.full(m, -1 << 62, dtype=np.intp)
    for c in range(j, -1, -1):
        np.copyto(tail_start, c, where=reach[r, c])

    degs = np.repeat(supp[:, None], m, axis=1)
    ok_from = np.repeat(clean[None], len(supp), axis=0)
    cross = np.zeros((r + 1, len(supp), m), dtype=lengths)
    ends = []
    for c in range(j):
        degs = _times(table, degs, x[c])
        ok_from &= inside.take(degs)
        ends.append(degs == e)
    for t in range(1, r + 1):
        for c in range(j, 0, -1):
            np.copyto(cross[t], c, where=ends[c - 1] & reach[t - 1, c])
    column = np.arange(m)

    rows = table.tolist()
    in_supp = set(supp.tolist())
    pos = np.min_scalar_type(n + 1)
    # a cross block ends k - a letters later than in the tail
    later = (k - np.arange(k, dtype=pos))[:, None]
    # where the step at position p with t blocks to go lies in ``steps``,
    # head_first then ``first`` laid end to end: at (t * k + p) * m + column
    # if p < k, else past head_first's (r + 1) * k * m entries at
    # (t * (j + 1) + p - k) * m + column
    t = np.arange(r + 1)[:, None]
    p = np.arange(n + 1)
    step_at = np.where(p < k, (t * k + p) * m, ((r + 1) * k + t * (j + 1) + p - k) * m)

    def brute(head):
        # prods[a][L - 1]: the degree of head letters a+1..a+L, made in
        # Python: a head has few letters
        prods = [list(accumulate(head[a:], lambda g, x: rows[g][x])) for a in range(k)]
        if not all(in_supp.issuperset(row) for row in prods):
            return Splits.forced_zero(m, r)
        # Q[a]: the support slot of Q_a = prods[a][-1]; head_ends[a, L - 1]:
        # that head letters a+1..a+L are neutral
        Q = slot[[row[-1] for row in prods]]
        head_ends = np.array([[g == e for g in row] + [False] * a for a, row in enumerate(prods)],
                             dtype=bool).reshape(k, k)
        word_clean = clean & ok_from[Q].all(axis=0)
        # DP rows of the head's start positions, all at once per t: row k of
        # head_reach is the tail's reach at its start
        head_first = np.zeros((r + 1, k, m), dtype=pos)
        head_reach = np.ones((r + 1, k + 1, m), dtype=bool)
        for t in range(1, r + 1):
            head_reach[t - 1, k] = reach[t - 1, 0]
            row = head_first[t]
            shortest = cross[t][Q]
            np.multiply(shortest + later, shortest > 0, out=row)
            for length in range(k, 0, -1):  # the shortest block writes last
                after = head_reach[t - 1, length:]
                np.copyto(row[:k + 1 - length], length,
                          where=head_ends[:k + 1 - length, length - 1, None] & after)
            np.greater(row, 0, out=head_reach[t, :k])
        start = tail_start + k
        for a in range(k - 1, -1, -1):
            np.copyto(start, a, where=head_reach[r, a])

        steps = np.concatenate((head_first.ravel(), first.ravel()))
        # a word with no cut sequence steps from 0 and is marked after
        cuts = np.empty((r + 1, m), dtype=np.intp)
        np.maximum(start, 0, out=cuts[0])
        for i in range(1, r + 1):
            np.add(cuts[i - 1], steps.take(step_at[r + 1 - i].take(cuts[i - 1]) + column),
                   out=cuts[i])
        cuts[:, ~(word_clean & (start >= 0))] = -1
        return Splits(~word_clean, cuts.T)

    return brute


def exhaustive_splits(monoid: Monoid, r: int, supp):
    """The words of length n = r*d over a table monoid as ``(tails, blocks)``.

    A word is a head of k = n - j letters followed by a tail of j, for the
    least j with size**j >= ``_BLOCK``, capped at n - 1.  ``tails`` is the
    (size**j, j) array of every tail, in ``itertools.product`` order.
    ``blocks`` yields ``(head, split, brute)`` per head, a tuple of element
    ids, heads in that order too, made as they are reached: the words head +
    tails[0], head + tails[1], ... of one block after another are those of
    ``itertools.product(monoid.elements(), repeat=n)``.  ``split`` and
    ``brute`` are ``Splits`` over the block's words whose verdicts equal
    ``neutral_split`` and ``neutral_split_bruteforce`` on each word.  Past
    ``_check_split_args``, it raises ``ValueError`` on n >= 63 or size**n
    past int64.
    """
    supp = set(supp)
    n = r * len(supp)
    _check_split_args(monoid, r, supp, n)
    size = monoid.size
    # past int64-max words no walk ends; n is checked first, so no huge power
    # is taken, and it alone stops a one-element walk, whose tables grow as n^2
    if n >= 63 or size**n > np.iinfo(np.int64).max:
        raise ValueError(f"r must keep r*d below 63 and size**(r*d) words within int64 "
                         f"for an exhaustive walk; r*d = {n} gives {size}**{n} words")
    table, e, inside = _kernel_input(monoid, supp)
    j = 0
    while j < n - 1 and size**j < _BLOCK:
        j += 1
    # letter c of every tail is row c of the grid, on its contiguous last axis
    tails = np.indices((size,) * j, dtype=table.dtype).reshape(j, size**j).T
    split = _split_batch(table, e, inside, tails, r)
    brute = _brute_batch(table, e, inside, tails, r)
    heads = product(range(size), repeat=n - j)
    return tails, ((head, split(head), brute(head)) for head in heads)


def _verdict_text(got, ref, d):
    """``(mark, suffix)`` of the oracle line ``mark word=[letters suffix`` of
    a word with split ``got`` and brute-force verdict ``ref``.  The mark is
    ``DISAGREE `` when one side is FORCED_ZERO and the other not, or the
    brute force finds no cut sequence, else empty."""
    if (got == FORCED_ZERO) != (ref == FORCED_ZERO) or ref is None:
        return "DISAGREE ", f"] split={got} oracle={ref}\n"
    if got == FORCED_ZERO:
        return "", "] FORCED_ZERO (both)\n"
    return "", f"] cuts={got.cuts} small-gap blocks={small_gap_blocks(got, d)}\n"


def _write_exhaustive(monoid, r, supp, out):
    """Write the oracle line of every word to ``out``, one block of
    ``exhaustive_splits`` at a time, and return the number of disagreements.

    A block is one head followed by every tail, and a line is the block's
    lead, ``word=[`` and the head letters, the tail letters, made once for
    all blocks, and the verdict suffix.  A block with a disagreeing row,
    which a correct run never has, is written line by line through
    ``_verdict_text``, as ``--word`` writes a line.  Any other block is
    written as one joined list: its lead, then per line its tail text and
    its suffix followed by the lead again, which is dropped after the
    block's last line.  Suffixes are made once per cut sequence and looked
    up by its id.  Ids are dealt one cut at a time: ``link[i][p * width +
    c]`` is the id of the first i + 1 cuts of the sequences whose first i
    have id p and whose cut i is c, -1 until one is seen.  Id 0 and the
    last column stand for a row that is not split, so the last level's id
    indexes the suffixes with FORCED_ZERO at 0, and a block finds every
    line's suffix with r + 1 takes.
    """
    d = len(supp)
    tails, blocks = exhaustive_splits(monoid, r, supp)
    names = [str(g) for g in monoid.elements()]
    # j < n keeps one head letter, so every tail text starts with ", "
    tail_texts, letters = [""], [", " + g for g in names]
    for _ in range(tails.shape[1]):
        tail_texts = [t + x for t in tail_texts for x in letters]
    width = r * d + 2
    link = [np.full(width, -1, dtype=np.intp) for _ in range(r + 1)]
    for level in link:
        level[-1] = 0
    suffixes = np.array([_verdict_text(FORCED_ZERO, FORCED_ZERO, d)[1]], dtype=object)
    # a block's pieces: the tail texts at the odd places stay from block to
    # block; every even place is written for each block
    pieces = [None] * (2 * len(tail_texts) + 1)
    pieces[1::2] = tail_texts
    disagreements = 0
    for head, got, ref in blocks:
        lead = "word=[" + ", ".join(map(names.__getitem__, head))
        # ``_verdict_text``'s DISAGREE: one side alone is FORCED_ZERO, or the
        # brute force finds no cut sequence
        if ((got.zero != ref.zero) | ~ref.zero & (ref.cuts[:, 0] < 0)).any():
            for i, tail in enumerate(tail_texts):
                mark, suffix = _verdict_text(got.verdict(i), ref.verdict(i), d)
                out.write(mark + lead + tail + suffix)
                disagreements += mark != ""
            continue
        column = np.where(got.zero, width - 1, got.cuts.T)
        at = np.zeros(len(got.zero), dtype=np.intp)
        for i, level in enumerate(link):
            to = at * width + column[i]
            at = level.take(to)
            if at.min() < 0:
                fresh = at < 0
                # new ids in ascending place, marked in the table, no sort
                level[to[fresh]] = -2
                new = np.flatnonzero(level == -2)
                count = len(link[i + 1]) // width if i < r else len(suffixes)
                level[new] = np.arange(count, count + len(new))
                at = level.take(to)
                if i < r:
                    link[i + 1] = np.concatenate((link[i + 1], np.full(len(new) * width, -1)))
                else:
                    # one row per new sequence, any row: they share their cuts
                    rows = np.empty(len(new), dtype=np.intp)
                    rows[at[fresh] - count] = np.flatnonzero(fresh)
                    texts = [_verdict_text(got.verdict(row), ref.verdict(row), d)[1]
                             for row in rows.tolist()]
                    suffixes = np.concatenate((suffixes, np.array(texts, dtype=object)))
        pieces[0] = lead
        pieces[2::2] = (suffixes + lead)[at].tolist()
        pieces[-1] = suffixes[at[-1]]
        out.write("".join(pieces))
    return disagreements


def write_oracle(monoid: Monoid, r: int, supp, out, word=None):
    """Write ``oracle lemma-3-5``'s lines to ``out``: that of ``word``, a tuple
    of element ids, or, when it is None, of every word of length r*d in
    ``itertools.product`` order (none if ``_one_word`` or ``exhaustive_splits``
    raises); then ``disagreements: N``, and return N."""
    supp = set(supp)
    d = len(supp)
    if word is None:
        disagreements = _write_exhaustive(monoid, r, supp, out)
    else:
        args, head = _one_word(monoid, word, r, supp)
        mark, suffix = _verdict_text(_split_batch(*args)(head).verdict(0),
                                     _brute_batch(*args)(head).verdict(0), d)
        out.write(mark + "word=[" + ", ".join(map(str, word)) + suffix)
        disagreements = int(mark != "")
    out.write(f"disagreements: {disagreements}\n")
    return disagreements
