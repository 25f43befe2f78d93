"""Degree-word combinatorics: forced-zero prediction and neutral splits.

A degree word records the degrees of a product of homogeneous elements.  If
any contiguous subproduct degree leaves the support, the ring product is
forced to vanish.  Otherwise, for a word of length r*d over a support of
size d (r > 1), pigeonholing the prefix degrees yields r consecutive blocks
each of neutral degree; ``neutral_split`` constructs the cut positions and
``neutral_split_bruteforce`` re-derives the verdict by exhaustive search.

``exhaustive_splits`` decides both on every word of length r*d over a table
monoid, each word factored as head . tail: the tails of the last j letters
form one block of at most ``_CHUNK`` words, kept on the contiguous last
axis, and a chunk is one head followed by every tail.  Each numpy kernel
builds the tables that depend on the tail alone once, indexed at most by
the degree g a head hands to the tail, and then works only on the head's
own positions.  ``_split_batch`` reads the prefix degrees past the head as
g times the tail's prefix degrees (associativity) and applies the
pigeonhole cut rule to their counts; ``_brute_batch`` extends every degree
letter by letter through ``table``, tests the support on each, and finds
the first cut sequence by a reachability DP over neutral blocks.  Neither
reads the other's tables, so the brute force stays an independent twin of
the split; the per-word functions are the reference both are tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import accumulate, product
from operator import add, and_, lt, sub

import numpy as np

from .monoid import TABLE, Monoid

# Most tails per block of ``exhaustive_splits``.  The split holds a (j+1,
# j+1, tails) triangle, so a small block keeps peak memory flat.
_CHUNK = 1 << 10


class ProductVerdict(Enum):
    FORCED_ZERO = "FORCED_ZERO"
    POSSIBLY_NONZERO = "POSSIBLY_NONZERO"


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
        if not self.monoid.contains_all(degrees):
            bad = next(g for g in degrees if not self.monoid.contains(g))
            raise ValueError(f"degree {bad!r} is not a monoid element")

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


def _subproduct_rows(w: DegreeWord):
    """Row a lists the degrees of letters a+1..b for b = a+1..n, lazily.

    Table monoids index ``monoid.table`` directly; integer addition adds.
    """
    degs = w.degrees
    if w.monoid.kind != TABLE:
        for a in range(len(degs)):
            yield list(accumulate(degs[a:]))
        return
    table = w.monoid.table
    for a, g in enumerate(degs):
        row = [g]
        for x in degs[a + 1:]:
            g = table[g][x]
            row.append(g)
        yield row


def subproduct_degrees(w: DegreeWord):
    """Degrees of all contiguous subproducts, via prefix extension."""
    out = set()
    for row in _subproduct_rows(w):
        out.update(row)
    return out


def product_verdict(w: DegreeWord, supp) -> ProductVerdict:
    """FORCED_ZERO iff some contiguous subproduct degree leaves the support."""
    supp = set(supp)
    for row in _subproduct_rows(w):
        if not supp.issuperset(row):
            return ProductVerdict.FORCED_ZERO
    return ProductVerdict.POSSIBLY_NONZERO


def block_degrees(w: DegreeWord, dec: Decomposition):
    """The degree of each block of a decomposition."""
    degs = w.degrees
    if w.monoid.kind != TABLE:
        return [reduce(add, degs[a:b]) for a, b in dec.blocks]
    table = w.monoid.table
    out = []
    for a, b in dec.blocks:
        acc = degs[a]
        for x in degs[a + 1:b]:
            acc = table[acc][x]
        out.append(acc)
    return out


def _check_split_args(r, supp, n):
    if r <= 1:
        raise ValueError("split needs r > 1")
    if n != r * len(supp):
        raise ValueError(f"word length {n} is not r*d = {r}*{len(supp)}")


def _pigeonhole_cuts(buckets, e, r):
    """The split's cut positions from the prefix-degree buckets.

    ``buckets`` maps each degree to the ascending 1-based positions of the
    prefixes with that degree.  Either the identity occurs at least r times
    (cut at the first r such prefixes), or some other degree occurs at least
    r+1 times (cut at its first r+1 positions, whose consecutive quotients
    are neutral by left cancellation).  Ties between maximal degrees break
    toward the smallest element, positions toward the earliest index.
    """
    neutral_pos = buckets.get(e, ())
    if len(neutral_pos) >= r:
        return (0,) + tuple(neutral_pos[:r])
    candidates = [(g, pos) for g, pos in buckets.items() if g != e and pos]
    if not candidates:
        raise SplitInternalError("no prefix buckets despite clean word")
    g0, pos = max(candidates, key=lambda it: (len(it[1]), _neg_key(it[0])))
    if len(pos) < r + 1:
        raise SplitInternalError(
            f"pigeonhole dichotomy failed: {len(neutral_pos)} neutral prefixes "
            f"and at most {len(pos)} repeats of any other degree"
        )
    return tuple(pos[: r + 1])


def _require_neutral(block_degs, e):
    for g in block_degs:
        if g != e:
            raise SplitInternalError(f"constructed block has degree {g!r}, not neutral")


def _first_cut_sequence(neutral_after, n, r):
    """The lexicographically first cuts s_0 < ... < s_r of r neutral blocks.

    ``neutral_after[a]`` lists, ascending, the ends b whose block a+1..b has
    neutral degree; ``neutral_after[n]`` is empty.  Cut positions are tried
    depth first in increasing order, pruning at the first non-neutral block,
    so the first hit is the first of all cut sequences in lexicographic
    order.  None if there is none.
    """

    def extend(pos, left):
        if not left:
            return (pos,)
        for b in neutral_after[pos]:
            rest = extend(b, left - 1)
            if rest:
                return (pos,) + rest
        return None

    for s0 in range(n - r + 1):
        cuts = extend(s0, r)
        if cuts:
            return cuts
    return None


def neutral_split(w: DegreeWord, r: int, supp):
    """Cut a clean word of length r*d into r consecutive neutral blocks.

    Returns FORCED_ZERO when some contiguous subproduct leaves the support;
    otherwise cuts by ``_pigeonhole_cuts`` on the prefix degrees and checks
    that every block is neutral.
    """
    supp = set(supp)
    _check_split_args(r, supp, len(w))
    rows = []
    for row in _subproduct_rows(w):
        if not supp.issuperset(row):
            return ProductVerdict.FORCED_ZERO
        rows.append(row)

    # Row 0 holds the prefix degrees b_1..b_n.
    buckets = {}
    for pos, g in enumerate(rows[0] if rows else (), start=1):
        buckets.setdefault(g, []).append(pos)
    e = w.monoid.identity
    cuts = _pigeonhole_cuts(buckets, e, r)
    _require_neutral([rows[a][b - a - 1] for a, b in zip(cuts, cuts[1:])], e)
    return Decomposition(cuts)


def _neg_key(g):
    # max() with this secondary key prefers the smallest element id.
    return -g if isinstance(g, int) else g


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
    """Exhaustive-search twin of ``neutral_split`` for cross-validation.

    Re-derives the forced-zero verdict from a table of all (start, end)
    subproduct degrees, then searches every cut sequence for r neutral
    blocks (``_first_cut_sequence``), never pigeonholing prefixes.  Returns
    the first decomposition found, FORCED_ZERO, or None if neither applies
    (which would contradict the pigeonhole construction).
    """
    supp = set(supp)
    n = len(w)
    _check_split_args(r, supp, n)

    # prod[a][b - a - 1] = degree of letters a+1 .. b (0 <= a < b <= n)
    prod = list(_subproduct_rows(w))
    if not all(supp.issuperset(row) for row in prod):
        return ProductVerdict.FORCED_ZERO

    e = w.monoid.identity
    neutral_after = [
        [b for b, g in enumerate(row, start=a + 1) if g == e]
        for a, row in enumerate(prod)
    ]
    neutral_after.append([])
    cuts = _first_cut_sequence(neutral_after, n, r)
    return None if cuts is None else Decomposition(cuts)


@dataclass(frozen=True)
class Splits:
    """One side's verdicts on a batch of words.

    Word i is FORCED_ZERO where ``zero[i]``; otherwise ``cuts[i]`` holds its
    cut positions s_0 < ... < s_r, or all -1 when it has no cut sequence.
    """

    zero: np.ndarray
    cuts: np.ndarray

    def verdict(self, i):
        """Word i's verdict as the per-word functions give it."""
        if self.zero[i]:
            return FORCED_ZERO
        cuts = self.cuts[i].tolist()
        return None if cuts[0] < 0 else Decomposition(tuple(cuts))

    @classmethod
    def forced_zero(cls, m, r):
        """m words, all FORCED_ZERO."""
        return cls(np.ones(m, dtype=bool), np.full((m, r + 1), -1, dtype=np.intp))


def _word_letters(size, j):
    """The tail block: the words of ``itertools.product(range(size),
    repeat=j)`` as a (size**j, j) array, letter c of word i being
    (i // size^(j-1-c)) % size.  size**j <= ``_CHUNK``, so no place value
    nears int64."""
    place = size ** np.arange(j - 1, -1, -1)
    return np.arange(size**j)[:, None] // place % size


def _split_batch(table, e, inside, tails, r):
    """``neutral_split`` on the words head + tail over the rows of ``tails``,
    returned as a function of the head.

    Built here once from the tail alone: its subproduct triangle ``tri[b,
    a]`` (letters a+1..b, e where a = b) with the support tested on it and
    its prefix degrees S = ``tri[:, 0]``; and, per starting degree g in the
    support or e, G[g] = ``table[g, S]``, the prefix degrees of g followed
    by the tail (associativity, nothing more), with the support tested on
    them and their counts.  A head h_1..h_k of subproducts inside the
    support adds only its own positions: with P_a the degree of letters
    a+1..k, a word is clean iff every G[P_a] stays inside, its prefix
    degrees are the head's B_0 = e, B_1..B_k followed by G[B_k], and their
    counts are the head's plus G[B_k]'s.  The cuts are
    ``_pigeonhole_cuts``'s: the first r+1 positions of e if it occurs r+1
    times, else of the most frequent other degree (a score of count * K plus
    a rank sends ties to the smallest id), read off cumulative hit counts.  Each block's
    degree is read from the head, from G or from ``tri``.  Raises
    ``SplitInternalError`` if a clean word breaks the dichotomy or gets a
    non-neutral block.  The tail tables hold degrees in ``table.dtype`` and
    are indexed at most by one starting degree: G has (K, j+1, m) entries
    and the count scores (K, K, m), for K = |supp + {e}| and m tails.
    Positions and counts take the narrowest unsigned dtype above n: uint8,
    as n <= 62 whenever size**n fits int64 and the monoid has two elements
    or more.
    """
    m, j = tails.shape
    rows = table.tolist()
    supp = set(np.flatnonzero(inside).tolist())
    keys = np.array(sorted(supp | {e}), dtype=table.dtype)
    slot = {g: i for i, g in enumerate(keys.tolist())}
    x = tails.T
    tri = np.full((j + 1, j + 1, m), e, dtype=table.dtype)
    for b in range(1, j + 1):
        tri[b, :b] = table[tri[b - 1, :b], x[b - 1]]
    clean = inside[tri[np.tril_indices(j + 1, -1)]].all(axis=0)
    G = table[keys[:, None, None], tri[:, 0]]
    clean_from = clean & inside[G[:, 1:]].all(axis=1)
    # score = count * K + rank, rank K-1 for the smallest id: the largest
    # score is the most frequent degree, ties going to the smallest id
    K = len(keys)
    rank = K - 1 - np.arange(K)[:, None]
    by_rank = keys[::-1]
    score_from = (G[:, 1:, None] == keys[:, None]).sum(axis=1) * K + rank
    # one flat source for the block degrees: G, then tri
    source = np.concatenate((G.ravel(), tri.ravel()))
    column = np.arange(m)

    def split(head):
        k = len(head)
        n = k + j
        subs = [[e, *accumulate(head[a:], lambda g, h: rows[g][h])] for a in range(k + 1)]
        if not all(supp.issuperset(row[1:]) for row in subs):
            return Splits.forced_zero(m, r)
        prefix = subs[0]
        pos = np.min_scalar_type(n + 1)
        word_clean = reduce(and_, (clean_from[slot[row[-1]]] for row in subs[:k]), clean)

        head_score = np.zeros((K, 1), dtype=np.intp)
        for g in prefix:
            head_score[slot[g]] += K
        score = score_from[slot[prefix[-1]]] + head_score
        neutral = score[slot[e]] >= (r + 1) * K
        score[slot[e]] = 0
        target = np.where(neutral, e, by_rank[score.max(axis=0) % K])
        hits = np.empty((n + 1, m), dtype=bool)
        hits[:k + 1] = np.array(prefix, dtype=table.dtype)[:, None] == target
        hits[k + 1:] = G[slot[prefix[-1]], 1:] == target
        seen = np.empty((n + 1, m), dtype=pos)
        seen[0] = hits[0]
        for p in range(1, n + 1):
            np.add(seen[p - 1], hits[p], out=seen[p])
        # hit i (from 0) is at the number of positions with at most i hits so
        # far; a word with fewer hits reads n+1, clipped to n, and is broken
        cuts = np.minimum((seen[:, None] <= np.arange(r + 1, dtype=pos)[:, None])
                          .sum(axis=0, dtype=pos), n)

        # block a+1..b: from the head if b <= k, else from G[P_a] at b - k
        # if a < k, else from tri[b - k, a - k]
        head_neutral = np.zeros((k + 1, k + 1), dtype=bool)
        for a, row in enumerate(subs):
            head_neutral[a, a:] = np.equal(row, e)
        base = np.empty(n + 1, dtype=np.intp)
        stride = np.full(n + 1, (j + 1) * m, dtype=np.intp)
        base[:k] = [(slot[row[-1]] * (j + 1) - k) * m for row in subs[:k]]
        stride[:k] = m
        base[k:] = G.size + (np.arange(j + 1) - k * (j + 1)) * m
        a, b = cuts[:-1].astype(np.intp), cuts[1:].astype(np.intp)
        in_head = np.take(head_neutral, np.minimum(a, k) * (k + 1) + np.minimum(b, k))
        in_tail = np.take(source, base[a] + b * stride[a] + column, mode="clip") == e
        broken = (seen[n] <= r) | ~np.where(b <= k, in_head, in_tail).all(axis=0)
        bad = np.flatnonzero(word_clean & broken)
        if bad.size:
            raise SplitInternalError(
                f"word {[*head, *tails[bad[0]].tolist()]}: pigeonhole dichotomy failed "
                "or a block is not neutral"
            )
        cuts = cuts.astype(np.intp)
        cuts[:, ~word_clean] = -1
        return Splits(~word_clean, cuts.T)

    return split


def _brute_batch(table, e, inside, tails, r):
    """``neutral_split_bruteforce`` on the words head + tail over the rows of
    ``tails``, returned as a function of the head.

    Every degree is extended letter by letter through ``table``, one gather
    of ``table[g, x]`` at g*size + x in the flat table per letter, and the
    support is tested on each.  Built here once from the tail alone:
    ``neutral[L][c]``, that tail letters c+1..c+L have neutral degree, and
    from those a reachability DP over shifted slices, ``first[t][c]``, the
    shortest neutral block at c that t-1 more can follow (0 if none); and,
    per starting degree g in the support, E[g], g extended by the tail
    letters, tested against the support and reduced to ``cross[g][t]``, the
    shortest c >= 1 with E[g][c] neutral and t-1 blocks placeable after
    tail letter c.  A head h_1..h_k of subproducts inside the support adds
    only the DP rows of its own k start positions: a block from head
    position a is a head subproduct or, past the head, Q_a = h_{a+1}..h_k
    extended by E[Q_a].  The smallest reachable cut, then the shortest block
    at each step, is the lexicographically first cut sequence, as in
    ``_first_cut_sequence``; a clean word with none gets cuts of -1 (None).
    """
    m, j = tails.shape
    size = len(table)
    rows = table.tolist()
    supp = set(np.flatnonzero(inside).tolist())
    flat = table.ravel().astype(np.intp)
    x = tails.T.astype(np.intp)
    clean = np.ones(m, dtype=bool)
    neutral = [None]
    for length in range(1, j + 1):
        degs = np.take(flat, degs[:-1] * size + x[length - 1:]) if length > 1 else x
        clean &= inside[degs].all(axis=0)
        neutral.append(degs == e)
    lengths = np.min_scalar_type(j + 1)
    first = np.zeros((r + 1, j + 1, m), dtype=lengths)
    reach = np.ones((r + 1, j + 1, m), dtype=bool)
    for t in range(1, r + 1):
        for length in range(j, 0, -1):  # the shortest block writes last
            np.copyto(first[t, :j + 1 - length], length,
                      where=neutral[length] & reach[t - 1, length:])
        reach[t] = first[t] > 0
    tail_start = np.full(m, -1, dtype=np.intp)
    for c in range(j, -1, -1):
        np.copyto(tail_start, c, where=reach[r, c])

    cross = {}
    for g in supp:
        degs, ends = np.full(m, g, dtype=np.intp), []
        ok = clean.copy()
        for c in range(j):
            degs = np.take(flat, degs * size + x[c])
            ok &= inside[degs]
            ends.append(degs == e)
        shortest = np.zeros((r + 1, m), dtype=lengths)
        for t in range(1, r + 1):
            for c in range(j, 0, -1):
                np.copyto(shortest[t], c, where=ends[c - 1] & reach[t - 1, c])
        cross[g] = ok, shortest
    column = np.arange(m)

    def brute(head):
        k = len(head)
        n = k + j
        prods = [list(accumulate(head[a:], lambda g, h: rows[g][h])) for a in range(k)]
        if not all(supp.issuperset(row) for row in prods):
            return Splits.forced_zero(m, r)
        word_clean = reduce(and_, (cross[row[-1]][0] for row in prods), clean)
        pos = np.min_scalar_type(n + 1)
        head_first = np.zeros((r + 1, k, m), dtype=pos)
        head_reach = np.ones((r + 1, k, m), dtype=bool)
        for t in range(1, r + 1):
            for a in range(k - 1, -1, -1):
                row = head_first[t, a]
                shortest = cross[prods[a][-1]][1][t]
                # a cross block ends k - a letters later than in the tail
                np.multiply(np.add(shortest, k - a, dtype=pos), shortest > 0, out=row)
                for length in range(k - a, 0, -1):
                    if prods[a][length - 1] == e:
                        after = head_reach[t - 1, a + length] if a + length < k else reach[t - 1, 0]
                        np.copyto(row, length, where=after)
                np.greater(row, 0, out=head_reach[t, a])
        start = np.where(tail_start < 0, -1, tail_start + k)
        for a in range(k - 1, -1, -1):
            np.copyto(start, a, where=head_reach[r, a])
        cuts = np.empty((r + 1, m), dtype=np.intp)
        cuts[0] = start
        for i in range(1, r + 1):
            steps = np.concatenate((head_first[r + 1 - i], first[r + 1 - i])).ravel()
            cuts[i] = cuts[i - 1] + np.take(steps, cuts[i - 1] * m + column, mode="clip")
        cuts[:, ~(word_clean & (start >= 0))] = -1
        return Splits(~word_clean, cuts.T)

    return brute


def exhaustive_splits(monoid: Monoid, r: int, supp):
    """The words of length n = r*d over a table monoid as ``(tails, chunks)``.

    A word is a head of k = n - j letters followed by a tail of j, for the
    largest j < n with size**j <= ``_CHUNK``.  ``tails`` is the (size**j, j)
    block of every tail, in ``itertools.product`` order.  ``chunks`` yields
    ``(head, split, brute)`` per head, heads in that order too, so the words
    head + tails[0], head + tails[1], ... of one chunk after another are
    those of ``itertools.product(monoid.elements(), repeat=n)``.  ``split``
    and ``brute`` are ``Splits`` whose verdicts equal ``neutral_split`` and
    ``neutral_split_bruteforce`` on each word.
    """
    size = len(monoid.elements())
    supp = set(supp)
    n = r * len(supp)
    _check_split_args(r, supp, n)
    # the narrowest dtype that holds every element id keeps the arrays small
    table = np.array(monoid.table, dtype=np.min_scalar_type(size - 1))
    inside = np.isin(np.arange(size), list(supp))
    e = monoid.identity
    j = 0
    while j < n - 1 and size ** (j + 1) <= _CHUNK:
        j += 1
    tails = _word_letters(size, j).astype(table.dtype)
    split = _split_batch(table, e, inside, tails, r)
    brute = _brute_batch(table, e, inside, tails, r)
    heads = product(range(size), repeat=n - j)
    return tails, ((head, split(head), brute(head)) for head in heads)
