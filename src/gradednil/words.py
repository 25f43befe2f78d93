"""Degree-word combinatorics: forced-zero prediction and neutral splits.

A degree word records the degrees of a product of homogeneous elements.  If
any contiguous subproduct degree leaves the support, the ring product is
forced to vanish.  Otherwise, for a word of length r*d over a support of
size d (r > 1), pigeonholing the prefix degrees yields r consecutive blocks
each of neutral degree; ``neutral_split`` constructs the cut positions and
``neutral_split_bruteforce`` re-derives the verdict by exhaustive search.

``exhaustive_splits`` decides both on every word of length r*d over a table
monoid, each word factored as head . tail: the tails of the last j letters
form one array, kept on the contiguous last axis, and a block is up to
``_BLOCK`` words, a run of consecutive heads each followed by every tail,
so each numpy kernel call covers about ``_BLOCK`` words.  Each kernel
builds the tables that depend on the tail alone once, indexed at most by
the degree g a head hands to the tail, in time and memory linear in the
tails and in the narrowest dtypes that hold them, and then works only on
the block's heads and their own positions.  ``_split_batch`` reads the
prefix degrees past the head as g times the tail's prefix degrees
(associativity) and applies the pigeonhole cut rule to their counts;
``_brute_batch`` extends every degree letter by letter through ``table``,
tests the support on each, and finds the first cut sequence by a
reachability DP over neutral blocks.  Neither reads the other's tables, so
the brute force stays an independent twin of the split; the per-word
functions are the reference both are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import accumulate
from operator import add, lt, sub

import numpy as np

from .monoid import TABLE, Monoid

# Most words per kernel call of ``exhaustive_splits``: the kernels'
# temporaries grow with the words of a block, so it bounds the walk's peak
# memory, and about 4,096 words a call keep numpy's per-call overhead small.
_BLOCK = 1 << 12


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


def _word_letters(size, j, start, stop, dtype):
    """Words start .. stop-1 of ``itertools.product(range(size), repeat=j)``
    as a (stop - start, j) array of ``dtype``, letter c of word i being
    (i // size^(j-1-c)) % size.  Callers keep stop <= size**n for a word
    length n >= j whose word count fits int64, so no place value wraps."""
    place = size ** np.arange(j - 1, -1, -1, dtype=np.int64)
    return (np.arange(start, stop, dtype=np.int64)[:, None] // place % size).astype(dtype)


def _times(table, g, x):
    """``table[g, x]`` elementwise, for arrays of ids that broadcast: one take
    from the flat table, the index computed in the narrowest unsigned dtype
    that holds every flat position."""
    at = g.astype(np.min_scalar_type(table.size - 1)) * table.shape[1] + x
    return table.ravel().take(at)


def _split_batch(table, e, inside, tails, r):
    """``neutral_split`` on the words head + tail, for every head of an (h, k)
    array of heads and every row of ``tails``, returned as a function of the
    heads; word i of its ``Splits`` is head i // m followed by tail i % m.

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
    counts are the head's plus G[B_k]'s.  The cuts are
    ``_pigeonhole_cuts``'s: the first r+1 positions of e if it occurs r+1
    times, else of the most frequent other degree (a score of the count
    shifted past K-1 minus the key's rank sends ties to the smallest id),
    read off cumulative hit counts.  Each block's degree is read from one flat
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
    # per head length k, the parts of a block's start in ``source`` that do
    # not depend on the heads: past the head, tri's offset where a >= k and
    # G's at b - k where a < k, to which G[P_a]'s row is added
    layout = {}

    def split(heads):
        h, k = heads.shape
        n = k + j
        # each head's own triangle, [a][b] the degree of letters a+1..b
        # (e where b <= a), made in Python: a head has few letters
        heads_tri = []
        for head in heads.tolist():
            tri = []
            for a in range(k + 1):
                sub = [e] * (a + 1)
                for x in head[a:]:
                    sub.append(rows[sub[-1]][x])
                tri.append(sub)
            heads_tri.append(tri)
        head_clean = [all(sub[-1] < size for sub in tri[:k]) for tri in heads_tri]
        if not any(head_clean):
            return Splits.forced_zero(h * m, r)
        pos = np.min_scalar_type(n + 1)
        head_tri = np.array(heads_tri, dtype=within.dtype).reshape(h, k + 1, k + 1)
        head_tri = head_tri.transpose(2, 1, 0)
        P = rank[head_tri[k]]
        word_clean = np.array(head_clean)[:, None] & clean & clean_from[P[:k]].all(axis=0)

        # score: the count shifted past K - 1 - rank, so the largest is the
        # most frequent degree, ties going to the smallest id; e scores
        # above all when it occurs r+1 times, else 0
        score_t = np.min_scalar_type((n + 2) << shift)
        score = np.add(count_from[P[0]],
                       (head_tri[:, 0, :, None] == keys).sum(axis=0, dtype=pos)[:, :, None],
                       dtype=score_t)
        neutral = score[:, re] > r
        score <<= shift
        score |= (K - 1 - np.arange(K, dtype=score_t))[:, None]
        np.multiply(neutral, score_t.type(((n + 2) << shift) | (K - 1 - re)), out=score[:, re])
        target = by_rank.take(score.max(axis=1) & ((1 << shift) - 1))
        prefix = np.empty((n + 1, h, m), dtype=within.dtype)
        prefix[:k + 1] = head_tri[:, 0, :, None]
        prefix[k + 1:] = G[P[0], 1:].transpose(1, 0, 2)
        seen = np.equal(prefix, target, out=np.empty((n + 1, h, m), dtype=pos))
        for p in range(1, n + 1):
            seen[p] += seen[p - 1]
        # hit i (from 0) is at the number of positions with at most i hits so
        # far; a word with fewer hits reads n+1, clipped to n, and is broken
        cuts = np.empty((r + 1, h, m), dtype=pos)
        for i in range(r + 1):
            np.add.reduce((seen <= i).view(np.uint8), axis=0, dtype=pos, out=cuts[i])
        cuts = np.minimum(cuts, n, out=cuts).astype(np.intp)

        # where block a+1..b starts in ``source``, per (a, b, head)
        if k not in layout:
            a = np.arange(n + 1)[:, None]
            b = np.arange(n + 1)
            tb = np.maximum(b - k, 0)
            past = np.where(a >= k, G.size + (tb * (j + 1) + a - k) * m, tb * m)[:, :, None]
            layout[k] = (past, ((a < k) & (b > k))[:, :, None], (b > k)[:, None],
                         np.minimum(a[:, 0], k), np.minimum(b, k), np.minimum(a, k))
        past, cross, beyond, a_row, b_head, a_head = layout[k]
        start = past + cross * (P[a_row] * ((j + 1) * m))[:, None]
        inner = head_tri[b_head, a_head] == e
        start = np.where(beyond, start, np.where(inner, neutral_row, broken_row))
        at = (cuts[:-1] * (n + 1) + cuts[1:]) * h + np.arange(h)[:, None]
        blocks = source.take(start.ravel().take(at) + column) == e
        broken = (seen[n] <= r) | ~blocks.all(axis=0)
        bad = np.flatnonzero(word_clean & broken)
        if bad.size:
            i = bad[0]
            raise SplitInternalError(
                f"word {heads[i // m].tolist() + tails[i % m].tolist()}: pigeonhole "
                "dichotomy failed or a block is not neutral"
            )
        cuts[:, ~word_clean] = -1
        return Splits(~word_clean.ravel(), cuts.reshape(r + 1, -1).T)

    return split


def _brute_batch(table, e, inside, tails, r):
    """``neutral_split_bruteforce`` on the words head + tail, for every head
    of an (h, k) array of heads and every row of ``tails``, returned as a
    function of the heads; word i of its ``Splits`` is head i // m followed
    by tail i % m.

    Every degree is extended letter by letter through ``table`` and the
    support is tested on each.  Built here once from the tail alone:
    ``neutral[L][c]``, that tail letters c+1..c+L have neutral degree, and
    from those a reachability DP over shifted slices, ``first[t, c]``, the
    shortest neutral block at c that t-1 more can follow (0 if none); and,
    for every starting degree g in the support at once, E[g], g extended by
    the tail letters, tested against the support and reduced to
    ``cross[t, g]``, the shortest c >= 1 with E[g][c] neutral and t-1 blocks
    placeable after tail letter c.  The heads' subproducts are extended the
    same way, and they add only the DP rows of their own k start positions:
    a block from head position a is a head subproduct or, past the head,
    Q_a = h_{a+1}..h_k extended by E[Q_a].  The smallest reachable cut, then
    the shortest block at each step, read from the head's DP rows and
    ``first`` laid end to end, is the lexicographically first cut sequence,
    as in ``_first_cut_sequence``; a clean word with none gets cuts of -1
    (None).  Every table is linear in the tails: j(j+1)/2 neutral flags and
    (r+1)(j+1) DP entries per tail, and (r+1) cross entries per support
    element, lengths in the narrowest unsigned dtype above j.
    """
    m, j = tails.shape
    supp = np.flatnonzero(inside)
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
    # per (head length, heads): where the step at position p with t blocks
    # to go lies in ``steps``, head_first then ``first`` laid end to end:
    # at ((t * k + p) * h + head) * m + column if p < k, else past
    # head_first at (t * (j + 1) + p - k) * m + column
    step_at = {}

    def brute(heads):
        h, k = heads.shape
        n = k + j
        # prods[i][a][L - 1]: the degree of letters a+1..a+L of head i, made
        # in Python: a head has few letters
        prods = [[list(accumulate(head[a:], lambda g, x: rows[g][x])) for a in range(k)]
                 for head in heads.tolist()]
        head_clean = [all(in_supp.issuperset(row) for row in p) for p in prods]
        if not any(head_clean):
            return Splits.forced_zero(h * m, r)
        pos = np.min_scalar_type(n + 1)
        # Q[a]: the support slot of Q_a = prods[..][a][-1]; head_ends[a, L - 1]:
        # that head letters a+1..a+L are neutral
        Q = slot[[[p[a][-1] for p in prods] for a in range(k)]].reshape(k, h)
        head_ends = np.array([[[g == e for g in row] + [False] * a for a, row in enumerate(p)]
                         for p in prods], dtype=bool).reshape(h, k, k).transpose(1, 2, 0)
        word_clean = np.array(head_clean)[:, None] & clean & ok_from[Q].all(axis=0)
        # DP rows of the head's start positions, all at once per t: row k of
        # head_reach is the tail's reach at its start
        head_first = np.zeros((r + 1, k, h, m), dtype=pos)
        head_reach = np.ones((r + 1, k + 1, h, m), dtype=bool)
        # a cross block ends k - a letters later than in the tail
        later = (k - np.arange(k, dtype=pos))[:, None, None]
        for t in range(1, r + 1):
            head_reach[t - 1, k] = reach[t - 1, 0]
            row = head_first[t]
            shortest = cross[t][Q]
            np.multiply(shortest + later, shortest > 0, out=row)
            for length in range(k, 0, -1):  # the shortest block writes last
                after = head_reach[t - 1, length:]
                np.copyto(row[:k + 1 - length], length,
                          where=head_ends[:k + 1 - length, length - 1, :, None] & after)
            np.greater(row, 0, out=head_reach[t, :k])
        start = np.empty((h, m), dtype=np.intp)
        start[:] = tail_start + k
        for a in range(k - 1, -1, -1):
            np.copyto(start, a, where=head_reach[r, a])

        if (k, h) not in step_at:
            t = np.arange(r + 1)[:, None, None]
            p = np.arange(n + 1)[:, None]
            step_at[k, h] = np.where(p < k, ((t * k + p) * h + np.arange(h)) * m,
                                     head_first.size + (t * (j + 1) + p - k) * m).reshape(r + 1, -1)
        at = step_at[k, h]
        steps = np.concatenate((head_first.ravel(), first.ravel()))
        # a word with no cut sequence steps from 0 and is marked after
        cuts = np.empty((r + 1, h, m), dtype=np.intp)
        np.maximum(start, 0, out=cuts[0])
        head = np.arange(h)[:, None]
        for i in range(1, r + 1):
            to = at[r + 1 - i].take(cuts[i - 1] * h + head)
            np.add(cuts[i - 1], steps.take(to + column), out=cuts[i])
        cuts[:, ~(word_clean & (start >= 0))] = -1
        return Splits(~word_clean.ravel(), cuts.reshape(r + 1, -1).T)

    return brute


def exhaustive_splits(monoid: Monoid, r: int, supp):
    """The words of length n = r*d over a table monoid as ``(tails, blocks)``.

    A word is a head of k = n - j letters followed by a tail of j, for the
    largest j < n with size**j <= ``_BLOCK``.  ``tails`` is the (size**j, j)
    array of every tail, in ``itertools.product`` order.  ``blocks`` yields
    ``(heads, split, brute)`` per block of max(1, ``_BLOCK`` // size**j)
    consecutive heads, heads in that order too and the last block holding
    what is left: ``heads`` is their (h, k) array, and the words heads[0] +
    tails[0], heads[0] + tails[1], ..., heads[h-1] + tails[-1] of one block
    after another are those of ``itertools.product(monoid.elements(),
    repeat=n)``.  ``split`` and ``brute`` are ``Splits`` over the block's
    words whose verdicts equal ``neutral_split`` and
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
    while j < n - 1 and size ** (j + 1) <= _BLOCK:
        j += 1
    tails = _word_letters(size, j, 0, size**j, table.dtype)
    split = _split_batch(table, e, inside, tails, r)
    brute = _brute_batch(table, e, inside, tails, r)
    count, step = size ** (n - j), max(1, _BLOCK // size**j)

    def blocks():
        for start in range(0, count, step):
            heads = _word_letters(size, n - j, start, min(start + step, count), table.dtype)
            yield heads, split(heads), brute(heads)

    return tails, blocks()
