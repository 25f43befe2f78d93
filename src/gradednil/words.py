"""Degree-word combinatorics: forced-zero prediction and neutral splits.

A degree word records the degrees of a product of homogeneous elements.  If
any contiguous subproduct degree leaves the support, the ring product is
forced to vanish.  Otherwise, for a word of length r*d over a support of
size d (r > 1), pigeonholing the prefix degrees yields r consecutive blocks
each of neutral degree; ``neutral_split`` constructs the cut positions and
``neutral_split_bruteforce`` re-derives the verdict by exhaustive search.

``exhaustive_splits`` decides both on every word of length r*d over a table
monoid, ``_CHUNK`` words at a time, in numpy kernels that keep the words on
the contiguous last axis.  ``_split_batch`` builds subproduct degrees
through a table whose sink absorbs degrees off the support, then applies the
pigeonhole cut rule to prefix-degree counts; ``_brute_batch`` gathers
subproduct degrees from a flat view of ``table`` itself, tests the support
on those degrees directly and finds the first cut sequence by a
reachability DP over neutral blocks.  Only the split uses the sink and
neither reads the other's arrays, so the brute force stays an independent
twin of it; the per-word functions are the reference both are tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import accumulate
from operator import add, lt, sub

import numpy as np

from .monoid import TABLE, Monoid

# Words per batch of ``exhaustive_splits``.  The split holds an
# (r*d+1, r*d+1, words) array, so a small chunk keeps peak memory flat.
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


def _word_letters(lo, hi, size, n):
    """Letters of words lo..hi-1 of ``itertools.product(range(size),
    repeat=n)``: letter k of word i is (i // size^(n-1-k)) % size.  A place
    value past int64 raises OverflowError as it converts, never wraps."""
    place = np.array([size**k for k in range(n - 1, -1, -1)], dtype=np.int64)
    return np.arange(lo, hi, dtype=np.int64)[:, None] // place % size


def _split_batch(table, e, inside, letters, r):
    """``neutral_split`` on every row of ``letters`` at once.

    ``sub[b, a]`` holds the degree of letters a+1..b across the words (e,
    the empty product, where a >= b).  Row b extends row b-1 by one gather
    from a flat (size+1)^2 table whose sink Z = size absorbs every degree
    off the support, so Z reaches each longer subproduct from the same
    start: a word is clean iff ``sub[n, :n]`` holds no Z.  The cuts are
    ``_pigeonhole_cuts``'s over the prefix degrees b_0 = e, b_1..b_n: the
    first r+1 positions of e if it occurs r+1 times, else of the most
    frequent other degree (``argmax`` takes the smallest id on ties), read
    off cumulative hit counts.  Raises ``SplitInternalError`` if a clean
    word breaks the dichotomy or gets a non-neutral block.
    """
    m, n = letters.shape
    size = len(table)
    width = size + 1
    sink = np.full((width, width), size, dtype=np.intp)
    sink[:size, :size] = np.where(inside[table], table, size)
    x = np.ascontiguousarray(letters.T, dtype=np.intp)
    sub = np.full((n + 1, n + 1, m), e, dtype=np.intp)
    for b in range(1, n + 1):
        sub[b, :b] = np.take(sink, sub[b - 1, :b] * width + x[b - 1])
    clean = ~(sub[n, :n] == size).any(axis=0)

    prefix = sub[:, 0]
    counts = np.array([(prefix == g).sum(axis=0) for g in range(size)])
    neutral = counts[e] > r
    counts[e] = -1
    seen = np.cumsum(prefix == np.where(neutral, e, counts.argmax(axis=0)), axis=0)
    # hit j (from 0) is at the number of positions with at most j hits so
    # far; a word with fewer hits reads n+1, clipped to n, and is broken
    cuts = np.minimum((seen[:, None] <= np.arange(r + 1)[:, None]).sum(axis=0), n)
    broken = (seen[n] <= r) | (sub[cuts[1:], cuts[:-1], np.arange(m)] != e).any(axis=0)
    bad = np.flatnonzero(clean & broken)
    if bad.size:
        raise SplitInternalError(
            f"word {letters[bad[0]].tolist()}: pigeonhole dichotomy failed "
            "or a block is not neutral"
        )
    cuts[:, ~clean] = -1
    return Splits(~clean, cuts.T)


def _brute_batch(table, e, inside, letters, r):
    """``neutral_split_bruteforce`` on every row of ``letters`` at once.

    ``neutral[L][a]`` says, across the words, that letters a+1..a+L have
    neutral degree; each length extends the last by one gather of
    ``table[g, x]`` at g*size + x in the flat ``table`` itself.  The support
    is tested with ``inside`` on the degrees directly, not through the
    split's sink, so the twin shares no trick with the side it checks.  A
    reachability DP over shifted slices gives ``first[t][a]``, the shortest
    neutral block at a that t-1 more can follow (0 if none).
    The smallest reachable cut, then the shortest block at each step, is the
    lexicographically first cut sequence, as in ``_first_cut_sequence``; a
    clean word with none gets cuts of -1 (None).
    """
    m, n = letters.shape
    size = len(table)
    flat = table.ravel().astype(np.intp)
    x = np.ascontiguousarray(letters.T, dtype=np.intp)
    clean = np.ones(m, dtype=bool)
    neutral = [None]
    for length in range(1, n + 1):
        degs = np.take(flat, degs[:-1] * size + x[length - 1:]) if length > 1 else x
        clean &= inside[degs].all(axis=0)
        neutral.append(degs == e)

    first = [None]
    reach = np.ones((n + 1, m), dtype=bool)
    for _ in range(r):
        first.append(np.zeros((n + 1, m), dtype=np.intp))
        for length in range(n, 0, -1):  # the shortest block writes last
            np.copyto(first[-1][:n + 1 - length], length,
                      where=neutral[length] & reach[length:])
        reach = first[-1] > 0
    cuts = np.empty((r + 1, m), dtype=np.intp)
    cuts[0] = reach.argmax(axis=0)
    for j in range(1, r + 1):
        cuts[j] = cuts[j - 1] + first[r + 1 - j][cuts[j - 1], np.arange(m)]
    cuts[:, ~(clean & reach.any(axis=0))] = -1
    return Splits(~clean, cuts.T)


def exhaustive_splits(monoid: Monoid, r: int, supp):
    """``(letters, split, brute)`` per chunk of the words of length r*d over
    a table monoid, in ``itertools.product(monoid.elements(), repeat=r*d)``
    order.

    ``letters`` is a (words, r*d) array of at most ``_CHUNK`` rows;
    ``split`` and ``brute`` are ``Splits`` whose verdicts equal
    ``neutral_split`` and ``neutral_split_bruteforce`` on each word.
    """
    size = len(monoid.elements())
    supp = set(supp)
    n = r * len(supp)
    _check_split_args(r, supp, n)
    # the narrowest dtype that holds every element id keeps the arrays small
    table = np.array(monoid.table, dtype=np.min_scalar_type(size - 1))
    inside = np.isin(np.arange(size), list(supp))
    e = monoid.identity
    total = size**n
    for lo in range(0, total, _CHUNK):
        letters = _word_letters(lo, min(lo + _CHUNK, total), size, n).astype(table.dtype)
        yield (letters, _split_batch(table, e, inside, letters, r),
               _brute_batch(table, e, inside, letters, r))
