"""Degree-word combinatorics: forced-zero prediction and neutral splits.

A degree word records the degrees of a product of homogeneous elements.  If
any contiguous subproduct degree leaves the support, the ring product is
forced to vanish.  Otherwise, for a word of length r*d over a support of
size d (r > 1), pigeonholing the prefix degrees yields r consecutive blocks
each of neutral degree; ``neutral_split`` constructs the cut positions and
``neutral_split_bruteforce`` re-derives the verdict by exhaustive search.

``exhaustive_splits`` decides both on every word of length r*d over a table
monoid, ``_CHUNK`` words at a time, with numpy arrays over the batch in
place of a Python loop per word.  Each side has its own kernel, which
builds its own subproduct degrees from the letters with ``table[g, x]``
gathers: ``_split_batch`` applies the pigeonhole cut rule to prefix-degree
counts, and ``_brute_batch`` finds the first cut sequence by a reachability
DP over neutral blocks.  Neither reads the other's arrays, so the brute
force stays an independent twin.  The per-word functions stay as the
reference the kernels are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import accumulate
from operator import add, lt, sub

import numpy as np

from .monoid import TABLE, Monoid

# Words per batch of ``exhaustive_splits``.  Each batch holds two
# (words, r*d+1, r*d+1) arrays, so a small chunk keeps peak memory flat.
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

    Column b of ``sub`` holds the degrees of the subproducts ending at
    letter b (``sub[:, a, b]`` is letters a+1..b), each column extending the
    last by one ``table[g, x]`` gather.  The cut rule is
    ``_pigeonhole_cuts``'s, on prefix-degree counts: the first r identity
    positions after 0 if the identity occurs r times, else the first r+1
    positions of the most frequent other degree (``argmax`` takes the
    smallest id on ties).  Raises ``SplitInternalError`` if a clean word
    breaks the dichotomy or gets a non-neutral block.
    """
    m, n = letters.shape
    sub = np.zeros((m, n + 1, n + 1), dtype=table.dtype)
    clean = np.ones(m, dtype=bool)
    for b in range(1, n + 1):
        x = letters[:, b - 1]
        sub[:, :b - 1, b] = table[sub[:, :b - 1, b - 1], x[:, None]]
        sub[:, b - 1, b] = x
        clean &= inside[sub[:, :b, b]].all(axis=1)

    prefix = sub[:, 0, 1:]
    counts = (prefix[:, :, None] == np.arange(len(table))).sum(axis=1)
    neutral = counts[:, e] >= r
    counts[:, e] = -1
    g0 = counts.argmax(axis=1)
    hits = prefix == np.where(neutral, e, g0)[:, None]
    # The first r+1 hit positions; a padded miss at n+1, clipped to n, fills
    # the rows with fewer hits, which the dichotomy check rejects.
    misses = np.ones((m, n + 1), dtype=bool)
    misses[:, :n] = ~hits
    cuts = np.minimum(np.argsort(misses, axis=1, kind="stable")[:, :r + 1] + 1, n)
    cuts[neutral, 1:] = cuts[neutral, :r]
    cuts[neutral, 0] = 0
    broken = ~neutral & (counts.max(axis=1) < r + 1)
    broken |= (sub[np.arange(m)[:, None], cuts[:, :-1], cuts[:, 1:]] != e).any(axis=1)
    bad = np.flatnonzero(clean & broken)
    if bad.size:
        raise SplitInternalError(
            f"word {letters[bad[0]].tolist()}: pigeonhole dichotomy failed "
            "or a block is not neutral"
        )
    cuts[~clean] = -1
    return Splits(~clean, cuts)


def _brute_batch(table, e, inside, letters, r):
    """``neutral_split_bruteforce`` on every row of ``letters`` at once.

    Builds its own subproduct degrees, one block length at a time, and runs
    a reachability DP over neutral blocks: ``reach[t][:, a]`` says that t
    neutral blocks can follow a cut at a.  Taking the smallest reachable
    cut at each step gives the lexicographically first cut sequence, as
    ``_first_cut_sequence`` does; a clean word with none gets cuts of -1
    (None).
    """
    m, n = letters.shape
    block = np.zeros((m, n + 1, n + 1), dtype=bool)  # letters a+1..b neutral
    clean = np.ones(m, dtype=bool)
    degs = letters
    for length in range(1, n + 1):
        if length > 1:
            degs = table[degs[:, :-1], letters[:, length - 1:]]
        clean &= inside[degs].all(axis=1)
        starts = np.arange(n - length + 1)
        block[:, starts, starts + length] = degs == e

    reach = [np.ones((m, n + 1), dtype=bool)]
    for _ in range(r):
        reach.append((block & reach[-1][:, None, :]).any(axis=2))
    found = clean & reach[r].any(axis=1)
    cuts = np.empty((m, r + 1), dtype=np.intp)
    cuts[:, 0] = reach[r].argmax(axis=1)
    rows = np.arange(m)
    for j in range(1, r + 1):
        cuts[:, j] = (block[rows, cuts[:, j - 1]] & reach[r - j]).argmax(axis=1)
    cuts[~found] = -1
    return Splits(~clean, cuts)


def exhaustive_splits(monoid: Monoid, r: int, supp):
    """``(letters, split, brute)`` per chunk of the words of length r*d over
    a table monoid, in ``itertools.product(monoid.elements(), repeat=r*d)``
    order.

    ``letters`` is a (words, r*d) array of at most ``_CHUNK`` rows;
    ``split`` and ``brute`` are ``Splits`` whose verdicts equal
    ``neutral_split`` and ``neutral_split_bruteforce`` on each word.  The
    two sides are computed by separate functions from the letters alone, so
    the brute force stays an independent twin of the split.
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
