"""Degree-word combinatorics: forced-zero prediction and neutral splits.

A degree word records the degrees of a product of homogeneous elements.  If
any contiguous subproduct degree leaves the support, the ring product is
forced to vanish.  Otherwise, for a word of length r*d over a support of
size d (r > 1), pigeonholing the prefix degrees yields r consecutive blocks
each of neutral degree; ``neutral_split`` constructs the cut positions and
``neutral_split_bruteforce`` re-derives the verdict by exhaustive search.

``exhaustive_splits`` runs both on every word of length r*d over a table
monoid as one depth-first walk over the letter tree.  Each node extends its
parent's state by one letter instead of rebuilding it per word, and the two
sides keep separate state, so the brute force stays an independent twin.
The pigeonhole cut rule (``_pigeonhole_cuts``) and the cut-sequence search
(``_first_cut_sequence``) each exist once, for the per-word functions and
the walk alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import accumulate
from operator import add, lt, sub

from .monoid import TABLE, Monoid


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


def exhaustive_splits(monoid: Monoid, r: int, supp):
    """``(letters, split, brute)`` for every word of length r*d over a table
    monoid, in ``itertools.product(monoid.elements(), repeat=r*d)`` order.

    ``split`` and ``brute`` equal ``neutral_split`` and
    ``neutral_split_bruteforce`` on ``DegreeWord(monoid, letters)``.  The
    words are the leaves of a depth-first walk over the letter tree; pushing
    letter k extends two separate states by one letter:

    * the split's column of subproducts ending at k (its first entry is the
      prefix degree b_k) and the prefix-degree buckets;
    * the brute force's own column and the starts a whose block a+1..k is
      neutral, appended to its ``neutral_after`` lists.

    A column that leaves the support marks that side FORCED_ZERO for the
    whole subtree.  Popping a letter undoes its pushes, so the walk holds
    O((r*d)^2) state and never lists the words.
    """
    size = len(monoid.elements())
    supp = set(supp)
    n = r * len(supp)
    _check_split_args(r, supp, n)
    e = monoid.identity
    # right[x](v) = v * x extends a column of subproducts by the letter x.
    right = [tuple(row[x] for row in monoid.table).__getitem__ for x in range(size)]

    word = [0] * n
    split_cols = [[]] + [None] * n  # None once the split side escaped
    buckets = {g: [] for g in range(size)}
    brute_cols = [[]] + [None] * n  # None once the brute side escaped
    brute_starts = [()] * (n + 1)
    neutral_after = [[] for _ in range(n + 1)]
    k = 0
    while True:
        while k < n:
            x = word[k]
            ext = right[x]
            k += 1
            col = split_cols[k - 1]
            if col is not None:
                col = [*map(ext, col), x]
                if supp.issuperset(col):
                    buckets[col[0]].append(k)
                else:
                    col = None
            split_cols[k] = col
            col = brute_cols[k - 1]
            starts = ()
            if col is not None:
                col = [*map(ext, col), x]
                if supp.issuperset(col):
                    starts = [a for a, g in enumerate(col) if g == e]
                    for a in starts:
                        neutral_after[a].append(k)
                else:
                    col = None
            brute_cols[k] = col
            brute_starts[k] = starts

        if split_cols[n] is None:
            split = FORCED_ZERO
        else:
            cuts = _pigeonhole_cuts(buckets, e, r)
            _require_neutral([split_cols[b][a] for a, b in zip(cuts, cuts[1:])], e)
            split = Decomposition(cuts)
        if brute_cols[n] is None:
            brute = FORCED_ZERO
        else:
            cuts = _first_cut_sequence(neutral_after, n, r)
            brute = None if cuts is None else Decomposition(cuts)
        yield tuple(word), split, brute

        # Pop letters up to the deepest one that can still be incremented.
        while k:
            col = split_cols[k]
            if col is not None:
                buckets[col[0]].pop()
            for a in brute_starts[k]:
                neutral_after[a].pop()
            k -= 1
            if word[k] + 1 < size:
                word[k] += 1
                break
            word[k] = 0
        else:
            return
