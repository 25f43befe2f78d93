"""Lemma 3.5's split word by word: the reference the batched kernels of
``gradednil.words`` are tested against.

These are the per-word functions the program ran before ``oracle --word``
moved onto the kernels, kept as they were.  ``neutral_split`` pigeonholes
the prefix degrees of a clean word of length r*d into r consecutive neutral
blocks; ``neutral_split_bruteforce`` re-derives the verdict by exhaustive
search.  Both take any ``DegreeWord``, integer addition included, where the
kernels take table monoids only.
"""

from __future__ import annotations

from itertools import accumulate

from gradednil.monoid import TABLE
from gradednil.words import (
    Decomposition,
    DegreeWord,
    ProductVerdict,
    SplitInternalError,
)


def _check_split_args(r, supp, n):
    """The split's conditions on r, the support and the word length, on any
    monoid.  ``gradednil.words`` refuses table monoids only, and checks left
    cancellation and the support's elements too."""
    if r <= 1:
        raise ValueError("split needs r > 1")
    if not supp:
        raise ValueError("split needs a nonempty support")
    if n != r * len(supp):
        raise ValueError(f"word length {n} is not r*d = {r}*{len(supp)}")


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
    # every degree is an int (``DegreeWord`` checks), so -g prefers the smallest
    g0, pos = max(candidates, key=lambda it: (len(it[1]), -it[0]))
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
