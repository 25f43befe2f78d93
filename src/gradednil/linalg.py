"""Exact canonical row forms for module spans.

Two reducers back every span computation:

* ``rref`` puts generators over a field (prime fields, rationals) into the
  reduced row echelon form, which is the unique canonical basis of the row
  space.
* ``howell`` puts generators over Z/mZ into the Howell normal form.  Over a
  residue ring plain echelon forms are not canonical and do not support
  membership tests, because leading entries can be zero divisors.  The Howell
  form fixes both: pivots divide the modulus, entries above a pivot are
  reduced modulo it, and for every pivot the annihilator multiple of its row
  is re-absorbed so that any span vector supported on a column suffix is
  reachable by greedy reduction.

Rows are tuples of normalized coefficients; the canonical form of a span is
the tuple of its nonzero rows ordered by pivot column.  Both reducers take
an optional kept form and reduce only the new rows against it, so a span
that grows by a few rows is extended, not rebuilt.  Nothing here knows
about rings; callers supply raw coefficient rows.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _xgcd(a, b):
    """Return (g, x, y) with x*a + y*b == g == gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _unit_lift(a, m):
    """A unit u of Z/mZ with u*a == gcd(a, m) (mod m).  Requires a != 0."""
    g = math.gcd(a, m)
    step = m // g
    u = pow((a // g) % step, -1, step) if step > 1 else 1
    while math.gcd(u, m) != 1:
        u += step
    return u % m


def lead(row):
    """Column of the first nonzero entry of ``row``, None for a zero row."""
    v = next(filter(None, row), None)
    return None if v is None else row.index(v)


def howell(rows, ncols, m, form=()):
    """Howell normal form of the Z/mZ-span of ``rows`` and the kept Howell
    form ``form``.

    Returns a tuple of row tuples sorted by pivot column; the result is the
    unique Howell basis of the span, so two generator sets span the same
    module iff their forms are equal.  The rows of ``form`` start as the
    pivots and only ``rows`` are reduced: the annihilator multiple of each
    kept row already lies in the span of the kept rows after it, and that
    span only grows, so the rows that stay pivots need no new annihilator.
    """
    if not rows:
        return tuple(form)
    pivots = {lead(row): list(row) for row in form}  # leading column -> row

    def push_annihilator(row, work):
        ann = m // math.gcd(row[lead(row)], m)
        if ann != 1:
            work.append([(ann * v) % m for v in row])

    work = [[v % m for v in row] for row in rows]
    while work:
        row = work.pop()
        j = lead(row)
        while j is not None:
            if j not in pivots:
                pivots[j] = row
                push_annihilator(row, work)
                break
            piv = pivots[j]
            a, b = piv[j], row[j]
            if b % a:
                # Improve the pivot to gcd(a, b) with the unimodular 2x2
                # transform (so the joint span is preserved exactly), then
                # re-emit the improved pivot's annihilator.
                g, x, y = _xgcd(a, b)
                newp = [(x * piv[t] + y * row[t]) % m for t in range(ncols)]
                row = [((a // g) * row[t] - (b // g) * piv[t]) % m for t in range(ncols)]
                pivots[j] = newp
                push_annihilator(newp, work)
            else:
                q = b // a
                row = [(row[t] - q * piv[t]) % m for t in range(ncols)]
            j = lead(row)

    # Normalize pivots to divisors of m, then reduce entries above each pivot
    # into 0..pivot-1, walking pivot columns left to right so that later
    # reductions cannot disturb finished columns.
    cols = sorted(pivots)
    for j in cols:
        row = pivots[j]
        u = _unit_lift(row[j], m)
        pivots[j] = [(u * v) % m for v in row]
    for j in cols:
        p = pivots[j][j]
        for j2 in cols:
            if j2 >= j:
                continue
            row = pivots[j2]
            q = row[j] // p
            if q:
                pivots[j2] = [(row[t] - q * pivots[j][t]) % m for t in range(ncols)]
    return tuple(tuple(pivots[j]) for j in cols)


def rref(rows, dom, form=()):
    """Reduced row echelon form over a field domain (fp or rat) of the span
    of ``rows`` and the kept form ``form``.

    Entries are plain ints reduced mod p over F_p and Fractions over Q.  The
    rows of ``form`` start as the pivots.  A new row is reduced by every
    pivot row (each is 0 at the other pivots, so their order does not
    matter), scaled only when its leading entry is not already 1, and then
    cleared from the lead column of the other pivots.
    """
    if not rows:
        return tuple(form)
    p = dom.modulus if dom.finite else None

    def axpy(row, c, prow):
        """row - c * prow"""
        if p is None:
            return [a - c * b for a, b in zip(row, prow)]
        return [(a - c * b) % p for a, b in zip(row, prow)]

    pivots = {lead(row): row for row in form}  # leading column -> row
    for row in rows:
        if not any(row):
            continue
        row = [Fraction(v) for v in row] if p is None else [int(v) % p for v in row]
        for j, prow in pivots.items():
            if row[j]:
                row = axpy(row, row[j], prow)
        col = lead(row)
        if col is None:
            continue
        if row[col] != 1:
            inv = 1 / row[col] if p is None else pow(row[col], -1, p)
            row = [v * inv for v in row] if p is None else [v * inv % p for v in row]
        for j, prow in pivots.items():
            if prow[col]:
                pivots[j] = axpy(prow, prow[col], row)
        pivots[col] = row
    return tuple(tuple(pivots[j]) for j in sorted(pivots))


def _strip(q, g):
    """q with every prime factor of g divided out."""
    while (h := math.gcd(q, g)) > 1:
        q //= h
    return q


def residue_pivots(rows, ncols, m):
    """Echelon pivot columns of ``rows`` over F_p for every prime p | m.

    Returns pairs (e, pivots), one per part of a split of m's primes: over
    F_p the rows have the pivot columns ``pivots`` for each prime p of the
    part, and e is the idempotent of Z/mZ that is 1 mod those primes and 0
    mod the others.  m is never factored: elimination runs mod q with unit
    pivots, and a column whose nonzero entries are all non-units splits q
    into g = gcd(entry, q), where that entry reads 0, and the rest of q.
    """
    out, work = [], [m]
    while work:
        q = work.pop()
        todo, pivots = [[v % q for v in row] for row in rows], []
        for j in range(ncols):
            live = [row for row in todo if row[j]]
            unit = next((row for row in live if math.gcd(row[j], q) == 1), None)
            if live and unit is None:
                g = math.gcd(live[0][j], q)
                work += [g] + [rest for rest in (_strip(q, g),) if rest > 1]
                break
            if unit:
                c = pow(unit[j], -1, q)
                todo = [[(v - row[j] * c * u) % q for v, u in zip(row, unit)]
                        for row in todo if row is not unit]
                pivots.append(j)
        else:
            rest = _strip(m, q)
            out.append((rest * pow(rest, -1, m // rest) % m, tuple(pivots)))
    return out
