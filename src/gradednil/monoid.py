"""Monoids as finite multiplication tables, plus the integer-addition monoid.

Table monoids live on dense element ids 0..size-1 and are validated on
construction (identity law, associativity), unless built with
``check=False`` from a structure that already obeys them.  The integer-addition monoid
stands in for unbounded integer gradings; its elements are arbitrary ints.
"""

from __future__ import annotations

TABLE = "table"
INT_ADD = "int-add"


class MonoidError(ValueError):
    """A table fails the monoid axioms or an element id is unknown."""


class CongruenceError(ValueError):
    """A partition is not an equivalence or not multiplication-compatible.

    ``witness`` holds a quadruple (g, h, k, t) with g~h, k~t but gk !~ ht
    when compatibility is what failed.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class Monoid:
    """A monoid given by a multiplication table, or integer addition."""

    def __init__(self, kind, table=None, identity=0, check=True):
        self.kind = kind
        if kind == INT_ADD:
            self.table = None
            self.identity = 0
            self.size = None
        elif kind == TABLE:
            if table is None:
                raise MonoidError("table monoid needs a table")
            size = len(table)
            for row in table:
                if len(row) != size:
                    raise MonoidError("table is not square")
                for v in row:
                    if not isinstance(v, int) or not 0 <= v < size:
                        raise MonoidError(f"table entry {v!r} outside 0..{size - 1}")
            self.table = tuple(tuple(row) for row in table)
            self.size = size
            if not 0 <= identity < size:
                raise MonoidError(f"identity id {identity} outside 0..{size - 1}")
            self.identity = identity
            if check:
                self._validate_table()
        else:
            raise MonoidError(f"unknown monoid kind {kind!r}")

    def _validate_table(self):
        e, t = self.identity, self.table
        for x in range(self.size):
            if t[e][x] != x or t[x][e] != x:
                raise MonoidError(f"element {e} is not an identity at {x}")
        for a in range(self.size):
            for b in range(self.size):
                ab = t[a][b]
                for c in range(self.size):
                    if t[ab][c] != t[a][t[b][c]]:
                        raise MonoidError(
                            f"not associative at ({a}, {b}, {c}): "
                            f"({a}*{b})*{c} = {t[ab][c]} but {a}*({b}*{c}) = {t[a][t[b][c]]}"
                        )

    @classmethod
    def from_table(cls, table, identity=0, check=True):
        return cls(TABLE, table=table, identity=identity, check=check)

    @classmethod
    def int_add(cls):
        return cls(INT_ADD)

    @classmethod
    def cyclic(cls, n):
        """The cyclic group Z_n as a table monoid (identity 0)."""
        if n < 1:
            raise MonoidError("cyclic monoid needs n >= 1")
        return cls(TABLE, table=[[(i + j) % n for j in range(n)] for i in range(n)],
                   check=False)

    def op(self, a, b):
        if self.kind == INT_ADD:
            return a + b
        self._check_element(a)
        self._check_element(b)
        return self.table[a][b]

    def _check_element(self, g):
        if self.kind == TABLE and not (isinstance(g, int) and 0 <= g < self.size):
            raise MonoidError(f"unknown element id {g!r}")

    def contains(self, g):
        if self.kind == INT_ADD:
            return isinstance(g, int)
        return isinstance(g, int) and 0 <= g < self.size

    def elements(self):
        if self.kind == INT_ADD:
            raise MonoidError("int-add monoid is not enumerable")
        return range(self.size)

    def __eq__(self, other):
        return (
            isinstance(other, Monoid)
            and self.kind == other.kind
            and self.table == other.table
            and self.identity == other.identity
        )

    def __hash__(self):
        return hash((self.kind, self.table, self.identity))

    def __repr__(self):
        if self.kind == INT_ADD:
            return "Monoid(int-add)"
        return f"Monoid(table, size={self.size})"


def check_cancellative(m: Monoid) -> bool:
    """Is ``m`` left cancellative: is every row of its table injective?"""
    return m.kind == INT_ADD or all(len(set(row)) == m.size for row in m.table)


class Congruence:
    """A multiplication-compatible partition of a table monoid.

    Classes are canonicalized: each sorted, the identity's class first, the
    rest ordered by smallest member.  Class ids index this ordering.
    """

    def __init__(self, monoid: Monoid, classes):
        if monoid.kind != TABLE:
            raise CongruenceError("congruences are defined for table monoids only")
        self.monoid = monoid
        seen = set()
        normalized = []
        for cls in classes:
            cls = sorted(set(cls))
            if not cls:
                raise CongruenceError("empty congruence class")
            for g in cls:
                monoid._check_element(g)
                if g in seen:
                    raise CongruenceError(f"element {g} appears in two classes")
                seen.add(g)
            normalized.append(tuple(cls))
        if seen != set(range(monoid.size)):
            missing = sorted(set(range(monoid.size)) - seen)
            raise CongruenceError(f"classes do not cover elements {missing}")
        normalized.sort(key=lambda c: (monoid.identity not in c, c[0]))
        self.classes = tuple(normalized)
        self._index = {}
        for idx, cls in enumerate(self.classes):
            for g in cls:
                self._index[g] = idx
        self._validate_compatibility()

    def _validate_compatibility(self):
        # g~h and k~t imply gk~ht.  Checking pairs against single elements on
        # both sides is equivalent, and by transitivity so is checking each
        # member h against its class's first member g alone: a failing pair
        # (h, h') of one class fails (g, h) or (g, h') at the same k, and the
        # pairs (g, h) come first, so the first failure is the same.
        t, index = self.monoid.table, self._index
        for g, *rest in self.classes:
            for h in rest:
                for k in range(self.monoid.size):
                    if index[t[g][k]] != index[t[h][k]]:
                        raise CongruenceError(
                            f"incompatible: {g}~{h} and {k}~{k} but "
                            f"{g}*{k}={t[g][k]} !~ {h}*{k}={t[h][k]}",
                            witness=(g, h, k, k),
                        )
                    if index[t[k][g]] != index[t[k][h]]:
                        raise CongruenceError(
                            f"incompatible: {k}~{k} and {g}~{h} but "
                            f"{k}*{g}={t[k][g]} !~ {k}*{h}={t[k][h]}",
                            witness=(k, k, g, h),
                        )

    def class_index(self, g):
        self.monoid._check_element(g)
        return self._index[g]

    def __repr__(self):
        return f"Congruence({self.classes})"


def quotient(m: Monoid, c: Congruence) -> Monoid:
    """The monoid on congruence classes with [g][h] = [gh].  It is a monoid
    because m is and the congruence is compatible; its identity is the
    identity's class, class 0 in the congruence's canonical order."""
    if c.monoid is not m and c.monoid != m:
        raise CongruenceError("congruence belongs to a different monoid")
    n = len(c.classes)
    table = [[0] * n for _ in range(n)]
    for i, ci in enumerate(c.classes):
        for j, cj in enumerate(c.classes):
            table[i][j] = c.class_index(m.op(ci[0], cj[0]))
    return Monoid.from_table(table, identity=0, check=False)
