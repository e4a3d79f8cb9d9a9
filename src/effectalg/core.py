"""Finite effect algebras: partial addition tables, axiom validation, derived order.

An algebra is a finite set indexed 0..n-1 with a partial commutative sum.  By file
convention index 0 is the zero element and index n-1 is the unit.  The partial sum
is stored once, as an immutable dense table ``table[a][b]`` (None where a + b is
undefined) plus the list of its defined sums; only ``validate_axioms`` builds it.
Asymmetric input is rejected rather than repaired so that corrupted tables fail
loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Optional


class EffectAlgebraError(Exception):
    pass


class GuardExceeded(EffectAlgebraError):
    """An enumeration would exceed its configured size guard."""


class AxiomViolation(EffectAlgebraError):
    """A sum table failed validation.

    ``axiom`` is one of "table", "i", "ii", "iii", "iv", "convention";
    ``witness`` holds the offending indices.
    """

    def __init__(self, axiom: str, witness: tuple, message: str):
        super().__init__(f"axiom {axiom} violated: {message} (witness {witness})")
        self.axiom = axiom
        self.witness = witness
        self.message = message


Table = tuple[tuple[Optional[int], ...], ...]


@dataclass(frozen=True)
class OrderData:
    """Derived order-theoretic structure of a validated algebra."""

    leq: tuple[tuple[bool, ...], ...]        # leq[a][b] iff a <= b
    sub: Table                               # sub[b][a] = b - a for a <= b, else None
    join: Table
    meet: Table


@dataclass(frozen=True)
class FiniteEffectAlgebra:
    """A validated finite effect algebra; ``validate_axioms`` builds it.

    ``table[a][b]`` is a + b, or None where undefined; it is symmetric.
    ``triples`` lists every defined sum once as (i, j, k) with i <= j, in the
    order validation first received the pair.  ``complements[a]`` is the unique
    a' with a + a' = 1.  Every field is immutable; ``meta`` is read-only.
    """

    n: int
    table: Table
    triples: tuple[tuple[int, int, int], ...]
    complements: tuple[int, ...]
    labels: tuple[str, ...]
    meta: Mapping

    def __repr__(self):
        return f"FiniteEffectAlgebra(n={self.n}, triples={len(self.triples)})"

    def __hash__(self):   # meta is unhashable; equal algebras have equal tables
        return hash(self.table)

    @property
    def one(self) -> int:
        return self.n - 1

    def defined(self, i: int, j: int) -> bool:
        return self.table[i][j] is not None

    def sum(self, i: int, j: int) -> int:
        k = self.table[i][j]
        if k is None:
            raise KeyError((i, j))
        return k

    @cached_property
    def order(self) -> OrderData:
        return derive_order(self)

    def leq(self, a: int, b: int) -> bool:
        return self.order.leq[a][b]

    def complement(self, a: int) -> int:
        return self.complements[a]

    def minus(self, b: int, a: int) -> int:
        """The unique c with a + c = b; requires a <= b."""
        return self.order.sub[b][a]

    def join(self, a: int, b: int) -> Optional[int]:
        return self.order.join[a][b]

    def meet(self, a: int, b: int) -> Optional[int]:
        return self.order.meet[a][b]

    def sum_triples(self) -> list[tuple[int, int, int]]:
        """Defined sums as (i, j, k) with i <= j, sorted."""
        return sorted(self.triples)

    def is_linear(self) -> bool:
        o = self.order.leq
        return all(o[a][b] or o[b][a] for a in range(self.n) for b in range(self.n))


def validate_axioms(n: int, triples: Iterable[tuple[int, int, int]],
                    labels: Optional[list[str]] = None,
                    meta: Optional[dict] = None) -> FiniteEffectAlgebra:
    """Validate a raw partial sum table and return the algebra.

    Checks, in order: table shape, commutativity (i), the unit law (iv), unique
    complements against index n-1 (iii), partial associativity as a biconditional
    over all triples (ii), and the index conventions for 0 and 1.  Raises
    AxiomViolation naming the first failure with a witness: the first offending
    entry in input order for the table, (i) and (iv), the lexicographically
    first triple for (ii).
    """
    if n < 1:
        raise AxiomViolation("table", (n,), "need at least one element")
    entries = list(triples)
    one = n - 1
    rows: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    upper = []     # each defined pair once, i <= j, in order of first appearance
    for t in entries:
        if len(t) != 3:
            raise AxiomViolation("table", tuple(t), "entries must be (i, j, k) triples")
        i, j, k = t
        for x in (i, j, k):
            if not isinstance(x, int) or not (0 <= x < n):
                raise AxiomViolation("table", (i, j, k), "index out of range")
        prev = rows[i][j]
        if prev is None:
            rows[i][j] = k
            if i <= j:
                upper.append((i, j, k))
        elif prev != k:
            raise AxiomViolation("table", (i, j, k, prev), "two values for the same pair")

    for i, j, k in entries:
        if rows[j][i] != k:
            raise AxiomViolation("i", (i, j, k),
                                 "pair defined in one order only (or values differ)")

    for i, j, _k in entries:
        if j == one and i != 0:
            raise AxiomViolation("iv", (i,), "a + 1 defined for a != 0")

    complements = []
    for a, row in enumerate(rows):
        partners = [b for b, k in enumerate(row) if k == one]
        if len(partners) != 1:
            raise AxiomViolation("iii", (a, tuple(partners)),
                                 "complement must exist and be unique")
        complements.append(partners[0])

    # (a + b) + c against a + (b + c), for every c at once: the rows agree
    # exactly when both sides are undefined or equal at each c.
    undefined = [None] * n
    for a, row_a in enumerate(rows):
        for b, ab in enumerate(row_a):
            left = undefined if ab is None else rows[ab]
            right = [None if bc is None else row_a[bc] for bc in rows[b]]
            if left != right:
                c = next(c for c in range(n) if left[c] != right[c])
                if (left[c] is None) != (right[c] is None):
                    raise AxiomViolation("ii", (a, b, c),
                                         "one association defined, the other not")
                raise AxiomViolation("ii", (a, b, c), "associated sums differ")

    if complements[one] != 0:
        raise AxiomViolation("convention", (complements[one],),
                             "the complement of the unit must sit at index 0")
    if n > 1 and complements[0] != one:
        raise AxiomViolation("convention", (complements[0],),
                             "the complement of index 0 must be the unit")

    frozen_meta = {key: tuple(v) if isinstance(v, list) else v
                   for key, v in (meta or {}).items()}
    return FiniteEffectAlgebra(
        n=n,
        table=tuple(tuple(r) for r in rows),
        triples=tuple(upper),
        complements=tuple(complements),
        labels=tuple(labels) if labels else tuple(str(i) for i in range(n)),
        meta=MappingProxyType(frozen_meta),
    )


def raw_triples(E: FiniteEffectAlgebra) -> list[tuple[int, int, int]]:
    """Every defined ordered pair as (a, b, a + b), row by row: the raw table
    that ``validate_axioms`` reads and structure files store."""
    return [(a, b, k) for a, row in enumerate(E.table) for b, k in enumerate(row)
            if k is not None]


def derive_order(E: FiniteEffectAlgebra) -> OrderData:
    """Derived order, subtraction, and join/meet tables.

    a <= b iff a + c = b for some c.  ``validate_axioms`` has established the
    axioms, so this is a partial order with bottom 0 and top 1 and every
    difference b - a is unique; nothing here checks that again.
    """
    n = E.n
    leq = [[False] * n for _ in range(n)]
    sub: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    for a, c, b in E.triples:
        leq[a][b] = leq[c][b] = True
        sub[b][a] = c
        sub[b][c] = a

    join = [[None] * n for _ in range(n)]
    meet = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            ubs = [x for x in range(n) if leq[a][x] and leq[b][x]]
            least = [x for x in ubs if all(leq[x][y] for y in ubs)]
            if least:
                join[a][b] = join[b][a] = least[0]
            lbs = [x for x in range(n) if leq[x][a] and leq[x][b]]
            greatest = [x for x in lbs if all(leq[y][x] for y in lbs)]
            if greatest:
                meet[a][b] = meet[b][a] = greatest[0]

    return OrderData(
        leq=tuple(tuple(r) for r in leq),
        sub=tuple(tuple(r) for r in sub),
        join=tuple(tuple(r) for r in join),
        meet=tuple(tuple(r) for r in meet),
    )


def is_isomorphic(E1: FiniteEffectAlgebra, E2: FiniteEffectAlgebra) -> bool:
    """Decide isomorphism by invariant screening plus backtracking search."""
    if E1.n != E2.n or len(E1.triples) != len(E2.triples):
        return False

    def profile(E):
        o = E.order
        out = []
        for a in range(E.n):
            below = sum(o.leq[b][a] for b in range(E.n))
            above = sum(o.leq[a][b] for b in range(E.n))
            deg = sum(k is not None for k in E.table[a])
            out.append((below, above, deg))
        return out

    p1, p2 = profile(E1), profile(E2)
    if sorted(p1) != sorted(p2):
        return False

    n = E1.n
    t1, t2 = E1.table, E2.table
    image = [-1] * n
    used = [False] * n

    def preserves_sums() -> bool:
        return all(t2[image[i]][image[j]] == image[k] for i, j, k in E1.triples)

    def consistent(a: int, fa: int) -> bool:
        if p1[a] != p2[fa]:
            return False
        for b in range(n):
            fb = image[b]
            if fb < 0:
                continue
            k = t1[a][b]
            k2 = t2[fa][fb]
            if (k is None) != (k2 is None):
                return False
            if k is not None and image[k] >= 0 and image[k] != k2:
                return False
        return True

    def rec(a: int) -> bool:
        if a == n:
            return preserves_sums()
        if image[a] >= 0:
            return rec(a + 1)
        for fa in range(n):
            if used[fa]:
                continue
            if consistent(a, fa):
                image[a] = fa
                used[fa] = True
                if rec(a + 1):
                    return True
                used[fa] = False
                image[a] = -1
        return False

    image[0] = 0
    used[0] = True
    image[n - 1] = n - 1
    if n > 1:
        used[n - 1] = True
    return rec(1) if n > 2 else preserves_sums()
