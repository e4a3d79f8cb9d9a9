"""Finite effect algebras: partial addition tables, axiom validation, derived order.

An algebra is a finite set indexed 0..n-1 with a partial commutative sum.  By file
convention index 0 is the zero element and index n-1 is the unit.  The partial sum
is stored sparsely as a symmetric dict (i, j) -> k; asymmetric input is rejected
rather than repaired so that corrupted tables fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


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


@dataclass(frozen=True)
class OrderData:
    """Derived order-theoretic structure of a validated algebra."""

    leq: tuple[tuple[bool, ...], ...]        # leq[a][b] iff a <= b
    complement: tuple[int, ...]              # the unique a' with a + a' = 1
    sub: dict                                # (b, a) -> b - a, for a <= b
    join: tuple[tuple[Optional[int], ...], ...]
    meet: tuple[tuple[Optional[int], ...], ...]


class FiniteEffectAlgebra:
    """A validated finite effect algebra. Immutable after construction."""

    def __init__(self, n: int, sums: dict, labels: Optional[list[str]] = None,
                 meta: Optional[dict] = None):
        self.n = n
        self.sums = dict(sums)
        self.labels = list(labels) if labels else [str(i) for i in range(n)]
        self.meta = dict(meta) if meta else {}
        self.zero = 0
        self.one = n - 1
        self._order: Optional[OrderData] = None

    def __repr__(self):
        return f"FiniteEffectAlgebra(n={self.n}, sums={len(self.sums)})"

    def defined(self, i: int, j: int) -> bool:
        return (i, j) in self.sums

    def sum(self, i: int, j: int) -> int:
        return self.sums[(i, j)]

    @property
    def order(self) -> OrderData:
        if self._order is None:
            self._order = derive_order(self)
        return self._order

    def leq(self, a: int, b: int) -> bool:
        return self.order.leq[a][b]

    def complement(self, a: int) -> int:
        return self.order.complement[a]

    def minus(self, b: int, a: int) -> int:
        """The unique c with a + c = b; requires a <= b."""
        return self.order.sub[(b, a)]

    def join(self, a: int, b: int) -> Optional[int]:
        return self.order.join[a][b]

    def meet(self, a: int, b: int) -> Optional[int]:
        return self.order.meet[a][b]

    def elements(self) -> range:
        return range(self.n)

    def sum_triples(self) -> list[tuple[int, int, int]]:
        """Defined sums as (i, j, k) with i <= j."""
        return sorted((i, j, k) for (i, j), k in self.sums.items() if i <= j)

    def is_linear(self) -> bool:
        o = self.order.leq
        return all(o[a][b] or o[b][a] for a in range(self.n) for b in range(self.n))


def normalize_triples(n: int, triples: Iterable[tuple[int, int, int]]) -> dict:
    """Turn a triple list into a sum dict; reject malformed or contradictory entries."""
    sums: dict = {}
    for t in triples:
        if len(t) != 3:
            raise AxiomViolation("table", tuple(t), "entries must be (i, j, k) triples")
        i, j, k = t
        for x in (i, j, k):
            if not isinstance(x, int) or not (0 <= x < n):
                raise AxiomViolation("table", (i, j, k), "index out of range")
        if (i, j) in sums and sums[(i, j)] != k:
            raise AxiomViolation("table", (i, j, k, sums[(i, j)]),
                                 "two values for the same pair")
        sums[(i, j)] = k
    return sums


def validate_axioms(n: int, triples: Iterable[tuple[int, int, int]],
                    labels: Optional[list[str]] = None,
                    meta: Optional[dict] = None) -> FiniteEffectAlgebra:
    """Validate a raw partial sum table and return the algebra.

    Checks, in order: table shape, commutativity (i), the unit law (iv), unique
    complements against index n-1 (iii), partial associativity as a biconditional
    over all triples (ii), and the index conventions for 0 and 1.  Raises
    AxiomViolation naming the first failure with a witness.
    """
    if n < 1:
        raise AxiomViolation("table", (n,), "need at least one element")
    sums = normalize_triples(n, triples)
    one = n - 1

    for (i, j), k in sums.items():
        if sums.get((j, i)) != k:
            raise AxiomViolation("i", (i, j, k),
                                 "pair defined in one order only (or values differ)")

    for (i, j), k in sums.items():
        if j == one and i != 0:
            raise AxiomViolation("iv", (i,), "a + 1 defined for a != 0")

    complement = [None] * n
    for a in range(n):
        partners = [b for b in range(n) if sums.get((a, b)) == one]
        if len(partners) != 1:
            raise AxiomViolation("iii", (a, tuple(partners)),
                                 "complement must exist and be unique")
        complement[a] = partners[0]

    rng = range(n)
    for a in rng:
        for b in rng:
            ab = sums.get((a, b))
            for c in rng:
                left = ab is not None and (ab, c) in sums
                bc = sums.get((b, c))
                right = bc is not None and (a, bc) in sums
                if left != right:
                    raise AxiomViolation("ii", (a, b, c),
                                         "one association defined, the other not")
                if left and sums[(ab, c)] != sums[(a, bc)]:
                    raise AxiomViolation("ii", (a, b, c), "associated sums differ")

    if complement[one] != 0:
        raise AxiomViolation("convention", (complement[one],),
                             "the complement of the unit must sit at index 0")
    if n > 1 and complement[0] != one:
        raise AxiomViolation("convention", (complement[0],),
                             "the complement of index 0 must be the unit")

    return FiniteEffectAlgebra(n, sums, labels, meta)


def derive_order(E: FiniteEffectAlgebra) -> OrderData:
    """Derived order, complements, subtraction, and join/meet tables.

    On a validated algebra the relation a <= b iff a + c = b for some c is a
    partial order with bottom 0 and top 1; this recomputes and asserts that.
    """
    n = E.n
    leq = [[False] * n for _ in range(n)]
    sub: dict = {}
    for (a, c), b in E.sums.items():
        leq[a][b] = True
        prev = sub.get((b, a))
        if prev is not None and prev != c:
            raise EffectAlgebraError(f"difference {b} - {a} is not unique")
        sub[(b, a)] = c
    for a in range(n):
        if not leq[a][a]:  # a + 0 = a is forced by the axioms
            raise EffectAlgebraError("derived order is not reflexive")
    for a in range(n):
        for b in range(n):
            if a != b and leq[a][b] and leq[b][a]:
                raise EffectAlgebraError("derived order is not antisymmetric")
    for a in range(n):
        for b in range(n):
            if leq[a][b]:
                for c in range(n):
                    if leq[b][c] and not leq[a][c]:
                        raise EffectAlgebraError("derived order is not transitive")

    complement = [None] * n
    for a in range(n):
        for b in range(n):
            if E.sums.get((a, b)) == E.one:
                complement[a] = b
    for a in range(n):
        if complement[complement[a]] != a:
            raise EffectAlgebraError("complement is not an involution")

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
        complement=tuple(complement),
        sub=sub,
        join=tuple(tuple(r) for r in join),
        meet=tuple(tuple(r) for r in meet),
    )


def is_isomorphic(E1: FiniteEffectAlgebra, E2: FiniteEffectAlgebra) -> bool:
    """Decide isomorphism by invariant screening plus backtracking search."""
    if E1.n != E2.n or len(E1.sums) != len(E2.sums):
        return False

    def profile(E):
        o = E.order
        out = []
        for a in range(E.n):
            below = sum(o.leq[b][a] for b in range(E.n))
            above = sum(o.leq[a][b] for b in range(E.n))
            deg = sum(1 for (i, _j) in E.sums if i == a)
            out.append((below, above, deg))
        return out

    p1, p2 = profile(E1), profile(E2)
    if sorted(p1) != sorted(p2):
        return False

    n = E1.n
    image = [-1] * n
    used = [False] * n

    def consistent(a: int, fa: int) -> bool:
        if p1[a] != p2[fa]:
            return False
        for b in range(n):
            fb = image[b]
            if fb < 0:
                continue
            k = E1.sums.get((a, b))
            k2 = E2.sums.get((fa, fb))
            if (k is None) != (k2 is None):
                return False
            if k is not None and image[k] >= 0 and image[k] != k2:
                return False
        return True

    def rec(a: int) -> bool:
        if a == n:
            return all(E2.sums.get((image[i], image[j])) == image[k]
                       for (i, j), k in E1.sums.items())
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
    first = 1 if n > 2 else n
    return rec(first) if n > 2 else all(
        E2.sums.get((image[i], image[j])) == image[k] for (i, j), k in E1.sums.items())
