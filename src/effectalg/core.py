"""Finite effect algebras: partial addition tables, axiom validation, derived order.

An algebra is a finite set indexed 0..n-1 with a partial commutative sum.  By file
convention index 0 is the zero element and index n-1 is the unit.  The partial sum is
stored once, as an immutable dense table ``table[a][b]`` (None where a + b is
undefined) plus the list of its defined sums.  ``validate_axioms`` guards, checks and
freezes a table from outside, in input order; a construction that is one by theorem
(``catalog``, ``fuzz``) reads its own guards and hands its rows to ``assemble``,
which checks nothing and lists the sums row-major.  Asymmetric input is rejected
rather than repaired so that corrupted tables fail loudly.  Associativity is checked
only on the triples whose left association (a + b) + c is defined, |L| work rather
than n^3: once the table is symmetric, every failing triple (a, b, c) or its mirror
(c, b, a) is one of them.  The order is stored once, as the down-set bitmasks
``down``; subtraction, meets and joins are rows read from them and the sum table on
demand (``OrderData``).  The decomposition tree of central products, horizontal sums
and indecomposable parts, which RDP and the state layer read, is ``decompose``.
The maps that ``homomorphisms(E, E)`` yields have the type ``E.endomorphism_type``,
and a map of that type is an endomorphism of E by construction.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, TypeVar


class EffectAlgebraError(Exception):
    pass


class GuardExceeded(EffectAlgebraError):
    """An enumeration would exceed its configured size guard."""


class AxiomViolation(EffectAlgebraError):
    """A sum table failed validation.

    ``axiom`` is one of "table", "i", "ii", "iii", "iv";
    ``witness`` holds the offending indices.
    """

    def __init__(self, axiom: str, witness: tuple, message: str):
        super().__init__(f"axiom {axiom} violated: {message} (witness {witness})")
        self.axiom = axiom
        self.witness = witness
        self.message = message


Table = tuple[tuple[Optional[int], ...], ...]
T = TypeVar("T")

GUARD_ELEMENTS = 4096   # most elements a table is built for: n^2 cells, 16.8M at the guard
GUARD_ASSOCIATIVITY = 1 << 25   # most (a, b, c) the associativity scan may visit
SEARCH_HEADROOM = 100   # frames below the recursion limit kept for a search's callers
GUARD_MAP_ENTRIES = GUARD_ELEMENTS ** 2   # most entries, over all maps, a search yields


def guard_elements(n: int) -> None:
    """Raise ``GuardExceeded`` before an n-element table is built, if n is over
    ``GUARD_ELEMENTS``.  A count of 2^64 or more, where callers cap, is not printed."""
    if n > GUARD_ELEMENTS:
        raise GuardExceeded(f"{n if n < 1 << 64 else '2^64 or more'} elements"
                            f" (guard {GUARD_ELEMENTS})")


def guard_associativity(work: int) -> None:
    """Raise ``GuardExceeded`` before a (ii) scan of over ``GUARD_ASSOCIATIVITY`` triples."""
    if work > GUARD_ASSOCIATIVITY:
        raise GuardExceeded(f"associativity scan of {work} triples (guard {GUARD_ASSOCIATIVITY})")


class _Rows(dict):
    """A table read a row at a time: ``rows[a]`` is the tuple ``row(a)``, built
    on its first read and kept, so that a built row is read at dict speed.  No
    row is ever assigned, replaced or removed."""

    __setitem__ = __delitem__ = __ior__ = update = setdefault = pop = popitem = clear = None

    def __init__(self, row: Callable[[int], tuple[Optional[int], ...]]):
        self.row = row

    def __missing__(self, a: int) -> tuple[Optional[int], ...]:
        dict.__setitem__(self, a, row := self.row(a))
        return row


@dataclass(frozen=True)
class OrderData:
    """The order of a validated algebra, stored once: bit a of ``down[b]`` is
    set iff a <= b.  ``sub``, ``meet`` and ``join`` are ``_Rows`` read from it
    and the sum table.  ``sub[b][a]`` is b - a, or None where a is not below b:
    row b' of the sum table mapped by the complement, as a <= b iff a + b' is
    defined, and then b - a = (a + b')'.  By commutativity and associativity,
    if a + d = b then (d + a) + b' = 1 gives d + (a + b') = 1, so d = (a + b')'
    as complements are unique; if s = a + b' is defined, (b' + a) + s' = 1 gives
    b' + (a + s') = 1, so a + s' = b.  ``meet[a][b]`` has the down-set
    ``down[a] & down[b]``, or is None.  The complement is an order-reversing
    involution, so a v b = (a' ^ b')' exactly when either exists: ``join[a]``
    is ``meet[a']`` permuted and mapped by the complement.
    """

    down: tuple[int, ...]
    sub: _Rows
    meet: _Rows
    join: _Rows


@dataclass(frozen=True)
class FiniteEffectAlgebra:
    """A finite effect algebra: ``validate_axioms`` or a construction builds it.

    ``table[a][b]`` is a + b, or None where undefined; it is symmetric.
    ``triples`` lists every defined sum once as (i, j, k) with i <= j, row-major
    from ``assemble`` and first-received from ``validate_axioms``.  ``complements[a]``
    is the unique a' with a + a' = 1.  Every field is immutable; ``meta`` is read-only.
    Because the algebra never changes, ``verdict`` keeps the answer of any
    check that reads nothing else, and ``order`` and ``nonzero_triples`` are
    built on first read.  A map of type ``endomorphism_type`` is an endomorphism by construction.
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

    @cached_property
    def order(self) -> OrderData:
        return derive_order(self)

    @cached_property
    def nonzero_triples(self) -> tuple[tuple[int, int, int], ...]:
        """The triples i + j = k with i != 0, in triple order.  A map that fixes
        0 keeps every other sum 0 + a = a, so these are all a check must read."""
        return tuple(t for t in self.triples if t[0])

    @cached_property
    def endomorphism_type(self) -> type:
        """The type of the maps ``homomorphisms(self, self)`` yields.  Only the search
        mints one, at a leaf whose checks all passed, and neither it nor the algebra
        can change.  A copy or a pickle of one is a plain tuple, with no proof."""
        return type("Endomorphism", (tuple,),
                    {"__slots__": (), "__reduce__": lambda m: (tuple, (tuple(m),))})

    @cached_property
    def _verdicts(self) -> dict:
        return {}

    def verdict(self, check: Callable[[FiniteEffectAlgebra], T]) -> T:
        """``check(self)``, computed on the first call and kept on the algebra.

        For checks that depend on the algebra alone, such as its lattice class
        or RDP, read once per algebra by code that runs once per map.
        """
        verdicts = self._verdicts
        if check not in verdicts:
            verdicts[check] = check(self)
        return verdicts[check]

    def leq(self, a: int, b: int) -> bool:
        """a <= b: bit a of the down-set mask ``order.down[b]``."""
        return self.order.down[b] >> a & 1 == 1

    def complement(self, a: int) -> int:
        return self.complements[a]

    def join(self, a: int, b: int) -> Optional[int]:
        return self.order.join[a][b]

    def meet(self, a: int, b: int) -> Optional[int]:
        return self.order.meet[a][b]

    def sum_triples(self) -> list[tuple[int, int, int]]:
        """Defined sums as (i, j, k) with i <= j, sorted."""
        return sorted(self.triples)


def validate_axioms(n: int, triples: Iterable[tuple[int, int, int]],
                    labels: Optional[list[str]] = None,
                    meta: Optional[dict] = None) -> FiniteEffectAlgebra:
    """Check a raw partial sum table against the axioms, then freeze the rows checked.

    Each entry is an (i, j, k) sequence of ints in 0..n-1, read as i + j = k;
    ``labels``, when given, has one entry per element (ValueError otherwise).
    No caller bounds such a table, so both guards are read here: an n over
    ``GUARD_ELEMENTS`` raises ``GuardExceeded`` before the n x n table is
    allocated, and an (ii) scan of more than ``GUARD_ASSOCIATIVITY`` triples,
    by ``associativity_work``, before it starts.  Checks, in order: table shape,
    commutativity (i), the unit law (iv), unique complements against index n-1
    (iii), and partial associativity (ii): for every triple, (a + b) + c is
    defined exactly when a + (b + c) is, and then they are equal.  (ii) scans
    L = {(a, b, c) : a + b and (a + b) + c defined}, where b + c and a + (b + c)
    must be defined and equal to (a + b) + c.  That is enough: by (i), (c, b, a)
    fails exactly when (a, b, c) does, with the two associations swapped, and
    a failure has at least one side defined, so it or its mirror lies in L.

    Raises AxiomViolation naming the first failure with a witness: the first
    offending entry in input order for the table, (i) and (iv), the
    lexicographically first failing triple for (ii), which is the least of the
    failures found in L and their mirrors.
    """
    if n < 1:
        raise AxiomViolation("table", (n,), "need at least one element")
    if labels is not None and len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} elements")
    guard_elements(n)
    entries = list(triples)
    rows: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    upper = []
    for t in entries:
        if not isinstance(t, (tuple, list)):
            raise AxiomViolation("table", (t,), "entries must be (i, j, k) triples")
        if len(t) != 3:
            raise AxiomViolation("table", tuple(t), "entries must be (i, j, k) triples")
        i, j, k = t
        for x in (i, j, k):
            if isinstance(x, bool) or not isinstance(x, int):
                raise AxiomViolation("table", (i, j, k), "indices must be ints")
            if not 0 <= x < n:
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
        if j == n - 1 and i != 0:
            raise AxiomViolation("iv", (i,), "a + 1 defined for a != 0")

    for a, row in enumerate(rows):
        if row.count(n - 1) != 1:
            raise AxiomViolation("iii", (a, tuple(b for b, k in enumerate(row) if k == n - 1)),
                                 "complement must exist and be unique")

    # (ii) on L, with defined_at[x] the columns where row x is defined.  ``first`` is
    # the least failure or mirror, and whether one of its associations is undefined.
    guard_associativity(associativity_work(rows, upper))
    defined_at = [[c for c, k in enumerate(row) if k is not None] for row in rows]
    first = None
    for a, row_a in enumerate(rows):
        for b in defined_at[a]:
            ab = row_a[b]
            row_b, row_ab = rows[b], rows[ab]
            for c in defined_at[ab]:
                bc = row_b[c]
                if bc is None or row_a[bc] != row_ab[c]:
                    found = min((a, b, c), (c, b, a)), bc is None or row_a[bc] is None
                    if first is None or found < first:
                        first = found
                    break
    if first is not None:
        raise AxiomViolation("ii", first[0], "one association defined, the other not"
                             if first[1] else "associated sums differ")
    del defined_at, entries
    return _freeze(n, rows, upper, labels, meta)


def assemble(n: int, sums: Sequence[Sequence[tuple[int, int]]],
             labels: Optional[list[str]] = None,
             meta: Optional[dict] = None) -> FiniteEffectAlgebra:
    """The algebra of a table that satisfies the axioms, listed row by row:
    ``sums[a]`` lists (b, a + b) once for each defined a + b, b increasing.  No
    axiom is checked and no guard read: its caller bounded n and L before it
    listed a sum.  ``triples`` lists the pairs i <= j in row-major order."""
    rows, upper = [], []
    for a, pairs in enumerate(sums):
        rows.append(row := [None] * n)
        for b, k in pairs:
            row[b] = k
            if b >= a:
                upper.append((a, b, k))
    return _freeze(n, rows, upper, labels, meta)


def _freeze(n: int, rows: list, upper: list, labels: Optional[list[str]],
            meta: Optional[dict]) -> FiniteEffectAlgebra:
    """The algebra of filled rows, made tuples in place, and their pairs i <= j."""
    for a, row in enumerate(rows):
        rows[a] = tuple(row)
    meta = {key: tuple(v) if isinstance(v, list) else v for key, v in (meta or {}).items()}
    return FiniteEffectAlgebra(n, tuple(rows), tuple(upper),
                               tuple(row.index(n - 1) for row in rows),
                               tuple(labels or map(str, range(n))), MappingProxyType(meta))


def associativity_work(table: Sequence[Sequence], triples: Iterable[tuple[int, int, int]]) -> int:
    """|L| of the (ii) scan, the sum of |row(a + b)| over defined a + b, for a
    symmetric table and its pairs i <= j; a product's is its factors' product."""
    size = [len(row) - row.count(None) for row in table]
    return sum(size[k] << (i != j) for i, j, k in triples)


def raw_triples(E: FiniteEffectAlgebra) -> list[tuple[int, int, int]]:
    """Every defined ordered pair as (a, b, a + b), row by row: the raw table
    that ``validate_axioms`` reads and structure files store."""
    return [(a, b, k) for a, row in enumerate(E.table) for b, k in enumerate(row)
            if k is not None]


def derive_order(E: FiniteEffectAlgebra) -> OrderData:
    """The down-sets, in one pass over the triples, and the row tables over them.

    a <= b iff a + c = b for some c.  E satisfies the axioms, checked or by
    construction, so this is a partial order with bottom 0 and top 1 and every
    difference b - a is unique; nothing here checks that again.  Only ``down``
    is computed; ``OrderData`` says how a row of ``sub``, ``meet`` or ``join``
    is read from it, when it is first read.
    """
    c, table = E.complements, E.table
    masks = [0] * E.n
    bit = [1 << a for a in range(E.n)]
    for a, d, b in E.triples:
        masks[b] |= bit[a] | bit[d]
    down = tuple(masks)
    named = {mask: a for a, mask in enumerate(down)}.get    # the element with that down-set
    prime = dict(enumerate(c)).get                           # None, no element, is no key
    # A one-index itemgetter returns a scalar; the one-element row is its own permutation.
    permute = itemgetter(*c) if len(c) > 1 else tuple
    meet = _Rows(lambda a: tuple(map(named, map(down[a].__and__, down))))
    return OrderData(down=down, sub=_Rows(lambda b: tuple(map(prime, table[c[b]]))), meet=meet,
                     join=_Rows(lambda a: tuple(map(prime, permute(meet[c[a]])))))


class Node(NamedTuple):
    """A node of ``decompose``: its kind, E's indices in it (0 first, unit last)
    and its children."""

    kind: str                    # "product", "sum", "chain" or "part"
    members: tuple[int, ...]
    children: tuple[Node, ...] = ()

    def walk(self) -> Iterator[Node]:
        """This node, then every node below it."""
        yield self
        for child in self.children:
            yield from child.walk()


def decompose(E: FiniteEffectAlgebra) -> Node:
    """E's tree of central products and horizontal sums over indecomposable
    parts, kept on E when read through ``E.verdict(decompose)``.

    A node is closed under E's sums of its members, so its order and sums are
    E's.  It is a "chain" leaf when its m down-sets have m distinct sizes: a
    chain's are nested, and conversely the sizes are then 1..m, and the k - 1
    elements below the one of size k, with proper and so smaller down-sets,
    are those of sizes 1..k - 1.  A chain has neither split, so it is tested
    first.  A node with a central c other than 0 and its unit is the "product"
    [0, c] x [0, c'] (Greechie, Foulis & Pulmannova, The center of an effect
    algebra, Order 12, 1995); one whose middle elements fall into two or more
    blocks under its sums is their horizontal "sum"; else it is a "part".  No
    node has both splits, so their order does not matter: for x in a block
    other than c's, x ^ c = x ^ c' = 0, as x's nonzero lower bounds lie in its
    own block, so x = (x ^ c) + (x ^ c') = 0.  A finite effect algebra has RDP
    exactly when it is a product of chains (Dvurecenskij & Pulmannova, New
    Trends in Quantum Structures, 2000): when its tree has no sum node and its
    leaves are chains.
    """
    return _node(E, tuple(range(E.n)))


def _node(E: FiniteEffectAlgebra, members: tuple[int, ...]) -> Node:
    down = E.order.down
    if len({down[x].bit_count() for x in members[:-1]}) == len(members) - 1:
        return Node("chain", members)
    sub_u = E.order.sub[members[-1]]
    atoms = sum(1 << x for x in members[1:-1] if down[x].bit_count() == 2)
    c = next((c for c in members[1:-1]       # each atom is below exactly one of c, c'
              if (down[c] ^ down[sub_u[c]]) & atoms == atoms and _is_central(E, members, c)),
             None)
    if c is not None:
        return Node("product", members, tuple(
            _node(E, (*(x for x in members[:-1] if x != a and down[a] >> x & 1), a))
            for a in (c, sub_u[c])))
    blocks = tuple(_node(E, m) for m in _blocks(E, members))
    return Node("sum" if blocks else "part", members, blocks)


def _blocks(E: FiniteEffectAlgebra, members: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The horizontal-sum blocks of a node as their members, or [] when it has
    fewer than two.  A sum i + j = k of middle elements puts i and j in k's
    block, or in each other's when k is the unit u, and x < y is a sum
    x + (y - x) = y; so each block, grown from its least member, is closed
    under down-sets and x |-> u - x, which reach every y >= x as u - y <= u - x."""
    u, down = members[-1], E.order.down
    sub_u = E.order.sub[u]
    rest = sum(1 << x for x in members[1:-1])
    blocks = []
    while rest:
        block = rest & -rest
        todo = [block.bit_length() - 1]
        for y in todo:                       # grows as the block does
            new = (down[y] | 1 << sub_u[y]) & rest & ~block
            block |= new
            while new:
                low = new & -new
                new ^= low
                todo.append(low.bit_length() - 1)
        rest &= ~block
        blocks.append((0, *sorted(todo), u))
    return blocks if len(blocks) > 1 else []


def _is_central(E: FiniteEffectAlgebra, members: Sequence[int], c: int) -> bool:
    """Is c central in the node: is (a, b) |-> a + b a sum-preserving bijection
    [0, c] x [0, c'] -> node?  O(n): it is exactly when every x is
    (x ^ c) + (x ^ c'), both meets existing.

    That makes the map onto and puts each atom x = (x ^ c) + (x ^ c') below
    exactly one of c and c', a mask test that callers make first; it gives
    c ^ c' = 0, as an atom lies below any nonzero lower bound.  It makes c
    principal: for a, b <= c with a + b defined, b' >= c' splits as t + c' with
    t = b' ^ c, so c = b + t >= b + a, as a <= t.  Likewise c'.  So for x + y = z,
    A = (x ^ c) + (y ^ c) <= c and B = (x ^ c') + (y ^ c') <= c' sum to z, and
    A <= z ^ c, B <= z ^ c' with (z ^ c) + (z ^ c') = z give z ^ c = A by
    cancellation: x |-> x ^ c is additive, and so is x |-> x ^ c'.  The pair of
    them undoes the map, as (a + b) ^ c = a + (b ^ c) = a for b <= c'; and sums
    in [0, c] x [0, c'] go through by associativity.
    """
    down = E.order.down
    named = {down[y]: y for y in members}.get     # the node is down-closed in E
    dc, dq = down[c], down[E.order.sub[members[-1]][c]]
    return all(None not in (p := named(down[x] & dc), q := named(down[x] & dq))
               and E.table[p][q] == x for x in members)


def search_schedule(E1: FiniteEffectAlgebra, E2: FiniteEffectAlgebra) -> list[tuple]:
    """The levels that ``homomorphisms`` walks, as (steps, checks, new) triples.

    ``new[0]`` is the level's element (the unit at the root level), then the
    elements its steps force; a step (x, rows, a, b) sets f(x) = rows[f(a)][f(b)]
    with ``rows`` E2's table or its subtraction, and a check (i, j, k) tests
    f(i) + f(j) = f(k).  The triples read are E1's ``nonzero_triples`` and the
    one triple 0 + 1 = 1, which at the root forces f(0) = 1 - 1 = 0.  Once
    f(0) = 0, every sum 0 + a = a holds whatever f(a) is, so a zero sum could
    only ever be a check that never fails; none is scheduled.
    """
    n = E1.n
    table, down = E2.table, E1.order.down
    sub = tuple(map(E2.order.sub.__getitem__, range(E2.n)))     # read at tuple speed
    watch: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for t in ((0, n - 1, n - 1), *E1.nonzero_triples):
        for e in set(t):
            watch[e].append(t)
    order = sorted(range(n), key=lambda a: (down[a].bit_count(), a))
    known = [False] * n
    spent: set[tuple[int, int, int]] = set()      # triples already scheduled
    levels = []
    for e in (n - 1, *order):
        if known[e]:
            continue
        known[e] = True
        new, steps, checks = [e], [], []
        for x in new:                              # grows as steps force elements
            for t in watch[x]:
                i, j, k = t
                si, sj, sk = known[i], known[j], known[k]
                if t in spent or not (si and sj or sk and (si or sj)):
                    continue                       # a triple acts once two slots are set
                spent.add(t)
                if si and sj and sk:
                    checks.append(t)
                    continue
                step = ((k, table, i, j) if si and sj else
                        (j, sub, k, i) if si else (i, sub, k, j))
                steps.append(step)
                known[step[0]] = True
                new.append(step[0])
        levels.append((steps, checks, new))
    return levels


def homomorphisms(E1: FiniteEffectAlgebra, E2: FiniteEffectAlgebra,
                  injective: bool = False,
                  guard_nodes: int = 2_000_000) -> Iterator[tuple[int, ...]]:
    """Every map f with f(1) = 1 and f(i) + f(j) = f(k) on every sum triple of E1.

    Backtracking with forward checking (Haralick & Elliott 1980), compiled once
    per call by ``search_schedule``.  In a sum triple (i, j, k), an entry that
    occurs once is forced when the other two are set: f(k) = f(i) + f(j),
    f(i) = f(k) - f(j) or f(j) = f(k) - f(i); so i + i = k does not force i.
    Which entries are forced depends only on which elements are set, never on
    their images, so the search follows one schedule: a root level that sets
    f(1) = 1 and so f(0) = 0, then a level for each element still unset, in
    order of height.  A level runs its forced steps, then checks the triples
    it completes; each nonzero triple of E1 is one step or one check, and the
    zero sums 0 + a = a, which hold for every f with f(0) = 0, are neither.
    Each image tried for a level's element is one node against
    ``guard_nodes``; an undefined step, a failed check or, with ``injective``,
    a repeated image prunes it.  Deeper levels overwrite their entries before
    reading them, so backtracking undoes nothing.  Each map is yielded once.
    Each level is one nested generator frame, so a schedule that would not
    fit under the recursion limit, with ``SEARCH_HEADROOM`` frames left for
    the callers, raises ``GuardExceeded`` before the search starts; so does a
    map that takes the entries yielded, E1.n per map, past ``GUARD_MAP_ENTRIES``.
    Maps of E1 into itself are ``E1.endomorphism_type``, endomorphisms by construction.
    """
    n, m = E1.n, E2.n
    table = E2.table
    levels = search_schedule(E1, E2)
    if len(levels) > sys.getrecursionlimit() - SEARCH_HEADROOM:
        raise GuardExceeded(f"homomorphism search of {len(levels)} levels (recursion limit"
                            f" {sys.getrecursionlimit()}, {SEARCH_HEADROOM} frames kept)")
    last = len(levels) - 1
    img = [0] * n
    used: set[int] = set()
    nodes = entries = 0
    mint = E1.endomorphism_type if E1 is E2 else tuple

    def search(d: int) -> Iterator[tuple[int, ...]]:
        nonlocal nodes, entries
        steps, checks, new = levels[d]
        e = new[0]
        for v in range(m) if d else (m - 1,):
            if injective and v in used:
                continue
            if d:
                nodes += 1
                if nodes > guard_nodes:
                    raise GuardExceeded(f"homomorphism search guarded at {guard_nodes} nodes")
            img[e] = v
            for x, rows, a, b in steps:
                fx = rows[img[a]][img[b]]
                if fx is None:
                    break
                img[x] = fx
            else:
                for i, j, k in checks:
                    if table[img[i]][img[j]] != img[k]:
                        break
                else:
                    if injective:
                        images = set(map(img.__getitem__, new))
                        if len(images) < len(new) or not used.isdisjoint(images):
                            continue
                        used.update(images)
                    if d < last:
                        yield from search(d + 1)
                    else:
                        if (entries := entries + n) > GUARD_MAP_ENTRIES:
                            raise GuardExceeded(f"search past {GUARD_MAP_ENTRIES} map entries")
                        yield mint(img)
                    if injective:
                        used.difference_update(images)

    yield from search(0)


def is_homomorphism(E1: FiniteEffectAlgebra, E2: FiniteEffectAlgebra,
                    h: Sequence[int]) -> bool:
    """Is h a map of E1's indices into E2's, entries exactly ints, that keeps 0, 1
    and every defined sum?  It accepts exactly the maps that ``homomorphisms(E1, E2)``
    yields, those of type ``E1.endomorphism_type`` into E1 itself at once.  Given
    h(0) = 0 the zero sums 0 + a = a hold, so only ``E1.nonzero_triples`` are read."""
    if E1 is E2 and type(h) is E1.endomorphism_type:
        return True
    m = tuple(h)
    top = E2.n - 1
    if (len(m) != E1.n or {*map(type, m)} != {int} or m[0] != 0 or m[-1] != top
            or min(m) < 0 or max(m) > top):
        return False
    table = E2.table
    for i, j, k in E1.nonzero_triples:
        if table[m[i]][m[j]] != m[k]:
            return False
    return True


def preserves_existing_joins(E1: FiniteEffectAlgebra, E2: FiniteEffectAlgebra,
                             h: Sequence[int]) -> bool:
    """h(a v b) = h(a) v h(b) in E2 whenever a v b exists in E1, for h a map of
    E1's indices into E2's.  A homomorphism keeps complements, and a ^ b =
    (a' v b')', so one that keeps the existing joins keeps the meets too."""
    join1, join2 = E1.order.join, E2.order.join
    for a in range(E1.n):
        row, image_row = join1[a], join2[h[a]]
        for b in range(a, E1.n):
            j = row[b]
            if j is not None and image_row[h[b]] != h[j]:
                return False
    return True


def is_isomorphic(E1: FiniteEffectAlgebra, E2: FiniteEffectAlgebra) -> bool:
    """A one-to-one sum-preserving map between algebras with equally many
    elements and sums is onto both, so its inverse preserves sums too."""
    if E1.n != E2.n or len(E1.triples) != len(E2.triples):
        return False
    return next(homomorphisms(E1, E2, injective=True), None) is not None
