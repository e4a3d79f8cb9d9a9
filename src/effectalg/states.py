"""State polytopes of finite effect algebras, exactly.

A state assigns rational values s(a) in [0,1] with s(1) = 1 and s additive on
defined sums.  The solution set is a bounded polytope; its vertices are the
extremal states.  ``compute_states`` walks the algebra's decomposition tree
(``core.decompose``): a horizontal sum's state space is the product of its
summands', and a central product's extremal states are the union of its
factors', lifted.  A finite RDP algebra is a product of chains, each with one
state, so its state space is a simplex: the finite case of the paper's duality
between RDP effect algebras and Bauer simplices.  Chains are read in closed
form; only other leaves go through elimination and double description.  The
layer works in integers from the sum table to the polytope: sparse integer
equality rows, an integer parametrization over one denominator, integer
halfspaces and rays, and integer vertices over their least common
denominator, rebuilt and assembled one coordinate for all vertices at a time,
which vertex lookup and the ordering report read; the report works on bitmasks,
over the elements or, when there are more vertices than elements, over them.
Fractions appear only where state values leave the layer or enter it:
``P.vertices``, ``vertex_index``, ``is_state`` and the clan-closure engine;
the discrete profiles are read in integers (``P.denominators``).  Floating
point is forbidden here because vertex dedup and value-set tests need
decidable equality.  On top of the polytope sit the ordering report (order
determination and separation) and the clan-closure test of the evaluation
image a |-> a-hat.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, compress, repeat
from math import gcd, lcm, prod
from operator import add, and_, itemgetter, le, mul
from typing import Callable, NamedTuple, Optional, Sequence

from .core import FiniteEffectAlgebra, GuardExceeded, Node, decompose
from .linalg import ONE, Vec, affine_parametrization
from .polytope import dd_vertices

GUARD_VERTICES = 2 ** 16


@dataclass(frozen=True)
class StatePolytope:
    """Exact state polytope: the vertices as integer tuples over one common
    denominator, sorted lexicographically, plus shape data.

    ``scale`` is the least common denominator of the vertex coordinates, so
    vertex k is ``int_vertices[k] / scale``.  The only code that knows how
    vertices are looked up: it indexes the integer tuples, so finding the
    vertex equal to a state is one exact dict lookup.
    """

    size: int                      # ambient dimension = |E|
    int_vertices: tuple[tuple[int, ...], ...]
    scale: int
    free_dim: int

    @property
    def empty(self) -> bool:
        return not self.int_vertices

    @cached_property
    def vertices(self) -> tuple[Vec, ...]:
        """The vertices as Fraction tuples, built on first read."""
        scale = self.scale
        return tuple(tuple(Fraction(x, scale) for x in v) for v in self.int_vertices)

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {iv: i for i, iv in enumerate(self.int_vertices)}

    def vertex_index(self, vec: Sequence[Fraction]) -> Optional[int]:
        """Index of the vertex equal to ``vec``, or None.

        An integral Fraction hashes and compares equal to its int, so the scaled
        vector finds its integer key exactly when it is a vertex.
        """
        scale = self.scale
        return self._index.get(tuple(x * scale for x in vec))

    def vertex_map(self, mapping: Sequence[int]) -> Optional[tuple[int, ...]]:
        """For every vertex s, the index of the vertex s o mapping; None when some
        s o mapping is not a vertex.  A one-index ``itemgetter`` returns a scalar,
        which misses as the 1-tuple would: the algebra whose 0 is its 1 has no
        states, so every key has ``size`` >= 2 entries."""
        out = tuple(map(self._index.get, map(itemgetter(*mapping), self.int_vertices)))
        return None if None in out else out

    @property
    def denominators(self) -> tuple[int, ...]:
        """For every vertex, the least n with each value in {0, 1/n, ..., n/n}."""
        scale = self.scale
        return tuple(scale // gcd(scale, *iv) for iv in self.int_vertices)


def state_equalities(E: FiniteEffectAlgebra):
    """Equality system (rows, rhs) over s_0..s_{n-1} defining states.

    Each row is a sparse integer dict ``{column: coefficient}`` and each
    right-hand side an int: s_0 = 0, s_{n-1} = 1, then s_i + s_j - s_k = 0 for
    every defined sum i + j = k.  No row is zero: k has coefficient -1 unless
    k is i or j, and then the other index keeps +1.
    """
    rows = [{0: 1}, {E.n - 1: 1}]
    for i, j, k in E.triples:
        row = {i: 2} if i == j else {i: 1, j: 1}
        row[k] = row.get(k, 0) - 1
        rows.append(row if row[k] else {c: x for c, x in row.items() if x})
    return rows, [0, 1] + [0] * len(E.triples)


def is_state(E: FiniteEffectAlgebra, vec: Sequence[Fraction]) -> bool:
    """Direct check of the state conditions against the sum table."""
    if len(vec) != E.n:
        return False
    if any(x < 0 or x > 1 for x in vec):
        return False
    if vec[0] != 0 or vec[E.n - 1] != 1:
        return False
    return all(vec[i] + vec[j] == vec[k] for i, j, k in E.triples)


def compute_states(E: FiniteEffectAlgebra) -> StatePolytope:
    """Enumerate all extremal states, part by part.

    The parts are the leaves of E's tree (``core.decompose``, read through
    ``E.verdict``), split at central elements c as [0, c] x [0, c'] (Greechie,
    Foulis & Pulmannova, 1995) and at horizontal sums.  A chain leaf chain(d)
    has one state, x |-> rank(x) / d, read in closed form; elimination and
    double description run only on the other leaves (``_part_polytope``).  The
    pieces assemble in integers over the lcm of their scales, the least common
    denominator again:

    * a state of a horizontal sum is a state on each block, chosen freely, so
      the vertices are the products of the blocks' vertices and ``free_dim``
      is the sum of theirs;
    * a state of [0, c] x [0, c'] is a convex combination of one state on each
      factor, so the vertices are the union of the factors' vertices lifted by
      s(x) = t(x ^ c), and ``free_dim`` is the sum of theirs plus one.

    An RDP algebra is a product of chains (Dvurecenskij & Pulmannova, 2000),
    each with one state, so its state space is a simplex: the finite case of
    the paper's duality between RDP effect algebras and Bauer simplices.  If
    some part has no states the whole algebra is run as one part, which keeps
    the free dimension of its (empty) polytope.  An assembled vertex count
    above ``GUARD_VERTICES`` raises ``GuardExceeded`` before it is built;
    ``GUARD_DIM`` applies to each part.
    """
    P = _tree_polytope(E, E.verdict(decompose))
    return _part_polytope(E) if P is None else P


class _Part(NamedTuple):
    """A leaf as elimination reads it: ``n`` indices, 0 first and the leaf's
    unit last, and its sum triples over them."""

    n: int
    triples: list[tuple[int, int, int]]


def _tree_polytope(E: FiniteEffectAlgebra, node: Node) -> Optional[StatePolytope]:
    """The polytope of a node of E's tree over the positions of its members, or
    None when a part below has no states.  A node's order and sums are E's.  A
    "chain" leaf of m >= 2 members has one state, x |-> rank(x) / (m - 1): below
    its unit the leaf is closed downward, so rank(x) = |down(x)| - 1, and the
    unit gets m - 1, as a sum block's unit is E's, whose down-set is all of E.
    The one-element algebra (m = 1), whose 0 is its unit, has no states; it is
    left to elimination, which returns its empty polytope."""
    members, m = node.members, len(node.members)
    if node.kind == "chain" and m > 1:
        ranks = (E.order.down[x].bit_count() - 1 for x in members[:-1])
        return StatePolytope(size=m, int_vertices=((*ranks, m - 1),), scale=m - 1, free_dim=0)
    if not node.children:
        if len(members) < E.n:
            local = {x: i for i, x in enumerate(members)}
            E = _Part(len(members), [(local[i], local[j], local[k]) for i, j, k in E.triples
                                     if i in local and j in local])
        return _part_polytope(E)
    parts = [(child.members, _tree_polytope(E, child)) for child in node.children]
    if any(P is None or P.empty for _m, P in parts):
        return None
    if node.kind == "sum":
        return _sum_polytope(members, parts)
    return _product_polytope(E, members, parts)


def _guard_vertices(count: int) -> None:
    if count > GUARD_VERTICES:
        raise GuardExceeded(f"state polytope guarded at {GUARD_VERTICES} vertices")


def _sum_polytope(members: Sequence[int], parts) -> StatePolytope:
    """Every choice of one vertex per block, built a column at a time, the last block
    fastest: block b's vertex index is (r // inner) % N_b at row r, ``inner`` the
    product of the later blocks' counts, so contiguous blocks come out sorted."""
    L = lcm(*(P.scale for _m, P in parts))
    total = prod(len(P.int_vertices) for _m, P in parts)
    _guard_vertices(total)
    cols = {members[0]: [0] * total, members[-1]: [L] * total}
    inner = 1
    for m, P in reversed(parts):
        count, k = len(P.int_vertices), L // P.scale
        for x, col in zip(m[1:-1], list(zip(*P.int_vertices))[1:-1]):
            runs = chain.from_iterable(map(repeat, [k * v for v in col], repeat(inner)))
            cols[x] = list(runs) * (total // (count * inner))
        inner *= count
    return StatePolytope(size=len(members),
                         int_vertices=tuple(sorted(zip(*map(cols.__getitem__, members)))),
                         scale=L, free_dim=sum(P.free_dim for _m, P in parts))


def _product_polytope(E: FiniteEffectAlgebra, members: Sequence[int], factors) -> StatePolytope:
    """The vertices of each factor [0, a], a its unit, lifted by s(x) = t(x ^ a):
    column x is the first factor's column at x ^ c followed by the second's at x ^ c'."""
    L = lcm(*(P.scale for _m, P in factors))
    _guard_vertices(sum(len(P.int_vertices) for _m, P in factors))
    lifts = []
    for m, P in factors:
        k = L // P.scale
        col = dict(zip(m, ([k * v for v in vs] for vs in zip(*P.int_vertices))))
        lifts.append(map(col.__getitem__, map(E.order.meet[m[-1]].__getitem__, members)))
    return StatePolytope(size=len(members),
                         int_vertices=tuple(sorted(zip(*map(add, *lifts)))),
                         scale=L, free_dim=sum(P.free_dim for _m, P in factors) + 1)


def _part_polytope(E) -> StatePolytope:
    """Elimination and double description on one part, or on a whole algebra:
    anything with ``n`` and ``triples``.

    Sparse elimination reduces the integer equalities to the integer affine
    parametrization ``den * s_i = c[i] + columns[i] . t``; the box constraints
    0 <= s_i <= 1 become integer halfspaces in the free variables, and double
    description returns the t-vertices as primitive rays ``(t, h)``.  With L the
    lcm of their h, coordinate i of every vertex is rebuilt at once in integers,
    ``s_i * den * L = c_i * L + sum_j a_ij * (L / h) * t_j`` over the nonzero
    ``a_ij = columns[i][j]``, then divided by the gcd of ``den * L`` and every
    coordinate when it exceeds 1, so that ``scale`` is the least common
    denominator.  A constant coordinate gives rows without coefficients, which
    double description drops, or answers with no vertices when one is
    infeasible.  An empty vertex list means the part admits no states.
    """
    n = E.n
    eq_rows, eq_rhs = state_equalities(E)
    param = affine_parametrization(eq_rows, eq_rhs, n)
    if param is None:
        return StatePolytope(size=n, int_vertices=(), scale=1, free_dim=0)
    c, free, columns, den = param
    d = len(free)
    rows = []
    for col, ci in zip(columns, c):
        rows.append((col, -ci))                          # s_i >= 0
        rows.append(([-x for x in col], ci - den))       # s_i <= 1
    rays = dd_vertices(rows, d)
    L = lcm(*(ray[d] for ray in rays))
    ks = [L // ray[d] for ray in rays]
    kt = [list(map(mul, ks, map(itemgetter(j), rays))) for j in range(d)]
    coords = []
    for ci, col in zip(c, columns):
        v = [ci * L] * len(rays)
        for a, ktj in compress(zip(col, kt), col):
            v = map(add, v, map(mul, ktj, repeat(a)))
        coords.append(list(v))
    g = gcd(den * L, *map(gcd, *coords))
    if g > 1:
        coords = [[x // g for x in v] for v in coords]
    return StatePolytope(size=n, int_vertices=tuple(sorted(zip(*coords))),
                         scale=den * L // g, free_dim=d)


@dataclass(frozen=True)
class OrderingReport:
    order_determining: bool
    separating: bool
    od_witness: Optional[tuple]     # (a, b): statewise a <= b but not a <= b in E
    sep_witness: Optional[tuple]    # (a, b): a != b with identical state values


def _first_pair(masks: Sequence[int]) -> Optional[tuple]:
    """The least (a, b) with bit a set in ``masks[b]``, first in row-major order, or None."""
    return min((((m & -m).bit_length() - 1, b) for b, m in enumerate(masks) if m), default=None)


def _below_by_rows(states: Sequence[tuple], n: int) -> list[int]:
    """The statewise down-sets, a state at a time: bit a of ``below[b]`` is set
    iff ``states[s][a] <= states[s][b]`` at every state s.  At each state,
    element b gets the mask of the elements whose value is at most its own,
    and the masks are ANDed over the states: about V * n steps for V states."""
    bits = [1 << a for a in range(n)]
    every = sum(bits)
    below = [every] * n
    for vals in states:
        high = max(vals, default=None)          # every element is at most the greatest
        at_most = {x: sum(compress(bits, map(le, vals, repeat(x))))
                   for x in set(vals) if x != high}
        at_most[high] = every
        below = list(map(and_, below, map(at_most.__getitem__, vals)))
    return below


def _below_by_columns(states: Sequence[tuple], n: int) -> list[int]:
    """The statewise down-sets of ``_below_by_rows``, an element at a time, for
    int values in 0..255.  Element a's column is ``bytes``; for each value t
    above the least, ``translate`` marks U_t(a) = {s : s(a) >= t} as a mask
    over the states, and a is statewise below b iff U_t(a) lies in U_t(b) for
    every such t: a state with s(a) > s(b) lies in U_t(a) but not in U_t(b)
    for t = s(a).  Elements with equal masks are grouped, so each threshold
    costs at most about n^2 subset tests, however many states there are."""
    below = [(1 << n) - 1] * n
    cols = [bytes(col) for col in zip(*states)]
    for t in sorted(set(b"".join(cols)))[1:]:
        table = bytes(x >= t for x in range(256))
        ups = [int.from_bytes(col.translate(table), "little") for col in cols]
        groups: dict[int, int] = {}
        for a, u in enumerate(ups):
            groups[u] = groups.get(u, 0) | 1 << a
        inside = {ub: sum(m for u, m in groups.items() if u & ub == u) for ub in groups}
        below = list(map(and_, below, map(inside.__getitem__, ups)))
    return below


def _order_report(below: Sequence[int], down: Sequence[int]) -> OrderingReport:
    """Order determination and separation from the statewise down-sets.

    Bit a of ``below[b]`` is set iff s(a) <= s(b) at every state, bit a of
    ``down[b]`` iff a <= b.  Each ``below[b]`` against ``down[b]`` gives order
    determination and its first witness in row-major order.  a and b have equal
    values exactly when their statewise down-sets are equal, as each lies in
    its own; the separation witness is the least such pair, found by grouping
    the elements by down-set.  A pair ordered in the algebra but not by some
    state means the "states" are not states, so it raises.  Both orientations,
    ``_below_by_rows`` and ``_below_by_columns``, end here, so their witnesses
    and messages are the same.
    """
    bad = _first_pair([d & ~s for d, s in zip(down, below)])
    if bad:
        raise AssertionError(f"states fail monotonicity at {bad}")
    od_w = _first_pair([s & ~d for s, d in zip(below, down)])
    first: dict[int, int] = {}
    sep_w = min(((first[s], b) for b, s in enumerate(below) if first.setdefault(s, b) != b),
                default=None)
    return OrderingReport(order_determining=od_w is None, separating=sep_w is None,
                          od_witness=od_w, sep_witness=sep_w)


def is_order_determining(E: FiniteEffectAlgebra, P: StatePolytope) -> OrderingReport:
    """Does a <= b hold exactly when s(a) <= s(b) for every extremal state?

    Vertices suffice: every state is a convex combination of them.  Also reports
    the weaker separation property (equal under all states implies equal), which
    order determination implies: equal value vectors give a <= b <= a, so a = b.
    This is the one test of whether a |-> a-hat is an order embedding.  Each
    vertex of ``P.int_vertices`` is one state's values, read against the
    down-sets ``E.order.down``: scaling by ``P.scale`` keeps every comparison.

    The statewise down-sets are read in one of two orientations: by rows, a
    vertex at a time, in about V * n steps for V vertices and n elements; or by
    columns, an element at a time over vertex masks, in about n^2 steps per
    value above 0, whatever V is.  Columns win once V exceeds n (on
    horizontal sums V is the product of the blocks' counts) and lose badly
    below it (chain(48), V = 1, or boolean(10), V = 10 and n = 1,024), so the
    columns are read exactly when V > n and every value fits in a byte,
    ``P.scale < 256``.  The rule reads only the input's shape, and both routes
    give the same report, so it is not a setting a caller could get wrong.
    """
    V, n = P.int_vertices, E.n
    below = (_below_by_columns if len(V) > n and P.scale < 256 else _below_by_rows)(V, n)
    return _order_report(below, E.order.down)


def sampled_order_report(elements: Sequence, state_fns: Sequence[Callable],
                         leq_fn: Callable) -> OrderingReport:
    """Order-determination on a caller-supplied element list with closed-form states.

    Used for interval algebras that cannot be materialized; ``elements`` are
    ambient values, ``state_fns`` evaluate states on them, ``leq_fn`` is the
    ambient order, tabulated as down-sets for the bitmask report of
    ``is_order_determining``.  Witnesses are index pairs into ``elements``.
    The values may be Fractions or ambient numbers of any size, which no byte
    holds, so the statewise down-sets are always read by rows.
    """
    down = [sum(1 << a for a, x in enumerate(elements) if leq_fn(x, y)) for y in elements]
    return _order_report(_below_by_rows([tuple(map(s, elements)) for s in state_fns],
                                        len(down)), down)


@dataclass(frozen=True)
class ClanWitness:
    kind: str                     # "sum" or "complement"
    f_index: int
    g_index: Optional[int]
    target: Vec                   # required pointwise values, per state
    candidate: Optional[tuple]    # ambient preimage that fails membership, if any


def clan_closure_witness(hat_vectors: Sequence[Vec],
                         preimage: Callable[[Vec], Optional[tuple]],
                         contains: Callable[[tuple], bool]) -> Optional[ClanWitness]:
    """Check closure of a family of state-value functions under complement and sum.

    ``hat_vectors[i]`` lists element i's values at each extremal state.  A sum
    f + g is required whenever f <= 1 - g pointwise; the ambient ``preimage``
    solver proposes the unique candidate realizing a target value vector and
    ``contains`` tests ambient membership.  Returns None when closed, else the
    first failure.
    """
    m = len(hat_vectors[0]) if hat_vectors else 0
    ones = tuple(ONE for _ in range(m))
    for i, f in enumerate(hat_vectors):
        target = tuple(o - x for o, x in zip(ones, f))
        cand = preimage(target)
        if cand is None or not contains(cand):
            return ClanWitness("complement", i, None, target, cand)
    for i, f in enumerate(hat_vectors):
        for j, g in enumerate(hat_vectors):
            if all(x <= o - y for x, y, o in zip(f, g, ones)):
                target = tuple(x + y for x, y in zip(f, g))
                cand = preimage(target)
                if cand is None or not contains(cand):
                    return ClanWitness("sum", i, j, target, cand)
    return None


def finite_clan_engine(E: FiniteEffectAlgebra, P: StatePolytope):
    """hat-vectors plus exhaustive preimage search inside a finite algebra."""
    vectors = tuple(tuple(v[a] for v in P.vertices) for a in range(E.n))

    def preimage(target):
        for a, v in enumerate(vectors):
            if v == target:
                return (a,)
        return None

    def contains(cand):
        return cand is not None

    return vectors, preimage, contains
