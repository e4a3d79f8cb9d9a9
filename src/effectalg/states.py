"""State polytopes of finite effect algebras, exactly.

A state assigns rational values s(a) in [0,1] with s(1) = 1 and s additive on
defined sums.  The solution set is a bounded polytope; its vertices are the
extremal states.  The layer works in integers from the sum table to the
polytope: sparse integer equality rows, an integer parametrization over one
denominator, integer halfspaces and rays, and integer vertices over their least
common denominator, rebuilt one coordinate for all vertices at a time, which
vertex lookup and the ordering report read; the report works on bitmasks.
Fractions appear only where state values leave the layer or enter it:
``P.vertices``, ``vertex_index``, ``discrete_profile`` and the clan-closure
engine.  Floating point is forbidden here because vertex dedup and value-set
tests need decidable equality.  On top of the polytope sit the ordering report
(order determination and separation), discrete profiles, and the clan-closure
test of the evaluation image a |-> a-hat.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import add, and_, ge, itemgetter, mul
from typing import Callable, Optional, Sequence

from .core import FiniteEffectAlgebra
from .linalg import ONE, Vec, affine_parametrization
from .polytope import dd_vertices


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


def state_equalities(E: FiniteEffectAlgebra):
    """Equality system (rows, rhs) over s_0..s_{n-1} defining states.

    Each row is a sparse integer dict ``{column: coefficient}`` and each
    right-hand side an int: s_0 = 0, s_{n-1} = 1, then s_i + s_j - s_k = 0 for
    every defined sum i + j = k.  No row is zero: k has coefficient -1 unless
    k is i or j, and then the other index keeps +1.
    """
    rows = [{0: 1}, {E.n - 1: 1}]
    for i, j, k in E.triples:
        row = Counter((i, j))
        row[k] -= 1
        rows.append({c: x for c, x in row.items() if x})
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
    """Enumerate all extremal states.

    Sparse elimination reduces the integer equalities to the integer affine
    parametrization ``den * s_i = c[i] + columns[i] . t``; the box constraints
    0 <= s_i <= 1 become integer halfspaces in the free variables, and double
    description returns the t-vertices as primitive rays ``(t, h)``.  With L the
    lcm of their h, coordinate i of every vertex is rebuilt at once in integers,
    ``s_i * den * L = c_i * L + sum_j a_ij * (L / h) * t_j`` over the nonzero
    ``a_ij = columns[i][j]``, then divided by the gcd of ``den * L`` and every
    coordinate when it exceeds 1, so that ``scale`` is the least common
    denominator.  An empty vertex list means the algebra admits no states.
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
        if any(col):
            rows.append((col, -ci))                          # s_i >= 0
            rows.append(([-x for x in col], ci - den))       # s_i <= 1
        elif ci < 0 or ci > den:
            return StatePolytope(size=n, int_vertices=(), scale=1, free_dim=d)

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
    """The first (a, b) in row-major order with bit b set in ``masks[a]``, or None."""
    return next(((a, (m & -m).bit_length() - 1) for a, m in enumerate(masks) if m), None)


def _order_report(states: Sequence[tuple], leq: Sequence[Sequence[bool]]) -> OrderingReport:
    """Order determination and separation from each state's values, on bitmasks.

    ``states[s][a]`` is element a's value at state s; ``leq[a][b]`` is the order
    on element indices.  At each state, element a gets the mask of the elements
    whose value is at least its own; ANDed over the states, these are the
    statewise up-sets.  Each one against its ``leq`` row gives order
    determination and its first witness in row-major order; a and b have equal
    values where each lies in the other's up-set.  A pair ordered in the algebra
    but not by some state means the "states" are not states, so it raises.
    """
    bits = [1 << a for a in range(len(leq))]
    up = [sum(bits)] * len(bits)
    for vals in states:
        at_least = {x: sum(compress(bits, map(ge, vals, repeat(x)))) for x in set(vals)}
        up = list(map(and_, up, map(at_least.__getitem__, vals)))
    rows = [sum(compress(bits, row)) for row in leq]
    bad = _first_pair([r & ~u for r, u in zip(rows, up)])
    if bad:
        raise AssertionError(f"states fail monotonicity at {bad}")
    od_w = _first_pair([u & ~r for u, r in zip(up, rows)])
    sep_w = next(((a, b) for a, u in enumerate(up) for b in range(a + 1, len(up))
                  if u >> b & 1 and up[b] >> a & 1), None)
    return OrderingReport(order_determining=od_w is None, separating=sep_w is None,
                          od_witness=od_w, sep_witness=sep_w)


def is_order_determining(E: FiniteEffectAlgebra, P: StatePolytope) -> OrderingReport:
    """Does a <= b hold exactly when s(a) <= s(b) for every extremal state?

    Vertices suffice: every state is a convex combination of them.  Also reports
    the weaker separation property (equal under all states implies equal), which
    order determination implies: equal value vectors give a <= b <= a, so a = b.
    This is the one test of whether a |-> a-hat is an order embedding.  Each
    vertex of ``P.int_vertices`` is one state's values, read against the rows of
    ``E.order.leq``: scaling by ``P.scale`` keeps every comparison.
    """
    return _order_report(P.int_vertices, E.order.leq)


def sampled_order_report(elements: Sequence, state_fns: Sequence[Callable],
                         leq_fn: Callable) -> OrderingReport:
    """Order-determination on a caller-supplied element list with closed-form states.

    Used for interval algebras that cannot be materialized; ``elements`` are
    ambient values, ``state_fns`` evaluate states on them, ``leq_fn`` is the
    ambient order, tabulated on every ordered pair for the bitmask report of
    ``is_order_determining``.  Witnesses are index pairs into ``elements``.
    """
    states = [tuple(map(s, elements)) for s in state_fns]
    return _order_report(states, [[leq_fn(x, y) for y in elements] for x in elements])


def discrete_profile(vec: Sequence[Fraction]) -> int:
    """Least n with every value in {0, 1/n, ..., n/n}: the lcm of the denominators."""
    out = 1
    for x in vec:
        out = lcm(out, Fraction(x).denominator)
    return out


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
