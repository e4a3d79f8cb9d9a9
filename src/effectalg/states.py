"""State polytopes of finite effect algebras, exactly.

A state assigns rational values s(a) in [0,1] with s(1) = 1 and s additive on
defined sums.  The solution set is a bounded polytope; its vertices are the
extremal states.  The layer works in integers from the sum table to the
polytope: sparse integer equality rows, an integer parametrization over one
denominator, integer halfspaces and rays, and integer vertices over their
least common denominator, which vertex lookup and the ordering report read.
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
from math import gcd, lcm
from operator import itemgetter, mul
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
    lcm of their h, each vertex is rebuilt in integers as
    ``s * den * L = c * L + (L / h) * (columns . t)`` and divided by the gcd of
    ``den * L`` and every coordinate, so that ``scale`` is the least common
    denominator.  An empty vertex list means the algebra admits no states at
    all.
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
    ints = []
    for ray in rays:
        k = L // ray[d]
        t = [k * x for x in ray[:d]]
        ints.append(tuple(ci * L + sum(map(mul, col, t)) for ci, col in zip(c, columns)))
    g = gcd(den * L, *(x for s in ints for x in s))
    int_vertices = tuple(sorted(tuple(x // g for x in s) for s in ints))
    return StatePolytope(size=n, int_vertices=int_vertices, scale=den * L // g, free_dim=d)


@dataclass(frozen=True)
class OrderingReport:
    order_determining: bool
    separating: bool
    od_witness: Optional[tuple]     # (a, b): statewise a <= b but not a <= b in E
    sep_witness: Optional[tuple]    # (a, b): a != b with identical state values


def _order_report(values: Sequence[tuple], leq: Callable[[int, int], bool]) -> OrderingReport:
    """Order determination and separation from each element's state values.

    ``values[a]`` lists element a's value at every state; ``leq(a, b)`` is the
    order on element indices.  A pair ordered in the algebra but not by some
    state means the "states" are not states, so it raises.
    """
    od_w = None
    sep_w = None
    for a, va in enumerate(values):
        for b, vb in enumerate(values):
            statewise = all(x <= y for x, y in zip(va, vb))
            actual = leq(a, b)
            if statewise and not actual and od_w is None:
                od_w = (a, b)
            if actual and not statewise:
                raise AssertionError(f"states fail monotonicity at ({a}, {b})")
            if a < b and sep_w is None and va == vb:
                sep_w = (a, b)
    return OrderingReport(order_determining=od_w is None, separating=sep_w is None,
                          od_witness=od_w, sep_witness=sep_w)


def is_order_determining(E: FiniteEffectAlgebra, P: StatePolytope) -> OrderingReport:
    """Does a <= b hold exactly when s(a) <= s(b) for every extremal state?

    Vertices suffice: every state is a convex combination of them.  Also reports
    the weaker separation property (equal under all states implies equal), which
    order determination implies: equal value vectors give a <= b <= a, so a = b.
    This is the one test of whether a |-> a-hat is an order embedding.  The
    values are read from ``P.int_vertices``: scaling every vertex by the same
    positive ``P.scale`` keeps every comparison.
    """
    leq = E.order.leq
    values = [tuple(iv[a] for iv in P.int_vertices) for a in range(E.n)]
    return _order_report(values, lambda a, b: leq[a][b])


def sampled_order_report(elements: Sequence, state_fns: Sequence[Callable],
                         leq_fn: Callable) -> OrderingReport:
    """Order-determination on a caller-supplied element list with closed-form states.

    Used for interval algebras that cannot be materialized; ``elements`` are
    ambient values, ``state_fns`` evaluate states on them, ``leq_fn`` is the
    ambient order.  Witnesses are index pairs into ``elements``.
    """
    values = [tuple(s(a) for s in state_fns) for a in elements]
    return _order_report(values, lambda i, j: leq_fn(elements[i], elements[j]))


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
