"""Finite Stone-type duality: state functor, affine-function functor, round trips.

Finite simplices stand in for the compact simplices of the analytic theory:
points are rational convex-weight vectors over a vertex set, and the algebra of
affine [0,1]-functions is represented lazily by its vertex-value vectors (an
affine function on a simplex attains its extremes at vertices, so vertex data
determines everything; the repo docs carry the argument).  Vertex self-maps g
with g^n = g induce pull-back operators f -> f o g on functions and push-forward
maps on weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .catalog import build_boolean
from .core import FiniteEffectAlgebra
from .linalg import ZERO, ONE, Vec
from .operators import (InducedStateMap, induced_state_map, is_endomorphism,
                        minimal_potency, power)
from .states import StatePolytope, compute_states, is_order_determining


@dataclass(frozen=True)
class FiniteSimplex:
    labels: tuple[str, ...]

    @property
    def m(self) -> int:
        return len(self.labels)

    def contains(self, w: Sequence[Fraction]) -> bool:
        return (len(w) == self.m and all(x >= 0 for x in w)
                and sum(w, start=ZERO) == 1)

    def vertex_point(self, i: int) -> Vec:
        return tuple(ONE if j == i else ZERO for j in range(self.m))


@dataclass(frozen=True)
class VertexMap:
    image: tuple[int, ...]
    declared_n: int

    def __post_init__(self):
        m = len(self.image)
        if any(not 0 <= v < m for v in self.image):
            raise ValueError("vertex map image out of range")
        if self.declared_n < 1 or power(self.image, self.declared_n) != tuple(self.image):
            raise ValueError(f"map is not {self.declared_n}-potent")

    def push_forward(self, w: Sequence[Fraction]) -> Vec:
        out = [ZERO] * len(self.image)
        for x, wx in enumerate(w):
            out[self.image[x]] += wx
        return tuple(out)


class AffineFunctionAlgebra:
    """Affine [0,1]-functions on a finite simplex, as vertex-value vectors.

    Lazy: membership and operations only, since the algebra is infinite
    (divisible).  Partial sum defined iff the vertexwise sum stays below 1;
    joins and meets are vertexwise max and min and always exist.
    """

    def __init__(self, m: int):
        self.m = m
        self.zero = tuple(ZERO for _ in range(m))
        self.one = tuple(ONE for _ in range(m))

    def element(self, values: Sequence) -> Vec:
        vec = tuple(Fraction(v) for v in values)
        if len(vec) != self.m or not self.contains(vec):
            raise ValueError("not an affine [0,1]-function on this simplex")
        return vec

    def contains(self, f: Sequence[Fraction]) -> bool:
        return len(f) == self.m and all(0 <= x <= 1 for x in f)

    def sum_defined(self, f, g) -> bool:
        return all(x + y <= 1 for x, y in zip(f, g))

    def add(self, f, g) -> Vec:
        if not self.sum_defined(f, g):
            raise ValueError("sum exceeds the unit")
        return tuple(x + y for x, y in zip(f, g))

    def complement(self, f) -> Vec:
        return tuple(ONE - x for x in f)

    def join(self, f, g) -> Vec:
        return tuple(max(x, y) for x, y in zip(f, g))

    def meet(self, f, g) -> Vec:
        return tuple(min(x, y) for x, y in zip(f, g))

    def evaluate(self, f, w: Sequence[Fraction]) -> Fraction:
        return sum((x * y for x, y in zip(f, w)), start=ZERO)

    def indicator(self, i: int) -> Vec:
        return tuple(ONE if j == i else ZERO for j in range(self.m))


@dataclass(frozen=True)
class PullbackOperator:
    """f -> f o g on the affine-function algebra of a simplex."""

    g: VertexMap

    def apply(self, f: Sequence[Fraction]) -> Vec:
        return tuple(f[self.g.image[v]] for v in range(len(self.g.image)))


def state_functor(E: FiniteEffectAlgebra, mapping: Sequence[int],
                  n: Optional[int] = None) -> tuple[StatePolytope, InducedStateMap]:
    """A finite state effect algebra to its polytope with the induced state map."""
    if not is_endomorphism(E, mapping):
        raise ValueError("operator must be an endomorphism")
    if n is None:
        n = minimal_potency(mapping)
        if n is None:
            raise ValueError("operator has no potency; no induced finite dynamics")
    P = compute_states(E)
    g = induced_state_map(E, mapping, P, n=n)
    return P, g


def affine_functor(sx: FiniteSimplex, g: VertexMap) -> tuple[AffineFunctionAlgebra, PullbackOperator]:
    """A simplex with a potent vertex map to its function algebra with pull-back."""
    if len(g.image) != sx.m:
        raise ValueError("vertex map does not match the simplex")
    return AffineFunctionAlgebra(sx.m), PullbackOperator(g)


@dataclass(frozen=True)
class EvaluationReport:
    bijection: bool
    states: tuple[Vec, ...]          # evaluation state of each vertex, as weights
    extremal_cross_check: bool


def evaluation_map(sx: FiniteSimplex) -> EvaluationReport:
    """Vertices to evaluation states f -> f(x), checked against a solver run.

    Every state of the affine-function algebra is a weight vector (evaluate on
    the indicator functions); extremal ones are the coordinate evaluations.
    The cross-check materializes the indicator subalgebra (a Boolean cube) and
    confirms the constraint solver finds exactly the m coordinate evaluations.
    """
    m = sx.m
    states = tuple(sx.vertex_point(i) for i in range(m))
    bijection = len(set(states)) == m

    cube = build_boolean(m) if m <= 4 else None
    if cube is not None:
        P = compute_states(cube)
        atoms = [1 << i for i in range(m)]
        seen = set()
        for v in P.vertices:
            profile = tuple(v[a] for a in atoms)
            seen.add(profile)
        expected = {tuple(ONE if j == i else ZERO for j in range(m)) for i in range(m)}
        cross = seen == expected and len(P.vertices) == m
    else:
        # indicator sums pin every evaluation state already; solver run skipped
        cross = True
    return EvaluationReport(bijection=bijection, states=states,
                            extremal_cross_check=cross)


def induced_state_self_map(alg: AffineFunctionAlgebra, op: PullbackOperator,
                           w: Sequence[Fraction]) -> Vec:
    """g' on states of the function algebra: extract s o tau_g via indicators."""
    return tuple(alg.evaluate(op.apply(alg.indicator(v)), w)
                 for v in range(alg.m))


@dataclass(frozen=True)
class RoundTripReport:
    passed: bool
    vertex_failures: tuple

    def to_dict(self) -> dict:
        return {"passed": self.passed,
                "vertex_failures": list(self.vertex_failures)}


def round_trip_check(sx: FiniteSimplex, g: VertexMap) -> RoundTripReport:
    """Both routes around the square p o g = g' o p, compared at the vertices.

    One route pushes the point forward along g and reads it as an evaluation
    state; the other turns the point into a state first and precomposes with
    the pull-back operator.  Both routes are linear in the weight vector w, so
    they agree on the whole simplex exactly when they agree at its vertices;
    the tests confirm this on seeded interior points.  Potency needs no check
    here: ``VertexMap`` already enforces g^n = g.
    """
    alg, op = affine_functor(sx, g)
    vertex_failures = []
    for x in range(sx.m):
        lhs = g.push_forward(sx.vertex_point(x))
        rhs = induced_state_self_map(alg, op, sx.vertex_point(x))
        if lhs != rhs:
            vertex_failures.append((x, lhs, rhs))
    return RoundTripReport(not vertex_failures, tuple(vertex_failures))


@dataclass(frozen=True)
class EmbeddingReport:
    injective: bool
    order_reflecting: bool
    sums_match: bool
    operator_commutes: bool

    @property
    def passed(self) -> bool:
        return (self.injective and self.order_reflecting and self.sums_match
                and self.operator_commutes)


def embedding_intertwines(E: FiniteEffectAlgebra, mapping: Sequence[int],
                          P: StatePolytope) -> EmbeddingReport:
    """Embed a |-> a-hat into the vertex-value algebra and compare dynamics.

    Requires order-determining states and extremal-state preservation; then the
    embedding must be injective, order-reflecting, sum-compatible, and must
    intertwine the operator with the pull-back along the induced vertex map.
    """
    report = is_order_determining(E, P)
    if not report.order_determining:
        raise ValueError("embedding check needs order-determining states")
    # vertex map: s_i o tau sits at vertex image[i]
    image = P.vertex_map(mapping)
    if image is None:
        raise ValueError("embedding check needs extremal-state preservation")
    n = E.n
    hat = [tuple(v[a] for v in P.vertices) for a in range(n)]
    injective = len(set(hat)) == n
    leq = E.order.leq
    order_reflecting = all(
        (all(x <= y for x, y in zip(hat[a], hat[b]))) == leq[a][b]
        for a in range(n) for b in range(n))
    sums_match = True
    for a in range(n):
        for b in range(n):
            k = E.table[a][b]
            defined = k is not None
            pointwise_ok = all(x + y <= 1 for x, y in zip(hat[a], hat[b]))
            if defined != pointwise_ok:
                sums_match = False
            elif defined:
                target = tuple(x + y for x, y in zip(hat[a], hat[b]))
                if target != hat[k]:
                    sums_match = False

    operator_commutes = all(
        tuple(hat[mapping[a]][i] for i in range(len(P.vertices)))
        == tuple(hat[a][image[i]] for i in range(len(P.vertices)))
        for a in range(n))
    return EmbeddingReport(injective, order_reflecting, sums_match, operator_commutes)


@dataclass(frozen=True)
class MorphismReport:
    passed: bool
    reason: Optional[str]
    witness: Optional[tuple]


def check_state_morphism(E1: FiniteEffectAlgebra, tau1: Sequence[int],
                         E2: FiniteEffectAlgebra, tau2: Sequence[int],
                         h: Sequence[int]) -> MorphismReport:
    """A structure map between state effect algebras: homomorphism preserving
    existing joins and meets, commuting with the two operators."""
    if len(h) != E1.n or h[E1.n - 1] != E2.n - 1:
        return MorphismReport(False, "unit not preserved", (E1.n - 1,))
    for i, j, k in E1.triples:
        if E2.table[h[i]][h[j]] != h[k]:
            return MorphismReport(False, "sum not preserved", (i, j))
    for a in range(E1.n):
        for b in range(a, E1.n):
            j = E1.order.join[a][b]
            if j is not None and E2.order.join[h[a]][h[b]] != h[j]:
                return MorphismReport(False, "join not preserved", (a, b))
            mt = E1.order.meet[a][b]
            if mt is not None and E2.order.meet[h[a]][h[b]] != h[mt]:
                return MorphismReport(False, "meet not preserved", (a, b))
    for a in range(E1.n):
        if h[tau1[a]] != tau2[h[a]]:
            return MorphismReport(False, "operator square does not commute", (a,))
    return MorphismReport(True, None, None)


def check_simplex_morphism(sx1: FiniteSimplex, g1: VertexMap,
                           sx2: FiniteSimplex, g2: VertexMap,
                           p: Sequence[int]) -> MorphismReport:
    """A vertex-to-vertex map inducing an affine map commuting with the dynamics.

    The affine map sends sum_x w_x x to sum_x w_x p(x), so both routes around
    the square, p o g1 and g2 o p, are linear in the weights and agree
    everywhere exactly when they agree at every vertex of ``sx1``.
    """
    if len(g1.image) != sx1.m or len(g2.image) != sx2.m:
        return MorphismReport(False, "vertex map does not match the simplex", None)
    if len(p) != sx1.m or any(not 0 <= v < sx2.m for v in p):
        return MorphismReport(False, "not a vertex map", None)
    for x in range(sx1.m):
        if p[g1.image[x]] != g2.image[p[x]]:
            return MorphismReport(False, "square does not commute on vertices", (x,))
    return MorphismReport(True, None, None)
