"""Finite Stone-type duality: state functor, affine-function functor, morphisms.

Finite simplices stand in for the compact simplices of the analytic theory:
points are rational convex-weight vectors over a vertex set, and the algebra of
affine [0,1]-functions is represented lazily by its vertex-value vectors (an
affine function on a simplex attains its extremes at vertices, so vertex data
determines everything).  Vertex self-maps g with g^n = g for some n >= 2 induce
pull-back operators f -> f o g on functions and push-forward maps on weights.
Pushing a point forward along g and precomposing its evaluation state with the
pull-back give the same point by definition, so that square needs no check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import FiniteEffectAlgebra
from .linalg import ZERO, ONE, Vec
from .operators import InducedStateMap, induced_state_map, is_n_potent, minimal_potency
from .states import StatePolytope, compute_states


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
        if self.declared_n < 2:
            raise ValueError("declared potency must be at least 2")
        if not is_n_potent(minimal_potency(self.image), self.declared_n):
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


def state_functor(E: FiniteEffectAlgebra,
                  mapping: Sequence[int]) -> tuple[StatePolytope, InducedStateMap]:
    """A finite state effect algebra to its polytope with the induced state map.

    Raises ValueError unless the map is an endomorphism (``induced_state_map``
    enforces that) with a potency.
    """
    P = compute_states(E)
    g = induced_state_map(E, mapping, P)
    if g.potency is None:
        raise ValueError("operator has no potency; no induced finite dynamics")
    return P, g


def affine_functor(sx: FiniteSimplex, g: VertexMap) -> tuple[AffineFunctionAlgebra, PullbackOperator]:
    """A simplex with a potent vertex map to its function algebra with pull-back."""
    if len(g.image) != sx.m:
        raise ValueError("vertex map does not match the simplex")
    return AffineFunctionAlgebra(sx.m), PullbackOperator(g)


@dataclass(frozen=True)
class MorphismReport:
    passed: bool
    reason: Optional[str]
    witness: Optional[tuple]


def check_state_morphism(E1: FiniteEffectAlgebra, tau1: Sequence[int],
                         E2: FiniteEffectAlgebra, tau2: Sequence[int],
                         h: Sequence[int]) -> MorphismReport:
    """A structure map between state effect algebras: homomorphism preserving
    existing joins and meets, commuting with the two operators.  A homomorphism
    keeps complements and a ^ b = (a' v b')', so kept joins keep the meets."""
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
