"""Finite Stone-type duality: simplices with potent vertex maps, and morphisms.

Finite simplices stand in for the compact simplices of the analytic theory:
points are rational convex-weight vectors over a vertex set.  Vertex self-maps
g with g^n = g for some n >= 2 push weights forward.  An algebra reaches this
side through ``states.compute_states`` and ``operators.induced_state_map``; the
suite checks structure maps on both sides with ``check_state_morphism`` and
``check_simplex_morphism``.

The way back, the algebra of affine [0,1]-functions on a simplex with its
pull-back f -> f o g, is not represented: pushing a point forward along g and
reading its state through the pull-back give the same point by definition, so
that square needs no check and nothing else needs the function algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import FiniteEffectAlgebra
from .linalg import ZERO, ONE, Vec
from .operators import is_n_potent, minimal_potency


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
