"""Finite Stone-type duality: simplices with potent vertex maps, and morphisms.

Finite simplices stand in for the compact simplices of the analytic theory:
points are rational convex-weight vectors over the vertices of a vertex map g,
one per entry, and g^n = g for some n >= 2 pushes them forward.  An algebra
reaches this side through ``states.compute_states`` and
``operators.induced_state_map``.  A morphism on either side makes the square
p o g1 = g2 o p commute (``commuting_square``); on the algebra side p is also
a homomorphism that keeps existing joins, as ``core`` defines them.

The way back, the algebra of affine [0,1]-functions on a simplex with its
pull-back f -> f o g, is not represented: pushing a point forward along g and
reading its state through the pull-back give the same point by definition, so
that square needs no check and nothing else needs the function algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import FiniteEffectAlgebra, is_homomorphism, preserves_existing_joins
from .linalg import ZERO, Vec
from .operators import is_n_potent, minimal_potency


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


def commuting_square(p: Sequence[int], g1: Sequence[int], g2: Sequence[int],
                     reason: str) -> MorphismReport:
    """p o g1 = g2 o p for self-maps g1, g2 of range(len(g1)), range(len(g2))
    and a map p between them; the witness is the first point where it fails."""
    n1, n2 = len(g1), len(g2)
    if len(p) != n1 or any(not 0 <= v < n for f, n in ((g1, n1), (g2, n2), (p, n2))
                           for v in f):
        return MorphismReport(False, "map out of range", None)
    for x, gx in enumerate(g1):
        if p[gx] != g2[p[x]]:
            return MorphismReport(False, reason, (x,))
    return MorphismReport(True, None, None)


def check_state_morphism(E1: FiniteEffectAlgebra, tau1: Sequence[int],
                         E2: FiniteEffectAlgebra, tau2: Sequence[int],
                         h: Sequence[int]) -> MorphismReport:
    """A structure map between state effect algebras: a homomorphism that keeps
    existing joins, and so existing meets, and commutes with the two
    operators."""
    if len(tau1) != E1.n or len(tau2) != E2.n:
        return MorphismReport(False, "operator does not match its algebra", None)
    if not is_homomorphism(E1, E2, h):
        return MorphismReport(False, "not a homomorphism", None)
    if not preserves_existing_joins(E1, E2, h):
        return MorphismReport(False, "join not preserved", None)
    return commuting_square(h, tau1, tau2, "operator square does not commute")


def check_simplex_morphism(g1: VertexMap, g2: VertexMap, p: Sequence[int]) -> MorphismReport:
    """A vertex-to-vertex map inducing an affine map commuting with the dynamics.

    The affine map sends sum_x w_x x to sum_x w_x p(x), so both routes around
    the square, p o g1 and g2 o p, are linear in the weights and agree
    everywhere exactly when they agree at every vertex of g1's simplex.
    """
    return commuting_square(p, g1.image, g2.image, "square does not commute on vertices")
