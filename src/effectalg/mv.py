"""Total MV operations on lattice-ordered catalog algebras with refinement.

A finite lattice-ordered effect algebra with the Riesz decomposition property
carries a unique MV structure: x (+) y = x + (y ^ x'), star is the complement,
and the remaining operations follow by De Morgan.  The derived partial sum
(defined iff x <= y*) must reproduce the original table exactly; this is
checked at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import FiniteEffectAlgebra
from .structure import check_rdp, classify_lattice


@dataclass(frozen=True)
class MvStructure:
    base: FiniteEffectAlgebra
    oplus: tuple[tuple[int, ...], ...]
    odot: tuple[tuple[int, ...], ...]
    ominus: tuple[tuple[int, ...], ...]
    star: tuple[int, ...]


def mv_operations(E: FiniteEffectAlgebra) -> MvStructure:
    """Build the MV operation tables; rejects algebras that are not MV.

    Requires a lattice order and refinement; raises ValueError otherwise.
    """
    if classify_lattice(E) not in ("lattice", "both"):
        raise ValueError("not an MV algebra: the order is not a lattice")
    rdp, _ = check_rdp(E)
    if not rdp:
        raise ValueError("not an MV algebra: refinement fails")
    n = E.n
    star = E.complements
    meet = E.order.meet
    oplus = [[row[meet[y][star[x]]] for y in range(n)] for x, row in enumerate(E.table)]
    odot = [[star[oplus[star[x]][star[y]]] for y in range(n)] for x in range(n)]
    ominus = [[odot[x][star[y]] for y in range(n)] for x in range(n)]

    for x in range(n):
        if oplus[x][0] != x or oplus[0][x] != x:
            raise AssertionError("oplus lost its unit")
        if star[star[x]] != x:
            raise AssertionError("star is not an involution")
        if oplus[x][n - 1] != n - 1:
            raise AssertionError("oplus must absorb the top")
        for y in range(n):
            if oplus[x][y] != oplus[y][x]:
                raise AssertionError("oplus must be commutative")
            lhs = oplus[x][star[oplus[x][star[y]]]]
            rhs = oplus[y][star[oplus[y][star[x]]]]
            if lhs != rhs:
                raise AssertionError("Lukasiewicz axiom failed")

    A = MvStructure(base=E,
                    oplus=tuple(tuple(r) for r in oplus),
                    odot=tuple(tuple(r) for r in odot),
                    ominus=tuple(tuple(r) for r in ominus),
                    star=tuple(star))
    ok, wit = derived_sum_matches(A)
    if not ok:
        raise AssertionError(f"derived partial sum disagrees with the table at {wit}")
    return A


def derived_sum_matches(A: MvStructure):
    """The partial sum recovered from (+) (defined iff x <= y*) equals the table."""
    E = A.base
    leq = E.order.leq
    for x in range(E.n):
        for y in range(E.n):
            derived_defined = leq[x][A.star[y]]
            actual = E.table[x][y]
            if derived_defined != (actual is not None):
                return False, (x, y)
            if derived_defined and A.oplus[x][y] != actual:
                return False, (x, y)
    return True, None


def mv_state_axioms(A: MvStructure, mapping: Sequence[int]) -> dict:
    """The four defining identities of an internal state on an MV algebra.

    (1) tau(0) = 0; (2) tau(x*) = tau(x)*;
    (3) tau(x (+) y) = tau(x) (+) tau(y (.) (x (.) y)*);
    (4) tau(tau(x) (+) tau(y)) = tau(x) (+) tau(y).
    """
    m = tuple(mapping)
    n = A.base.n
    star, oplus, odot = A.star, A.oplus, A.odot
    ax1 = m[0] == 0
    ax2 = all(m[star[x]] == star[m[x]] for x in range(n))
    ax3 = all(m[oplus[x][y]] == oplus[m[x]][m[odot[y][star[odot[x][y]]]]]
              for x in range(n) for y in range(n))
    ax4 = all(m[oplus[m[x]][m[y]]] == oplus[m[x]][m[y]]
              for x in range(n) for y in range(n))
    return {"zero_fixed": ax1, "star_equivariant": ax2,
            "oplus_split": ax3, "image_oplus_fixed": ax4}


def is_mv_endomorphism(A: MvStructure, mapping: Sequence[int]) -> bool:
    m = tuple(mapping)
    n = A.base.n
    if m[0] != 0:
        return False
    if any(m[A.star[x]] != A.star[m[x]] for x in range(n)):
        return False
    oplus = A.oplus
    return all(m[oplus[x][y]] == oplus[m[x]][m[y]]
               for x in range(n) for y in range(n))


def is_mv_state_morphism(A: MvStructure, mapping: Sequence[int]) -> bool:
    """An idempotent MV endomorphism."""
    m = tuple(mapping)
    return is_mv_endomorphism(A, m) and tuple(m[x] for x in m) == m
