"""Total MV operations on catalog algebras with refinement.

A finite lattice-ordered effect algebra with the Riesz decomposition property
is an MV-effect algebra (Dvurecenskij & Pulmannova, New Trends in Quantum
Structures, 2000, ch. 1): it carries a unique MV structure with
x (+) y = x + (y ^ x'), star the complement, and the remaining operations by
De Morgan, and the partial sum derived from it (defined iff x <= y*) is the
original table.  A finite algebra with RDP is a product of chains, hence a
lattice, so a finite algebra is MV exactly when it has RDP, and
``mv_operations`` checks that one hypothesis and builds the tables; the MV
identities are the theorem's conclusion, not rechecked there.  The
test oracle ``derived_sum_matches`` (``tests/oracles.py``) states the last one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import FiniteEffectAlgebra
from .structure import check_rdp


@dataclass(frozen=True)
class MvStructure:
    base: FiniteEffectAlgebra
    oplus: tuple[tuple[int, ...], ...]
    odot: tuple[tuple[int, ...], ...]
    star: tuple[int, ...]


def mv_operations(E: FiniteEffectAlgebra) -> MvStructure:
    """Build the MV operation tables; raises ValueError unless E has RDP."""
    rdp, _ = check_rdp(E)
    if not rdp:
        raise ValueError("not an MV algebra: refinement fails")
    n = E.n
    star = E.complements
    meet = E.order.meet
    oplus = [[row[meet[y][star[x]]] for y in range(n)] for x, row in enumerate(E.table)]
    odot = [[star[oplus[star[x]][star[y]]] for y in range(n)] for x in range(n)]
    return MvStructure(base=E,
                       oplus=tuple(tuple(r) for r in oplus),
                       odot=tuple(tuple(r) for r in odot),
                       star=tuple(star))


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
