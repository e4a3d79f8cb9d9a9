"""Concrete partially ordered abelian groups and their interval algebras.

Supported groups are Z^k and Q^k under the product, lexicographic, or strict
order (strict: every coordinate strictly smaller, or the tuples are equal).
Interval algebras [0, u] are kept lazy; product-ordered integer intervals can be
materialized into finite tables, as products of chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import prod
from typing import Callable, Sequence

from .catalog import _product, build_chain
from .core import FiniteEffectAlgebra, guard_elements
from .linalg import Vec
from .operators import is_endomorphism

ORDERS = ("product", "lex", "strict")


@dataclass(frozen=True)
class PoGroupSpec:
    rank: int
    scalars: str   # "Z" or "Q"
    order: str     # "product", "lex", "strict"

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.scalars not in ("Z", "Q"):
            raise ValueError("scalars must be 'Z' or 'Q'")
        if self.order not in ORDERS:
            raise ValueError(f"order must be one of {ORDERS}")

    def element(self, values: Sequence) -> Vec:
        vec = tuple(Fraction(v) for v in values)
        if len(vec) != self.rank:
            raise ValueError(f"rank mismatch: expected {self.rank}, got {len(vec)}")
        if self.scalars == "Z" and any(v.denominator != 1 for v in vec):
            raise ValueError("integer group cannot hold non-integer coordinates")
        return vec


def group_leq(spec: PoGroupSpec, x: Sequence, y: Sequence) -> bool:
    a = spec.element(x)
    b = spec.element(y)
    if spec.order == "product":
        return all(p <= q for p, q in zip(a, b))
    if spec.order == "lex":
        return a == b or next(
            p < q for p, q in zip(a, b) if p != q)
    # strict: all coordinates strictly below, or equal tuples
    return a == b or all(p < q for p, q in zip(a, b))


@dataclass(frozen=True)
class IntervalAlgebra:
    """The interval [0, u] with the restricted group addition."""

    spec: PoGroupSpec
    unit: Vec

    def __post_init__(self):
        u = self.spec.element(self.unit)
        object.__setattr__(self, "unit", u)
        zero = tuple(Fraction(0) for _ in range(self.spec.rank))
        if not group_leq(self.spec, zero, u):
            raise ValueError("unit must be >= 0")

    @property
    def zero(self) -> Vec:
        return tuple(Fraction(0) for _ in range(self.spec.rank))

    def contains(self, x: Sequence) -> bool:
        v = self.spec.element(x)
        return group_leq(self.spec, self.zero, v) and group_leq(self.spec, v, self.unit)


def materialize(alg: IntervalAlgebra) -> FiniteEffectAlgebra:
    """Finite table for a product-ordered integer interval [0, u].

    Elements are the lattice points, ordered lexicographically (zero first, unit
    last); a + b is defined iff the coordinatewise sum stays below u.  So [0, u]
    is the product of the chains [0, c] over the nonzero coordinates c of u
    (Bennett & Foulis 1997), built by the catalog's one product construction;
    a zero coordinate is constant, and u = 0 gives the one-element algebra.
    """
    if alg.spec.order != "product":
        raise ValueError("only product-ordered intervals materialize to finite tables")
    if alg.spec.scalars != "Z":
        raise ValueError("only integer intervals are finite")
    u = [int(c) for c in alg.unit]
    guard_elements(prod(c + 1 for c in u))
    points = list(iter_product(*[range(c + 1) for c in u]))
    labels = ["(" + ",".join(str(c) for c in p) + ")" for p in points]
    return _product([build_chain(c) for c in u if c], labels,
                    {"construction": "interval", "unit": tuple(u), "coords": points})


def extremal_states(alg: IntervalAlgebra) -> list[Callable[[Sequence], Fraction]]:
    """Closed-form extremal states for the supported families.

    product order: the normalized coordinate projections (one per coordinate of
    the unit that is nonzero).  strict order, rank 2: the two normalized
    projections, last coordinate first.  lex order, rank 2: the leading
    projection only.
    """
    spec = alg.spec
    u = alg.unit

    def proj(i):
        scale = u[i]
        def state(x):
            return Fraction(spec.element(x)[i]) / scale
        return state

    if spec.order == "product":
        return [proj(i) for i in range(spec.rank) if u[i] != 0]
    if spec.rank != 2 or any(c == 0 for c in u):
        raise ValueError("closed-form states cover rank-2 strict/lex units > 0 only")
    if spec.order == "strict":
        return [proj(1), proj(0)]
    return [proj(0)]   # lex


def strict_plane_preimage(alg: IntervalAlgebra):
    """Preimage solver for the rank-2 strict-order engine.

    The two extremal states are the coordinate projections, so a target value
    pair determines a unique group element.
    """
    if alg.spec.order != "strict" or alg.spec.rank != 2:
        raise ValueError("preimage solver is specific to the rank-2 strict order")
    u = alg.unit

    def preimage(target):
        v_last, v_first = target
        return (v_first * u[0], v_last * u[1])

    return preimage


def extend_endomorphism(E: FiniteEffectAlgebra,
                        mapping: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Extend an endomorphism of the materialized interval [0, u] to an integer
    matrix on Z^k, returned as its tuple of rows.

    The matrix columns are the images of the standard generators, all inside
    [0, u] because u has positive coordinates.  Being an endomorphism is the
    whole contract.  Every point of [0, u] is a defined sum of generators, so
    additivity makes the matrix reproduce the table map on [0, u], and its
    entries, images of generators, are nonnegative.  Every x >= 0 of Z^k is a
    sum of points of [0, u], so the matrix is the unique additive extension
    and preserves the positive cone.  Powers of the table map are the same
    powers of the matrix on [0, u], which holds the generators, so the matrix
    is n-potent exactly when the table map is.
    """
    coords = E.meta.get("coords")
    u = E.meta.get("unit")
    if coords is None or u is None:
        raise ValueError("expected a materialized interval algebra")
    k = len(u)
    if any(c < 1 for c in u):
        raise ValueError("generator extension needs every unit coordinate >= 1")
    if not is_endomorphism(E, mapping):
        raise ValueError("not an endomorphism; no additive extension")
    index = {p: i for i, p in enumerate(coords)}
    cols = []
    for j in range(k):
        e = tuple(1 if i == j else 0 for i in range(k))
        cols.append(coords[mapping[index[e]]])
    return tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))
