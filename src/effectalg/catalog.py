"""Standard finite effect algebras: Boolean algebras, chains, products, even-subset
families, and finite MV products, plus horizontal sums for test diversity.

Boolean algebras 2^k, finite MV-algebras and the product-ordered intervals [0, u]
of Z^k are products of chains (Bennett & Foulis, Interval and scale effect
algebras, 1997; Dvurecenskij & Pulmannova, New Trends in Quantum Structures,
2000); one product construction, ``_product``, tabulates them all.  Even subsets
are closed under disjoint unions and complements, horizontal sums keep the axioms
(Foulis & Bennett 1994): builders guard, then hand ``assemble`` their sums row by
row, unchecked, so a built algebra lists its ``triples`` in row-major order.  The
JSON spelling {"kind": "mv_product", "chains": [n, ...]} of a finite MV-algebra
is read as the spec of the product of those chains, not as a kind of its own."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod
from typing import Optional

from .core import (FiniteEffectAlgebra, assemble, associativity_work, guard_associativity,
                   guard_elements)
from .core import validate_axioms  # noqa: F401  unused; perfbench/tracing.py wraps it here


SIZE_KEYS = {"boolean": "k", "chain": "n", "even_subsets": "m"}


@dataclass(frozen=True)
class CatalogSpec:
    """A recipe for one catalog algebra.

    kind: "boolean" (k), "chain" (n), "product" (factors), "even_subsets" (m).
    """

    kind: str
    k: Optional[int] = None
    n: Optional[int] = None
    m: Optional[int] = None
    factors: Optional[tuple] = None

    @staticmethod
    def from_dict(d: dict) -> "CatalogSpec":
        """The spec of a JSON object, without coercion: sizes must be ints (not
        bools), ``factors`` and ``chains`` lists; an ``mv_product`` is read as
        the product of its chains."""
        if not isinstance(d, dict):
            raise ValueError(f"a catalog spec is an object, got {d!r}")
        kind = d.get("kind")
        if kind in SIZE_KEYS:
            return CatalogSpec(kind, **{SIZE_KEYS[kind]: _size(required(d, SIZE_KEYS[kind]))})
        if kind == "product":
            return CatalogSpec("product",
                               factors=tuple(CatalogSpec.from_dict(f) for f in _list(d, "factors")))
        if kind == "mv_product":
            return CatalogSpec("product", factors=tuple(CatalogSpec("chain", n=_size(x))
                                                        for x in _list(d, "chains")))
        raise ValueError(f"unknown catalog kind {kind!r}")


def _size(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"catalog sizes must be integers, got {x!r}")
    return x


def required(d: dict, key: str, where: str = "catalog spec"):
    if key not in d:
        raise ValueError(f"{where} has no {key!r}")
    return d[key]


def _list(d: dict, key: str) -> list:
    if not isinstance(x := required(d, key), list):
        raise ValueError(f"catalog {key!r} must be a list, got {x!r}")
    return x


def build_boolean(k: int) -> FiniteEffectAlgebra:
    """Characteristic functions of all subsets of {1..k}; sum = disjoint union.

    The product of k copies of chain(1), factor j standing for element k - j,
    so subset S has index sum(2^(i-1) for i in S)."""
    if k < 1:
        raise ValueError("boolean algebra needs k >= 1")
    guard_elements(1 << min(k, 64))
    labels = ["{" + ",".join(str(i + 1) for i in range(k) if a >> i & 1) + "}"
              for a in range(1 << k)]
    return _product([build_chain(1)] * k, labels, {"construction": "boolean", "k": k})


def build_chain(n: int) -> FiniteEffectAlgebra:
    """The chain 0 < 1/n < ... < 1 with a + b defined iff a + b <= 1.  Its (ii)
    scan, the C(n + 3, 3) triples a + b + c <= n, is guarded before any pair is listed."""
    if n < 1:
        raise ValueError("chain needs n >= 1")
    guard_elements(n + 1)
    guard_associativity(comb(n + 3, 3))
    rows = [[(j, i + j) for j in range(n + 1 - i)] for i in range(n + 1)]
    labels = [str(Fraction(i, n)) for i in range(n + 1)]
    return assemble(n + 1, rows, labels, meta={"construction": "chain", "n": n})


def build_even_subsets(m: int) -> FiniteEffectAlgebra:
    """Even-cardinality subsets of an m-set (m even) as bitmasks in ``combinations`` order,
    x + y = x | y if x & y = 0.  L = (4^m + 4 * 2^m) / 8 <= 2,099,200: no scan guard."""
    if m < 2 or m % 2:
        raise ValueError("even_subsets needs an even m >= 2")
    guard_elements(1 << min(m - 1, 64))
    subsets = [c for size in range(0, m + 1, 2) for c in combinations(range(m), size)]
    masks = [sum(1 << i for i in c) for c in subsets]
    index = {x: a for a, x in enumerate(masks)}
    rows = [[(b, index[x | y]) for b, y in enumerate(masks) if not x & y] for x in masks]
    labels = ["{" + ",".join(str(i + 1) for i in c) + "}" for c in subsets]
    return assemble(len(masks), rows, labels, meta={"construction": "even_subsets", "m": m})


def build_product(factors: list[FiniteEffectAlgebra]) -> FiniteEffectAlgebra:
    """Coordinatewise partial sum on the cartesian product of the factors; an
    MV product (``mv_product``) is a product of chains."""
    if not factors:
        raise ValueError("product needs at least one factor")
    guard_elements(prod(F.n for F in factors))
    tuples = list(product(*[range(F.n) for F in factors]))
    labels = ["(" + ",".join(F.labels[x] for F, x in zip(factors, t)) + ")"
              for t in tuples]
    return _product(factors, labels, {"construction": "product", "tuples": tuples,
                                      "factor_sizes": tuple(F.n for F in factors)})


def _product(factors: list[FiniteEffectAlgebra], labels: list[str],
             meta: dict) -> FiniteEffectAlgebra:
    """The product of the factors, its sums built from theirs one factor at a
    time.  Tuple t has the mixed-radix index with the last factor fastest,
    the ``itertools.product`` order; no factors give the one-element algebra.
    ``rows[a]`` lists (b, a + b) for each defined a + b; row a * m + x of the
    next table is row a of the last one times row x of the factor, so each row
    comes out sorted.  Callers guard the size; its (ii) scan is guarded here."""
    guard_associativity(prod(associativity_work(F.table, F.triples) for F in factors))
    rows = [[(0, 0)]]
    for F in factors:
        m = F.n
        factor_rows = [[(y, z) for y, z in enumerate(row) if z is not None] for row in F.table]
        rows = [[(b * m + y, c * m + z) for b, c in row for y, z in factor_row]
                for row in rows for factor_row in factor_rows]
    return assemble(len(rows), rows, labels, meta)


def horizontal_sum(blocks: list[FiniteEffectAlgebra]) -> FiniteEffectAlgebra:
    """Glue algebras at shared 0 and 1; sums stay inside a single block, so L is
    n + 2 for the shared (0, 0), (0, 1), (1, 0) plus each block's L(B) - |B| - 2."""
    if not blocks:
        raise ValueError("horizontal sum needs at least one block")
    n = sum(max(B.n - 2, 0) for B in blocks) + 2
    guard_elements(n)
    guard_associativity(sum(associativity_work(B.table, B.triples) - B.n - 2
                            for B in blocks if B.n > 1) + n + 2)
    rows, labels = [[(a, a) for a in range(n)]], ["0"]
    for bi, B in enumerate(blocks):
        start = len(labels) - 1    # middle elements before this block
        outer = [0, *range(start + 1, start + B.n - 1), n - 1][:B.n]   # [0] if B.n == 1
        labels += [f"b{bi}:{B.labels[x]}" for x in range(1, B.n - 1)]
        rows += [[(outer[y], outer[z]) for y, z in enumerate(B.table[x]) if z is not None]
                 for x in range(1, B.n - 1)]
    return assemble(n, rows + [[(0, n - 1)]], labels + ["1"],
                    meta={"construction": "horizontal_sum", "blocks": tuple(B.n for B in blocks)})


def _elements(spec: CatalogSpec) -> int:
    """|E| of ``build_catalog(spec)``, read from the spec so that a product is
    guarded before its factors are built; a kind or size the builder refuses
    counts 1.  Powers and products are capped at 2^64, never computed past it."""
    if spec.kind == "chain":
        return max(spec.n, 0) + 1
    if spec.kind in ("boolean", "even_subsets"):
        return 1 << min(max(spec.k if spec.kind == "boolean" else spec.m - 1, 0), 64)
    count = 1
    for factor in spec.factors or ():
        count = min(count * _elements(factor), 1 << 64)
    return count


def build_catalog(spec: CatalogSpec) -> FiniteEffectAlgebra:
    if spec.kind == "boolean":
        return build_boolean(spec.k)
    if spec.kind == "chain":
        return build_chain(spec.n)
    if spec.kind == "even_subsets":
        return build_even_subsets(spec.m)
    if spec.kind == "product":
        guard_elements(_elements(spec))
        return build_product([build_catalog(f) for f in spec.factors])
    raise ValueError(f"unknown catalog kind {spec.kind!r}")


def small_catalog(max_elements: int = 9) -> list[tuple[str, FiniteEffectAlgebra]]:
    """The standing roster of named catalog algebras with at most ``max_elements``."""
    roster = [(f"chain({n})", build_chain(n)) for n in range(1, 9)]
    roster += [(f"boolean({k})", build_boolean(k)) for k in range(1, 4)]
    roster += [("product(" + ",".join(f"chain({d})" for d in dims) + ")",
                build_product([build_chain(d) for d in dims]))
               for dims in [(1, 1), (1, 2), (2, 2), (1, 3), (1, 1, 1)]]
    roster.append(("even_subsets(4)", build_even_subsets(4)))
    return [(name, E) for name, E in roster if E.n <= max_elements]
