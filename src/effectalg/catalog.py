"""Standard finite effect algebras: Boolean algebras, chains, products, even-subset
families, and finite MV products, plus horizontal sums for test diversity."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import prod
from typing import Optional

from .core import FiniteEffectAlgebra, guard_elements, raw_triples, validate_axioms


SIZE_KEYS = {"boolean": "k", "chain": "n", "even_subsets": "m"}


@dataclass(frozen=True)
class CatalogSpec:
    """A recipe for one catalog algebra.

    kind: "boolean" (k), "chain" (n), "product" (factors), "even_subsets" (m),
    "mv_product" (chains).
    """

    kind: str
    k: Optional[int] = None
    n: Optional[int] = None
    m: Optional[int] = None
    factors: Optional[tuple] = None
    chains: Optional[tuple[int, ...]] = None

    @staticmethod
    def from_dict(d: dict) -> "CatalogSpec":
        """The spec of a JSON object, without coercion: sizes must be ints (not
        bools), ``factors`` and ``chains`` lists."""
        if not isinstance(d, dict):
            raise ValueError(f"a catalog spec is an object, got {d!r}")
        kind = d.get("kind")
        if kind in SIZE_KEYS:
            return CatalogSpec(kind, **{SIZE_KEYS[kind]: _size(d[SIZE_KEYS[kind]])})
        if kind == "product":
            return CatalogSpec("product",
                               factors=tuple(CatalogSpec.from_dict(f) for f in _list(d, "factors")))
        if kind == "mv_product":
            return CatalogSpec("mv_product", chains=tuple(_size(x) for x in _list(d, "chains")))
        raise ValueError(f"unknown catalog kind {kind!r}")


def _size(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"catalog sizes must be integers, got {x!r}")
    return x


def _list(d: dict, key: str) -> list:
    if not isinstance(d[key], list):
        raise ValueError(f"catalog {key!r} must be a list, got {d[key]!r}")
    return d[key]


def build_boolean(k: int) -> FiniteEffectAlgebra:
    """Characteristic functions of all subsets of {1..k}; sum = disjoint union."""
    if k < 1:
        raise ValueError("boolean algebra needs k >= 1")
    n = 1 << k
    guard_elements(n)
    triples = []
    for a in range(n):
        for b in range(n):
            if a & b == 0:
                triples.append((a, b, a | b))
    labels = ["{" + ",".join(str(i + 1) for i in range(k) if a >> i & 1) + "}"
              for a in range(n)]
    return validate_axioms(n, triples, labels, meta={"construction": "boolean", "k": k})


def build_chain(n: int) -> FiniteEffectAlgebra:
    """The chain 0 < 1/n < ... < 1 with a + b defined iff a + b <= 1."""
    if n < 1:
        raise ValueError("chain needs n >= 1")
    guard_elements(n + 1)
    triples = [(i, j, i + j) for i in range(n + 1) for j in range(n + 1) if i + j <= n]
    labels = [str(Fraction(i, n)) for i in range(n + 1)]
    return validate_axioms(n + 1, triples, labels, meta={"construction": "chain", "n": n})


def build_even_subsets(m: int) -> FiniteEffectAlgebra:
    """Characteristic functions of the even-cardinality subsets of an m-set (m even)."""
    if m < 2 or m % 2:
        raise ValueError("even_subsets needs an even m >= 2")
    guard_elements(1 << (m - 1))
    subsets = [s for size in range(0, m + 1, 2) for s in
               (frozenset(c) for c in combinations(range(m), size))]
    subsets.sort(key=lambda s: (len(s), sorted(s)))
    index = {s: i for i, s in enumerate(subsets)}
    triples = []
    for a, sa in enumerate(subsets):
        for b, sb in enumerate(subsets):
            if not (sa & sb):
                triples.append((a, b, index[sa | sb]))
    labels = ["{" + ",".join(str(i + 1) for i in sorted(s)) + "}" for s in subsets]
    return validate_axioms(len(subsets), triples, labels,
                           meta={"construction": "even_subsets", "m": m})


def build_product(factors: list[FiniteEffectAlgebra]) -> FiniteEffectAlgebra:
    """Coordinatewise partial sum on the cartesian product of the factors."""
    if not factors:
        raise ValueError("product needs at least one factor")
    guard_elements(prod(F.n for F in factors))
    tuples = list(product(*[range(F.n) for F in factors]))
    index = {t: i for i, t in enumerate(tuples)}
    triples = []
    for a, ta in enumerate(tuples):
        for b, tb in enumerate(tuples):
            parts = []
            for F, x, y in zip(factors, ta, tb):
                if not F.defined(x, y):
                    break
                parts.append(F.sum(x, y))
            else:
                triples.append((a, b, index[tuple(parts)]))
    labels = ["(" + ",".join(F.labels[x] for F, x in zip(factors, t)) + ")"
              for t in tuples]
    return validate_axioms(len(tuples), triples, labels,
                           meta={"construction": "product", "tuples": tuples,
                                 "factor_sizes": tuple(F.n for F in factors)})


def horizontal_sum(blocks: list[FiniteEffectAlgebra]) -> FiniteEffectAlgebra:
    """Glue algebras at shared 0 and 1; sums stay inside a single block."""
    if not blocks:
        raise ValueError("horizontal sum needs at least one block")
    owners = []   # (block index, inner index) per middle element
    for bi, B in enumerate(blocks):
        owners.extend((bi, x) for x in range(1, B.n - 1))
    n = len(owners) + 2
    one = n - 1

    def outer(bi: int, x: int) -> int:
        B = blocks[bi]
        if x == 0:
            return 0
        if x == B.n - 1:
            return one
        return owners.index((bi, x)) + 1

    triples = set()
    for a in range(n):
        triples.add((0, a, a))
        triples.add((a, 0, a))
    triples.add((one, 0, one))
    for bi, B in enumerate(blocks):
        for x, y, z in raw_triples(B):
            triples.add((outer(bi, x), outer(bi, y), outer(bi, z)))
    labels = ["0"] + [f"b{bi}:{blocks[bi].labels[x]}" for bi, x in owners] + ["1"]
    return validate_axioms(n, sorted(triples), labels,
                           meta={"construction": "horizontal_sum",
                                 "blocks": tuple(B.n for B in blocks)})


def build_catalog(spec: CatalogSpec) -> FiniteEffectAlgebra:
    if spec.kind == "boolean":
        return build_boolean(spec.k)
    if spec.kind == "chain":
        return build_chain(spec.n)
    if spec.kind == "even_subsets":
        return build_even_subsets(spec.m)
    if spec.kind == "product":
        return build_product([build_catalog(f) for f in spec.factors])
    if spec.kind == "mv_product":
        return build_product([build_chain(n) for n in spec.chains])
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
