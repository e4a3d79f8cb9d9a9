"""Seeded random algebras, the population that the benchmark and the tests draw from.

Random algebras come from the catalog constructions plus horizontal sums and
materialized integer intervals, composed and then relabeled by a random
permutation that respects the index conventions.  A relabeling of an effect
algebra is one, with its n and L, so ``permute_algebra`` checks no axiom or
guard.  The raw-table edits that test the axiom checker live with the tests.
"""

from __future__ import annotations

import random

from .catalog import (build_boolean, build_chain, build_even_subsets,
                      build_product, horizontal_sum)
from .core import FiniteEffectAlgebra, assemble
from .pogroup import IntervalAlgebra, PoGroupSpec, materialize


def permute_algebra(E: FiniteEffectAlgebra, perm: list[int]) -> FiniteEffectAlgebra:
    """Relabel elements along a permutation fixing 0 and n-1, keeping n and L.

    Element a becomes perm[a], with its label and its ``meta`` entries under
    ``tuples`` and ``coords``; row perm[a] is row a relabeled and sorted.
    """
    if sorted(perm) != list(range(E.n)) or perm[0] != 0 or perm[-1] != E.n - 1:
        raise ValueError(f"{perm} is not a permutation of 0..{E.n - 1} fixing both ends")
    order = sorted(range(E.n), key=perm.__getitem__)      # order[perm[a]] == a
    rows = [sorted([(perm[b], perm[k]) for b, k in enumerate(E.table[a]) if k is not None])
            for a in order]
    meta = {key: [v[a] for a in order] if key in ("tuples", "coords") else v
            for key, v in E.meta.items()}
    return assemble(E.n, rows, [E.labels[a] for a in order], meta=meta)


def random_algebra(rng: random.Random, max_elements: int = 9) -> tuple[str, FiniteEffectAlgebra]:
    """One seeded algebra of size <= max_elements, randomly relabeled."""
    while True:
        kind = rng.choice(["chain", "boolean", "product", "even", "hsum", "interval"])
        if kind == "chain":
            n = rng.randint(1, max(1, max_elements - 1))
            E = build_chain(n)
            name = f"chain({n})"
        elif kind == "boolean":
            k = rng.randint(1, 3)
            E = build_boolean(k)
            name = f"boolean({k})"
        elif kind == "product":
            dims = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
            E = build_product([build_chain(d) for d in dims])
            name = f"product{tuple(dims)}"
        elif kind == "even":
            E = build_even_subsets(4)
            name = "even_subsets(4)"
        elif kind == "hsum":
            blocks = [rng.randint(2, 4) for _ in range(rng.randint(2, 3))]
            E = horizontal_sum([build_chain(b) for b in blocks])
            name = f"hsum{tuple(blocks)}"
        else:
            u = (rng.randint(1, 3), rng.randint(1, 2))
            alg = IntervalAlgebra(PoGroupSpec(2, "Z", "product"), u)
            E = materialize(alg)
            name = f"interval{u}"
        if E.n > max_elements:
            continue
        perm = [0] + rng.sample(range(1, E.n - 1), max(0, E.n - 2)) + ([E.n - 1] if E.n > 1 else [])
        return f"{name}#perm", permute_algebra(E, perm)
