"""Seeded random algebras and mutation testing of the axiom checker.

Random algebras come from the catalog constructions plus horizontal sums and
materialized integer intervals, composed and then relabeled by a random
permutation that respects the index conventions.  A relabeling of an effect
algebra is one, with its n and L, so ``permute_algebra`` checks no axiom or
guard.  Mutations edit the raw triple list; the validator must either reject the
edit naming an axiom, or accept a genuinely different algebra.  A silent
acceptance of an unchanged table would be a bug and is reported separately.
"""

from __future__ import annotations

import random
from collections import Counter

from .catalog import (build_boolean, build_chain, build_even_subsets,
                      build_product, horizontal_sum)
from .core import AxiomViolation, FiniteEffectAlgebra, assemble, raw_triples, validate_axioms
from .pogroup import IntervalAlgebra, PoGroupSpec, materialize

MUTATIONS = 50   # random table edits per algebra in ``fuzz_mutations``


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


def _mutate(rng: random.Random, n: int, triples: list[tuple[int, int, int]]):
    """One random raw-table edit; returns (new triples, description)."""
    choice = rng.random()
    if choice < 0.4 and triples:
        # change the value of one entry (one side only half of the time)
        idx = rng.randrange(len(triples))
        i, j, k = triples[idx]
        k2 = rng.choice([x for x in range(n) if x != k])
        new = list(triples)
        new[idx] = (i, j, k2)
        if i != j and rng.random() < 0.5:
            mirror = new.index((j, i, k))
            new[mirror] = (j, i, k2)
            return new, "change_both"
        return new, "change_one_side"
    if choice < 0.7 and triples:
        idx = rng.randrange(len(triples))
        i, j, k = triples[idx]
        new = [t for t in triples if t != (i, j, k)]
        if i != j and rng.random() < 0.5:
            new = [t for t in new if t != (j, i, k)]
            return new, "delete_both"
        return new, "delete_one_side"
    defined = {(i, j) for (i, j, _k) in triples}
    missing = [(i, j) for i in range(n) for j in range(n) if (i, j) not in defined]
    if not missing:
        return list(triples), "noop"
    i, j = rng.choice(missing)
    k = rng.randrange(n)
    new = list(triples) + [(i, j, k)]
    if i != j and rng.random() < 0.5:
        new.append((j, i, k))
        return new, "add_both"
    return new, "add_one_side"


def fuzz_mutations(E: FiniteEffectAlgebra, rng: random.Random) -> Counter:
    """Outcome counts of ``MUTATIONS`` random edits of E's raw table: "violation"
    (the validator names an axiom), "valid_different" or "valid_same" (a silent
    acceptance of the unchanged table).  No-op edits are not counted."""
    base = raw_triples(E)
    outcomes = Counter()
    for _ in range(MUTATIONS):
        triples, kind = _mutate(rng, E.n, base)
        if kind == "noop":
            continue
        try:
            mutated = validate_axioms(E.n, triples)
        except AxiomViolation:
            outcomes["violation"] += 1
            continue
        outcomes["valid_same" if mutated.table == E.table else "valid_different"] += 1
    return outcomes
