"""Catalog constructions: shapes, counts, and labels."""

import random
import tracemalloc

import pytest

from effectalg import core
from effectalg.catalog import (CatalogSpec, build_boolean, build_catalog, build_chain,
                               build_even_subsets, build_product, horizontal_sum,
                               small_catalog)
from effectalg.core import (GuardExceeded, associativity_work, is_isomorphic, raw_triples,
                            validate_axioms)
from effectalg.fuzz import permute_algebra, random_algebra
from effectalg.pogroup import IntervalAlgebra, PoGroupSpec, materialize
from oracles import (indexed_horizontal_sum, pair_scan_boolean, pair_scan_interval,
                     pair_scan_product)


def test_chain2_shape():
    E = build_chain(2)
    assert E.n == 3
    assert E.table[1][1] == 2          # v + v = 1
    assert E.labels == ("0", "1/2", "1")


def test_even_subsets_count():
    # subsets of even size in a 4-set: 1 + 6 + 1
    E = build_even_subsets(4)
    assert E.n == 8
    assert E.labels[0] == "{}" and E.labels[-1] == "{1,2,3,4}"
    assert sum(1 for lab in E.labels if lab.count(",") == 1) == 6
    with pytest.raises(ValueError):
        build_even_subsets(5)
    # 2^(m-1) elements; the disjoint ordered pairs of even subsets number
    # (3^m + 3) / 4, and only 0 + 0 is a sum of an element with itself
    for m in range(2, 13, 2):
        E = build_even_subsets(m)
        sums = (3 ** m + 3) // 4
        assert (E.n, len(raw_triples(E)), len(E.triples)) == (2 ** (m - 1), sums, (sums + 1) // 2)
    assert (E.n, len(E.triples)) == (2048, 66431)


def test_product_of_trivial_chains_is_boolean():
    E = build_product([build_chain(1), build_chain(1)])
    assert is_isomorphic(E, build_boolean(2))


def test_product_sum_is_coordinatewise():
    E = build_product([build_chain(2), build_chain(3)])
    tuples = E.meta["tuples"]
    index = {t: i for i, t in enumerate(tuples)}
    assert E.table[index[(1, 1)]][index[(1, 2)]] == index[(2, 3)]
    assert E.table[index[(2, 1)]][index[(1, 0)]] is None


def test_boolean_sum_is_disjoint_union():
    E = build_boolean(3)
    assert E.table[0b001][0b110] is not None
    assert E.table[0b001][0b110] == 0b111
    assert E.table[0b011][0b110] is None


def test_catalog_spec_from_dict():
    spec = CatalogSpec.from_dict({"kind": "product", "factors": [
        {"kind": "chain", "n": 2}, {"kind": "chain", "n": 2}]})
    assert spec == CatalogSpec("product", factors=(
        CatalogSpec("chain", n=2), CatalogSpec("chain", n=2)))
    assert build_catalog(spec).n == 9
    mv = CatalogSpec.from_dict({"kind": "mv_product", "chains": [2, 2]})
    assert mv == spec
    E = build_catalog(mv)
    square = build_product([build_chain(2), build_chain(2)])
    assert E == square and hash(E) == hash(square) and E.n == 9


def test_horizontal_sum_blocks_do_not_mix():
    E = horizontal_sum([build_chain(2), build_chain(2)])
    assert E.n == 4
    v, w = 1, 2
    assert E.table[v][v] == E.n - 1 and E.table[w][w] == E.n - 1
    assert E.table[v][w] is None


def test_builders_equal_their_pair_scans():
    """Each builder equals its pair-scan oracle as a dataclass: table, triples
    in order, complements, labels and meta.  The intervals include units with
    zero coordinates, and the horizontal sums a one-element block."""
    for k in range(1, 9):
        assert build_boolean(k) == pair_scan_boolean(k), k
    c = {n: build_chain(n) for n in range(1, 5)}
    products = [[c[1]], [c[1], c[1]], [c[2], c[3]], [c[1], c[2], c[1]], [c[4]] * 3,
                [build_boolean(2), c[2]], [build_even_subsets(4), c[1]]]
    for factors in products:
        assert build_product(factors) == pair_scan_product(factors), factors
    for chains in [[2], [2, 3], [1, 4, 2]]:
        E = build_catalog(CatalogSpec.from_dict({"kind": "mv_product", "chains": chains}))
        assert E == pair_scan_product([c[n] for n in chains]), chains
    for u in [(1,), (3,), (1, 1), (2, 1), (2, 2), (1, 1, 1), (3, 2), (0, 1), (0,), (0, 0)]:
        E = materialize(IntervalAlgebra(PoGroupSpec(len(u), "Z", "product"), u))
        assert E == pair_scan_interval(u), u
    point = validate_axioms(1, [(0, 0, 0)])
    for blocks in [[build_boolean(3)], [c[1]] * 3, [c[2], build_boolean(2), c[1]],
                   [build_even_subsets(4), c[3], point, build_product([c[1], c[2]])],
                   relabeled_blocks(), relabeled_blocks()[::-1]]:
        assert horizontal_sum(blocks) == indexed_horizontal_sum(blocks), blocks


def relabeled_blocks() -> list:
    """Blocks whose rows a seeded relabeling has put out of their built order."""
    rng = random.Random(0)
    blocks = [build_even_subsets(4), build_product([build_chain(1), build_chain(2)]),
              build_boolean(3), build_chain(3)]
    return [permute_algebra(B, [0, *rng.sample(range(1, B.n - 1), B.n - 2), B.n - 1])
            for B in blocks]


def test_unchecked_builds_equal_validated_builds():
    """The catalog builders and ``fuzz.permute_algebra`` assemble their tables
    with no axiom checked; each is an effect algebra by construction.  Each
    output equals ``validate_axioms`` on its own raw table as a dataclass:
    table, triples in order, complements, labels and meta.  The population
    covers every size the tests and the benchmark rosters build, horizontal
    sums of relabeled blocks, and the random draws of the tests' population
    seeds, each relabeled."""
    c = {n: build_chain(n) for n in range(1, 5)}
    point = validate_axioms(1, [(0, 0, 0)])
    algebras = [build_boolean(k) for k in range(1, 11)]
    algebras += [build_chain(n) for n in [*range(1, 9), 24, 48, 128, 512]]
    algebras += [build_even_subsets(m) for m in range(2, 11, 2)]
    algebras += [E for _name, E in small_catalog() if E.meta["construction"] == "product"]
    algebras += [build_product(factors) for factors in
                 [[c[4]] * 3, [c[2]] * 3, [build_boolean(2), c[2]], [build_even_subsets(4), c[1]]]]
    algebras += [horizontal_sum(blocks) for blocks in
                 [[build_boolean(3)] * 5, [build_boolean(2)] * 10, [c[1]] * 3, [c[2], c[3], c[4]],
                  [build_even_subsets(4), c[3], point, build_product([c[1], c[2]])],
                  relabeled_blocks(), relabeled_blocks()[::-1]]]
    algebras += [materialize(IntervalAlgebra(PoGroupSpec(len(u), "Z", "product"), u))
                 for u in [(1,), (3,), (1, 1), (2, 1), (2, 2), (1, 1, 1), (3, 2), (0, 1), (0,)]]
    for seed, draws, size in [(20240913, 200, 9), (4242, 200, 9), (4242, 200, 12), (5, 60, 9),
                              (7, 30, 6), (11, 30, 7)]:
        rng = random.Random(seed)
        algebras += [random_algebra(rng, max_elements=size)[1] for _ in range(draws)]
    for E in algebras:
        assert E == validate_axioms(E.n, raw_triples(E), E.labels, E.meta), E


def test_unchecked_horizontal_sum_keeps_the_scan_guard():
    """Two chain(583) blocks are each under ``GUARD_ASSOCIATIVITY``, but their
    sum's (ii) scan is not; the unchecked assembly refuses it as validation did,
    before its 585 x 585 table or its sums are allocated."""
    c = build_chain(583)
    message = r"^associativity scan of 66733676 triples \(guard 33554432\)$"
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded, match=message):
            horizontal_sum([c, c])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20, peak


def test_builders_guard_the_scan_of_the_table_they_build(monkeypatch):
    """A builder that can reach ``GUARD_ASSOCIATIVITY`` guards the (ii) scan of
    exactly the table it builds: with the guard at that table's L - 1 it
    refuses, naming L, and at L it builds the same algebra.  The horizontal
    sums include a one-element block and a chain(1) block.  even_subsets, which
    reads no scan guard, has the closed form L = (4^m + 4 * 2^m) / 8."""
    c = {n: build_chain(n) for n in range(1, 5)}
    point = validate_axioms(1, [(0, 0, 0)])
    b2, e4 = build_boolean(2), build_even_subsets(4)
    builds = [lambda: build_chain(1), lambda: build_chain(7), lambda: build_boolean(3),
              lambda: build_product([c[2], c[3]]), lambda: build_product([b2, c[1], c[2]]),
              lambda: materialize(IntervalAlgebra(PoGroupSpec(3, "Z", "product"), (2, 0, 1))),
              lambda: horizontal_sum([point]), lambda: horizontal_sum([c[1]] * 3),
              lambda: horizontal_sum([c[2], point, c[1]]),
              lambda: horizontal_sum([b2, c[1], c[3], e4, point])]
    for build in builds:
        E = build()
        work = associativity_work(E.table, E.triples)
        monkeypatch.setattr(core, "GUARD_ASSOCIATIVITY", work - 1)
        with pytest.raises(GuardExceeded, match=rf"^associativity scan of {work} triples "):
            build()
        monkeypatch.setattr(core, "GUARD_ASSOCIATIVITY", work)
        assert build() == E, E
        monkeypatch.undo()
    for m in range(2, 11, 2):
        E = build_even_subsets(m)
        assert associativity_work(E.table, E.triples) == (4 ** m + 4 * 2 ** m) // 8, m
