"""Catalog constructions: shapes, counts, and labels."""

import pytest

from effectalg.catalog import (CatalogSpec, build_boolean, build_catalog, build_chain,
                               build_even_subsets, build_product, horizontal_sum)
from effectalg.core import is_isomorphic


def test_chain2_shape():
    E = build_chain(2)
    assert E.n == 3
    assert E.sum(1, 1) == 2            # v + v = 1
    assert E.labels == ("0", "1/2", "1")


def test_even_subsets_count():
    # subsets of even size in a 4-set: 1 + 6 + 1
    E = build_even_subsets(4)
    assert E.n == 8
    assert E.labels[0] == "{}" and E.labels[-1] == "{1,2,3,4}"
    assert sum(1 for lab in E.labels if lab.count(",") == 1) == 6
    with pytest.raises(ValueError):
        build_even_subsets(5)


def test_product_of_trivial_chains_is_boolean():
    E = build_product([build_chain(1), build_chain(1)])
    assert is_isomorphic(E, build_boolean(2))


def test_product_sum_is_coordinatewise():
    E = build_product([build_chain(2), build_chain(3)])
    tuples = E.meta["tuples"]
    index = {t: i for i, t in enumerate(tuples)}
    assert E.sum(index[(1, 1)], index[(1, 2)]) == index[(2, 3)]
    assert not E.defined(index[(2, 1)], index[(1, 0)])


def test_boolean_sum_is_disjoint_union():
    E = build_boolean(3)
    assert E.defined(0b001, 0b110)
    assert E.sum(0b001, 0b110) == 0b111
    assert not E.defined(0b011, 0b110)


def test_catalog_spec_from_dict():
    spec = CatalogSpec.from_dict({"kind": "product", "factors": [
        {"kind": "chain", "n": 2}, {"kind": "chain", "n": 2}]})
    assert spec == CatalogSpec("product", factors=(
        CatalogSpec("chain", n=2), CatalogSpec("chain", n=2)))
    assert build_catalog(spec).n == 9
    mv = CatalogSpec.from_dict({"kind": "mv_product", "chains": [2, 2]})
    E = build_catalog(mv)
    square = build_product([build_chain(2), build_chain(2)])
    assert E == square and hash(E) == hash(square) and E.n == 9


def test_horizontal_sum_blocks_do_not_mix():
    E = horizontal_sum([build_chain(2), build_chain(2)])
    assert E.n == 4
    v, w = 1, 2
    assert E.sum(v, v) == E.n - 1 and E.sum(w, w) == E.n - 1
    assert not E.defined(v, w)
