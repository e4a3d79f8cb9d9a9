"""MV operation tables on the lattice-ordered catalog algebras."""

import random

import pytest

from effectalg.catalog import (build_boolean, build_chain, build_even_subsets,
                               build_product, horizontal_sum, small_catalog)
from effectalg.fuzz import random_algebra
from effectalg.mv import (is_mv_endomorphism, is_mv_state_morphism, mv_operations,
                          mv_state_axioms)
from oracles import derived_sum_matches


def test_chain2_tables():
    A = mv_operations(build_chain(2))
    half = 1
    assert A.oplus[half][half] == 2        # 1/2 (+) 1/2 = 1
    assert A.odot[half][half] == 0         # 1/2 (.) 1/2 = 0
    assert A.star[half] == half


def test_chain3_tables():
    A = mv_operations(build_chain(3))
    assert A.oplus[1][2] == 3              # 1/3 (+) 2/3 = 1
    assert A.odot[2][2] == 1               # 2/3 (.) 2/3 = 1/3


def test_oplus_unit_and_top():
    for E in (build_chain(4), build_boolean(2),
              build_product([build_chain(2), build_chain(2)])):
        A = mv_operations(E)
        for x in range(E.n):
            assert A.oplus[x][0] == x
            assert A.oplus[x][E.n - 1] == E.n - 1


def test_derived_sum_reproduces_table():
    for E in (build_chain(5), build_boolean(3),
              build_product([build_chain(2), build_chain(3)])):
        A = mv_operations(E)
        ok, witness = derived_sum_matches(A)
        assert ok, witness


def test_mv_identities_on_population():
    """On every MV algebra among the catalog up to 9 elements and 200 seeded
    random tables: 0 is the unit of (+), 1 absorbs, (+) commutes, star is an
    involution, the Lukasiewicz axiom holds, and the derived partial sum is the
    table.  ``mv_operations`` builds the tables without rechecking these."""
    rng = random.Random(20240913)
    population = [E for _name, E in small_catalog(max_elements=9)]
    population += [random_algebra(rng, max_elements=9)[1] for _ in range(200)]
    built = 0
    for E in population:
        try:
            A = mv_operations(E)
        except ValueError:     # no refinement: not MV
            continue
        n, oplus, star = E.n, A.oplus, A.star
        for x in range(n):
            assert oplus[x][0] == x == oplus[0][x]
            assert oplus[x][n - 1] == n - 1
            assert star[star[x]] == x
            for y in range(n):
                assert oplus[x][y] == oplus[y][x]
                assert (oplus[x][star[oplus[x][star[y]]]]
                        == oplus[y][star[oplus[y][star[x]]]])
        ok, witness = derived_sum_matches(A)
        assert ok, witness
        built += 1
    assert built


def test_non_mv_inputs_rejected():
    with pytest.raises(ValueError):
        mv_operations(build_even_subsets(4))       # lattice but no refinement
    with pytest.raises(ValueError):
        mv_operations(horizontal_sum([build_chain(2), build_chain(2)]))


def test_identity_satisfies_state_axioms():
    A = mv_operations(build_chain(2))
    axioms = mv_state_axioms(A, (0, 1, 2))
    assert all(axioms.values())
    assert is_mv_state_morphism(A, (0, 1, 2))


def test_collapse_map_fails_oplus_split():
    # tau(1/2) = 0 breaks the splitting identity at x = y = 1/2
    A = mv_operations(build_chain(2))
    axioms = mv_state_axioms(A, (0, 0, 2))
    assert not axioms["oplus_split"]
    assert not is_mv_endomorphism(A, (0, 0, 2))


def test_square_product_morphisms():
    E = build_product([build_chain(2), build_chain(2)])
    A = mv_operations(E)
    from effectalg.operators import coordinate_repeat_maps
    t1, t2 = coordinate_repeat_maps(E)
    assert is_mv_state_morphism(A, t1)
    assert is_mv_state_morphism(A, t2)
    assert all(mv_state_axioms(A, t1).values())
