"""State functor, affine-function functor, round trips, morphisms."""

from fractions import Fraction as F
from itertools import product

import pytest

from effectalg.catalog import build_boolean, build_chain, build_product, small_catalog
from effectalg.core import homomorphisms
from effectalg.duality import (AffineFunctionAlgebra, FiniteSimplex, VertexMap,
                               affine_functor, check_simplex_morphism,
                               check_state_morphism, state_functor)
from effectalg.operators import coordinate_repeat_maps
from oracles import induced_state_self_map, preserves_existing_meets


def test_vertex_map_potency_enforced():
    VertexMap((1, 0), 3)
    with pytest.raises(ValueError):
        VertexMap((1, 0), 2)
    with pytest.raises(ValueError):
        VertexMap((3, 0), 2)
    # every map is 1-potent, so n = 1 would admit maps with no potency at all
    with pytest.raises(ValueError):
        VertexMap((1, 2, 2), 1)
    with pytest.raises(ValueError):
        VertexMap((0, 1), 1)


def test_affine_algebra_operations():
    alg = AffineFunctionAlgebra(3)
    f = alg.element([F(1, 3), F(1, 2), F(2, 3)])
    g = alg.element([F(1, 3), F(1, 4), F(1, 3)])
    assert alg.sum_defined(f, g)
    assert alg.add(f, g) == (F(2, 3), F(3, 4), F(1))
    assert alg.complement(f) == (F(2, 3), F(1, 2), F(1, 3))
    assert alg.join(f, g) == (F(1, 3), F(1, 2), F(2, 3))
    assert not alg.sum_defined(f, f)
    with pytest.raises(ValueError):
        alg.element([F(1, 2), F(3, 2), F(0)])


def test_pullback_examples():
    sx = FiniteSimplex(("v1", "v2", "v3"))
    alg, op = affine_functor(sx, VertexMap((2, 2, 2), 2))
    f = alg.element([F(1, 4), F(1, 2), F(3, 4)])
    assert op.apply(f) == (F(3, 4), F(3, 4), F(3, 4))   # constant at f(v3)
    alg2, op2 = affine_functor(FiniteSimplex(("x", "y")), VertexMap((1, 0), 3))
    assert op2.apply((F(1, 3), F(2, 3))) == (F(2, 3), F(1, 3))
    triple = op2.apply(op2.apply(op2.apply((F(1, 3), F(2, 3)))))
    assert triple == op2.apply((F(1, 3), F(2, 3)))


def test_identity_pullback():
    sx = FiniteSimplex(("a", "b"))
    _alg, op = affine_functor(sx, VertexMap((0, 1), 2))
    f = (F(1, 5), F(2, 5))
    assert op.apply(f) == f


def test_state_functor_examples():
    b2 = build_boolean(2)
    P, g = state_functor(b2, (0, 1, 2, 3))
    assert len(P.vertices) == 2
    assert g.vertex_to_vertex == (0, 1)

    c22 = build_product([build_chain(2), build_chain(2)])
    t1, _ = coordinate_repeat_maps(c22)
    P, g = state_functor(c22, t1)
    assert len(P.vertices) == 2
    assert g.vertex_to_vertex in ((0, 0), (1, 1))

    swap = (0, 2, 1, 3)
    P, g = state_functor(b2, swap)
    assert sorted(g.vertex_to_vertex) == [0, 1]
    assert g.vertex_to_vertex != (0, 1)
    assert g.potency == 3


def test_interior_point_is_averaged_not_extremal():
    sx = FiniteSimplex(("x", "y"))
    alg, _op = affine_functor(sx, VertexMap((0, 1), 2))
    mid = (F(1, 2), F(1, 2))
    f = alg.element([F(0), F(1)])
    assert alg.evaluate(f, mid) == F(1, 2)
    assert mid not in (sx.vertex_point(0), sx.vertex_point(1))


def round_trip_holds(sx, g):
    """Push-forward along g against the pull-back route, at every vertex."""
    alg, op = affine_functor(sx, g)
    return all(g.push_forward(sx.vertex_point(x))
               == induced_state_self_map(alg, op, sx.vertex_point(x))
               for x in range(sx.m))


def test_round_trip_identity():
    sx = FiniteSimplex(("a", "b", "c"))
    assert round_trip_holds(sx, VertexMap((0, 1, 2), 2))


def test_round_trip_constant_collapse():
    sx = FiniteSimplex(("a", "b", "c"))
    g = VertexMap((2, 2, 2), 2)
    assert round_trip_holds(sx, g)
    alg, op = affine_functor(sx, g)
    for x in range(3):
        assert induced_state_self_map(alg, op, sx.vertex_point(x)) == sx.vertex_point(2)


def test_round_trip_swap():
    sx = FiniteSimplex(("x", "y"))
    assert round_trip_holds(sx, VertexMap((1, 0), 3))


def test_round_trip_exhaustive_m3():
    from itertools import product as iproduct
    from effectalg.operators import power
    sx = FiniteSimplex(("a", "b", "c"))
    for image in iproduct(range(3), repeat=3):
        for n in (2, 3):
            if power(image, n) == tuple(image):
                assert round_trip_holds(sx, VertexMap(tuple(image), n))


def test_state_morphism_checks():
    c22 = build_product([build_chain(2), build_chain(2)])
    t1, t2 = coordinate_repeat_maps(c22)
    ident = tuple(range(c22.n))
    assert check_state_morphism(c22, t1, c22, t1, ident).passed
    assert check_state_morphism(c22, t1, c22, t1, t1).passed
    rep = check_state_morphism(c22, t2, c22, t2, t1)
    assert not rep.passed
    assert rep.reason == "operator square does not commute"
    tuples = c22.meta["tuples"]
    assert tuples[rep.witness[0]] == (0, 1)


def test_state_morphism_join_test_implies_meets():
    """With identity operators, ``check_state_morphism`` passes exactly the
    homomorphisms that keep existing joins and existing meets, over every map
    fixing 0 and 1 between two algebras of ``small_catalog(6)``; its one lattice
    test reads joins, and the meets come from the oracle."""
    algebras = [E for _name, E in small_catalog(6)]
    verdicts = {"passed": 0, "lattice_fails": 0, "not_homomorphism": 0}
    for E1 in algebras:
        join1 = E1.order.join
        ident = tuple(range(E1.n))
        for E2 in algebras:
            join2 = E2.order.join
            homs = set(homomorphisms(E1, E2))
            for middle in product(range(E2.n), repeat=E1.n - 2):
                h = (0, *middle, E2.n - 1)
                joins_kept = all(join1[a][b] is None or join2[h[a]][h[b]] == h[join1[a][b]]
                                 for a in ident for b in ident)
                lattice_kept = joins_kept and preserves_existing_meets(E1, h, E2)
                got = check_state_morphism(E1, ident, E2, tuple(range(E2.n)), h).passed
                assert got == (h in homs and lattice_kept), (E1.labels, E2.labels, h)
                key = ("not_homomorphism" if h not in homs
                       else "passed" if lattice_kept else "lattice_fails")
                verdicts[key] += 1
    assert all(verdicts.values()), verdicts


def test_simplex_morphism_checks():
    sx2 = FiniteSimplex(("x", "y"))
    sx3 = FiniteSimplex(("a", "b", "c"))
    swap2 = VertexMap((1, 0), 3)
    ident3 = VertexMap((0, 1, 2), 2)
    assert check_simplex_morphism(sx2, swap2, sx2, swap2, (0, 1)).passed
    assert check_simplex_morphism(sx2, swap2, sx3, VertexMap((1, 0, 2), 3), (0, 1)).passed
    rep = check_simplex_morphism(sx2, swap2, sx3, ident3, (0, 1))
    assert not rep.passed
    assert rep.reason == "square does not commute on vertices"


def test_simplex_morphism_rejects_vertex_maps_of_the_wrong_size():
    sx2 = FiniteSimplex(("x", "y"))
    sx3 = FiniteSimplex(("a", "b", "c"))
    ident2 = VertexMap((0, 1), 2)
    ident3 = VertexMap((0, 1, 2), 2)
    for g1, g2 in ((ident3, ident3), (ident2, ident2)):
        rep = check_simplex_morphism(sx2, g1, sx3, g2, (0, 1))
        assert not rep.passed
        assert rep.reason == "vertex map does not match the simplex"
    assert check_simplex_morphism(sx2, ident2, sx3, ident3, (0, 1)).passed


def test_pullback_preserves_joins_meets():
    sx = FiniteSimplex(("a", "b", "c"))
    alg, op = affine_functor(sx, VertexMap((1, 1, 2), 2))
    f = alg.element([F(1, 6), F(5, 6), F(1, 2)])
    g = alg.element([F(2, 3), F(1, 3), F(1, 2)])
    assert op.apply(alg.join(f, g)) == alg.join(op.apply(f), op.apply(g))
    assert op.apply(alg.meet(f, g)) == alg.meet(op.apply(f), op.apply(g))


def test_induced_self_map_potency():
    sx = FiniteSimplex(("a", "b", "c", "d"))
    g = VertexMap((1, 0, 3, 3), 3)
    alg, op = affine_functor(sx, g)
    w = (F(1, 10), F(2, 10), F(3, 10), F(4, 10))
    once = induced_state_self_map(alg, op, w)
    twice = induced_state_self_map(alg, op, once)
    thrice = induced_state_self_map(alg, op, twice)
    assert thrice == once
