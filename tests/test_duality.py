"""Vertex maps, the induced state maps of algebras, round trips, morphisms."""

from fractions import Fraction as F
from itertools import product

import pytest

from effectalg.catalog import build_boolean, build_chain, build_product, small_catalog
from effectalg.core import homomorphisms, is_homomorphism
from effectalg.duality import VertexMap, check_simplex_morphism, check_state_morphism
from effectalg.operators import coordinate_repeat_maps, induced_state_map
from effectalg.states import compute_states
from oracles import induced_state_self_map, power, preserves_existing_meets, updown_order


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


def test_pullback_examples():
    """The test-side pull-back route on hand-computed states: a constant map
    sends every state to its vertex, and the swap of two vertices swaps the
    weights and returns after three steps."""
    collapse = VertexMap((2, 2, 2), 2)
    assert induced_state_self_map(collapse, (F(1, 4), F(1, 2), F(1, 4))) == (0, 0, 1)
    swap = VertexMap((1, 0), 3)
    once = induced_state_self_map(swap, (F(1, 3), F(2, 3)))
    assert once == (F(2, 3), F(1, 3))
    assert induced_state_self_map(swap, induced_state_self_map(swap, once)) == once


def test_identity_pullback():
    w = (F(1, 5), F(4, 5))
    assert induced_state_self_map(VertexMap((0, 1), 2), w) == w


def test_state_functor_examples():
    """An algebra with a potent endomorphism to its polytope with the induced
    state map."""
    b2 = build_boolean(2)
    P = compute_states(b2)
    g = induced_state_map(b2, (0, 1, 2, 3), P)
    assert len(P.vertices) == 2
    assert g.vertex_to_vertex == (0, 1)

    c22 = build_product([build_chain(2), build_chain(2)])
    t1, _ = coordinate_repeat_maps(c22)
    P = compute_states(c22)
    g = induced_state_map(c22, t1, P)
    assert len(P.vertices) == 2
    assert g.vertex_to_vertex in ((0, 0), (1, 1))

    swap = (0, 2, 1, 3)
    g = induced_state_map(b2, swap, compute_states(b2))
    assert sorted(g.vertex_to_vertex) == [0, 1]
    assert g.vertex_to_vertex != (0, 1)
    assert g.potency == 3


def vertex_point(m, x):
    """The weights of vertex x of an m-vertex simplex."""
    return tuple(F(int(y == x)) for y in range(m))


def round_trip_holds(g):
    """Push-forward along g against the pull-back route, at every vertex."""
    m = len(g.image)
    return all(g.push_forward(vertex_point(m, x))
               == induced_state_self_map(g, vertex_point(m, x)) for x in range(m))


def test_round_trip_identity():
    assert round_trip_holds(VertexMap((0, 1, 2), 2))


def test_round_trip_constant_collapse():
    g = VertexMap((2, 2, 2), 2)
    assert round_trip_holds(g)
    for x in range(3):
        assert induced_state_self_map(g, vertex_point(3, x)) == vertex_point(3, 2)


def test_round_trip_swap():
    assert round_trip_holds(VertexMap((1, 0), 3))


def test_round_trip_exhaustive_m3():
    for image in product(range(3), repeat=3):
        for n in (2, 3):
            if power(image, n) == tuple(image):
                assert round_trip_holds(VertexMap(tuple(image), n))


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
    # maps that leave their algebras fail the check rather than raise
    c2 = build_chain(2)
    ident = (0, 1, 2)
    assert not check_state_morphism(c2, ident, c2, ident, (0, 5, 2)).passed
    assert not check_state_morphism(c2, ident, c2, ident, (0, -1, 2)).passed
    for tau1, tau2 in (((0, 1), ident), (ident, (0, 1)), (ident, (0, 1, 2, 3)),
                       ((0, 5, 2), ident), (ident, (0, 3, 2))):
        rep = check_state_morphism(c2, tau1, c2, tau2, ident)
        assert not rep.passed, (tau1, tau2)
    assert check_state_morphism(c2, ident, c2, ident, ident).passed


def test_state_morphism_join_test_implies_meets():
    """With identity operators, ``check_state_morphism`` passes exactly the
    homomorphisms that keep existing joins and existing meets, over every map
    fixing 0 and 1 between two algebras of ``small_catalog(6)``; its one lattice
    test reads joins, and the joins and meets it is held to come from the oracles."""
    algebras = [E for _name, E in small_catalog(6)]
    verdicts = {"passed": 0, "lattice_fails": 0, "not_homomorphism": 0}
    for E1 in algebras:
        join1 = updown_order(E1)[2]
        ident = tuple(range(E1.n))
        for E2 in algebras:
            join2 = updown_order(E2)[2]
            homs = set(homomorphisms(E1, E2))
            for middle in product(range(E2.n), repeat=E1.n - 2):
                h = (0, *middle, E2.n - 1)
                joins_kept = all(join1[a][b] is None or join2[h[a]][h[b]] == h[join1[a][b]]
                                 for a in ident for b in ident)
                lattice_kept = joins_kept and preserves_existing_meets(E1, h, E2)
                assert is_homomorphism(E1, E2, h) == (h in homs), (E1.labels, E2.labels, h)
                got = check_state_morphism(E1, ident, E2, tuple(range(E2.n)), h).passed
                assert got == (h in homs and lattice_kept), (E1.labels, E2.labels, h)
                key = ("not_homomorphism" if h not in homs
                       else "passed" if lattice_kept else "lattice_fails")
                verdicts[key] += 1
    assert all(verdicts.values()), verdicts


def test_simplex_morphism_checks():
    swap2 = VertexMap((1, 0), 3)
    ident3 = VertexMap((0, 1, 2), 2)
    assert check_simplex_morphism(swap2, swap2, (0, 1)).passed
    assert check_simplex_morphism(swap2, VertexMap((1, 0, 2), 3), (0, 1)).passed
    assert check_simplex_morphism(VertexMap((0, 1), 2), ident3, (0, 1)).passed
    rep = check_simplex_morphism(swap2, ident3, (0, 1))
    assert not rep.passed
    assert rep.reason == "square does not commute on vertices"
    for p in ((0,), (0, 1, 2), (0, 3), (0, -1)):
        assert not check_simplex_morphism(swap2, ident3, p).passed, p


def test_induced_self_map_potency():
    g = VertexMap((1, 0, 3, 3), 3)
    w = (F(1, 10), F(2, 10), F(3, 10), F(4, 10))
    once = induced_state_self_map(g, w)
    twice = induced_state_self_map(g, once)
    thrice = induced_state_self_map(g, twice)
    assert thrice == once
