"""State polytopes, ordering reports, discreteness, evaluation images, clans."""

import random
from collections import Counter
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from effectalg.catalog import (build_boolean, build_chain, build_even_subsets,
                               build_product, horizontal_sum, small_catalog)
from effectalg.core import GuardExceeded, _blocks, _is_central, decompose, validate_axioms
from effectalg.fuzz import random_algebra
from effectalg.io import structure_from_dict
from effectalg.linalg import affine_parametrization
from effectalg.pogroup import (IntervalAlgebra, PoGroupSpec, extremal_states,
                               group_leq, strict_plane_preimage)
from effectalg.polytope import GUARD_DIM, dd_vertices
from effectalg.states import (GUARD_VERTICES, OrderingReport, StatePolytope, _Part,
                              _below_by_columns, _below_by_rows, _order_report,
                              _part_polytope, clan_closure_witness, compute_states,
                              is_order_determining, is_state,
                              sampled_order_report, state_equalities)
from effectalg.suite import (check_clan_closure_finite, check_order_determining,
                             check_state_geometry, check_strict_plane_separating)

from oracles import (all_pairs_order_report, brute_force_central,
                     dense_affine_parametrization, fraction_parametrization,
                     whole_algebra_states)
from tables import greechie_chain, wright_triangle
from test_acceptance import Budget, operator_population
from test_cli_golden import HSUM


def test_chain2_single_state():
    P = compute_states(build_chain(2))
    assert P.vertices == ((F(0), F(1, 2), F(1)),)


def test_chain_states_are_forced():
    for n in (1, 3, 5, 8):
        P = compute_states(build_chain(n))
        assert P.vertices == (tuple(F(k, n) for k in range(n + 1)),)


def test_boolean2_two_dirac_vertices():
    P = compute_states(build_boolean(2))
    assert len(P.vertices) == 2
    assert all(set(v) == {F(0), F(1)} for v in P.vertices)


def test_boolean_cube_states_are_dirac_at_the_atoms():
    """boolean(m) has exactly m extremal states, 1 at one atom and 0 at the rest."""
    for m in (1, 2, 3, 4):
        P = compute_states(build_boolean(m))
        atoms = [1 << i for i in range(m)]
        at_atoms = sorted(tuple(v[a] for a in atoms) for v in P.vertices)
        assert at_atoms == sorted(tuple(F(int(i == j)) for j in range(m))
                                  for i in range(m))


def test_square_product_vertices_are_coordinate_states():
    E = build_product([build_chain(2), build_chain(2)])
    P = compute_states(E)
    tuples = E.meta["tuples"]
    m1 = tuple(F(t[0], 2) for t in tuples)
    m2 = tuple(F(t[1], 2) for t in tuples)
    assert set(P.vertices) == {m1, m2}


def test_vertices_sorted_and_deduped():
    for _name, E in small_catalog():
        P = compute_states(E)
        assert list(P.vertices) == sorted(set(P.vertices))
        for v in P.vertices:
            assert is_state(E, v)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_convex_combinations_are_states(data):
    algebras = small_catalog()
    _name, E = data.draw(st.sampled_from(algebras))
    P = compute_states(E)
    if not P.vertices:
        return
    k = len(P.vertices)
    raw = data.draw(st.lists(st.integers(min_value=0, max_value=9),
                             min_size=k, max_size=k).filter(lambda w: any(w)))
    total = sum(raw)
    weights = [F(w, total) for w in raw]
    point = tuple(sum(w * v[a] for w, v in zip(weights, P.vertices))
                  for a in range(E.n))
    assert is_state(E, point)


def test_no_vertex_is_a_midpoint():
    result = check_state_geometry()
    assert result.passed and result.details == {}


def test_vertex_lookup_matches_fraction_scan():
    """vertex_index and vertex_map against a linear scan with Fraction equality,
    on vertices, midpoints and the images under random unit-fixing self-maps."""
    def scan(P, vec):
        return next((i for i, v in enumerate(P.vertices) if v == tuple(vec)), None)

    rng = random.Random(3)
    for _name, E in small_catalog(max_elements=6):
        P = compute_states(E)
        n = E.n
        for i, v in enumerate(P.vertices):
            assert P.vertex_index(v) == i
            assert P.vertex_index([int(x) if x.denominator == 1 else x for x in v]) == i
        for v, w in zip(P.vertices, P.vertices[1:]):
            mid = tuple((x + y) / 2 for x, y in zip(v, w))
            assert P.vertex_index(mid) is None
        maps = [tuple(range(n))]
        maps += [(0, *(rng.randrange(n) for _ in range(n - 2)), n - 1) for _ in range(40)]
        for m in maps:
            found = [scan(P, tuple(v[a] for a in m)) for v in P.vertices]
            assert P.vertex_map(m) == (None if None in found else tuple(found))


def test_vertex_map_on_one_element_mappings():
    """A one-element mapping makes ``itemgetter`` return a scalar.  The only
    self-map of that length belongs to the algebra whose 0 is its 1, which has
    no states, so nothing is looked up; on a polytope with vertices the scalar
    misses exactly as the 1-tuple would."""
    E = validate_axioms(1, [(0, 0, 0)], ["0"])
    P = compute_states(E)
    assert P.empty and P.vertex_map((0,)) == ()
    P = compute_states(build_chain(2))
    assert all(P.vertex_map((a,)) is None for a in range(3))


def test_order_determining_catalog():
    """Every algebra of ``small_catalog()``, the chains and Boolean cubes among
    them, is order-determining and separating, and hsum(2,2) is neither.  The
    suite check is the one definition; this pins its verdict and its flags."""
    result = check_order_determining()
    both = {"order_determining": True, "separating": True}
    assert result.passed
    assert result.details == {**{name: both for name, _E in small_catalog()},
                              "hsum(2,2)": {"order_determining": False, "separating": False}}


def image_order_isomorphic(E, P):
    """Is a |-> a-hat injective and order-reflecting?  Computed from the image
    vectors alone, as the oracle for ``is_order_determining``."""
    vecs = [tuple(v[a] for v in P.vertices) for a in range(E.n)]
    if len(set(vecs)) != E.n:
        return False
    return all(all(x <= y for x, y in zip(vecs[a], vecs[b])) == E.leq(a, b)
               for a in range(E.n) for b in range(E.n))


def test_order_determining_matches_image_isomorphism():
    population = small_catalog() + [
        ("hsum22", horizontal_sum([build_chain(2), build_chain(2)])),
        ("hsum23", horizontal_sum([build_chain(2), build_chain(3)]))]
    for _name, E in population:
        P = compute_states(E)
        rep = is_order_determining(E, P)
        assert rep.order_determining == image_order_isomorphic(E, P)
        if rep.order_determining:
            assert rep.separating


def test_horizontal_sum_not_separating():
    E = horizontal_sum([build_chain(2), build_chain(2)])
    P = compute_states(E)
    rep = is_order_determining(E, P)
    assert not rep.separating and not rep.order_determining
    assert rep.sep_witness == (1, 2)


def test_discrete_profiles():
    """Hand-built vertices over a common scale of 12, finer than any of their
    denominators."""
    for vecs, want in [(((0, F(1, 2), 1), (0, F(1, 2), F(1, 3))), (2, 6)),
                       (((0, 1, 0, 1), (0, 0, 1, 1), (0, F(1, 2), F(1, 3), 1)), (1, 1, 6))]:
        iv = tuple(tuple(int(x * 12) for x in v) for v in vecs)
        assert StatePolytope(len(iv[0]), iv, 12, 0).denominators == want


def test_every_rational_state_is_discrete():
    """Each vertex's denominator n is the least n with every n * v(a) an
    integer, over the catalog, the A05 population and the states-hsum golden's
    horizontal sum (scale 6)."""
    hsum = compute_states(structure_from_dict(HSUM))
    assert hsum.scale == 6
    polytopes = [compute_states(E) for _name, E in [*small_catalog(), *operator_population()]]
    for P in polytopes + [hsum]:
        for v, n in zip(P.vertices, P.denominators):
            assert all((x * n).denominator == 1 for x in v)
            assert not any(all((x * k).denominator == 1 for x in v) for k in range(1, n))


def strict_plane():
    return IntervalAlgebra(PoGroupSpec(2, "Q", "strict"), (1, 1))


def test_strict_plane_separating_not_order_determining():
    """The suite's check is the one definition; its verdict and details are pinned."""
    assert check_strict_plane_separating().to_dict() == {
        "name": "strict_plane_separating_not_determining", "passed": True,
        "details": {"separating": True, "order_determining": False, "od_witness": (4, 5)}}


def test_finite_image_clans_closed():
    """The suite's check is the one definition: boolean(2), chain(3) and
    even_subsets(4) have clan-closed evaluation images."""
    assert check_clan_closure_finite().to_dict() == {
        "name": "finite_image_clan_closed", "passed": True, "details": {"witness": None}}


def test_complement_closure_always_holds_on_interval():
    rng = random.Random(3)
    alg = strict_plane()
    states = extremal_states(alg)
    elements = [alg.zero, alg.unit]
    for _ in range(10):
        x = (F(rng.randint(1, 9), 10), F(rng.randint(1, 9), 10))
        if alg.contains(x):
            elements.append(x)
    hat = [tuple(s(e) for s in states) for e in elements]
    witness = clan_closure_witness(hat, strict_plane_preimage(alg), alg.contains)
    assert witness is None or witness.kind != "complement"


def test_empty_polytope_reports_no_states():
    P = StatePolytope(size=3, int_vertices=(), scale=1, free_dim=0)
    assert P.empty
    assert P.vertex_index((F(0), F(0), F(1))) is None


def test_lex_interval_states_are_first_coordinate():
    alg = IntervalAlgebra(PoGroupSpec(2, "Q", "lex"), (1, 1))
    states = extremal_states(alg)
    assert len(states) == 1
    rep = sampled_order_report(
        [alg.zero, alg.unit, (F(1, 2), F(1, 4)), (F(1, 2), F(3, 4))],
        states, lambda x, y: group_leq(alg.spec, x, y))
    assert not rep.separating
    assert not rep.order_determining


def state_roster():
    """The benchmark's ``states`` roster."""
    return [build_chain(48), build_boolean(6), build_even_subsets(6),
            horizontal_sum([build_boolean(3)] * 5), horizontal_sum([build_boolean(2)] * 10)]


def column_route_cases():
    """Algebras with more vertices than elements, each with its report: the
    ``states-hsum`` golden's sum (29 elements, 81 vertices over scale 6), a sum
    that fails both verdicts (16 elements, 64 vertices) and a Greechie chain
    (44 elements, 233 vertices)."""
    return [(structure_from_dict(HSUM), OrderingReport(False, True, (25, 27), None)),
            (horizontal_sum([build_chain(2)] * 2 + [build_boolean(2)] * 6),
             OrderingReport(False, False, (1, 2), (1, 2))),
            (greechie_chain(10), OrderingReport(True, True, None, None))]


def ordering_population():
    """The A05 population (the catalog up to 9 elements and 200 seeded random
    tables), 200 random tables of up to 12 elements from the held-out seed 4242,
    the benchmark's state roster and ``column_route_cases``."""
    rng = random.Random(4242)
    algebras = [E for _name, E in operator_population()]
    algebras += [random_algebra(rng, max_elements=12)[1] for _ in range(200)]
    return algebras + state_roster() + [E for E, _rep in column_route_cases()]


@pytest.fixture
def routes(monkeypatch):
    """The names of the orientations that ``is_order_determining`` and
    ``sampled_order_report`` read the statewise down-sets by, call by call."""
    ran = []
    for below in (_below_by_rows, _below_by_columns):
        def recorded(vertices, n, below=below):
            ran.append(below.__name__)
            return below(vertices, n)
        monkeypatch.setattr(f"effectalg.states.{below.__name__}", recorded)
    return ran


def test_ordering_report_matches_all_pairs_oracle(routes):
    """The bitmask report equals the all-pairs loop on both verdicts and both
    witnesses, through ``is_order_determining`` on the integer vertices and
    through ``sampled_order_report`` on their Fractions.  Both orientations
    run: the columns on the algebras with more vertices than elements, the
    rows on the others and on every sampled report, and the two give the same
    statewise down-sets on every algebra.  Each route meets algebras that are
    not order determining and algebras that are not separating."""
    misses = {route: {"order_determining": 0, "separating": 0}
              for route in ("_below_by_rows", "_below_by_columns")}
    for E in ordering_population():
        P = compute_states(E)
        values = [tuple(v[a] for v in P.vertices) for a in range(E.n)]
        expected = all_pairs_order_report(values, E.leq)
        routes.clear()
        assert is_order_determining(E, P) == expected
        route = routes[0]
        assert sampled_order_report(range(E.n), [v.__getitem__ for v in P.vertices],
                                    E.leq) == expected
        assert routes == [route, "_below_by_rows"]
        assert (route == "_below_by_columns") == (len(P.int_vertices) > E.n)
        if P.scale < 256:
            assert _below_by_columns(P.int_vertices, E.n) == _below_by_rows(P.int_vertices, E.n)
        if not P.empty:
            misses[route]["order_determining"] += not expected.order_determining
            misses[route]["separating"] += not expected.separating
    assert all(all(m.values()) for m in misses.values()), misses
    for E, rep in column_route_cases():
        assert is_order_determining(E, compute_states(E)) == rep


def test_order_report_witness_is_first_in_row_major_order():
    """The report keeps one down-set mask per column b, yet its witness is the
    least pair (a, b), the all-pairs loop's first.  Three incomparable
    elements with values (0, 1), (0, 0) and (1, 1) at two states: statewise
    1 <= 0, 0 <= 2 and 1 <= 2, none of them in the order.  Column 0 holds
    (1, 0), the first violation by column; the row-major first is (0, 2).
    Both orientations give the report the same down-sets."""
    values = [(0, 1), (0, 0), (1, 1)]
    vertices = list(zip(*values))
    for below in (_below_by_rows(vertices, 3), _below_by_columns(vertices, 3)):
        rep = _order_report(below, [0b001, 0b010, 0b100])
        assert rep.od_witness == (0, 2) and rep.sep_witness is None
        assert rep == all_pairs_order_report(values, lambda a, b: a == b)


def test_ordering_report_raises_on_a_non_state_vertex(routes):
    """A vertex that swaps the values of two ordered middle elements is not a
    state: both routes raise at the same first pair that it fails to keep.
    The 5x boolean(3) sum's fake vertex makes 244 vertices on 32 elements,
    read by columns; the others are read by rows."""
    for E in (build_chain(3), build_boolean(3), horizontal_sum([build_chain(2), build_chain(3)]),
              horizontal_sum([build_boolean(3)] * 5)):
        P = compute_states(E)
        v = list(P.int_vertices[-1])
        a, b = next((a, b) for a in range(1, E.n - 1) for b in range(1, E.n - 1)
                    if E.leq(a, b) and v[a] < v[b])
        v[a], v[b] = v[b], v[a]
        fake = StatePolytope(size=E.n, int_vertices=P.int_vertices + (tuple(v),),
                             scale=P.scale, free_dim=P.free_dim)
        values = [tuple(iv[x] for iv in fake.int_vertices) for x in range(E.n)]
        with pytest.raises(AssertionError) as expected:
            all_pairs_order_report(values, E.leq)
        with pytest.raises(AssertionError) as got:
            is_order_determining(E, fake)
        assert str(got.value) == str(expected.value)
    assert routes == ["_below_by_rows"] * 3 + ["_below_by_columns"]
    with pytest.raises(AssertionError, match=r"^states fail monotonicity at \(1, 2\)$"):
        is_order_determining(build_chain(3), StatePolytope(4, ((0, 2, 1, 3),), 3, 0))


def elimination_roster():
    """The acceptance operator population (the catalog up to 9 elements and 200
    seeded random tables) plus the elimination-heavy large algebras."""
    rng = random.Random(20240913)
    algebras = [E for _name, E in small_catalog(9)]
    algebras += [random_algebra(rng, max_elements=9)[1] for _ in range(200)]
    algebras += [build_chain(48), build_boolean(6), build_even_subsets(6)]
    assert len(algebras) == 220
    return algebras


def dense(rows, nvars):
    return [[row.get(j, 0) for j in range(nvars)] for row in rows]


def test_state_equalities_are_sparse_nonzero_int_rows():
    """One row for s_0 = 0, one for s_1 = 1 and one per defined sum, each a
    nonempty dict of nonzero ints, with int right-hand sides."""
    for E in elimination_roster():
        rows, rhs = state_equalities(E)
        assert len(rows) == len(rhs) == 2 + len(E.triples)
        assert rows[:2] == [{0: 1}, {E.n - 1: 1}] and rhs[:2] == [0, 1]
        assert not any(rhs[2:])
        for row, b in zip(rows, rhs):
            assert row and type(b) is int
            assert all(type(x) is int and x for x in row.values())


def test_sparse_elimination_matches_dense_rref():
    """The sparse integer elimination, read as Fractions, is exactly the dense
    RREF's ``(c, free, basis)``, or None with it, on the state equalities of the
    catalog, 200 random tables and the elimination-heavy large algebras."""
    for E in elimination_roster() + [horizontal_sum([build_boolean(3)] * 5)]:
        rows, rhs = state_equalities(E)
        assert fraction_parametrization(affine_parametrization(rows, rhs, E.n)) == \
            dense_affine_parametrization(dense(rows, E.n), rhs, E.n)


sparse_coeff = st.integers(min_value=-3, max_value=3)


@st.composite
def sparse_systems(draw):
    """(rows, rhs, nvars, clash): at most 3 nonzeros per row, each row and its
    right-hand side times a common ``factor`` so that ``_primitive`` divides;
    with ``clash`` a row is repeated with a shifted right-hand side, so the
    system is inconsistent."""
    nvars = draw(st.integers(min_value=1, max_value=6))
    entries = st.dictionaries(st.integers(min_value=0, max_value=nvars - 1),
                              sparse_coeff.filter(bool), max_size=3)
    sparse = draw(st.lists(st.tuples(entries, sparse_coeff, st.integers(1, 4)),
                           max_size=8))
    rows = [{j: factor * x for j, x in row.items()} for row, _b, factor in sparse]
    rhs = [factor * b for _row, b, factor in sparse]
    clash = bool(rows) and draw(st.booleans())
    if clash:
        k = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        rows.append(dict(rows[k]))
        rhs.append(rhs[k] + 1)
    return rows, rhs, nvars, clash


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
@example(([{0: 1}, {0: 1}], [0, 1], 1, True))    # x = 0 and x = 1
def test_sparse_elimination_matches_dense_rref_on_random_systems(system):
    """Random sparse integer systems (``sparse_systems``); an inconsistent one
    has no parametrization."""
    rows, rhs, nvars, clash = system
    result = affine_parametrization(rows, rhs, nvars)
    assert fraction_parametrization(result) == \
        dense_affine_parametrization(dense(rows, nvars), rhs, nvars)
    if clash:
        assert result is None


def test_size_ceiling_chain128_and_six_boolean_cubes():
    for E, count, free_dim in ((build_chain(128), 1, 0),
                               (horizontal_sum([build_boolean(3)] * 6), 3 ** 6, 12)):
        P = compute_states(E)
        assert (len(P.vertices), P.free_dim) == (count, free_dim)
        assert all(is_state(E, v) for v in P.vertices)
    E = horizontal_sum([build_boolean(3)] * 7)
    with Budget("seven boolean(3) cubes", 3.0):
        P = compute_states(E)
    assert (len(P.vertices), P.free_dim) == (3 ** 7, 14)
    assert all(is_state(E, v) for v in P.vertices)


def test_double_description_guard():
    """Seventeen boolean(2) blocks summed horizontally have 2^17 extremal
    states, past the vertex guard, which raises before their product is built;
    sixteen blocks give exactly ``GUARD_VERTICES``."""
    E = horizontal_sum([build_boolean(2)] * 17)
    assert (E.n, GUARD_VERTICES) == (36, 2 ** 16)
    with Budget("guarded vertex assembly", 0.5):
        with pytest.raises(GuardExceeded, match="guarded at 65536 vertices"):
            compute_states(E)
    E = horizontal_sum([build_boolean(2)] * 16)
    with Budget("sixteen boolean(2) blocks", 2.0):
        P = compute_states(E)
    assert (len(P.int_vertices), P.free_dim) == (GUARD_VERTICES, 16)


def test_free_dimension_guard_on_an_indecomposable_algebra():
    """A Greechie chain of sixteen boolean(3) blocks has no horizontal summand
    and no central element, so it is one part, with free dimension 17: one past
    ``GUARD_DIM``, which raises before any ray is built."""
    E = greechie_chain(16)
    assert (E.n, GUARD_DIM) == (68, 16)
    with Budget("guarded double description", 0.5):
        with pytest.raises(GuardExceeded, match="guarded at 16 free dimensions"):
            compute_states(E)


def split_population():
    """The A05 population, the k x boolean(3) sums for k <= 7, the 10 x
    boolean(2) sum, boolean(6), chain(4)^3, even_subsets(4)^2, sums of products,
    products of sums, a product without all meets and the smaller pasted
    tables."""
    b2, b3, c2 = build_boolean(2), build_boolean(3), build_chain(2)
    algebras = [E for _name, E in operator_population()]
    algebras += [horizontal_sum([b3] * k) for k in range(1, 8)]
    algebras += [horizontal_sum([b2] * 10), build_boolean(6),
                 build_product([build_chain(4)] * 3),
                 build_product([build_even_subsets(4)] * 2),
                 horizontal_sum([build_product([c2, b2]), build_chain(3),
                                 build_product([build_chain(1)] * 3)]),
                 build_product([horizontal_sum([b2, c2]), horizontal_sum([b2] * 3)]),
                 build_product([horizontal_sum([build_product([b2, c2]), b3]), c2]),
                 build_product([wright_triangle(), build_chain(1)]),
                 greechie_chain(2), greechie_chain(5), wright_triangle()]
    return algebras


def test_split_matches_the_whole_algebra_run(monkeypatch):
    """Splitting into horizontal summands and central factors changes no output:
    vertices, scale and free dimension equal elimination and double
    description on the whole algebra as one part.  The parts that reach
    elimination are the indecomposable ones that are not chains, since a
    chain's one state is known in closed form: boolean(6), six two-element
    chains, runs none, and hsum(boolean(2), chain(2)) x hsum(3 x boolean(2))
    none either, its chain(2) leaf read in closed form; Wright's triangle x
    chain(1) runs the triangle."""
    for E in split_population():
        assert compute_states(E) == whole_algebra_states(E), E
    sizes = []

    def recorded(X):
        sizes.append(X.n)
        return whole_algebra_states(X)
    monkeypatch.setattr("effectalg.states._part_polytope", recorded)
    b2 = build_boolean(2)
    compute_states(build_boolean(6))
    assert sizes == []
    compute_states(build_product([horizontal_sum([b2, build_chain(2)]),
                                  horizontal_sum([b2] * 3)]))
    assert sizes == []
    sizes.clear()
    compute_states(build_product([wright_triangle(), build_chain(1)]))
    assert sizes == [wright_triangle().n]


def test_two_element_parts_skip_elimination(monkeypatch):
    """The chain {0, 1} has one state, (0, 1), so no two-element part reaches
    elimination.  Over the A05 population and boolean(5), the operators
    benchmark's algebras, the polytopes equal the whole-algebra run, and no
    part is eliminated: every part of three or more elements there is a
    chain, read in closed form.  even_subsets(6) and Wright's triangle, parts
    that are not chains, are eliminated once each."""
    algebras = [E for _name, E in operator_population()] + [build_boolean(5)]
    algebras += [build_even_subsets(6), wright_triangle()]
    wants = [whole_algebra_states(E) for E in algebras]
    sizes = Counter()

    def recorded(X):
        sizes[X.n] += 1
        return whole_algebra_states(X)
    monkeypatch.setattr("effectalg.states._part_polytope", recorded)
    for E, want in zip(algebras, wants):
        assert compute_states(E) == want, E
    assert 2 not in sizes
    assert sizes == {build_even_subsets(6).n: 1, wright_triangle().n: 1}


def test_chain_leaves_in_closed_form_match_elimination(monkeypatch):
    """A chain leaf chain(d) has the one state x |-> rank(x) / d, read without
    elimination: on chain(1..64) and on chain leaves of three or more
    elements inside a product and two horizontal sums, the polytope equals
    elimination on the whole algebra.  The one-element algebra, whose 0 is its
    unit, has no states; it alone reaches elimination, which finds none."""
    c = build_chain
    product_35 = build_product([c(3), c(5)])
    sum_3b = horizontal_sum([c(3), build_boolean(2)])
    sum_44 = horizontal_sum([c(4), c(4)])
    assert [[(leaf.kind, len(leaf.members)) for leaf in decompose(E).children]
            for E in (product_35, sum_3b, sum_44)] == [
        [("chain", 6), ("chain", 4)], [("chain", 4), ("product", 4)],
        [("chain", 5), ("chain", 5)]]
    algebras = [c(d) for d in range(1, 65)] + [product_35, sum_3b, sum_44]
    wants = [whole_algebra_states(E) for E in algebras]
    one = validate_axioms(1, [(0, 0, 0)])
    eliminated = []

    def recorded(X):
        eliminated.append(X)
        return whole_algebra_states(X)
    monkeypatch.setattr("effectalg.states._part_polytope", recorded)
    for E, want in zip(algebras, wants):
        assert compute_states(E) == want, E
    assert eliminated == []
    assert compute_states(one) == StatePolytope(size=1, int_vertices=(), scale=1, free_dim=0)
    assert eliminated == [one]


def test_chain_512_states_run_no_elimination(monkeypatch):
    """chain(512)'s one state is its closed form: no elimination runs, and
    the tree walk takes well under 0.05 s once the order is derived.  It took
    about 1 s when elimination found the state, on a 2-CPU host."""
    calls = []
    monkeypatch.setattr("effectalg.states._part_polytope", calls.append)
    E = build_chain(512)
    E.order  # derived outside the timing
    with Budget("compute_states on chain(512)", 0.05):
        P = compute_states(E)
    assert calls == []
    assert (P.int_vertices, P.scale, P.free_dim) == ((tuple(range(513)),), 512, 0)


def test_central_test_matches_brute_force():
    """``_is_central`` agrees with the brute-force bijection test on every middle
    element of the A05 population and of products, sums and pasted tables;
    every central c is sharp, so the split may try only sharp candidates."""
    b2, c2 = build_boolean(2), build_chain(2)
    algebras = [E for _name, E in operator_population()]
    algebras += [build_product([c2, b2]), build_product([horizontal_sum([b2] * 2), c2]),
                 horizontal_sum([build_product([c2, b2]), b2]), greechie_chain(2),
                 greechie_chain(3), wright_triangle(),
                 build_product([wright_triangle(), build_chain(1)])]
    verdicts = {True: 0, False: 0}
    for E in algebras:
        for c in range(1, E.n - 1):
            got = _is_central(E, range(E.n), c)
            assert got == brute_force_central(E, c), (E, c)
            assert not got or E.meet(c, E.complement(c)) == 0
            verdicts[got] += 1
    assert all(verdicts.values())


def test_no_node_has_both_splits():
    """The tree does not depend on which split a node tries first: over the
    split population, a product node is one block, a sum node has no central
    element but 0 and its unit, and a leaf has neither split."""
    kinds = Counter()
    for E in split_population():
        stack = [E.verdict(decompose)]
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            m = node.members
            splits = (bool(_blocks(E, m)), any(_is_central(E, m, c) for c in m[1:-1]))
            assert splits == {"product": (False, True), "sum": (True, False)}.get(
                node.kind, (False, False)), (E, node)
            kinds[node.kind] += 1
    assert set(kinds) == {"product", "sum", "chain", "part"}


def test_a_part_without_states_runs_the_whole_algebra(monkeypatch):
    """When a split leaves a part with no states, the result is the run on the
    whole algebra, which keeps its free dimension.  The Wright triangle x
    chain(1) splits into a 2-member chain leaf, answered in closed form, and
    the triangle's 14-member part, which is made to report no states; then
    the whole 28-element algebra is run."""
    E = build_product([wright_triangle(), build_chain(1)])
    seen = []

    def parts_without_states(X):
        seen.append(X.n)
        return whole_algebra_states(X) if X is E else StatePolytope(X.n, (), 1, 0)
    monkeypatch.setattr("effectalg.states._part_polytope", parts_without_states)
    assert compute_states(E) == whole_algebra_states(E)
    assert seen == [14, 28]


def test_an_infeasible_constant_coordinate_leaves_no_states():
    """In the part 0, a, 1 whose one sum is a + 1 = 0, elimination fixes
    s(a) = -1 with no free variable.  Double description finds the constant
    row s(a) >= 0 infeasible and returns no vertex, so the part has the empty
    polytope over scale 1 with free dimension 0."""
    assert _part_polytope(_Part(3, [(1, 2, 0)])) == StatePolytope(3, (), 1, 0)


def int_states(E, P) -> bool:
    """Every integer vertex is a state over ``P.scale``, checked on the triples."""
    return all(v[0] == 0 and v[-1] == P.scale and 0 <= min(v) and max(v) <= P.scale
               and all(v[i] + v[j] == v[k] for i, j, k in E.triples)
               for v in P.int_vertices)


def test_split_runs_past_the_whole_algebra_guards():
    """The 8 x boolean(3) sum (d = 16; seconds as one part) and
    hsum(9 x boolean(2))^2 (d = 19, over ``GUARD_DIM`` as one part) finish
    within a second each."""
    b2, b3 = build_boolean(2), build_boolean(3)
    for name, E, want in (
            ("eight boolean(3) cubes", horizontal_sum([b3] * 8), (50, 3 ** 8, 16)),
            ("hsum(9 x boolean(2)) squared",
             build_product([horizontal_sum([b2] * 9)] * 2), (400, 2 ** 10, 19))):
        E.order
        with Budget(name, 1.0):
            P = compute_states(E)
        assert (E.n, len(P.int_vertices), P.free_dim) == want
        assert int_states(E, P)


def fraction_rebuild(E):
    """The vertices as Fraction sums ``c + sum_j t_j * basis[j]``, with the
    integer parametrization and the rays of ``dd_vertices`` read as Fractions:
    the glue of ``compute_states`` done the slow way.  Also returns ``den * L``,
    the denominator that the integer glue reduces by a gcd, with L the lcm of
    the rays' h; ``((), None)`` when there are no states."""
    eq_rows, eq_rhs = state_equalities(E)
    param = affine_parametrization(eq_rows, eq_rhs, E.n)
    if param is None:
        return (), None
    c_int, free, columns, den = param
    c, _free, basis = fraction_parametrization(param)
    d = len(free)
    rows = []
    for col, ci in zip(columns, c_int):
        if any(col):
            rows.append((col, -ci))
            rows.append(([-x for x in col], ci - den))
        elif not 0 <= ci <= den:
            return (), None
    rays = dd_vertices(rows, d)
    points = [tuple(F(x, ray[d]) for x in ray[:d]) for ray in rays]
    verts = {tuple(c[i] + sum(basis[j][i] * t[j] for j in range(d)) for i in range(E.n))
             for t in points}
    return tuple(sorted(verts)), den * lcm(*(ray[d] for ray in rays))


def test_integer_glue_matches_fraction_rebuild():
    """The double-description and oracle routes share the glue, so their
    agreement cannot catch a fault in it; this checks it on the A05 population
    and the benchmark's state roster.  Every branch of the integer rebuild is
    met: free dimension 0, a scale above 1 and a gcd reduction that divides
    (``scale`` below ``den * L``)."""
    branches = set()
    for E in [E for _name, E in operator_population()] + state_roster():
        P = compute_states(E)
        vertices, den_l = fraction_rebuild(E)
        assert P.vertices == vertices
        if not P.empty:
            branches |= {name for name, hit in (("d = 0", P.free_dim == 0),
                                                ("scale > 1", P.scale > 1),
                                                ("g > 1", P.scale < den_l)) if hit}
    assert branches == {"d = 0", "scale > 1", "g > 1"}


def test_integer_vertices_over_least_common_denominator():
    """``scale`` is the least common denominator of the vertex coordinates, the
    integer vertices are sorted and distinct, and ``P.vertices`` reads them as
    Fractions over ``scale``."""
    roster = elimination_roster() + [horizontal_sum([build_boolean(3)] * 5),
                                     horizontal_sum([build_boolean(2)] * 10)]
    for E in roster:
        P = compute_states(E)
        assert gcd(P.scale, *(x for v in P.int_vertices for x in v)) == 1
        assert list(P.int_vertices) == sorted(set(P.int_vertices))
        assert P.vertices == tuple(tuple(F(x, P.scale) for x in v)
                                   for v in P.int_vertices)
