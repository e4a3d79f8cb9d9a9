"""Endomorphism enumeration, classification, induced state maps, operator laws.

Independent oracle: a blunt scan of every total map that fixes the unit,
checking the homomorphism conditions directly, with no shared code with the
backtracking enumerator.
"""

import random
from collections import Counter
from itertools import permutations, product

import pytest

from effectalg import core, operators
from effectalg.catalog import (build_boolean, build_chain, build_even_subsets, build_product,
                               horizontal_sum, small_catalog)
from effectalg.core import GuardExceeded, homomorphisms, preserves_existing_joins
from effectalg.fuzz import permute_algebra, random_algebra
from effectalg.mv import mv_operations
from effectalg.operators import (NOT_APPLICABLE, check_esp, classify_operator, compose,
                                 coordinate_repeat_maps, enumerate_endomorphisms,
                                 induced_state_map, is_endomorphism, is_n_potent,
                                 is_strong_operator, minimal_potency, mv_operator_agreement,
                                 operator_law_report, scan_mv_operator_agreement)
from effectalg.states import StatePolytope, compute_states, is_state
from effectalg.suite import check_kernel_ideals
from effectalg.structure import check_rdp, classify_lattice
from oracles import (all_pairs_strong_operator, composition_potency, dense_lattice_class,
                     full_triple_endomorphism, law_report_counts, power,
                     preserves_existing_meets)
from tables import greechie_chain, leq_table, paste_boolean_cubes, sums_dict, wright_triangle
from test_acceptance import Budget, operator_population


def homomorphism_oracle(E1, E2):
    """Every total map E1 -> E2 fixing the unit, checked as a homomorphism the
    long way."""
    found = []
    sums1, sums2 = sums_dict(E1), sums_dict(E2)
    for head in product(range(E2.n), repeat=E1.n - 1):
        m = (*head, E2.n - 1)
        if all(sums2.get((m[i], m[j])) == m[k] for (i, j), k in sums1.items()):
            found.append(m)
    return sorted(found)


def endomorphism_oracle(E):
    return homomorphism_oracle(E, E)


def swap_map(E):
    """(a, b) -> (b, a) on a square product F x F."""
    tuples = E.meta["tuples"]
    index = {t: i for i, t in enumerate(tuples)}
    return tuple(index[(b, a)] for (a, b) in tuples)


def test_boolean2_census_matches_oracle():
    E = build_boolean(2)
    endos = enumerate_endomorphisms(E)
    assert endos == endomorphism_oracle(E)
    assert len(endos) == 4
    idems = [m for m in endos if compose(m, m) == m]
    assert len(idems) == 3
    swap = (0, 2, 1, 3)
    assert swap in endos
    assert minimal_potency(swap) == 3
    assert [n for n in range(2, 8) if power(swap, n) == swap] == [3, 5, 7]


def test_chain2_identity_only():
    E = build_chain(2)
    endos = enumerate_endomorphisms(E)
    assert endos == [(0, 1, 2)] == endomorphism_oracle(E)


def test_small_catalog_matches_oracle():
    for _name, E in small_catalog(max_elements=6):
        assert enumerate_endomorphisms(E) == endomorphism_oracle(E)


def test_search_matches_oracle_on_relabeled_tables():
    """Random tables are relabeled, so the search visits elements in another
    order than on the catalog tables; every leaf must still be an endomorphism."""
    rng = random.Random(7)
    for _ in range(30):
        name, E = random_algebra(rng, max_elements=6)
        assert enumerate_endomorphisms(E) == endomorphism_oracle(E), name


def test_boolean5_search_is_proportional_to_its_output(monkeypatch):
    """3,125 maps of the five atoms; each atom is one level of the schedule and
    everything else is forced, so the search takes exactly 41,600 nodes.  The
    120 automorphisms take 8,310: images already taken are skipped uncounted.
    The maps hold 100,000 entries, E.n per map, which ``GUARD_MAP_ENTRIES``
    bounds; its default, the n^2 cells of the largest table, admits boolean(6)."""
    E = build_boolean(5)
    assert len(enumerate_endomorphisms(E, guard_nodes=41_600)) == 3125
    with pytest.raises(GuardExceeded):
        enumerate_endomorphisms(E, guard_nodes=41_599)
    assert len(list(homomorphisms(E, E, injective=True, guard_nodes=8_310))) == 120
    with pytest.raises(GuardExceeded):
        list(homomorphisms(E, E, injective=True, guard_nodes=8_309))
    assert core.GUARD_MAP_ENTRIES == core.GUARD_ELEMENTS ** 2 > 6 ** 6 * 64
    monkeypatch.setattr(core, "GUARD_MAP_ENTRIES", 100_000)
    assert len(enumerate_endomorphisms(E)) == 3125
    monkeypatch.setattr(core, "GUARD_MAP_ENTRIES", 99_999)
    with pytest.raises(GuardExceeded, match="^search past 99999 map entries$"):
        enumerate_endomorphisms(E)


def test_boolean6_search_within_budget():
    """6^6 maps of the six atoms in 1,312,960 nodes; about 8 s before the
    forcing was compiled into a schedule."""
    E = build_boolean(6)
    with Budget("boolean(6) endomorphism search", 4.0):
        endos = enumerate_endomorphisms(E)
    assert len(endos) == 6 ** 6 == 46_656


def test_injective_search_matches_oracle():
    """One-to-one maps only.  A forced image may repeat one set at an earlier
    level, which some relabelings of a horizontal sum of chains reach, or one
    set at its own level, which maps into other algebras reach."""
    rng = random.Random(11)
    catalog = list(small_catalog(max_elements=6))
    cases = catalog + [random_algebra(rng, max_elements=6) for _ in range(30)]
    hsum = horizontal_sum([build_chain(4), build_chain(2)])
    cases += [(f"hsum(4, 2)#{perm}", permute_algebra(hsum, [0, *perm, 5]))
              for perm in permutations(range(1, 5))]
    pairs = [(name, E, E) for name, E in cases]
    pairs += [(f"{a} -> {b}", E1, E2) for a, E1 in catalog for b, E2 in catalog]
    for name, E1, E2 in pairs:
        one_to_one = [m for m in homomorphism_oracle(E1, E2) if len(set(m)) == E1.n]
        assert sorted(homomorphisms(E1, E2, injective=True)) == one_to_one, name


def test_guard_raises_instead_of_truncating():
    with pytest.raises(GuardExceeded):
        enumerate_endomorphisms(build_boolean(5), guard_nodes=1_000)


def test_every_searched_endomorphism_carries_its_algebras_type():
    """Each map the search yields from E into E, one-to-one or not, has E's
    ``endomorphism_type`` and passes the full triple scan, on the A05
    population and boolean(5); a map into another algebra is a plain tuple."""
    cases = [E for _name, E in operator_population()] + [build_boolean(5)]
    for E in cases:
        for maps in (enumerate_endomorphisms(E), homomorphisms(E, E, injective=True)):
            for m in maps:
                assert type(m) is E.endomorphism_type, (E.labels, m)
                assert full_triple_endomorphism(E, m), (E.labels, m)
    assert {type(m) for m in homomorphisms(build_boolean(2), build_boolean(3))} == {tuple}


def test_identity_always_found():
    """The identity is an endomorphism of every catalog algebra, and the census
    of ``classify_operator`` over all their endomorphisms is pinned."""
    counts = Counter()
    for _name, E in small_catalog():
        endos = enumerate_endomorphisms(E)
        assert tuple(range(E.n)) in endos
        P = compute_states(E)
        for m in endos:
            prof = classify_operator(E, m, P)
            counts.update(endomorphisms=1, state_operators=prof.is_state_operator,
                          strong=prof.is_strong, morphisms=prof.is_state_morphism)
    assert counts == {"endomorphisms": 591, "state_operators": 117, "strong": 117,
                      "morphisms": 43}


def test_square_product_operator_census():
    E = build_product([build_chain(2), build_chain(2)])
    endos = enumerate_endomorphisms(E)
    t1, t2 = coordinate_repeat_maps(E)
    swap = swap_map(E)
    ident = tuple(range(E.n))
    assert sorted(endos) == sorted([ident, t1, t2, swap])


def test_classification_on_square_product():
    E = build_product([build_chain(2), build_chain(2)])
    P = compute_states(E)
    t1, t2 = coordinate_repeat_maps(E)
    for t in (t1, t2, tuple(range(E.n))):
        prof = classify_operator(E, t, P)
        assert prof.is_state_operator and prof.is_strong
        assert prof.is_state_morphism and prof.has_esp
    swap = swap_map(E)
    prof = classify_operator(E, swap, P)
    assert not prof.is_state_operator
    assert prof.minimal_potency == 3
    assert prof.has_esp


def test_complement_swap_is_3_potent_not_state_operator():
    E = build_boolean(2)
    swap = (0, 2, 1, 3)
    prof = classify_operator(E, swap, compute_states(E))
    assert not prof.is_state_operator
    assert prof.minimal_potency == 3
    assert not prof.is_strong


def test_kernels_are_tau_ideals():
    result = check_kernel_ideals()
    assert result.passed and result.details == {}


def test_induced_map_collapses_to_m1():
    E = build_product([build_chain(2), build_chain(2)])
    P = compute_states(E)
    t1, _ = coordinate_repeat_maps(E)
    ind = induced_state_map(E, t1, P)
    tuples = E.meta["tuples"]
    from fractions import Fraction as F
    m1 = tuple(F(t[0], 2) for t in tuples)
    i1 = P.vertex_index(m1)
    assert i1 is not None
    assert ind.vertex_to_vertex == (i1,) * len(P.vertices)


def test_induced_map_of_swap_exchanges_vertices():
    E = build_product([build_chain(2), build_chain(2)])
    P = compute_states(E)
    swap = swap_map(E)
    ind = induced_state_map(E, swap, P)
    assert ind.potency == minimal_potency(swap) == 3
    assert sorted(ind.vertex_to_vertex) == [0, 1]
    assert ind.vertex_to_vertex != (0, 1)


def test_identity_induces_identity():
    E = build_boolean(2)
    P = compute_states(E)
    ind = induced_state_map(E, tuple(range(E.n)), P)
    assert ind.vertex_to_vertex == tuple(range(len(P.vertices)))


def test_esp_vacuous_without_states():
    empty = StatePolytope(size=4, int_vertices=(), scale=1, free_dim=0)
    assert check_esp((0, 1, 2, 3), empty)


def esp_negative_control():
    """chain(2) beside boolean(2): scale 2, four vertices, and one of its five
    endomorphisms sends a vertex off the vertex set."""
    return horizontal_sum([build_chain(2), build_boolean(2)])


def test_closed_form_esp_matches_vertex_lookup():
    """``classify_operator`` decides ESP without the lookup at scale 1 or under
    two vertices; on every endomorphism of the A05 population, boolean(5), the
    2x boolean(3) sum, greechie_chain(3), chain(2) x chain(1) and the negative
    control its verdict equals the lookup's.  Both branches and a False occur:
    the A05 population and boolean(5) take the closed form 21,531 times and
    the lookup 154 times."""
    def esp_counts(algebras):
        counts = Counter()
        for E in algebras:
            P = compute_states(E)
            closed = P.scale == 1 or len(P.int_vertices) < 2
            for m in enumerate_endomorphisms(E):
                esp = P.vertex_map(m) is not None
                assert classify_operator(E, m, P).has_esp == esp, (E.labels, m)
                counts[closed, esp] += 1
        return counts
    population = [E for _name, E in operator_population()] + [build_boolean(5)]
    assert esp_counts(population) == {(True, True): 21531, (False, True): 154}
    others = esp_counts([horizontal_sum([build_boolean(3)] * 2), greechie_chain(3),
                         build_product([build_chain(2), build_chain(1)]),
                         esp_negative_control()])
    assert others[True, True] and others[False, True] and others[False, False] == 1


def test_classification_looks_up_vertices_only_off_the_closed_form(monkeypatch):
    """Classifying boolean(5)'s 3,125 endomorphisms makes no vertex lookup; the
    negative control, at scale 2 with four vertices, makes one per map."""
    calls = Counter()
    vertex_map = StatePolytope.vertex_map

    def counted(self, mapping):
        calls["vertex_map"] += 1
        return vertex_map(self, mapping)
    monkeypatch.setattr(StatePolytope, "vertex_map", counted)
    for E, maps, lookups, lacking in ((build_boolean(5), 3125, 0, 0),
                                      (esp_negative_control(), 5, 5, 1)):
        P = compute_states(E)
        calls.clear()
        endos = enumerate_endomorphisms(E)
        verdicts = [classify_operator(E, m, P).has_esp for m in endos]
        assert len(endos) == maps and calls["vertex_map"] == lookups
        assert verdicts.count(False) == lacking


def test_kernel_matches_zero_scan():
    """The faithful shortcut and the walk agree with a scan for the zeros on
    the ``self_maps`` of the A05 population; both branches occur."""
    rng = random.Random(47)
    faithful = Counter()
    for _name, E in operator_population():
        for m in self_maps(E, rng):
            if len(m) == E.n:
                ker = operators.kernel(E, m)
                assert ker == tuple(x for x in range(E.n) if m[x] == 0), m
                faithful[ker == (0,)] += 1
    assert faithful[True] and faithful[False]


def test_law_report_on_diagonal_operator():
    E = build_product([build_chain(2), build_chain(2)])
    t1, _ = coordinate_repeat_maps(E)
    report = operator_law_report(E, t1)
    assert report["image_is_fixed_point_set"].holds
    assert report["image_is_subalgebra"].holds
    tuples = E.meta["tuples"]
    diagonal = sorted(i for i, t in enumerate(tuples) if t[0] == t[1])
    assert sorted({t1[a] for a in range(E.n)}) == diagonal
    assert report["image_inherits_rdp"].holds
    assert report["strong_fixes_image_meets"].holds


def test_law_report_on_chains():
    for n in (2, 4, 6):
        E = build_chain(n)
        ident = tuple(range(E.n))
        report = operator_law_report(E, ident)
        assert report["linear_faithful_identity"].applicable
        assert report["linear_faithful_identity"].holds
        assert report["antilattice_preserves_joins_meets"].holds
        assert report["faithful_implies_strong"].holds


def test_law_report_requires_idempotence():
    E = build_boolean(2)
    with pytest.raises(ValueError):
        operator_law_report(E, (0, 2, 1, 3))


def test_law_report_requires_an_endomorphism():
    """(0, 0, 0, 3) on boolean(2) is idempotent but breaks 1 + 2 = 3.  On
    chain(2) a map with an entry that is not exactly an int is no endomorphism,
    and each per-map call raises its ValueError."""
    E = build_boolean(2)
    m = (0, 0, 0, 3)
    assert compose(m, m) == m and not is_endomorphism(E, m)
    with pytest.raises(ValueError):
        operator_law_report(E, m)
    E = build_chain(2)
    P = compute_states(E)
    for m in ([0, 1.0, 2], [0, "1", 2], [0, True, 2], (0, True, 2)):
        assert not is_endomorphism(E, m), m
        for call in (lambda: classify_operator(E, m, P), lambda: induced_state_map(E, m, P),
                     lambda: operator_law_report(E, m)):
            with pytest.raises(ValueError):
                call()


def test_definitional_laws_match_their_scans():
    """``law_report_counts`` over the A05 population.  The counts pin how often
    the conditional laws apply to a map other than the identity."""
    counts = law_report_counts(E for _name, E in operator_population())
    assert counts == {"algebras": 217, "maps": 3052, "strong": 3052, "faithful_moved": 903,
                      "rdp_moved": 182, "faithful_on_chains": 61}


def not_lattices():
    """Algebras of lattice class "neither", small enough to enumerate: the
    Wright triangle, four Boolean blocks pasted in a square, and a catalog
    product and horizontal sum with the triangle as a factor or block."""
    W = wright_triangle()
    return {"wright_triangle": W,
            "square": paste_boolean_cubes(((0, 1, 2), (2, 3, 4), (4, 5, 6), (6, 7, 0)), 8),
            "wright_triangle x chain(1)": build_product([W, build_chain(1)]),
            "hsum(wright_triangle, boolean(2))": horizontal_sum([W, build_boolean(2)])}


def test_definitional_laws_on_algebras_that_are_not_lattices():
    """The A05 population holds only the classes "lattice" and "both".  On four
    algebras of class "neither" the cached class is pinned against the dense
    oracle, and ``law_report_counts`` checks every report against the scans.
    None has RDP, and 16 idempotents there are not strong."""
    algebras = not_lattices()
    for name, E in algebras.items():
        assert (classify_lattice(E), dense_lattice_class(E)) == ("neither", "neither"), name
    counts = law_report_counts(algebras.values())
    assert counts == {"algebras": 4, "maps": 540, "strong": 524, "faithful_moved": 55,
                      "rdp_moved": 0, "faithful_on_chains": 0}


def test_finite_antilattices_are_chains():
    """A finite algebra is never a proper antilattice: the dense oracle, which
    fails an assertion on one, agrees with ``classify_lattice`` on the A05
    population, the non-lattices above and even_subsets(6)."""
    algebras = [E for _name, E in operator_population()]
    algebras += [*not_lattices().values(), build_even_subsets(6)]
    classes = Counter()
    for E in algebras:
        got = E.verdict(classify_lattice)
        assert got == dense_lattice_class(E), E.labels
        classes[got] += 1
    assert classes == {"lattice": 156, "both": 61, "neither": 5}


def test_law_report_reads_lattice_class_and_rdp_once_per_algebra(monkeypatch):
    calls = Counter()

    def counted(check):
        def wrapper(E):
            calls[check.__name__] += 1
            return check(E)
        return wrapper
    monkeypatch.setattr(operators, "classify_lattice", counted(classify_lattice))
    monkeypatch.setattr(operators, "check_rdp", counted(check_rdp))
    algebras = [build_boolean(3), build_chain(4), wright_triangle()]
    reports = 0
    for E in algebras:
        for m in enumerate_endomorphisms(E):
            if compose(m, m) == m:
                operator_law_report(E, m)
                reports += 1
    assert reports > 3 * len(algebras)
    assert calls == {"classify_lattice": 3, "check_rdp": 3}


def test_chains_are_exactly_lattice_class_both():
    """A chain is a lattice with no incomparable pair, and conversely: over the
    A05 population, ``classify_lattice`` reads "both" exactly on the chains."""
    chains = 0
    for _name, E in operator_population():
        leq = leq_table(E)
        chain = all(leq[a][b] or leq[b][a] for a in range(E.n) for b in range(E.n))
        assert (classify_lattice(E) == "both") == chain, E.labels
        chains += chain
    assert chains == 61


def test_mv_agreement_single_maps():
    E = build_chain(2)
    A = mv_operations(E)
    P = compute_states(E)
    rep = mv_operator_agreement(A, (0, 1, 2), P)
    assert rep["mv_state_operator"] and rep["strong_state_operator"]
    assert rep["mv_state_morphism"] and rep["state_morphism"] and rep["esp"]
    rep2 = mv_operator_agreement(A, (0, 0, 2), P)
    assert not rep2["mv_state_operator"] and not rep2["is_endomorphism"]


def test_mv_agreement_scan_matches_per_map_reports():
    """The scan's domain against a brute force over every self-map fixing 0 and
    1 of each MV algebra with at most 7 elements: a map that is not
    star-equivariant fails every reading, both readings agree on every map, the
    four counts are the scan's, and the scan visits n maps per star pair and
    f per fixed point of star, where f is the number of those fixed points."""
    algebras = 0
    for name, E in small_catalog(max_elements=7):
        try:
            A = mv_operations(E)
        except ValueError:     # not an MV algebra
            continue
        P = compute_states(E)
        star = A.star
        counts = {"endomorphisms": 0, "mv_state_operators": 0,
                  "state_morphisms": 0, "esp_confirmed": 0}
        for mid in product(range(E.n), repeat=E.n - 2):
            m = (0,) + mid + (E.n - 1,)
            rep = mv_operator_agreement(A, m, P)
            if any(m[star[x]] != star[m[x]] for x in range(E.n)):
                assert not (rep["mv_state_operator"] or rep["is_endomorphism"]
                            or rep["mv_state_morphism"]), (name, m)
            assert rep["mv_state_operator"] == rep["strong_state_operator"], (name, m)
            assert rep["mv_state_morphism"] == rep["state_morphism"], (name, m)
            counts["endomorphisms"] += rep["is_endomorphism"]
            counts["mv_state_operators"] += rep["mv_state_operator"]
            counts["state_morphisms"] += rep["state_morphism"]
            counts["esp_confirmed"] += rep["state_morphism"] and rep["esp"]
        pairs = sum(x < star[x] for x in range(E.n))
        fixed = sum(x == star[x] for x in range(E.n))
        scanned = E.n ** pairs * fixed ** fixed
        assert scan_mv_operator_agreement(A, P) == {"scanned": scanned, **counts}, name
        algebras += 1
    assert algebras == 10


def test_power_and_potency_identities():
    swap = (0, 2, 1, 3)
    assert power(swap, 2) == (0, 1, 2, 3)
    assert power(swap, 3) == swap
    assert minimal_potency((0, 1, 2, 3)) == 2
    # a map whose tail is too long never returns to itself
    assert minimal_potency((1, 2, 2)) is None


def test_induced_map_vertex_check_matches_state_oracle():
    """Over every self-map fixing 0 and 1 of three small algebras,
    ``induced_state_map`` accepts exactly the endomorphisms of the brute-force
    oracle; every vertex image v o tau is a state by the direct check, the
    returned vertex map is the index of each image as ``vertex_index`` finds
    it (None when one is missing), and every other map raises ValueError."""
    rejected = accepted = 0
    for E in (build_boolean(2), build_chain(3),
              build_product([build_chain(1), build_chain(2)])):
        P = compute_states(E)
        endos = set(endomorphism_oracle(E))
        for mid in product(range(E.n), repeat=E.n - 2):
            m = (0,) + mid + (E.n - 1,)
            if m in endos:
                ind = induced_state_map(E, m, P)
                images = [tuple(v[x] for x in m) for v in P.vertices]
                assert all(is_state(E, img) for img in images)
                at = tuple(map(P.vertex_index, images))
                assert ind.vertex_to_vertex == (None if None in at else at)
                accepted += 1
            else:
                with pytest.raises(ValueError, match="not an endomorphism"):
                    induced_state_map(E, m, P)
                rejected += 1
    assert accepted and rejected


def test_is_n_potent_matches_power():
    """The closed form from the minimal potency agrees with n compositions for n
    from 0 to 12, on every endomorphism of the small catalog and on every self-map
    of a four-element set (cycles of length 1 to 4, with and without tails)."""
    maps = [m for _name, E in small_catalog() for m in enumerate_endomorphisms(E)]
    maps += list(product(range(4), repeat=4))
    for m in maps:
        p = minimal_potency(m)
        for n in range(13):
            assert is_n_potent(p, n) == (n >= 2 and power(m, n) == m), (m, n)


def test_minimal_potency_matches_composition_oracle():
    """The cycle rule agrees with composing until a power repeats on every
    endomorphism of the A05 population and on seeded random self-maps of one to
    nine points, most of them not endomorphisms of anything, (1, 2, 2) among
    them; both a potency and None occur."""
    maps = [m for _name, E in operator_population() for m in enumerate_endomorphisms(E)]
    assert len(maps) == 18560
    rng = random.Random(29)
    randoms = [(1, 2, 2)] + [tuple(rng.randrange(n) for _ in range(n))
                             for n in range(1, 10) for _ in range(400)]
    verdicts = set()
    for m in maps + randoms:
        p = minimal_potency(m)
        assert p == composition_potency(m), m
        verdicts.add(p is None)
    assert verdicts == {True, False}


def self_maps(E, rng):
    """Endomorphisms of E, seeded self-maps that fix 0 and 1, one-entry edits of
    endomorphisms, and inputs that no check should accept: one entry too many or
    too few, a negative entry, an entry n, 0 moved and 1 moved."""
    n = E.n
    endos = enumerate_endomorphisms(E)
    maps = list(endos)
    maps += [(0, *(rng.randrange(n) for _ in range(n - 2)), n - 1) for _ in range(10)]
    for m in rng.sample(endos, min(5, len(endos))):
        x = rng.randrange(n)
        maps.append(m[:x] + (rng.randrange(n),) + m[x + 1:])
    ident = tuple(range(n))
    maps += [ident + (0,), ident[:-1], (0, -1, *ident[2:]), (0, n, *ident[2:]),
             (1, *ident[1:]), (*ident[:-1], 0)]
    return maps


def test_endomorphism_check_matches_full_triple_scan():
    """``is_endomorphism`` reads only the nonzero sums; the oracle reads every
    triple.  They agree on the ``self_maps`` of every A05 algebra, where
    ``minimal_potency`` also matches composition on every map in range."""
    rng = random.Random(41)
    counts = Counter()
    for _name, E in operator_population():
        for m in self_maps(E, rng):
            got = is_endomorphism(E, m)
            assert got == full_triple_endomorphism(E, m), (E.labels, m)
            counts[got] += 1
            if len(m) == E.n and all(0 <= x < E.n for x in m):
                assert minimal_potency(m) == composition_potency(m), m
                counts["potency"] += 1
    assert counts == {True: 19019, False: 3622, "potency": 21773}


def test_strong_maps_are_idempotent():
    """The pair (a, a) has join tau(a), so a strong map fixes its image.  Checked
    on the ``self_maps`` of the A05 population (the valid ones) and on the
    non-lattices; ``classify_operator``'s strong verdict, tested only on
    idempotents, equals ``is_strong_operator`` on every endomorphism."""
    rng = random.Random(43)
    counts = Counter()
    algebras = [E for _name, E in operator_population()] + list(not_lattices().values())
    for E in algebras:
        P = compute_states(E)
        for m in self_maps(E, rng):
            if len(m) != E.n or not all(0 <= x < E.n for x in m):
                continue
            strong = is_strong_operator(E, m)
            idem = compose(m, m) == m
            assert idem or not strong, (E.labels, m)
            counts[strong, idem] += 1
            if is_endomorphism(E, m):
                assert classify_operator(E, m, P).is_strong == strong, (E.labels, m)
    assert counts == {(False, False): 22834, (True, True): 4803, (False, True): 208}


def test_strong_operator_matches_all_pairs_oracle():
    """The image-pair test agrees with the all-pairs oracle on every
    endomorphism of the A05 population and on 40 random unit-fixing self-maps
    of each algebra of up to six elements; both verdicts occur in each set."""
    verdicts = {True: 0, False: 0}
    for _name, E in operator_population():
        for m in enumerate_endomorphisms(E):
            got = is_strong_operator(E, m)
            assert got == all_pairs_strong_operator(E, m), (E.labels, m)
            verdicts[got] += 1
    assert all(verdicts.values())
    rng = random.Random(17)
    verdicts = {True: 0, False: 0}
    for name, E in small_catalog(6):
        n = E.n
        for _ in range(40):
            m = (0, *(rng.randrange(n) for _ in range(n - 2)), n - 1)
            got = is_strong_operator(E, m)
            assert got == all_pairs_strong_operator(E, m), (name, m)
            verdicts[got] += 1
    assert all(verdicts.values())


def test_meet_preservation_matches_join_preservation():
    """An endomorphism keeps complements, so it keeps every existing meet
    exactly when it keeps every existing join; checked against the meet-table
    oracle on every endomorphism of the A05 population, where both verdicts
    occur.  A join-preserving idempotent is strong by the all-pairs oracle:
    tau(tau(a) v tau(b)) = tau(a) v tau(b)."""
    verdicts = {True: 0, False: 0}
    for _name, E in operator_population():
        for m in enumerate_endomorphisms(E):
            got = preserves_existing_joins(E, E, m)
            assert got == preserves_existing_meets(E, m), (E.labels, m)
            assert not got or compose(m, m) != m or all_pairs_strong_operator(E, m)
            verdicts[got] += 1
    assert all(verdicts.values())


def test_operator_records_are_slotted_and_int_only():
    """The per-map records carry no instance dict and refuse assignment; an
    induced map holds exactly its mapping, vertex map and potency, all ints,
    and equality tells apart maps with different vertex maps; reports share
    NOT_APPLICABLE."""
    E = build_product([build_chain(2), build_chain(2)])
    P = compute_states(E)
    t1, t2 = coordinate_repeat_maps(E)
    ind1, ind2 = induced_state_map(E, t1, P), induced_state_map(E, t2, P)
    law = operator_law_report(E, t1)
    for record in (classify_operator(E, t1, P), ind1, *law.values()):
        assert not hasattr(record, "__dict__"), type(record).__name__

    def leaves(x):
        return [y for z in x for y in leaves(z)] if isinstance(x, tuple) else [x]
    assert ind1._fields == ("mapping", "vertex_to_vertex", "potency")
    assert all(type(x) is int or x is None for x in leaves(tuple(ind1)))
    with pytest.raises(AttributeError):
        ind1.potency = 3
    assert ind1.vertex_to_vertex != ind2.vertex_to_vertex
    assert ind1 != ind2
    assert ind1 == induced_state_map(E, t1, P)
    assert hash(ind1) == hash(induced_state_map(E, t1, P))
    assert any(v is NOT_APPLICABLE for v in law.values())
    assert all(v is NOT_APPLICABLE for v in law.values() if not v.applicable)
