"""RDP, interpolation, lattice classification, ideals.

Independent oracle: a from-scratch refinement search over raw quadruples,
with no shared code with the library path.
"""

import random
from itertools import product

from effectalg import structure
from effectalg.catalog import (build_boolean, build_chain, build_even_subsets,
                               build_product, horizontal_sum, small_catalog)
from effectalg.core import (AxiomViolation, _is_central, _Rows, decompose, raw_triples,
                            validate_axioms)
from effectalg.fuzz import permute_algebra, random_algebra
from effectalg.pogroup import IntervalAlgebra, PoGroupSpec, materialize
from effectalg.structure import (check_interpolation, check_rdp, classify_lattice,
                                 enumerate_ideals, is_riesz_ideal, verify_rdp_witness)
from effectalg.suite import check_structure_invariants
from oracles import (_mutate, dense_lattice_class, full_scan_rdp, rdp_splitting,
                     scan_interpolation)
from tables import greechie_chain, leq_table, sums_dict, wright_triangle
from test_acceptance import Budget, operator_population
from test_core import order_population


def rdp_oracle(E):
    """Brute force over all (x1, x2, y1, y2) and all (c11, c12, c21, c22)."""
    n = E.n
    sums = sums_dict(E)
    for x1, x2, y1, y2 in product(range(n), repeat=4):
        s = sums.get((x1, x2))
        if s is None or sums.get((y1, y2)) != s:
            continue
        found = False
        for c11, c12, c21, c22 in product(range(n), repeat=4):
            if (sums.get((c11, c12)) == x1 and sums.get((c21, c22)) == x2
                    and sums.get((c11, c21)) == y1 and sums.get((c12, c22)) == y2):
                found = True
                break
        if not found:
            return False
    return True


def test_rdp_against_oracle_small():
    for E in (build_chain(3), build_boolean(2),
              horizontal_sum([build_chain(2), build_chain(2)]),
              build_product([build_chain(1), build_chain(2)])):
        assert check_rdp(E)[0] == rdp_oracle(E)


def test_even_subsets_rdp_fails_with_verifiable_witness():
    E = build_even_subsets(4)
    holds, witness = check_rdp(E)
    assert not holds
    assert verify_rdp_witness(E, witness)
    # the blocked refinement needs a single-point set, which is not even
    assert all("{" in lab for lab in E.labels)
    assert "{1}" not in E.labels
    assert not rdp_oracle(E)


def test_rdp_matches_splitting_reference():
    """The refinement search against the splitting formulation on the A05
    population (catalog up to 9 elements plus 200 seeded random tables) and on
    four larger algebras."""
    population = [E for _name, E in small_catalog(max_elements=9)]
    rng = random.Random(20240913)
    population += [random_algebra(rng, max_elements=9)[1] for _ in range(200)]
    population += [build_boolean(5), build_chain(32), build_even_subsets(6),
                   build_product([build_chain(4)] * 3)]
    failures = 0
    for E in population:
        holds, witness = check_rdp(E)
        assert holds == rdp_splitting(E)[0]
        if holds:
            assert witness is None
        else:
            failures += 1
            assert verify_rdp_witness(E, witness)
    assert failures  # both verdicts occur


def test_rdp_witness_matches_full_scan(monkeypatch):
    """Verdict and first witness against the all-pairs, all-c11 scan on the
    catalog up to 9 elements, 200 seeded random tables, the tables
    ``validate_axioms`` accepts among seeded raw-table edits, two non-lattices,
    and seeded relabellings of even_subsets(6) and the Wright triangle with
    their table rows shuffled.  The last group reaches quadruples whose x1 and
    y1 have no meet, where ``check_rdp`` falls back to trying every c11; in the
    Wright triangle some of them refine."""
    catalog = [E for _name, E in small_catalog(max_elements=9)]
    population = list(catalog)
    rng = random.Random(20240913)
    population += [random_algebra(rng, max_elements=9)[1] for _ in range(200)]
    for E in catalog:
        for _ in range(300):
            triples, _kind = _mutate(rng, E.n, raw_triples(E))
            try:
                population.append(validate_axioms(E.n, triples))
            except AxiomViolation:
                pass
    population += [build_even_subsets(6), horizontal_sum([build_boolean(3)] * 3)]
    for E in (build_even_subsets(6), wright_triangle()):
        for _ in range(100):
            perm = [0] + rng.sample(range(1, E.n - 1), E.n - 2) + [E.n - 1]
            triples = [(perm[i], perm[j], perm[k]) for i, j, k in raw_triples(E)]
            rng.shuffle(triples)
            population.append(validate_axioms(E.n, triples))

    fallbacks = []
    refine = structure.refine_quadruple

    def counted_refine(E, x1, x2, y1):
        assert E.order.meet[x1][y1] is None
        fallbacks.append(refine(E, x1, x2, y1))
        return fallbacks[-1]

    monkeypatch.setattr(structure, "refine_quadruple", counted_refine)
    failures = fallback_algebras = refined_fallbacks = 0
    for E in population:
        fallbacks.clear()
        got = check_rdp(E)
        assert got == full_scan_rdp(E)
        failures += not got[0]
        fallback_algebras += bool(fallbacks)
        refined_fallbacks += sum(c is not None for c in fallbacks)
    assert failures >= 250
    assert fallback_algebras >= 10
    assert refined_fallbacks >= 3


def test_rdp_size_ceiling_within_budget():
    """12-16 s on boolean(10) and 10-11 s on chain(512) with the all-pairs,
    all-c11 scan, on a 2-CPU host; read from the decomposition tree, under
    0.01 s each."""
    for name, E in (("boolean(10)", build_boolean(10)), ("chain(512)", build_chain(512))):
        E.order  # derived outside the timing
        with Budget(f"check_rdp on {name}", 3.0):
            holds, witness = check_rdp(E)
        assert holds and witness is None


def test_rdp_read_from_the_tree_never_scans(monkeypatch):
    """A product of chains has RDP by its tree alone: the quadruple scan, made
    to raise, is never entered, on products of chains and po-group intervals."""
    def scan(E):
        raise AssertionError("quadruple scan entered")
    monkeypatch.setattr(structure, "_refinement_scan", scan)
    for E in (build_boolean(6), build_chain(32), build_product([build_chain(4)] * 3),
              materialize(IntervalAlgebra(PoGroupSpec(2, "Z", "product"), (3, 2))),
              materialize(IntervalAlgebra(PoGroupSpec(3, "Z", "product"), (1, 0, 2)))):
        assert check_rdp(E) == (True, None), E


def test_tree_readers_build_only_the_meet_rows_they_read(monkeypatch):
    """boolean(10) is a product of chains, so ``check_rdp``,
    ``classify_lattice`` and ``check_interpolation`` answer from its tree.
    Deriving the order and reading a <= b on all pairs, 3^10 of them true,
    builds no row.  The tree's nine central splits look their meets up among
    their nodes' down-sets, so no meet row is read or built; each reads one
    subtraction row, its unit's, and no join row is read.  The tree of the
    1,000x boolean(2) horizontal sum, 1,000 central splits, builds no meet row
    either."""
    E = build_boolean(10)
    o = E.order
    assert sum(E.leq(a, b) for a in range(E.n) for b in range(E.n)) == 3 ** 10
    assert (len(o.sub), len(o.meet), len(o.join)) == (0, 0, 0)
    read = set()
    row = dict.__getitem__                   # calls __missing__ on a row not yet built

    def recorded(self, a):
        if self is o.meet:
            read.add(a)
        return row(self, a)
    monkeypatch.setattr(_Rows, "__getitem__", recorded)
    assert check_rdp(E) == (True, None)
    assert classify_lattice(E) == "lattice" and check_interpolation(E) == (True, None)
    assert set(o.meet) == read and len(read) == 0
    assert (len(o.sub), len(o.join)) == (9, 0)
    wide = horizontal_sum([build_boolean(2)] * 1000)
    assert len(wide.verdict(decompose).children) == 1000
    assert (len(wide.order.sub), len(wide.order.meet), len(wide.order.join)) == (1, 0, 0)


def test_refinement_scan_skips_the_zero_pairs():
    """A pair (0, k) refines against every pair with sum k, by c11 = 0, so the
    scan leaves it out.  The 1,000x boolean(2) sum fails at its unit's first
    two block pairs, (1, 2) against (3, 4).  Past its tree, which builds the
    unit's subtraction row, ``check_rdp`` builds the subtraction rows of 3 and
    2 and the meet row of 1.  Walking (0, unit) would first compare it with
    all 1,000 block pairs, building 1,001 subtraction rows and 2 meet rows."""
    E = horizontal_sum([build_boolean(2)] * 1000)
    E.verdict(decompose)
    o = E.order
    assert (set(o.sub), len(o.meet), len(o.join)) == ({E.n - 1}, 0, 0)
    assert check_rdp(E) == (False, (1, 2, 3, 4))
    assert (set(o.sub), set(o.meet), len(o.join)) == ({2, 3, E.n - 1}, {1}, 0)


def test_central_elements_pass_the_atom_mask_test():
    """``decompose`` asks ``_is_central`` only about a c that puts every atom of
    the node below exactly one of c and its complement there.  Each c that
    ``_is_central`` accepts passes, as an atom x = (x ^ c) + (x ^ c') lies in
    one factor; checked on every member of every node of the A05 population's
    trees and of Greechie chains of one to six blocks."""
    algebras = [E for _name, E in operator_population()]
    algebras += [greechie_chain(k) for k in range(1, 7)]
    central = 0
    for E in algebras:
        down, sub = E.order.down, E.order.sub
        for node in decompose(E).walk():
            m = node.members
            atoms = [x for x in m[1:-1] if down[x].bit_count() == 2]
            for c in m[1:-1]:
                if _is_central(E, m, c):
                    central += 1
                    cc = sub[m[-1]][c]
                    assert all(E.leq(x, c) != E.leq(x, cc) for x in atoms), (E.meta, m, c)
    assert central == 438


def test_rdp_past_the_tree_matches_full_scan():
    """Where the tree is no product of chains the scan decides, with the full
    scan's verdict and witness: products of RDP and non-RDP factors (the root
    a product), horizontal sums of chains (every leaf a chain, the root a sum)
    and Greechie chains (one part)."""
    c2, c3, e4 = build_chain(2), build_chain(3), build_even_subsets(4)
    cases = {"product": [build_product([c2, e4]), build_product([e4, build_chain(1), c2])],
             "sum": [horizontal_sum([c2, c3]), horizontal_sum([c3] * 3),
                     horizontal_sum([c2, build_chain(5), c3])],
             "part": [greechie_chain(k) for k in range(3, 7)]}
    for kind, algebras in cases.items():
        for E in algebras:
            tree = E.verdict(decompose)
            assert tree.kind == kind
            if kind == "sum":
                assert all(block.kind == "chain" for block in tree.children)
            got = check_rdp(E)
            assert not got[0] and got == full_scan_rdp(E), E


def test_interpolation_examples():
    assert check_interpolation(build_boolean(2))[0]
    for n in (1, 3, 6):
        assert check_interpolation(build_chain(n))[0]
    # the even-subset family of a 6-set: {1,2},{1,3} <= two different 4-sets
    # with no even set between
    holds, witness = check_interpolation(build_even_subsets(6))
    assert not holds and witness is not None
    x1, x2, y1, y2 = witness
    E = build_even_subsets(6)
    leq = leq_table(E)
    assert leq[x1][y1] and leq[x1][y2] and leq[x2][y1] and leq[x2][y2]
    assert not any(leq[x1][z] and leq[x2][z] and leq[z][y1] and leq[z][y2]
                   for z in range(E.n))


def test_interpolation_matches_full_scan():
    """Verdict and first witness against the all-pairs scan, interpolation
    exactly on lattices, and the lattice class against the join and meet
    tables.  The inputs are the order population, the Wright triangle,
    even_subsets(6) and (8), three Boolean blocks glued at 0 and 1, boolean(6),
    chain(64) and relabeled chains, plus inputs without interpolation:
    relabelings of even_subsets(6), its products with chains, horizontal sums
    holding the Wright triangle, and seeded raw-table edits that validation
    accepts."""
    rng = random.Random(16)
    population = list(order_population())
    population += [wright_triangle(), build_even_subsets(6), build_even_subsets(8),
                   horizontal_sum([build_boolean(3)] * 3), build_boolean(6), build_chain(64)]
    population += [permute_algebra(build_chain(6), [0] + rng.sample(range(1, 6), 5) + [6])
                   for _ in range(3)]
    e6 = build_even_subsets(6)
    population += [permute_algebra(e6, [0] + rng.sample(range(1, 31), 30) + [31])
                   for _ in range(10)]
    population += [build_product([e6, build_chain(k)]) for k in (1, 2, 3)]
    population += [horizontal_sum([wright_triangle(), B]) for B in
                   (build_chain(2), build_boolean(2), build_boolean(3), wright_triangle())]
    for _name, E in small_catalog(max_elements=9):
        for _ in range(300):
            triples, _kind = _mutate(rng, E.n, raw_triples(E))
            try:
                population.append(validate_axioms(E.n, triples))
            except AxiomViolation:
                pass
    failures = 0
    for E in population:
        got = check_interpolation(E)
        assert got == scan_interpolation(E), E.meta
        lattice_class = classify_lattice(E)
        assert lattice_class == dense_lattice_class(E), E.meta
        assert got[0] == (lattice_class in ("lattice", "both"))
        failures += not got[0]
    assert failures >= 20


def test_interpolation_size_ceiling_within_budget():
    """1.1 s on boolean(8) and 1.6 s on chain(128) with the all-pairs scan,
    on a 2-CPU host."""
    for name, E in (("boolean(8)", build_boolean(8)), ("chain(128)", build_chain(128))):
        E.order  # derived outside the timing
        with Budget(f"check_interpolation on {name}", 0.5):
            assert check_interpolation(E) == (True, None)


def test_rdp_implies_interpolation_on_catalog():
    for _name, E in small_catalog():
        if check_rdp(E)[0]:
            assert check_interpolation(E)[0]


def test_rdp_implies_interpolation_and_riesz_ideals_on_catalog():
    """On ``small_catalog()``, RDP implies interpolation and makes every ideal
    Riesz.  The suite check is the one definition; this pins its verdict and
    its flags: every algebra but even_subsets(4) has RDP, every one
    interpolates, and the chains and boolean(1) are the only chains."""
    chains = {f"chain({n})" for n in range(1, 9)} | {"boolean(1)"}
    result = check_structure_invariants()
    assert result.passed
    assert result.details == {
        name: {"rdp": name != "even_subsets(4)", "interpolation": True,
               "lattice": "both" if name in chains else "lattice"}
        for name, _E in small_catalog()}


def test_lattice_classification():
    assert classify_lattice(build_chain(4)) == "both"
    assert classify_lattice(build_boolean(2)) == "lattice"
    # pairwise-incomparable middle layer with joins at the top: still a lattice
    assert classify_lattice(build_even_subsets(4)) == "lattice"
    assert classify_lattice(build_even_subsets(6)) == "neither"
    assert classify_lattice(horizontal_sum([build_chain(2), build_chain(2)])) == "lattice"


def test_lattice_class_of_products_and_sums_with_a_non_lattice_part():
    """A product is a lattice iff its factors are, and a horizontal sum iff its
    blocks are: one non-lattice part, Wright's triangle or even_subsets(6),
    makes the class "neither" wherever it sits in the tree.  Against the
    join and meet tables of the dense oracle."""
    w, e6, b2, c1, c2, c3 = (wright_triangle(), build_even_subsets(6), build_boolean(2),
                             build_chain(1), build_chain(2), build_chain(3))
    cases = [(build_product([w, c2]), "neither"), (build_product([b2, e6]), "neither"),
             (horizontal_sum([w, b2]), "neither"), (horizontal_sum([c3, e6]), "neither"),
             (build_product([horizontal_sum([c2, w]), c1]), "neither"),
             (horizontal_sum([build_product([w, c1]), c3]), "neither"),
             (build_product([horizontal_sum([b2, c2]), c3]), "lattice"),
             (horizontal_sum([build_product([b2, c2]), c3]), "lattice"),
             (build_product([c2, c3]), "lattice")]
    for E, want in cases:
        assert classify_lattice(E) == dense_lattice_class(E) == want, E.meta
        assert check_interpolation(E) == scan_interpolation(E), E.meta


def test_boolean2_joins():
    E = build_boolean(2)
    a, b = 1, 2
    assert E.join(a, b) == E.n - 1 and E.meet(a, b) == 0
    assert not E.leq(a, b) and not E.leq(b, a)


def test_ideals_boolean2():
    E = build_boolean(2)
    ideals = enumerate_ideals(E)
    assert len(ideals) == 4
    members = {i for i, _f in ideals}
    assert (0,) in members and tuple(range(4)) in members
    assert all(flags["riesz"] for _i, flags in ideals)


def test_trivial_ideals_everywhere():
    for _name, E in small_catalog():
        ideals = {i for i, _f in enumerate_ideals(E)}
        assert (0,) in ideals
        assert tuple(range(E.n)) in ideals


def test_rdp_makes_every_ideal_riesz():
    for _name, E in small_catalog():
        if check_rdp(E)[0]:
            for ideal, flags in enumerate_ideals(E):
                assert flags["riesz"]
                assert is_riesz_ideal(E, ideal)
