"""Axiom validation, derived order, isomorphism, and mutation detection."""

import copy
import pickle
import random
from collections import Counter
from dataclasses import FrozenInstanceError
from functools import lru_cache
from itertools import permutations

import pytest

from effectalg.catalog import (build_boolean, build_chain, build_even_subsets,
                               build_product, small_catalog)
from effectalg.core import (AxiomViolation, derive_order, is_homomorphism, is_isomorphic,
                            raw_triples, search_schedule, validate_axioms)
from effectalg.fuzz import permute_algebra, random_algebra
from effectalg.operators import (classify_operator, coordinate_repeat_maps,
                                 enumerate_endomorphisms, induced_state_map, is_endomorphism,
                                 operator_law_report)
from effectalg.pogroup import IntervalAlgebra, PoGroupSpec, extend_endomorphism, materialize
from effectalg.states import compute_states
from oracles import (MUTATIONS, _mutate, dense_associativity_violation, entrywise_join,
                     fuzz_mutations, updown_order)
from tables import leq_table, sums_dict, wright_triangle
from test_acceptance import Budget, operator_population


def chain3_triples():
    # 0 < 1/3 < 2/3 < 1 with truncated addition, written out by hand
    return [(i, j, i + j) for i in range(4) for j in range(4) if i + j <= 3]


def exhaustive_associativity(n, sums):
    """Independent triple-check of the partial associativity biconditional."""
    for a in range(n):
        for b in range(n):
            for c in range(n):
                ab = sums.get((a, b))
                bc = sums.get((b, c))
                left = ab is not None and (ab, c) in sums
                right = bc is not None and (a, bc) in sums
                if left != right:
                    return False
                if left and sums[(ab, c)] != sums[(a, bc)]:
                    return False
    return True


def test_chain3_table_is_valid():
    E = validate_axioms(4, chain3_triples())
    assert E.n == 4
    assert exhaustive_associativity(E.n, sums_dict(E))


def test_boolean_tables_are_valid():
    for k in (1, 2, 3):
        E = build_boolean(k)
        assert exhaustive_associativity(E.n, sums_dict(E))


def test_unit_law_violation_reported():
    triples = chain3_triples() + [(1, 3, 3), (3, 1, 3)]
    with pytest.raises(AxiomViolation) as exc:
        validate_axioms(4, triples)
    assert exc.value.axiom == "iv"
    assert exc.value.witness == (1,)


def test_asymmetric_table_rejected():
    triples = [t for t in chain3_triples() if t != (1, 2, 3)]
    with pytest.raises(AxiomViolation) as exc:
        validate_axioms(4, triples)
    assert exc.value.axiom == "i"


def test_missing_complement_rejected():
    triples = [t for t in chain3_triples() if t not in ((1, 2, 3), (2, 1, 3))]
    with pytest.raises(AxiomViolation) as exc:
        validate_axioms(4, triples)
    assert exc.value.axiom == "iii"
    assert exc.value.witness[0] == 1


def test_contradictory_entry_rejected():
    triples = chain3_triples() + [(0, 1, 2)]
    with pytest.raises(AxiomViolation) as exc:
        validate_axioms(4, triples)
    assert exc.value.axiom == "table"


def test_associativity_witness_matches_dense_oracle():
    """The (ii) step scans only triples whose left association is defined and
    takes each failure's mirror into account; the whole-row oracle scans all
    n^3.  On seeded edits of the catalog and of random tables, every table that
    reaches (ii) gets the same verdict, witness and message from both."""
    rng = random.Random(5)
    bases = [E for _name, E in small_catalog(max_elements=9)]
    bases += [random_algebra(rng)[1] for _ in range(60)]
    failures = mirrored = 0
    for E in bases:
        base = raw_triples(E)
        for _ in range(300):
            triples, _kind = _mutate(rng, E.n, base)
            try:
                validate_axioms(E.n, triples)
                got = None
            except AxiomViolation as violation:
                if violation.axiom != "ii":
                    continue
                got = (violation.witness, violation.message)
            assert got == dense_associativity_violation(E.n, triples), (E.meta, triples)
            if got is not None:
                failures += 1
                sums = {(i, j): k for i, j, k in triples}
                a, b, c = got[0]
                mirrored += (sums.get((a, b)), c) not in sums
    assert failures >= 6000
    assert mirrored >= 3000


def test_boolean10_validates_within_budget():
    """|L| = 4^10 triples instead of n^3 = 8^10: about 13 s before the sparse scan."""
    with Budget("boolean(10) build and validation", 5.0):
        E = build_boolean(10)
    assert E.n == 1024
    assert len(E.triples) == (3 ** 10 + 1) // 2 == 29525


def test_derived_order_chain2():
    E = build_chain(2)
    v = 1
    assert E.complement(v) == v
    assert E.order.sub[E.n - 1][v] == v
    assert E.leq(0, v) and E.leq(v, E.n - 1)


def test_boolean2_order():
    E = build_boolean(2)
    a, b = 1, 2
    assert E.leq(a, E.n - 1) and E.leq(b, E.n - 1)
    assert not E.leq(a, b) and not E.leq(b, a)


@lru_cache(maxsize=1)
def accepted_mutations():
    """Every table ``validate_axioms`` accepts in a seeded run of random
    raw-table edits of the catalog: the only tables here no builder produced."""
    accepted = []
    rng = random.Random(11)
    for _name, E in small_catalog(max_elements=9):
        base = raw_triples(E)
        for _ in range(200):
            triples, _kind = _mutate(rng, E.n, base)
            try:
                accepted.append(validate_axioms(E.n, triples))
            except AxiomViolation:
                pass
    return accepted


@lru_cache(maxsize=1)
def order_population():
    """Tables for the order theory that ``derive_order`` trusts validation to
    guarantee: the A05 population (catalog up to 9 elements plus 200 seeded
    random tables) and the accepted mutations."""
    population = [E for _name, E in small_catalog(max_elements=9)]
    rng = random.Random(20240913)
    population += [random_algebra(rng, max_elements=9)[1] for _ in range(200)]
    return population + accepted_mutations()


def test_complement_involution_everywhere():
    for E in order_population():
        assert E.complements[0] == E.n - 1 and E.complements[E.n - 1] == 0
        sums = sums_dict(E)
        for x in range(E.n):
            assert [y for y in range(E.n) if sums.get((x, y)) == E.n - 1] == [E.complement(x)]
            assert E.complement(E.complement(x)) == x


def test_order_is_partial_order():
    assert len(accepted_mutations()) >= 10
    for E in order_population():
        o = leq_table(E)
        n = E.n
        assert all(o[a][a] for a in range(n))
        assert all(not (o[a][b] and o[b][a]) for a in range(n) for b in range(n) if a != b)
        for a in range(n):
            for b in range(n):
                if o[a][b]:
                    assert all(o[a][c] for c in range(n) if o[b][c])
        assert all(o[0][a] and o[a][n - 1] for a in range(n))


def test_cancellation_and_positivity():
    for _name, E in small_catalog():
        sums = sums_dict(E)
        for (a, c), s1 in sums.items():
            for b in range(E.n):
                if sums.get((b, c)) == s1:
                    assert a == b
        for (a, b), k in sums.items():
            if k == 0:
                assert a == 0 and b == 0


def test_subtraction_unique():
    """sub[b][a] is the one c with a + c = b, defined exactly when a <= b."""
    for E in order_population():
        sums = sums_dict(E)
        for b in range(E.n):
            for a in range(E.n):
                diffs = [c for c in range(E.n) if sums.get((a, c)) == b]
                c = E.order.sub[b][a]
                assert diffs == ([] if c is None else [c])
                assert E.leq(a, b) == bool(diffs)


def rows(table, n):
    """Rows 0..n-1 of an order table, read by index, as one tuple."""
    return tuple(map(table.__getitem__, range(n)))


def test_derive_order_matches_updown_oracle():
    """The down-sets, sub, the meet table and the De Morgan join view against the
    up-set/down-set scan, on the order population, a non-lattice orthoalgebra,
    two algebras without interpolation and the two size-ceiling algebras."""
    population = list(order_population())
    population += [wright_triangle(), build_even_subsets(6), build_even_subsets(8),
                   build_boolean(10), build_chain(512)]
    partial = 0
    for E in population:
        o = E.order
        sub, join, meet = (rows(t, E.n) for t in (o.sub, o.join, o.meet))
        assert (o.down, sub, join, meet) == updown_order(E), E.meta
        partial += any(None in row for row in meet)
    assert partial >= 3


def test_join_view_matches_entrywise_oracle():
    """The row-mapped De Morgan view equals the entry-by-entry one, None for
    every missing join, on the A05 population, the Wright triangle, two
    algebras with partial meets, boolean(8) and the one-element algebra."""
    population = [E for _name, E in operator_population()]
    population += [wright_triangle(), build_even_subsets(6), build_even_subsets(8),
                   build_boolean(8), validate_axioms(1, [(0, 0, 0)])]
    partial = 0
    for E in population:
        join = rows(E.order.join, E.n)
        assert join == entrywise_join(E), E.meta
        partial += any(None in row for row in join)
    assert partial == 3


def test_verdict_is_computed_once_per_algebra():
    calls = []

    def check(E):
        calls.append(E)
        return len(calls)
    E, F = build_chain(3), build_chain(3)
    assert [E.verdict(check), E.verdict(check), F.verdict(check)] == [1, 1, 2]
    assert calls == [E, F] and calls[0] is E


def test_search_schedule_reads_only_nonzero_sums():
    """boolean(5) has 122 sum triples, 32 of them zero sums 0 + a = a.  The
    schedule holds the 90 others and 0 + 1 = 1, which forces f(0) = 0 at the
    root: 27 steps and 64 checks over five levels (the root, then four atoms;
    the fifth atom is the complement of their sum)."""
    E = build_boolean(5)
    assert (len(E.triples), len(E.nonzero_triples)) == (122, 90)
    assert E.nonzero_triples == tuple(t for t in E.triples if t[0] != 0)
    levels = search_schedule(E, E)
    assert [(len(steps), len(checks)) for steps, checks, _new in levels] == [
        (1, 0), (1, 0), (3, 2), (7, 12), (15, 50)]
    assert levels[0][0] == [(0, rows(E.order.sub, E.n), E.n - 1, E.n - 1)]
    scheduled = [t for _steps, checks, _new in levels for t in checks]
    assert all(t[0] for t in scheduled)
    assert len(scheduled) == len(set(scheduled)) == 64


def test_derive_order_size_ceiling_within_budget():
    """About 0.8 s on boolean(10) and 0.25 s on chain(512) with the
    up-set/down-set scan, on a 2-CPU host."""
    for name, E, seconds in (("boolean(10)", build_boolean(10), 1.0),
                             ("chain(512)", build_chain(512), 0.5)):
        with Budget(f"derive_order on {name}", seconds):
            derive_order(E)


def test_isomorphism_examples():
    assert is_isomorphic(build_product([build_chain(1), build_chain(1)]), build_boolean(2))
    assert not is_isomorphic(build_boolean(2), build_chain(3))
    E = build_boolean(3)
    perm = [0, 4, 2, 1, 6, 5, 3, 7]
    assert is_isomorphic(E, permute_algebra(E, perm))


def isomorphism_oracle(E1, E2):
    """Some relabeling fixing 0 and n-1 carries E1's table onto E2's."""
    if E1.n != E2.n:
        return False
    n = E1.n
    s1, s2 = sums_dict(E1), sums_dict(E2)
    for rest in permutations(range(1, n - 1)):
        p = (0,) + rest + (n - 1,) if n > 1 else (0,)
        if {(p[a], p[b]): p[k] for (a, b), k in s1.items()} == s2:
            return True
    return False


def test_is_isomorphic_matches_permutation_oracle():
    algebras = [E for _name, E in small_catalog(max_elements=7)]
    rng = random.Random(11)
    algebras += [random_algebra(rng, max_elements=7)[1] for _ in range(30)]
    hard = 0      # non-isomorphic pairs that no size or sum count separates
    for E1 in algebras:
        for E2 in algebras:
            verdict = is_isomorphic(E1, E2)
            assert verdict == isomorphism_oracle(E1, E2), (E1.meta, E2.meta)
            hard += (not verdict and E1.n == E2.n
                     and len(E1.triples) == len(E2.triples))
    assert hard >= 4


def test_fuzz_mutations_detected():
    """Every seeded edit of a catalog table is either rejected, naming an
    axiom, or accepted as a different algebra; the validator never accepts an
    edit that left the table unchanged.  The totals are pinned exactly."""
    rng = random.Random(0)
    totals = Counter()
    for _name, E in small_catalog():
        counts = fuzz_mutations(E, rng)
        assert set(counts) <= {"violation", "valid_different"}   # no "valid_same"
        assert 0 < counts.total() <= MUTATIONS
        totals += counts
    assert totals == {"violation": 844, "valid_different": 6}


def test_random_algebras_validate():
    rng = random.Random(5)
    for _ in range(40):
        _name, E = random_algebra(rng)
        assert 1 <= E.n <= 9
        assert exhaustive_associativity(E.n, sums_dict(E))


def test_table_is_symmetric_and_matches_triples():
    for E in order_population():
        n = E.n
        assert all(E.table[a][b] == E.table[b][a] for a in range(n) for b in range(n))
        assert all(i <= j for i, j, _k in E.triples)
        assert len(set(E.triples)) == len(E.triples)
        assert set(E.triples) == {(a, b, k) for (a, b), k in sums_dict(E).items() if a <= b}
        assert E.sum_triples() == sorted(E.triples)


def test_triples_keep_first_input_order():
    # chain(2) with mirrored pairs and a duplicate, out of row-major order
    triples = [(1, 0, 1), (2, 0, 2), (1, 1, 2), (0, 2, 2), (1, 1, 2), (0, 1, 1), (0, 0, 0)]
    E = validate_axioms(3, triples)
    assert E.triples == ((1, 1, 2), (0, 2, 2), (0, 1, 1), (0, 0, 0))


def test_algebra_cannot_be_mutated():
    E = build_product([build_chain(2), build_chain(2)])
    o = E.order
    for table in (E.table, o.down, o.sub, o.join, o.meet):
        with pytest.raises(TypeError):
            table[0] = table[1]
    for table in (E.table, o.sub, o.join, o.meet):
        with pytest.raises(TypeError):
            table[0][0] = table[1][1]
    for table in (o.sub, o.join, o.meet):     # dicts of rows, each built on its first read
        assert all(type(table[a]) is tuple for a in range(E.n))
        built = dict(table)
        for change in (lambda: table.pop(0), lambda: table.popitem(), lambda: table.clear(),
                       lambda: table.update({0: ()}), lambda: table.setdefault(0, ())):
            with pytest.raises(TypeError):
                change()
        with pytest.raises(TypeError):
            del table[0]
        with pytest.raises(TypeError):
            table |= {0: ()}
        assert dict(table) == built and len(built) == E.n
    assert type(o.down) is tuple and all(type(d) is int for d in o.down)
    for seq in (E.triples, E.complements, E.labels):
        with pytest.raises(TypeError):
            seq[0] = seq[1]
    with pytest.raises(TypeError):
        E.meta["mv"] = True
    assert isinstance(E.meta["tuples"], tuple)
    with pytest.raises(FrozenInstanceError):
        E.table = ()
    with pytest.raises(FrozenInstanceError):
        o.sub = ()
    assert not hasattr(E, "sums")


class Unreadable:
    """Stands in for ``E.nonzero_triples``: a walk over it raises."""

    def __iter__(self):
        raise AssertionError("the sums were read")


def test_searched_maps_are_accepted_without_a_walk(monkeypatch):
    """A map the search yields is an endomorphism of its own algebra by
    construction: with E's nonzero sums unreadable it is still accepted, and
    the three per-map calls run.  A plain copy of it, a list, and the same map
    found on an equal but distinct boolean(3) are walked, so they reach the
    sums and raise.  A boolean(2) map passed with chain(3) is walked and
    rejected."""
    E, twin = build_boolean(3), build_boolean(3)
    assert E == twin and E is not twin
    P = compute_states(E)
    ident = tuple(range(E.n))
    m = next(x for x in enumerate_endomorphisms(E) if x == ident)
    operator_law_report(E, m)                       # E's verdicts, kept before the patch
    other = next(x for x in enumerate_endomorphisms(twin) if x == ident)
    monkeypatch.setitem(E.__dict__, "nonzero_triples", Unreadable())
    assert is_homomorphism(E, E, m) and is_endomorphism(E, m)
    assert classify_operator(E, m, P).mapping is m
    assert induced_state_map(E, m, P).mapping is m
    operator_law_report(E, m)
    for walked in (tuple(m), list(m), other):
        with pytest.raises(AssertionError, match="the sums were read"):
            is_endomorphism(E, walked)
    monkeypatch.undo()
    swap = next(x for x in enumerate_endomorphisms(build_boolean(2)) if x == (0, 2, 1, 3))
    C3 = build_chain(3)
    assert not is_homomorphism(C3, C3, swap) and not is_endomorphism(C3, swap)
    with pytest.raises(ValueError, match="not an endomorphism"):
        classify_operator(C3, swap, compute_states(C3))


def test_searched_maps_copy_and_pickle_as_plain_tuples():
    """Pickles and copies of a searched map, alone or in a record, are equal
    plain tuples that carry no proof."""
    E = build_boolean(2)
    P = compute_states(E)
    for m in enumerate_endomorphisms(E):
        for copied in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert type(copied) is tuple and copied == m
        prof = classify_operator(E, m, P)
        assert type(prof.mapping) is E.endomorphism_type
        again = pickle.loads(pickle.dumps(prof))
        assert again == prof and type(again.mapping) is tuple


def relabeled_map(perm, mapping):
    """The map that ``mapping`` becomes on ``permute_algebra(E, perm)``."""
    out = [None] * len(perm)
    for a, b in enumerate(mapping):
        out[perm[a]] = perm[b]
    return tuple(out)


def test_permute_algebra_moves_element_indexed_meta():
    """``coords`` and ``tuples`` follow their elements, so the functions that read
    them answer on a relabeled copy as on the original."""
    alg = IntervalAlgebra(PoGroupSpec(2, "Z", "product"), (2, 1))
    E = materialize(alg)
    perm = [0, 2, 1, 4, 3, 5]
    E2 = permute_algebra(E, perm)
    assert [E2.meta["coords"][perm[a]] for a in range(E.n)] == list(E.meta["coords"])
    maps = [m for m in enumerate_endomorphisms(E)
            if extend_endomorphism(E, m) == ((0, 2), (0, 1))]
    assert maps
    for m in maps:
        assert extend_endomorphism(E2, relabeled_map(perm, m)) == ((0, 2), (0, 1))

    C = build_product([build_chain(2), build_chain(2)])
    perm = [0, 3, 1, 4, 2, 5, 6, 7, 8]
    C2 = permute_algebra(C, perm)
    for tau, tau2 in zip(coordinate_repeat_maps(C), coordinate_repeat_maps(C2)):
        assert is_endomorphism(C2, tau2)
        assert tau2 == relabeled_map(perm, tau)


@pytest.mark.parametrize("perm", [[0, 1, 1, 3], [0, 2, 1], [0, 2, 1, 3, 4], [0, 1, 5, 3]])
def test_permute_algebra_rejects_a_non_permutation(perm):
    """``permute_algebra`` checks no axiom, so it refuses a list that is not a
    permutation of the indices itself: a repeat that fixes 0 and 1, a short
    or long list, an index out of range."""
    with pytest.raises(ValueError, match="not a permutation"):
        permute_algebra(build_boolean(2), perm)
    swapped = validate_axioms(4, [(0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 0, 1),
                                  (1, 2, 3), (2, 0, 2), (2, 1, 3), (3, 0, 3)],
                              ["{}", "{2}", "{1}", "{1,2}"], {"construction": "boolean", "k": 2})
    assert permute_algebra(build_boolean(2), [0, 2, 1, 3]) == swapped
