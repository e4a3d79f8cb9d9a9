"""The standing verification suite: worked examples and invariant sweeps.

Each check takes no arguments and returns a CheckResult; the CLI aggregates
them into one report with an exit code.  Every check decides its claim on a
fixed finite population, so reports are reproducible bytes.  A check stays
only if it can fail and no test already defines its claim: a verdict fixed by
the definitions, such as a strong operator being a state-operator, is not a
check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable

from .catalog import (build_boolean, build_chain, build_even_subsets,
                      build_product, horizontal_sum, small_catalog)
from .core import preserves_existing_joins
from .duality import VertexMap, check_simplex_morphism, check_state_morphism
from .fuzz import fuzz_mutations
from .mv import derived_sum_matches, mv_operations
from .operators import (classify_operator, coordinate_repeat_maps, enumerate_endomorphisms,
                        induced_state_map, kernel, minimal_potency,
                        scan_mv_operator_agreement)
from .pogroup import (IntervalAlgebra, PoGroupSpec, extend_endomorphism,
                      extremal_states, group_leq, materialize, strict_plane_preimage)
from .states import (clan_closure_witness, compute_states, discrete_profile,
                     finite_clan_engine, is_order_determining, is_state,
                     sampled_order_report)
from .structure import (check_interpolation, check_rdp, classify_lattice,
                        enumerate_ideals, verify_rdp_witness)

F = Fraction


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


def strict_plane_algebra() -> IntervalAlgebra:
    return IntervalAlgebra(PoGroupSpec(2, "Q", "strict"), (1, 1))


def check_strict_plane_order() -> CheckResult:
    alg = strict_plane_algebra()
    spec = alg.spec
    good = []
    good.append(not group_leq(spec, (1, F(7, 10)), (1, 1)))
    good.append(group_leq(PoGroupSpec(2, "Z", "product"), (0, 1), (1, 1)))
    good.append(group_leq(spec, (F(1, 3), F(2, 5)), (F(1, 3), F(2, 5))))
    good.append(alg.contains((F(3, 10), F(3, 10))))
    good.append(not alg.contains((1, F(7, 10))))
    good.append(alg.contains(alg.unit))
    return CheckResult("strict_plane_order", all(good), {"checks": good})


def check_strict_plane_clan_gap() -> CheckResult:
    """The strict-plane interval whose evaluation image is not sum-closed."""
    alg = strict_plane_algebra()
    states = extremal_states(alg)
    a = (F(3, 10), F(3, 10))
    b = (F(7, 10), F(4, 10))
    elements = [alg.zero, alg.unit, a, b]
    hat = [tuple(s(e) for s in states) for e in elements]
    witness = clan_closure_witness(hat, strict_plane_preimage(alg), alg.contains)
    details = {
        "extremal_states": len(states),
        "a_hat": [str(x) for x in hat[2]],
        "witness": None,
    }
    passed = len(states) == 2 and hat[2] == (F(3, 10), F(3, 10))
    if witness is None:
        passed = False
    else:
        target_multiset = sorted(witness.target)
        details["witness"] = {
            "kind": witness.kind,
            "pair": (witness.f_index, witness.g_index),
            "sum_values": [str(x) for x in target_multiset],
            "missing_preimage": [str(x) for x in witness.candidate],
        }
        passed = passed and witness.kind == "sum"
        passed = passed and (elements[witness.f_index], elements[witness.g_index]) == (a, b)
        passed = passed and target_multiset == [F(7, 10), F(1)]
        passed = passed and witness.candidate == (F(1), F(7, 10))
        passed = passed and not alg.contains(witness.candidate)
    return CheckResult("strict_plane_clan_gap", passed, details)


def check_strict_plane_separating() -> CheckResult:
    alg = strict_plane_algebra()
    states = extremal_states(alg)
    elements = [alg.zero, alg.unit,
                (F(3, 10), F(3, 10)), (F(7, 10), F(4, 10)),
                (F(1, 2), F(1, 4)), (F(1, 2), F(1, 2))]
    rep = sampled_order_report(elements, states,
                              lambda x, y: group_leq(alg.spec, x, y))
    passed = rep.separating and not rep.order_determining and rep.od_witness == (4, 5)
    return CheckResult("strict_plane_separating_not_determining", passed,
                       {"separating": rep.separating,
                        "order_determining": rep.order_determining,
                        "od_witness": rep.od_witness})


def check_even_subsets_rdp() -> CheckResult:
    e4 = build_even_subsets(4)
    holds, witness = check_rdp(e4)
    details = {"even_subsets_4": holds, "witness": witness}
    passed = not holds and witness is not None and verify_rdp_witness(e4, witness)
    # the missing single-point set is what blocks the refinement
    passed = passed and "{1}" not in e4.labels
    for k in (1, 2, 3):
        ok, _ = check_rdp(build_boolean(k))
        details[f"boolean({k})"] = ok
        passed = passed and ok
    for n in range(1, 9):
        ok, _ = check_rdp(build_chain(n))
        details[f"chain({n})"] = ok
        passed = passed and ok
    return CheckResult("even_subsets_rdp_gap", passed, details)


def check_interval_rdp() -> CheckResult:
    details = {}
    passed = True
    for u in [(1,), (3,), (1, 1), (2, 1), (2, 2), (1, 1, 1)]:
        alg = IntervalAlgebra(PoGroupSpec(len(u), "Z", "product"), u)
        E = materialize(alg)
        ok, _ = check_rdp(E)
        details[str(u)] = {"elements": E.n, "rdp": ok}
        passed = passed and ok
    return CheckResult("interval_rdp", passed, details)


def check_state_examples() -> CheckResult:
    c2 = build_chain(2)
    P = compute_states(c2)
    ok1 = P.vertices == ((F(0), F(1, 2), F(1)),)
    b2 = build_boolean(2)
    P2 = compute_states(b2)
    ok2 = (len(P2.vertices) == 2
           and all(set(v) <= {F(0), F(1)} for v in P2.vertices))
    c22 = build_product([build_chain(2), build_chain(2)])
    P3 = compute_states(c22)
    tuples = c22.meta["tuples"]
    m1 = tuple(F(t[0], 2) for t in tuples)
    m2 = tuple(F(t[1], 2) for t in tuples)
    ok3 = set(P3.vertices) == {m1, m2}
    return CheckResult("state_examples", ok1 and ok2 and ok3,
                       {"chain2": ok1, "boolean2": ok2, "square_product": ok3})


def check_kernel_ideals() -> CheckResult:
    """Every kernel is an ideal; it is tau-closed, as tau(a) = 0 on it."""
    passed = True
    details = {}
    for name, E in small_catalog(max_elements=8):
        ideal_sets = {frozenset(i) for i, _f in enumerate_ideals(E)}
        for m in enumerate_endomorphisms(E):
            ker = frozenset(kernel(E, m))
            if ker not in ideal_sets:
                passed = False
                details.setdefault("failures", []).append((name, m))
    return CheckResult("kernel_ideals", passed, details)


def check_square_product_operators() -> CheckResult:
    """Both coordinate-repeat operators on chain(2) x chain(2) are state-morphisms
    with ESP; the polytope is the two coordinate states m1, m2, and the first
    operator, which keeps existing joins and meets, collapses both onto m1."""
    E = build_product([build_chain(2), build_chain(2)])
    P = compute_states(E)
    t1, t2 = coordinate_repeat_maps(E)
    p1 = classify_operator(E, t1, P)
    p2 = classify_operator(E, t2, P)
    tuples = E.meta["tuples"]
    m1 = tuple(F(t[0], 2) for t in tuples)
    m2 = tuple(F(t[1], 2) for t in tuples)
    ind = induced_state_map(E, t1, P)
    collapse = all(img == m1 for img in ind.vertex_images)
    passed = (p1.is_state_morphism and p1.has_esp and p2.is_state_morphism
              and p2.has_esp and collapse and set(P.vertices) == {m1, m2})
    passed = passed and preserves_existing_joins(E, E, t1)
    return CheckResult("square_product_operators", passed,
                       {"vertices": len(P.vertices), "collapse_to_m1": collapse})


def check_chain_rigidity() -> CheckResult:
    passed = True
    for n in range(1, 9):
        E = build_chain(n)
        endos = enumerate_endomorphisms(E)
        if endos != [tuple(range(E.n))]:
            passed = False
    return CheckResult("chains_admit_identity_only", passed, {})


def check_mv_agreement() -> CheckResult:
    """The MV agreement scan on every MV algebra of the roster: every
    star-equivariant self-map, the only maps either reading can accept."""
    details = {}
    passed = True
    for name, E in small_catalog():
        try:
            A = mv_operations(E)
        except ValueError:     # no refinement: not MV
            continue
        stats = scan_mv_operator_agreement(A, compute_states(E))
        details[name] = stats
        if stats["state_morphisms"] != stats["esp_confirmed"]:
            passed = False
    return CheckResult("mv_operator_agreement", passed, details)


def check_mv_tables() -> CheckResult:
    """Worked MV tables on chain(2) and chain(3).  On both, the partial sum
    derived from (+) is the table, as the MV-effect theorem says; this is its
    worked instance, since ``mv_operations`` does not recheck it."""
    L2 = mv_operations(build_chain(2))
    L3 = mv_operations(build_chain(3))
    passed = L2.oplus[1][1] == 2 and L2.odot[1][1] == 0
    passed = passed and L3.oplus[1][2] == 3 and L3.odot[2][2] == 1
    passed = passed and derived_sum_matches(L2)[0] and derived_sum_matches(L3)[0]
    return CheckResult("mv_tables_and_derived_sum", passed, {})


def check_discrete_profiles() -> CheckResult:
    ok1 = discrete_profile((F(0), F(1, 2), F(1))) == 2
    ok2 = discrete_profile((F(0), F(0), F(1), F(1))) == 1
    ok3 = discrete_profile((F(0), F(1, 2), F(1, 3), F(1))) == 6
    return CheckResult("discrete_profiles", ok1 and ok2 and ok3, {})


def check_extension_matrices() -> CheckResult:
    """Every potent endomorphism of the unit box and the 2x1 box extends to an
    integer matrix; the extension is additive, so it agrees with the table on
    [0, u], keeps the positive cone and the potency.  The coordinate swap and
    the first-coordinate repeat extend to the swap and projection matrices."""
    details = {}
    for u in [(1, 1), (2, 1)]:
        E = materialize(IntervalAlgebra(PoGroupSpec(2, "Z", "product"), u))
        reports = [extend_endomorphism(E, m) for m in enumerate_endomorphisms(E)
                   if minimal_potency(m) is not None]
        details[str(u)] = {"extended": len(reports)}
    E11 = materialize(IntervalAlgebra(PoGroupSpec(2, "Z", "product"), (1, 1)))
    coords = E11.meta["coords"]
    index = {c: i for i, c in enumerate(coords)}
    swap = tuple(index[(b, a)] for (a, b) in coords)
    repeat = tuple(index[(a, a)] for (a, b) in coords)
    rep_swap = extend_endomorphism(E11, swap)
    rep_repeat = extend_endomorphism(E11, repeat)
    ident = tuple(range(E11.n))
    rep_id = extend_endomorphism(E11, ident)
    passed = rep_swap.matrix == ((0, 1), (1, 0)) and rep_swap.potency == 3
    passed = passed and rep_repeat.matrix == ((1, 0), (1, 0)) and rep_repeat.potency == 2
    passed = passed and rep_id.matrix == ((1, 0), (0, 1))
    details["swap"] = rep_swap.matrix
    details["repeat_first"] = rep_repeat.matrix
    return CheckResult("group_extension_matrices", passed, details)


def check_order_determining() -> CheckResult:
    """Boolean cubes are order-determining and hsum(2,2) is not.  Order
    determination says a |-> a-hat is an order isomorphism onto its image,
    which gives the check its name."""
    passed = True
    details = {}
    for name, E in small_catalog():
        rep = is_order_determining(E, compute_states(E))
        details[name] = {"order_determining": rep.order_determining,
                         "separating": rep.separating}
    for k in (1, 2, 3):
        if not details[f"boolean({k})"]["order_determining"]:
            passed = False
    hs = horizontal_sum([build_chain(2), build_chain(2)])
    rep = is_order_determining(hs, compute_states(hs))
    passed = passed and not rep.order_determining
    details["hsum(2,2)"] = {"order_determining": rep.order_determining,
                            "separating": rep.separating}
    return CheckResult("order_determining_vs_image_iso", passed, details)


def check_clan_closure_finite() -> CheckResult:
    b2 = build_boolean(2)
    P = compute_states(b2)
    vectors, preimage, contains = finite_clan_engine(b2, P)
    witness = clan_closure_witness(vectors, preimage, contains)
    return CheckResult("finite_image_clan_closed", witness is None,
                       {"witness": None if witness is None else witness.kind})


def check_morphism_squares() -> CheckResult:
    """One state-morphism square (chain(2) into chain(2) x chain(2)) and one
    simplex-morphism square commute."""
    c2 = build_chain(2)
    c22 = build_product([build_chain(2), build_chain(2)])
    tuples = c22.meta["tuples"]
    index = {t: i for i, t in enumerate(tuples)}
    diag = tuple(index[(a, a)] for a in range(3))            # chain(2) -> c22
    t1, _ = coordinate_repeat_maps(c22)
    id2 = tuple(range(c2.n))
    ok1 = check_state_morphism(c2, id2, c22, t1, diag).passed
    p = (0, 1)     # two vertices into three
    ok2 = check_simplex_morphism(VertexMap((1, 0), 3), VertexMap((1, 0, 2), 3), p).passed
    return CheckResult("morphism_squares", ok1 and ok2, {})


def check_axiom_fuzz() -> CheckResult:
    rng = random.Random(0)
    passed = True
    totals = {"violation": 0, "valid_different": 0, "valid_same": 0}
    for name, E in small_catalog():
        rep = fuzz_mutations(E, rng)
        for key in totals:
            totals[key] += rep[key]
        if rep["valid_same"]:
            passed = False
    return CheckResult("axiom_fuzz", passed, totals)


def check_structure_invariants() -> CheckResult:
    passed = True
    details = {}
    for name, E in small_catalog():
        rdp, _ = check_rdp(E)
        interp, _ = check_interpolation(E)
        if rdp and not interp:
            passed = False
        if rdp:
            for _ideal, flags in enumerate_ideals(E):
                if not flags["riesz"]:
                    passed = False
        details[name] = {"rdp": rdp, "interpolation": interp,
                         "lattice": classify_lattice(E)}
    return CheckResult("structure_invariants", passed, details)


def check_state_geometry() -> CheckResult:
    """Every vertex passes the direct state check, so every convex combination
    does (the state conditions are linear), and no vertex is the midpoint of
    two others, decided on the integer vertices as ``u1 + u2 == 2 * v``."""
    passed = True
    for name, E in small_catalog():
        P = compute_states(E)
        if not all(is_state(E, v) for v in P.vertices):
            passed = False
        for v in P.int_vertices:
            others = [u for u in P.int_vertices if u != v]
            for i, u1 in enumerate(others):
                for u2 in others[i + 1:]:
                    if all(x + y == 2 * z for x, y, z in zip(u1, u2, v)):
                        passed = False
    return CheckResult("state_geometry", passed, {})


def check_strict_cones() -> CheckResult:
    """Each cone is pointed: 0 <= x <= 0 only at x = 0, over the whole grid of
    a/b with |a| <= 6 and 1 <= b <= 4 in each coordinate."""
    passed = True
    grid = sorted({F(a, b) for a in range(-6, 7) for b in range(1, 5)})
    zero = (F(0), F(0))
    for order in ("product", "lex", "strict"):
        spec = PoGroupSpec(2, "Q", order)
        for x in product(grid, repeat=2):
            if group_leq(spec, zero, x) and group_leq(spec, x, zero) and x != zero:
                passed = False
    return CheckResult("strict_cones", passed, {})


ALL_CHECKS: list[Callable[[], CheckResult]] = [
    check_strict_plane_order,
    check_strict_plane_clan_gap,
    check_strict_plane_separating,
    check_even_subsets_rdp,
    check_interval_rdp,
    check_state_examples,
    check_kernel_ideals,
    check_square_product_operators,
    check_chain_rigidity,
    check_mv_tables,
    check_mv_agreement,
    check_discrete_profiles,
    check_extension_matrices,
    check_order_determining,
    check_clan_closure_finite,
    check_morphism_squares,
    check_axiom_fuzz,
    check_structure_invariants,
    check_state_geometry,
    check_strict_cones,
]


def run_suite() -> list[CheckResult]:
    """Every check in order; a check that raises is reported as failed under its
    function name, with the exception's type and message, and the rest still run."""
    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check())
        except Exception as exc:
            results.append(CheckResult(check.__name__, False,
                                       {"error": f"{type(exc).__name__}: {exc}"}))
    return results
