"""The paper-suite: the paper's claims, each decided on a fixed finite population.

The claims are those of state-operators and ESP, the finite Loomis-Sikorski
skeleton (clan closure of the evaluation image), order determination and the
duality's morphisms, with the worked examples that separate them.  Each check
takes no arguments and returns a CheckResult; the CLI aggregates them into one
report with an exit code.  No check samples: none draws random numbers, so
reports are reproducible bytes, and the seeded table edits that test the axiom
checker are a tier-1 test.  A check stays only if both halves of one rule hold.
It can fail: a verdict fixed by the definitions, such as a strong operator
being a state-operator, is not a check.  And no test already defines its
claim: unit facts about helpers, such as one comparison in an ordered group,
one table value, one discreteness profile or the rigidity of chains, live in
the tier-1 tests, which pin the suite's checks rather than re-derive them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .catalog import (build_boolean, build_chain, build_even_subsets,
                      build_product, horizontal_sum, small_catalog)
from .duality import VertexMap, check_simplex_morphism, check_state_morphism
from .mv import mv_operations
from .operators import (classify_operator, coordinate_repeat_maps, enumerate_endomorphisms,
                        induced_state_map, kernel, minimal_potency,
                        scan_mv_operator_agreement)
from .pogroup import (IntervalAlgebra, PoGroupSpec, extend_endomorphism,
                      extremal_states, group_leq, materialize, strict_plane_preimage)
from .states import (clan_closure_witness, compute_states, finite_clan_engine,
                     is_order_determining, is_state, sampled_order_report)
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
    for k in (1, 2, 3):
        ok, _ = check_rdp(build_boolean(k))
        details[f"boolean({k})"] = ok
        passed = passed and ok
    for n in range(1, 9):
        ok, _ = check_rdp(build_chain(n))
        details[f"chain({n})"] = ok
        passed = passed and ok
    return CheckResult("even_subsets_rdp_gap", passed, details)


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
    collapse = ind.vertex_to_vertex == (P.vertex_index(m1),) * len(P.int_vertices)
    passed = (p1.is_state_morphism and p1.has_esp and p2.is_state_morphism
              and p2.has_esp and collapse and set(P.vertices) == {m1, m2})
    return CheckResult("square_product_operators", passed,
                       {"vertices": len(P.vertices), "collapse_to_m1": collapse})


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


def check_extension_matrices() -> CheckResult:
    """Every potent endomorphism of the unit box and the 2x1 box extends to an
    integer matrix; the extension is additive, so it agrees with the table on
    [0, u], keeps the positive cone and the potency.  The coordinate swap and
    the first-coordinate repeat extend to the swap and projection matrices."""
    details = {}
    for u in [(1, 1), (2, 1)]:
        E = materialize(IntervalAlgebra(PoGroupSpec(2, "Z", "product"), u))
        matrices = [extend_endomorphism(E, m) for m in enumerate_endomorphisms(E)
                    if minimal_potency(m) is not None]
        details[str(u)] = {"extended": len(matrices)}
    E11 = materialize(IntervalAlgebra(PoGroupSpec(2, "Z", "product"), (1, 1)))
    coords = E11.meta["coords"]
    index = {c: i for i, c in enumerate(coords)}
    swap = tuple(index[(b, a)] for (a, b) in coords)
    repeat = tuple(index[(a, a)] for (a, b) in coords)
    M_swap = extend_endomorphism(E11, swap)
    M_repeat = extend_endomorphism(E11, repeat)
    M_id = extend_endomorphism(E11, tuple(range(E11.n)))
    passed = M_swap == ((0, 1), (1, 0)) and M_repeat == ((1, 0), (1, 0))
    passed = passed and M_id == ((1, 0), (0, 1))
    details["swap"] = M_swap
    details["repeat_first"] = M_repeat
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
    """The evaluation image a |-> a-hat of boolean(2), chain(3) and
    even_subsets(4) is clan-closed; the first witness found is reported."""
    witness = None
    for E in (build_boolean(2), build_chain(3), build_even_subsets(4)):
        witness = clan_closure_witness(*finite_clan_engine(E, compute_states(E)))
        if witness is not None:
            break
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


ALL_CHECKS: list[Callable[[], CheckResult]] = [
    check_strict_plane_clan_gap,
    check_strict_plane_separating,
    check_even_subsets_rdp,
    check_kernel_ideals,
    check_square_product_operators,
    check_mv_agreement,
    check_extension_matrices,
    check_order_determining,
    check_clan_closure_finite,
    check_morphism_squares,
    check_structure_invariants,
    check_state_geometry,
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
