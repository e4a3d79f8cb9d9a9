"""The paper-suite runner: every check reports, even one that raises."""

import inspect

import effectalg.suite as suite
from effectalg.suite import ALL_CHECKS, CheckResult, run_suite


def test_raising_check_becomes_failed_result(monkeypatch):
    seen = []

    def check_raises():
        seen.append("raises")
        raise ZeroDivisionError("division by zero")

    def check_passes():
        seen.append("passes")
        return CheckResult("passes", True, {"ran": True})

    monkeypatch.setattr(suite, "ALL_CHECKS", [check_raises, check_passes])
    results = run_suite()
    assert seen == ["raises", "passes"]
    assert [r.to_dict() for r in results] == [
        {"name": "check_raises", "passed": False,
         "details": {"error": "ZeroDivisionError: division by zero"}},
        {"name": "passes", "passed": True, "details": {"ran": True}},
    ]


def test_checks_take_no_arguments():
    """Each check decides its claim on a fixed population; none takes a seed
    or any other knob."""
    assert [c.__name__ for c in ALL_CHECKS
            if inspect.signature(c).parameters] == []
    assert not inspect.signature(run_suite).parameters


def test_check_roster_is_pinned():
    """The suite's checks in report order.  Adding, removing or reordering a
    check shows up here by name, not only as a new ``paper-suite`` digest."""
    assert [c.__name__ for c in ALL_CHECKS] == [
        "check_strict_plane_order", "check_strict_plane_clan_gap",
        "check_strict_plane_separating", "check_even_subsets_rdp", "check_interval_rdp",
        "check_state_examples", "check_kernel_ideals", "check_square_product_operators",
        "check_chain_rigidity", "check_mv_tables", "check_mv_agreement",
        "check_discrete_profiles", "check_extension_matrices", "check_order_determining",
        "check_clan_closure_finite", "check_morphism_squares", "check_axiom_fuzz",
        "check_structure_invariants", "check_state_geometry", "check_strict_cones",
    ]
