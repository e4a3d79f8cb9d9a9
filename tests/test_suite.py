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
