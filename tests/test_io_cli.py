"""File formats and the command-line interface."""

import json
import re
import sys
from fractions import Fraction as F

import pytest

from effectalg import core
from effectalg.catalog import build_boolean, build_chain, horizontal_sum
from effectalg.cli import main
from effectalg.core import (GUARD_ASSOCIATIVITY, GUARD_ELEMENTS, SEARCH_HEADROOM,
                            GuardExceeded, homomorphisms)
from effectalg.io import polytope_to_dict, structure_from_dict, structure_to_dict
from effectalg.operators import enumerate_endomorphisms
from effectalg.states import GUARD_VERTICES, StatePolytope
from tables import greechie_chain, sums_dict
from test_acceptance import Budget


def test_rational_strings():
    P = StatePolytope(size=3, int_vertices=((0, 3, 10),), scale=10, free_dim=1)
    assert P.vertices == ((F(0), F(3, 10), F(1)),)
    assert polytope_to_dict(P)["vertices"] == [["0", "3/10", "1"]]


def test_structure_round_trip():
    E = build_boolean(2)
    again = structure_from_dict(structure_to_dict(E))
    assert sums_dict(again) == sums_dict(E) and again.labels == E.labels


def test_catalog_structure_file():
    E = structure_from_dict({"catalog": {"kind": "chain", "n": 3}})
    assert E.n == 4


def test_index_convention_enforced():
    data = structure_to_dict(build_chain(2))
    data["one"] = 0
    with pytest.raises(ValueError):
        structure_from_dict(data)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_validate(tmp_path, capsys):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps({"catalog": {"kind": "boolean", "k": 2}}))
    code, out = run_cli(capsys, "validate", "--input", str(path))
    assert code == 0
    assert json.loads(out)["valid"]


def test_cli_validate_reports_axiom(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "n": 3, "zero": 0, "one": 2,
        "sums": [[0, 0, 0], [0, 1, 1], [0, 2, 2], [2, 0, 2], [1, 1, 2]]}))
    code, out = run_cli(capsys, "validate", "--input", str(path))
    assert code == 1
    report = json.loads(out)
    assert not report["valid"] and report["axiom"] == "i"


CHAIN2 = [[0, 0, 0], [0, 1, 1], [0, 2, 2], [1, 0, 1], [1, 1, 2], [2, 0, 2]]


def _chain2_with(**fields):
    return {"n": 3, "zero": 0, "one": 2, "sums": CHAIN2, **fields}


@pytest.mark.parametrize("data, code, axiom", [
    ([1, 2], 2, None),
    (_chain2_with(sums=None), 2, None),
    (_chain2_with(sums=CHAIN2 + [5]), 1, "table"),
    ({"catalog": 5}, 2, None),
    ({"catalog": {"kind": "product", "factors": [5]}}, 2, None),
    (_chain2_with(labels=5), 2, None),
    (_chain2_with(labels=["a"]), 2, None),
    (_chain2_with(n=3.0), 2, None),
    (_chain2_with(sums=[[1, 0, 1.9] if t == [1, 0, 1] else t for t in CHAIN2]), 1, "table"),
    (_chain2_with(sums=[[0, True, 1] if t == [0, 1, 1] else t for t in CHAIN2]), 1, "table"),
    ({"catalog": {"kind": "boolean", "k": 2.9}}, 2, None),
    ({"catalog": {"kind": "chain", "n": True}}, 2, None),
    ({"catalog": {"kind": "mv_product", "chains": [2, "3"]}}, 2, None),
    ({"catalog": {"kind": "boolean", "k": None}}, 2, None),
    ({"catalog": {"kind": "product", "factors": 5}}, 2, None),
], ids=["top-level-list", "sums-null", "bare-int-entry", "catalog-int", "catalog-factor-int",
        "labels-int", "labels-short", "n-float", "float-index", "bool-index",
        "catalog-k-float", "catalog-n-bool", "catalog-chains-str", "catalog-k-null",
        "catalog-factors-int"])
def test_cli_malformed_structure(tmp_path, capsys, data, code, axiom):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    got, out = run_cli(capsys, "validate", "--input", str(path))
    assert got == code
    if axiom is None:
        assert out == ""
    else:
        report = json.loads(out)
        assert not report["valid"] and report["axiom"] == axiom


@pytest.mark.parametrize("data, message, witness", [
    ({"n": 0, "sums": []}, "need at least one element", [0]),
    ({"n": 2, "sums": [[0, 1]]}, "entries must be (i, j, k) triples", [0, 1]),
    ({"n": 2, "sums": [[0, 5, 1]]}, "index out of range", [0, 5, 1]),
], ids=["no-elements", "pair-entry", "index-out-of-range"])
def test_cli_validate_rejects_the_table_shape(tmp_path, capsys, data, message, witness):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "validate", "--input", str(path))
    assert code == 1
    assert json.loads(out) == {"valid": False, "axiom": "table", "witness": witness,
                               "message": message}


@pytest.mark.parametrize("spec, message", [
    ({"kind": "boolean", "k": 0}, "boolean algebra needs k >= 1"),
    ({"kind": "chain", "n": 0}, "chain needs n >= 1"),
    ({"kind": "product", "factors": []}, "product needs at least one factor"),
    ({"kind": "torus"}, "unknown catalog kind 'torus'"),
], ids=["boolean-k0", "chain-n0", "product-no-factors", "unknown-kind"])
def test_cli_rejects_a_catalog_spec(tmp_path, capsys, spec, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"catalog": spec}))
    assert main(["validate", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("data, key", [
    ({"sums": []}, "n"),
    ({"n": 3}, "sums"),
    ({"catalog": {"kind": "chain"}}, "n"),
    ({"catalog": {"kind": "boolean"}}, "k"),
    ({"catalog": {"kind": "even_subsets"}}, "m"),
    ({"catalog": {"kind": "product"}}, "factors"),
    ({"catalog": {"kind": "mv_product"}}, "chains"),
    ({"catalog": {"kind": "product", "factors": [{"kind": "boolean", "m": 2}]}}, "k"),
], ids=["raw-n", "raw-sums", "chain-n", "boolean-k", "even-m", "product-factors",
        "mv-chains", "factor-k"])
def test_cli_missing_key_exits_2_naming_it(tmp_path, capsys, data, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.endswith(f" has no {key!r}\n")


def test_cli_internal_key_error_exit_code(tmp_path, capsys, monkeypatch):
    """A KeyError inside the package is an internal error, not a usage error."""
    import effectalg.cli as cli

    def broken(E):
        raise KeyError("n")

    monkeypatch.setattr(cli, "compute_states", broken)
    path = tmp_path / "c2.json"
    path.write_text(json.dumps({"catalog": {"kind": "chain", "n": 2}}))
    assert main(["states", "--input", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: KeyError: 'n'\n"


def test_cli_states(tmp_path, capsys):
    path = tmp_path / "c2.json"
    path.write_text(json.dumps({"catalog": {"kind": "chain", "n": 2}}))
    code, out = run_cli(capsys, "states", "--input", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["vertices"] == [["0", "1/2", "1"]]
    assert report["order_determining"]


def test_cli_states_of_the_one_element_algebra(tmp_path, capsys):
    """Its 0 is its unit, so no state can send 0 to 0 and the unit to 1."""
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": 1, "sums": [[0, 0, 0]]}))
    code, out = run_cli(capsys, "states", "--input", str(path))
    assert code == 0
    assert json.loads(out) == {"size": 1, "free_dim": 0, "vertices": [], "note": "no states",
                               "order_determining": False, "separating": False}


def test_cli_operators(tmp_path, capsys):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps({"catalog": {"kind": "boolean", "k": 2}}))
    code, out = run_cli(capsys, "operators", "--input", str(path), "--n", "3")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 4
    pots = [op["classification"]["minimal_potency"] for op in report["operators"]]
    assert sorted(pots) == [2, 2, 2, 3]


def test_cli_operators_large_n(tmp_path, capsys):
    """``--n`` is decided from the minimal potency, not by n compositions: on
    boolean(3) with n = 10**6, n - 1 = 999,999 is odd and a multiple of 3, so
    the maps of potency 2 and 4 are n-potent and those of potency 3 are not."""
    path = tmp_path / "b3.json"
    path.write_text(json.dumps({"catalog": {"kind": "boolean", "k": 3}}))
    with Budget("operators --n 1000000 on boolean(3)", 1.0):
        code, out = run_cli(capsys, "operators", "--input", str(path), "--n", "1000000")
    assert code == 0
    verdicts = {(c["minimal_potency"], c["is_1000000_potent"])
                for c in (op["classification"] for op in json.loads(out)["operators"])}
    assert verdicts == {(2, True), (3, False), (4, True), (None, False)}


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_cli_operators_rejects_n_below_two(n, tmp_path, capsys):
    """n-potency is defined for n >= 2: a smaller ``--n`` is a usage error, not
    a report that calls the identity not 1-potent."""
    path = tmp_path / "b1.json"
    path.write_text(json.dumps({"catalog": {"kind": "boolean", "k": 1}}))
    code = main(["operators", "--input", str(path), "--n", n])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --n must be at least 2, got {n}\n"


def test_cli_usage_error(tmp_path, capsys):
    code = main(["states", "--input", str(tmp_path / "missing.json")])
    assert code == 2


def test_cli_guard_error(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"catalog": {"kind": "boolean", "k": 5}}))
    code = main(["analyze", "--input", str(path), "--guard-elements", "8"])
    assert code == 0  # analyze degrades: ideal enumeration is skipped, not fatal
    out = json.loads(capsys.readouterr().out)
    assert out["ideals"] is None and out["ideal_count"] == -1


def test_cli_endomorphism_guard_exits_2(tmp_path, capsys, monkeypatch):
    """boolean(5)'s search takes 41,600 nodes and yields 100,000 map entries:
    one over either guard exits 2."""
    path = tmp_path / "b5.json"
    path.write_text(json.dumps({"catalog": {"kind": "boolean", "k": 5}}))
    assert main(["operators", "--input", str(path), "--guard-endos", "41599"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "guarded at 41599 nodes" in captured.err
    monkeypatch.setattr(core, "GUARD_MAP_ENTRIES", 99_999)
    assert main(["operators", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "guard exceeded: search past 99999 map entries\n"


def test_cli_search_deeper_than_the_recursion_limit_exits_2(tmp_path, capsys):
    """The endomorphism search nests one generator frame per schedule level.
    1,100 chain(2) blocks have 1,102 elements and 1,101 levels, over the
    recursion limit less ``SEARCH_HEADROOM``: the search is refused before it
    starts, through the package and through the CLI, instead of ending in a
    ``RecursionError`` (exit 3).  500 blocks still find their first map, which
    sends every middle element to the first."""
    assert (sys.getrecursionlimit(), SEARCH_HEADROOM) == (1000, 100)
    E = horizontal_sum([build_chain(2)] * 1100)
    message = "homomorphism search of 1101 levels (recursion limit 1000, 100 frames kept)"
    with pytest.raises(GuardExceeded, match=re.escape(message)):
        enumerate_endomorphisms(E)
    path = tmp_path / "hsum1100.json"
    path.write_text(json.dumps(structure_to_dict(E)))
    assert main(["operators", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"guard exceeded: {message}\n"
    E = horizontal_sum([build_chain(2)] * 500)
    assert next(homomorphisms(E, E)) == (0,) + (1,) * 500 + (501,)


def test_cli_double_description_guard_exits_2(tmp_path, capsys):
    """The 17 blocks' 2^17 extremal states are over the vertex guard."""
    assert GUARD_VERTICES == 2 ** 16
    path = tmp_path / "hsum17.json"
    path.write_text(json.dumps(structure_to_dict(horizontal_sum([build_boolean(2)] * 17))))
    assert main(["states", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "guarded at 65536 vertices" in captured.err


def test_cli_free_dimension_guard_exits_2(tmp_path, capsys):
    """A Greechie chain of 16 boolean(3) blocks does not split, and its free
    dimension 17 is over the double-description guard."""
    path = tmp_path / "greechie16.json"
    path.write_text(json.dumps(structure_to_dict(greechie_chain(16))))
    assert main(["states", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "guarded at 16 free dimensions" in captured.err


@pytest.mark.parametrize("data, code", [
    ({"n": 5000, "sums": []}, 2),
    ({"catalog": {"kind": "boolean", "k": 13}}, 2),
    ({"catalog": {"kind": "chain", "n": 4096}}, 2),
    ({"catalog": {"kind": "even_subsets", "m": 14}}, 2),
    ({"catalog": {"kind": "mv_product", "chains": [64, 64]}}, 2),
    ({"n": 4096, "sums": []}, 1),
    ({"catalog": {"kind": "chain", "n": 1024}}, 2),
    ({"catalog": {"kind": "chain", "n": 2047}}, 2),
    ({"catalog": {"kind": "chain", "n": 4095}}, 2),
    ({"catalog": {"kind": "product", "factors": [{"kind": "chain", "n": 584}] * 2}}, 2),
    ({"catalog": {"kind": "product", "factors": [{"kind": "chain", "n": 63}] * 2}}, 2),
])
def test_cli_element_guard_exits_2_before_building(data, code, tmp_path, capsys):
    """An algebra of more than ``GUARD_ELEMENTS`` elements is refused before
    its n x n table is allocated or its pairs are listed.  A raw table of
    exactly that many elements is still built and checked: this one has no
    complements, so it fails axiom (iii).  chain(1024), chain(2047) and
    chain(4095) are under the element guard, but their associativity scans,
    about 1.8e8 triples and more, are over ``GUARD_ASSOCIATIVITY``, and are
    refused before any pair is listed.  A product of two chain(584), each
    under both guards, is refused from its spec before either is built.  A
    product of two chain(63) has exactly 4,096 elements, but its scan is the
    product of its factors' scans, 45,760^2 triples, and is refused before
    the factors are folded."""
    assert (GUARD_ELEMENTS, GUARD_ASSOCIATIVITY) == (4096, 1 << 25)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    with Budget("element guard", 5.0):
        assert main(["validate", "--input", str(path)]) == code
        captured = capsys.readouterr()
    if code == 2:
        assert captured.out == "" and "guard exceeded" in captured.err
    else:
        assert json.loads(captured.out)["axiom"] == "iii"


@pytest.mark.parametrize("spec", [
    {"kind": "boolean", "k": 100_000},
    {"kind": "product", "factors": [{"kind": "chain", "n": 2}, {"kind": "boolean", "k": 100_000}]},
])
def test_cli_huge_counts_are_guarded_unformatted(spec, tmp_path, capsys):
    """boolean(100000) has 2^100000 elements, a count of 30,103 digits, past
    Python's 4,300-digit limit on int-to-string conversion.  The guard
    compares a capped count and names it as "2^64 or more", alone and as a
    product factor, within 0.1 s."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"catalog": spec}))
    with Budget("huge-count guard", 0.1):
        assert main(["validate", "--input", str(path)]) == 2
        captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"guard exceeded: 2^64 or more elements (guard {GUARD_ELEMENTS})\n"


def test_cli_output_file(tmp_path, capsys):
    src = tmp_path / "c3.json"
    src.write_text(json.dumps({"catalog": {"kind": "chain", "n": 3}}))
    dst = tmp_path / "report.json"
    code = main(["--output", str(dst), "analyze", "--input", str(src)])
    assert code == 0
    report = json.loads(dst.read_text())
    assert report["rdp"] and report["lattice_class"] == "both"


def test_cli_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    import effectalg.cli as cli

    def broken(E):
        raise RuntimeError("polytope exploded")

    monkeypatch.setattr(cli, "compute_states", broken)
    path = tmp_path / "c2.json"
    path.write_text(json.dumps({"catalog": {"kind": "chain", "n": 2}}))
    code = main(["states", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: polytope exploded\n"


def test_cli_axiom_violation_outside_validate(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "n": 3, "zero": 0, "one": 2,
        "sums": [[0, 0, 0], [0, 1, 1], [0, 2, 2], [2, 0, 2], [1, 1, 2]]}))
    code = main(["states", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("invalid structure: axiom i violated")
    assert captured.err.count("\n") == 1


def test_cli_paper_suite_reports_raising_check(capsys, monkeypatch):
    import effectalg.suite as suite

    def check_broken():
        raise NameError("name 'gcd' is not defined")

    monkeypatch.setattr(suite, "ALL_CHECKS", [check_broken, suite.check_morphism_squares])
    code, out = run_cli(capsys, "paper-suite")
    assert code == 1
    report = json.loads(out)
    assert report["failed"] == ["check_broken"]
    assert report["passed"] == 1


def test_cli_unwritable_output_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "c2.json"
    src.write_text(json.dumps({"catalog": {"kind": "chain", "n": 2}}))
    code = main(["--output", str(tmp_path / "missing" / "r.json"), "validate",
                 "--input", str(src)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
