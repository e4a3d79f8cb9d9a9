"""CLI reports on fixed inputs, pinned byte for byte.

Each digest is the SHA-256 of the exact stdout of one ``effectalg`` command.
A refactor that claims identical outputs must leave every digest unchanged;
a change that means to alter a report updates its digest and says why.  The
raw tables list their sums out of row-major order, so witnesses that depend on
the order of the input pairs are pinned too.
"""

import argparse
import hashlib
import json

import pytest

from effectalg.catalog import build_boolean, build_chain, horizontal_sum
from effectalg.cli import _parser, main
from effectalg.io import structure_to_dict

SQUARE = {"catalog": {"kind": "product", "factors": [{"kind": "chain", "n": 2},
                                                     {"kind": "chain", "n": 2}]}}
BOOLEAN3 = {"catalog": {"kind": "boolean", "k": 3}}
# even_subsets(4) relabeled along [0, 5, 3, 6, 1, 4, 2, 7], sums by descending
# value; RDP fails with witness [3, 4, 2, 5] here and [1, 6, 2, 5] in row-major order
EVEN4_RELABELED = {
    "n": 8,
    "sums": [[7, 0, 7], [6, 1, 7], [5, 2, 7], [4, 3, 7], [3, 4, 7], [2, 5, 7],
             [1, 6, 7], [0, 7, 7], [6, 0, 6], [0, 6, 6], [5, 0, 5], [0, 5, 5],
             [4, 0, 4], [0, 4, 4], [3, 0, 3], [0, 3, 3], [2, 0, 2], [0, 2, 2],
             [1, 0, 1], [0, 1, 1], [0, 0, 0]],
    "labels": ["{}", "{2,3}", "{3,4}", "{1,3}", "{2,4}", "{1,2}", "{1,4}", "{1,2,3,4}"],
}
# chain(2) x chain(2) relabeled along [0, 4, 7, 2, 6, 1, 5, 3, 8], same order
SQUARE_LABELS = ["(0,0)", "(1/2,1)", "(1/2,0)", "(1,1/2)", "(0,1/2)", "(1,0)",
                 "(1/2,1/2)", "(0,1)", "(1,1)"]
SQUARE_RELABELED = {
    "n": 9,
    "sums": [[8, 0, 8], [7, 5, 8], [6, 6, 8], [5, 7, 8], [4, 3, 8], [3, 4, 8],
             [2, 1, 8], [1, 2, 8], [0, 8, 8], [7, 0, 7], [4, 4, 7], [0, 7, 7],
             [6, 0, 6], [4, 2, 6], [2, 4, 6], [0, 6, 6], [5, 0, 5], [2, 2, 5],
             [0, 5, 5], [4, 0, 4], [0, 4, 4], [6, 2, 3], [5, 4, 3], [4, 5, 3],
             [3, 0, 3], [2, 6, 3], [0, 3, 3], [2, 0, 2], [0, 2, 2], [7, 2, 1],
             [6, 4, 1], [4, 6, 1], [2, 7, 1], [1, 0, 1], [0, 1, 1], [0, 0, 0]],
    "labels": SQUARE_LABELS,
}
# the same table with 4 + 2 = 8 where 2 + 4 = 6: axiom (i) fails at both
# entries and reports [4, 2, 8], the first in input order, not [2, 4, 6]
SQUARE_ASYMMETRIC = {
    "n": 9,
    "sums": [[8, 0, 8], [7, 5, 8], [6, 6, 8], [5, 7, 8], [4, 2, 8], [4, 3, 8],
             [3, 4, 8], [2, 1, 8], [1, 2, 8], [0, 8, 8], [7, 0, 7], [4, 4, 7],
             [0, 7, 7], [6, 0, 6], [2, 4, 6], [0, 6, 6], [5, 0, 5], [2, 2, 5],
             [0, 5, 5], [4, 0, 4], [0, 4, 4], [6, 2, 3], [5, 4, 3], [4, 5, 3],
             [3, 0, 3], [2, 6, 3], [0, 3, 3], [2, 0, 2], [0, 2, 2], [7, 2, 1],
             [6, 4, 1], [4, 6, 1], [2, 7, 1], [1, 0, 1], [0, 1, 1], [0, 0, 0]],
    "labels": SQUARE_LABELS,
}
# 29 elements and 81 vertices over scale 6, separating but not order
# determining (first witness (25, 27)): four boolean(3) cubes, chain(2), chain(3)
HSUM = structure_to_dict(horizontal_sum([build_boolean(3)] * 4
                                        + [build_chain(2), build_chain(3)]))

# name: (input, arguments, exit code, SHA-256 of stdout)
CASES = {
    "states-square": (SQUARE, ["states"], 0,
        "d19f66db000e2afcb7cd2bca6a553b7c49005bdec1a172f1a3b3e11c49263098"),
    "states-hsum": (HSUM, ["states"], 0,
        "a142ddbbbda17e32eb4184b33bd8f0c0457d1988050cd0c5b3fda178e477483a"),
    "operators-square": (SQUARE, ["operators", "--n", "3"], 0,
        "4a89cb64c0afaea544e719fe477fbd29a8d0908db1193919477133adef8ebb47"),
    "analyze-boolean3": (BOOLEAN3, ["analyze"], 0,
        "25f065696744cbe3233bfc1669b993a0d7eb0d53e03ae58b63f6cf62b646a8f3"),
    # ideal enumeration guarded: "ideals": null and "ideal_count": -1
    "analyze-boolean3-guarded": (BOOLEAN3, ["analyze", "--guard-elements", "7"], 0,
        "0c3974742639561de35abf8e763beb129fb631ed68868f6f6fc690cb7d944eb3"),
    "operators-boolean3": (BOOLEAN3, ["operators", "--n", "3"], 0,
        "5e3713c7d3f0ec7bf7ad87017e8755fb74eaa40e3a45de5ceb0d7f664fbad654"),
    "paper-suite": (None, ["paper-suite"], 0,
        "ed7dd6dbb279520cc1e47fe9a6f11869f5c1e462dc531e7546de792993d845c4"),
    "analyze-even4-relabeled": (EVEN4_RELABELED, ["analyze"], 0,
        "1d887e8ce8f45e22ae85254f4a20bc8ffc3097edbffadb1d658d5e8e847ad1d2"),
    "validate-square-asymmetric": (SQUARE_ASYMMETRIC, ["validate"], 1,
        "32a5d6cc738531dced047b0375d2c582154cd7b4ca886f063424b3456cc0d656"),
    "operators-square-relabeled": (SQUARE_RELABELED, ["operators", "--n", "3"], 0,
        "ce5941ba6a8b004f00c109ce94811ef4a3a93068f97a5459ab038677388ef482"),
}


def cli_stdout(tmp_path, capsys, data, argv):
    argv = list(argv)
    if data is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        argv += ["--input", str(path)]
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("case", list(CASES))
def test_cli_report_digest(case, tmp_path, capsys):
    data, argv, expected_code, digest = CASES[case]
    code, out = cli_stdout(tmp_path, capsys, data, argv)
    assert code == expected_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_every_subcommand_has_a_golden_case():
    """A subcommand without a pinned report, or a case for a subcommand that is
    gone, fails here."""
    subparsers = next(a for a in _parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == {argv[0] for _data, argv, _code, _digest
                                       in CASES.values()}
