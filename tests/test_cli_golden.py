"""CLI reports on fixed inputs, pinned byte for byte.

Each digest is the SHA-256 of the exact stdout of one ``effectalg`` command.
A refactor that claims identical outputs must leave every digest unchanged;
a change that means to alter a report updates its digest and says why.
"""

import hashlib
import json

import pytest

from effectalg.cli import main

SQUARE = {"catalog": {"kind": "product", "factors": [{"kind": "chain", "n": 2},
                                                     {"kind": "chain", "n": 2}]}}
BOOLEAN3 = {"catalog": {"kind": "boolean", "k": 3}}
SIMPLEX = {"vertices": ["a", "b", "c", "d"], "g": [1, 2, 0, 3], "n": 4}

CASES = {
    "states-square": (SQUARE, ["states"],
        "d19f66db000e2afcb7cd2bca6a553b7c49005bdec1a172f1a3b3e11c49263098"),
    "operators-square": (SQUARE, ["operators", "--n", "3"],
        "4a89cb64c0afaea544e719fe477fbd29a8d0908db1193919477133adef8ebb47"),
    "analyze-boolean3": (BOOLEAN3, ["analyze"],
        "25f065696744cbe3233bfc1669b993a0d7eb0d53e03ae58b63f6cf62b646a8f3"),
    # ideal enumeration guarded: "ideals": null and "ideal_count": -1
    "analyze-boolean3-guarded": (BOOLEAN3, ["analyze", "--guard-elements", "7"],
        "0c3974742639561de35abf8e763beb129fb631ed68868f6f6fc690cb7d944eb3"),
    "operators-boolean3": (BOOLEAN3, ["operators", "--n", "3"],
        "5e3713c7d3f0ec7bf7ad87017e8755fb74eaa40e3a45de5ceb0d7f664fbad654"),
    "duality-simplex": (SIMPLEX, ["duality"],
        "d3c5b0922a70ab5b82fee4ea68fc2be77dea92f508df8cc3f7099d6cf487087f"),
    "paper-suite": (None, ["paper-suite"],
        "9b28969a4a6a07a40c7daa9db09625001fcd4d434f5a29307e2c9becd18af16d"),
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
    data, argv, digest = CASES[case]
    code, out = cli_stdout(tmp_path, capsys, data, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
