"""JSON interchange: structure files and reports.

Rationals are written as strings ("3/10"), never as floats.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .catalog import CatalogSpec, build_catalog, required
from .core import FiniteEffectAlgebra, raw_triples, validate_axioms
from .states import StatePolytope


def structure_to_dict(E: FiniteEffectAlgebra) -> dict:
    return {
        "n": E.n,
        "zero": 0,
        "one": E.n - 1,
        "sums": [list(t) for t in raw_triples(E)],
        "labels": list(E.labels),
    }


def structure_from_dict(data: dict) -> FiniteEffectAlgebra:
    """The algebra of a structure file: a catalog spec, or a raw table whose
    entries ``validate_axioms`` checks as given, with no coercion."""
    if not isinstance(data, dict):
        raise ValueError("a structure file holds one JSON object")
    if "catalog" in data:
        return build_catalog(CatalogSpec.from_dict(data["catalog"]))
    n = required(data, "n", "a raw structure")
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError("'n' must be an integer")
    if data.get("zero", 0) != 0 or data.get("one", n - 1) != n - 1:
        raise ValueError("structure files put zero at index 0 and the unit at n-1")
    sums, labels = required(data, "sums", "a raw structure"), data.get("labels")
    if not isinstance(sums, list):
        raise ValueError("'sums' must be a list of [i, j, k] entries")
    if labels is not None and not isinstance(labels, list):
        raise ValueError("'labels' must be a list")
    return validate_axioms(n, sums, labels)


def load_structure(path: Union[str, Path]) -> FiniteEffectAlgebra:
    return structure_from_dict(json.loads(Path(path).read_text()))


def polytope_to_dict(P: StatePolytope) -> dict:
    return {
        "size": P.size,
        "free_dim": P.free_dim,
        "vertices": [[str(x) for x in v] for v in P.vertices],
    }


def dump_report(report: dict, path: Union[str, Path, None]) -> str:
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n")
    return text
