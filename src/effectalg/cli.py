"""Command-line front end.

Subcommands: validate, analyze, states, operators (each reads a structure
file) and paper-suite.  Every report is one JSON document.

Exit codes: 0 all checks passed, 1 a check failed (including axiom violations),
2 usage errors, malformed files, or exceeded size guards, 3 an internal error
(an unexpected exception, reported as one line on stderr).
"""

from __future__ import annotations

import argparse
import sys

from .core import AxiomViolation, GuardExceeded
from .io import dump_report, load_structure, polytope_to_dict
from .operators import classify_operator, enumerate_endomorphisms, is_n_potent
from .states import compute_states, is_order_determining
from .structure import (check_interpolation, check_rdp, classify_lattice,
                        enumerate_ideals)
from .suite import run_suite


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="effectalg",
                                description="finite effect algebras, exactly")
    p.add_argument("--output", help="write the JSON report here instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a structure file")
    v.add_argument("--input", required=True)

    a = sub.add_parser("analyze", help="RDP, interpolation, lattice class, ideals")
    a.add_argument("--input", required=True)
    a.add_argument("--guard-elements", type=int, default=16)

    s = sub.add_parser("states", help="state polytope, ordering, discreteness")
    s.add_argument("--input", required=True)

    o = sub.add_parser("operators", help="enumerate and classify endomorphisms")
    o.add_argument("--input", required=True)
    o.add_argument("--n", type=int, default=None,
                   help="also report whether each operator is n-potent (n >= 2)")
    o.add_argument("--guard-endos", type=int, default=2_000_000,
                   help="most search nodes (images tried) the endomorphism search "
                        "may visit; exceeding it exits with code 2")

    sub.add_parser("paper-suite", help="run the standing verification suite")
    return p


def cmd_validate(args) -> tuple[dict, int]:
    try:
        E = load_structure(args.input)
    except AxiomViolation as v:
        return {"valid": False, "axiom": v.axiom, "witness": list(v.witness),
                "message": v.message}, 1
    return {"valid": True, "elements": E.n, "sums": sum(2 - (i == j) for i, j, _k in E.triples)}, 0


def cmd_analyze(args) -> tuple[dict, int]:
    E = load_structure(args.input)
    rdp, rdp_w = check_rdp(E)
    interp, interp_w = check_interpolation(E)
    try:
        ideals = [{"members": list(i), **flags}
                  for i, flags in enumerate_ideals(E, guard_elements=args.guard_elements)]
    except GuardExceeded:
        ideals = None
    return {"rdp": rdp, "rdp_witness": list(rdp_w) if rdp_w else None,
            "interpolation": interp,
            "interpolation_witness": list(interp_w) if interp_w else None,
            "lattice_class": classify_lattice(E),
            "ideal_count": -1 if ideals is None else len(ideals),
            "ideals": ideals}, 0


def cmd_states(args) -> tuple[dict, int]:
    E = load_structure(args.input)
    P = compute_states(E)
    out = polytope_to_dict(P)
    if P.empty:
        out["note"] = "no states"
        out["order_determining"] = False
        out["separating"] = False
    else:
        rep = is_order_determining(E, P)
        out["order_determining"] = rep.order_determining
        out["separating"] = rep.separating
        out["discrete_profiles"] = list(P.denominators)
    return out, 0


def cmd_operators(args) -> tuple[dict, int]:
    if args.n is not None and args.n < 2:
        raise ValueError(f"--n must be at least 2, got {args.n}")
    E = load_structure(args.input)
    P = compute_states(E)
    endos = enumerate_endomorphisms(E, guard_nodes=args.guard_endos)
    items = []
    for m in endos:
        prof = classify_operator(E, m, P)
        entry = prof.to_dict()
        if args.n is not None:
            entry["classification"][f"is_{args.n}_potent"] = is_n_potent(
                prof.minimal_potency, args.n)
        if prof.minimal_potency is not None and not P.empty:
            vmap = P.vertex_map(m)
            entry["induced_vertex_map"] = None if vmap is None else list(vmap)
        items.append(entry)
    return {"count": len(endos), "operators": items}, 0


def cmd_paper_suite(args) -> tuple[dict, int]:
    results = run_suite()
    failed = [r.name for r in results if not r.passed]
    out = {"checks": [r.to_dict() for r in results],
           "passed": len(results) - len(failed),
           "failed": failed}
    return out, 0 if not failed else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "analyze": cmd_analyze,
        "states": cmd_states,
        "operators": cmd_operators,
        "paper-suite": cmd_paper_suite,
    }
    try:
        report, code = handlers[args.command](args)
        text = dump_report(report, args.output)
    except GuardExceeded as g:
        print(f"guard exceeded: {g}", file=sys.stderr)
        return 2
    except AxiomViolation as v:
        print(f"invalid structure: {v}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if not args.output:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
