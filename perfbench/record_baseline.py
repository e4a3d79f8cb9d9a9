"""Record a baseline of every workload into one JSON file.

    python3 perfbench/record_baseline.py perfbench/BENCH_baseline.json [--seconds S]

Runs ``run.py`` once per workload untraced and once traced on seed 1, plus the
operators workload on the held-out population seed, one run at a time, and
writes each run's info line and result.  Later performance claims cite such a
file recorded on both commits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
HELD_OUT_POPULATION_SEED = 4242


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())
                        ["run_seconds"])
    args = parser.parse_args()
    plan = [(w, t, None) for w in ("algebra", "states", "operators") for t in (0, 1)]
    plan.append(("operators", 0, HELD_OUT_POPULATION_SEED))
    runs = []
    for workload, trace, population_seed in plan:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
               "--seconds", str(args.seconds), "--trace", str(trace)]
        if population_seed is not None:
            cmd += ["--population-seed", str(population_seed)]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                              timeout=600, check=True)
        lines = proc.stdout.strip().splitlines()
        runs.append({"workload": workload, "seed": 1, "trace": trace,
                     "population_seed": population_seed,
                     "info": [line for line in lines if line.startswith("#")],
                     "result": json.loads(lines[-1])})
        print(lines[-2] if len(lines) > 1 else "", file=sys.stderr)
    baseline = {"python": platform.python_version(), "machine": platform.machine(),
                "cpus": os.cpu_count(), "run_seconds": args.seconds,
                "runs": runs}
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
