"""Benchmark runner for ``effectalg``: one workload, timed end to end or traced.

    python3 perfbench/run.py --workload {algebra,states,operators} --seed N \\
        --seconds S --trace {0,1} [--population-seed P]

Single process, single thread, closed loop: one caller runs one roster item at
a time.  The package is imported from ``src/`` next to this directory.  After
``setup`` (repeated, median reported) the runner runs whole passes over the
roster until the next pass would overrun ``--seconds``, checks every pass's
output exactly, and prints one JSON object as its last line.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``wall_s`` (median
pass), ``item_max_s`` (median over passes of the slowest item) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of ``tracing.LAYERS``, ``trace.overhead_s`` and,
on ``operators``, ``canary.induced_state_map.raised``; the spans are written to
``.perfbench/`` at the end.

``--seed`` orders the roster.  The operators population is drawn from
``--population-seed`` (default 20240913), a benchmark argument the program
never sees.  Exit code 2 means the package or an argument is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

from hostspeed import HostClock
from tracing import Tracer, layer_metrics, metric_names, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5


@dataclass
class Pass:
    times: dict[str, float]      # reference seconds per item
    raw: dict[str, float]        # raw seconds per item
    factors: dict[str, float]    # raw-to-reference factor per item
    results: dict
    attempted: int
    failed: int
    traced: bool
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    canary: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.times.values())


def run_pass(workload, items, clock: HostClock, tracer=None) -> Pass:
    """Time each item's package calls; a call that raises fails its item."""
    from workloads import Ops
    ops = Ops()
    times, raw, factors, results, errors = {}, {}, {}, {}, []
    for item in items:
        if tracer is not None:
            tracer.item = item.name
        before = clock.mark()
        start = perf_counter()
        try:
            results[item.name] = workload.run_item(item, ops)
        except Exception as exc:  # counted as a failed operation and reported
            errors.append(f"{item.name}: {type(exc).__name__}: {exc}")
        raw[item.name] = perf_counter() - start
        times[item.name] = clock.convert(before, clock.mark(), raw[item.name])
        factors[item.name] = times[item.name] / raw[item.name]
    return Pass(times, raw, factors, results, ops.attempted, ops.failed,
                tracer is not None, errors)


def verify(workload, items, p: Pass) -> None:
    """Closed-form checks per item and a digest of the whole output."""
    h = hashlib.sha256()
    for item in sorted(items, key=lambda it: it.name):
        if item.name not in p.results:
            continue
        result = p.results[item.name]
        p.errors.extend(workload.check(item, result))
        h.update(workload.describe(item, result).encode())
        h.update(b"\n")
    if hasattr(workload, "check_pass"):
        p.errors.extend(workload.check_pass(p.results))
    p.digest = h.hexdigest()


def measure(workload, items, seconds: float, traced: bool, clock: HostClock):
    """Passes until the next would overrun ``seconds``.

    With ``traced`` the passes alternate untraced and traced, at least one
    each.  Returns (passes, tracer, per-layer summaries of the traced passes).
    """
    tracer = Tracer() if traced else None
    passes: list[Pass] = []
    summaries: list[dict] = []
    start = perf_counter()
    while True:
        use_tracer = traced and len(passes) % 2 == 1
        gc.collect()
        if use_tracer:
            tracer.install()
            tracer.begin_pass()
        try:
            p = run_pass(workload, items, clock, tracer if use_tracer else None)
        finally:
            if use_tracer:
                tracer.uninstall()
        if use_tracer:
            summaries.append(tracer.pass_summary(p.factors))
        verify(workload, items, p)
        p.results.clear()  # keep one pass's output alive, so peak RSS is per pass
        if hasattr(workload, "run_canary"):
            p.canary = workload.run_canary()
        passes.append(p)
        elapsed = perf_counter() - start
        if traced and not summaries:
            continue
        if elapsed + elapsed / len(passes) > seconds:
            return passes, tracer, summaries


def check_digest(workload, passes, expected: dict) -> list[str]:
    errors = []
    digests = {p.digest for p in passes}
    if len(digests) > 1:
        errors.append(f"output differs between passes: {sorted(digests)}")
    want = None if workload.tiny else expected.get(workload.name)
    if isinstance(want, dict):
        want = want.get(str(getattr(workload, "population_seed", "")))
    if want is not None and want not in digests:
        errors.append(f"output digest {sorted(digests)} != recorded {want}")
    return errors


def report(workload, setup_times, passes, tracer, summaries, traced, clock):
    errors = [e for p in passes for e in p.errors]
    errors += check_digest(workload, passes, json.loads((HERE / "expected.json").read_text()))
    untraced = [p for p in passes if not p.traced]
    if traced:
        values = layer_metrics(summaries, tracer.present)
        traced_wall = median(p.wall for p in passes if p.traced)
        values["trace.overhead_s"] = traced_wall - median(p.wall for p in untraced)
        units = dict(metric_names() + [("trace.overhead_s", "s")])
        # Only operators runs the canary; elsewhere no canary call raised.
        values["canary.induced_state_map.raised"] = sum(o != "ok" for o in passes[-1].canary)
        metrics = {k: {"value": v, "unit": units.get(k, "count")} for k, v in values.items()}
    else:
        metrics = {
            "setup_s": {"value": median(setup_times), "unit": "s"},
            "wall_s": {"value": median(p.wall for p in untraced), "unit": "s"},
            "item_max_s": {"value": median(max(p.times.values()) for p in untraced),
                           "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
        }
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    raw_wall = median(sum(p.raw.values()) for p in untraced)
    print(f"# {workload.name}: passes={len(passes)} traced={sum(p.traced for p in passes)}"
          f" raw_wall_s={raw_wall:.3f} host_slowdown={clock.slowdown():.3f}"
          f" digest={passes[0].digest} canary={','.join(passes[-1].canary) or '-'}")
    return {
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }


def load_package() -> bool:
    """Put ``src/`` first on the path; False when the package is not there."""
    src = ROOT / "src"
    if not (src / "effectalg" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import effectalg
    return Path(effectalg.__file__).resolve().parent == (src / "effectalg").resolve()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--population-seed", type=int, default=None)
    args = parser.parse_args(argv)
    if not load_package():
        print(f"effectalg sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    if args.workload == "operators" and args.population_seed is not None:
        workload = cls(population_seed=args.population_seed)
    else:
        workload = cls()

    traced = bool(args.trace)
    with HostClock() as clock:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            before = clock.mark()
            start = perf_counter()
            items = workload.setup(args.seed)
            elapsed = perf_counter() - start
            setup_times.append(clock.convert(before, clock.mark(), elapsed))
        passes, tracer, summaries = measure(workload, items, args.seconds, traced, clock)
        result = report(workload, setup_times, passes, tracer, summaries, traced, clock)
    if traced:
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        write_spans(tracer.spans, out / f"spans-{args.workload}-{args.seed}.tsv.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
