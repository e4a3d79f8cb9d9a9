"""Self-tests of the benchmark: span arithmetic, attribute restore, missing
layers, the exit code without sources, and a tiny-roster run of each workload.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from hostspeed import HostClock  # noqa: E402
from tracing import Layer, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("perfbench_fake")

    def inner(x):
        return x

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner = inner
    mod.outer = outer
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    return mod


def test_self_time_subtracts_direct_children(fake_module, monkeypatch):
    ticks = iter(range(1, 100))
    monkeypatch.setattr(tracing, "perf_counter", lambda: next(ticks))
    layers = (Layer("fake.outer", ("perfbench_fake:outer",), ("self_s", "calls")),
              Layer("fake.inner", ("perfbench_fake:inner",), ("self_s", "calls")))
    tracer = Tracer(layers)
    tracer.install()
    tracer.begin_pass()
    try:
        tracer.item = "x"
        assert fake_module.outer(2) == 4
    finally:
        tracer.uninstall()
    # outer runs from tick 1 to 6; the two inner calls cover 2-3 and 4-5.
    assert [s[:4] for s in tracer.spans] == [
        ["fake.outer", 1, 6, -1], ["fake.inner", 2, 3, 0], ["fake.inner", 4, 5, 0]]
    summary = tracer.pass_summary()
    assert summary["fake.outer"]["self_s"] == 3 and summary["fake.outer"]["incl_s"] == 5
    assert summary["fake.inner"]["self_s"] == 2 and summary["fake.inner"]["calls"] == 2
    assert layer_metrics([summary], layers) == {
        "fake.outer.self_s": 3, "fake.outer.calls": 1,
        "fake.inner.self_s": 2, "fake.inner.calls": 2}


def test_uninstall_restores_every_wrapped_attribute():
    targets = [tracing._resolve(t) for layer in tracing.LAYERS for t in layer.targets]
    assert all(t is not None for t in targets)
    before = [getattr(owner, attr) for owner, attr in targets]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(o, a) is not f for (o, a), f in zip(targets, before))
    finally:
        tracer.uninstall()
    assert all(getattr(o, a) is f for (o, a), f in zip(targets, before))
    assert [layer.name for layer in tracer.present] == [l.name for l in tracing.LAYERS]


def test_missing_layer_function_drops_its_metrics(fake_module):
    layers = (Layer("fake.inner", ("perfbench_fake:inner",), ("self_s", "calls")),
              Layer("gone.function", ("perfbench_fake:removed",), ("self_s", "calls")),
              Layer("gone.module", ("perfbench_no_such_module:f",)),
              Layer("gone.class", ("perfbench_fake:Gone.method",)))
    tracer = Tracer(layers)
    tracer.install()
    tracer.begin_pass()
    try:
        fake_module.inner(1)
    finally:
        tracer.uninstall()
    assert [layer.name for layer in tracer.present] == ["fake.inner"]
    metrics = layer_metrics([tracer.pass_summary()], tracer.present)
    assert set(metrics) == {"fake.inner.self_s", "fake.inner.calls"}
    assert metrics["fake.inner.calls"] == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_roster_runs_and_checks(name, traced):
    workload = WORKLOADS[name](tiny=True)
    items = workload.setup(seed=3)
    with HostClock() as clock:
        passes, tracer, summaries = run.measure(workload, items, 0, traced, clock)
        result = run.report(workload, [0.5], passes, tracer, summaries, traced, clock)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    if traced:
        assert passes[1].traced and summaries
        assert result["metrics"]["trace.overhead_s"]["unit"] == "s"
        assert set(result["metrics"]) == {m["name"] for m in _benchmark()["per_layer"]}
    else:
        assert set(result["metrics"]) == {m["name"] for m in _benchmark()["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_seed_orders_the_roster_only():
    w = WORKLOADS["states"](tiny=True)
    a, b = w.setup(seed=1), w.setup(seed=2)
    assert sorted(i.name for i in a) == sorted(i.name for i in b)


def test_benchmark_json_lists_every_traced_metric():
    names = [m["name"] for m in _benchmark()["per_layer"]]
    expected = [n for n, _unit in tracing.metric_names()]
    assert names == expected + ["trace.overhead_s", "canary.induced_state_map.raised"]


def test_exits_2_without_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "algebra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""


def _benchmark():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())
