"""Tier-1 smoke test of the layered benchmark (toy sizes, a few seconds).

The only ``test_*.py`` / ``bench_*.py`` file under this directory, so
the full-size workloads never run under tier-1.
"""

import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [p for p in (str(ROOT / "src"), str(HERE)) if p not in sys.path]

from layeredbench import metrics as declared  # noqa: E402
from layeredbench import tracing  # noqa: E402
from layeredbench.compare import verdict  # noqa: E402
from layeredbench.runner import result_line, run_workload  # noqa: E402

SEED = 7

#: Layers that must not run at all on the store workloads.
FEDQUERY_LAYERS = ("sim.", "network.", "spec.", "coordinator.", "hierarchy.",
                   "journal.", "cell.", "gate.", "kernels.", "crypto.",
                   "standing.")


def _host_clock(name: str) -> bool:
    """Per-layer metrics read off the host clock (or the collector)."""
    if name == "flash.device_ms":  # the device clock: deterministic
        return False
    return name.endswith("_ms") or ".query_ms." in name or name in (
        "harness.raw_wall_s", "harness.calib_ms_p50", "harness.speed_min",
        "harness.speed_max", "harness.gc_collections",
        "trace.overhead_ratio")


def _values(section: dict) -> dict:
    return {name: entry["value"] for name, entry in section.items()}


def test_benchmark_json_is_the_declared_subset():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest["paths"] == ["benchmarks/layered"]
    assert manifest["command"] == ["python3", "benchmarks/layered/run.py"]
    assert manifest["workloads"] == [
        {"name": w.name, "why": w.why} for w in declared.WORKLOADS]
    by_name = {metric.name: metric for metric in declared.END_TO_END}
    assert manifest["end_to_end"] == [
        {"name": name, "unit": by_name[name].unit,
         "better": by_name[name].better, "bound": by_name[name].bound}
        for name in declared.DRIVER_END_TO_END]
    assert manifest["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _ in declared.PER_LAYER]
    assert len(manifest["per_layer"]) <= 128
    assert all(len(w.why) <= 200 for w in declared.WORKLOADS)
    # Every span can land somewhere a reader will see it.
    assert tracing.self_time_metrics() <= set(declared.PER_LAYER_NAMES)


@pytest.mark.parametrize("workload", declared.WORKLOAD_NAMES)
def test_toy_workload(workload):
    first = run_workload(workload, SEED, 1, toy=True)
    again = run_workload(workload, SEED, 1, toy=True)
    traced = run_workload(workload, SEED, 1, toy=True, trace=True)

    # Oracles pass; every applicable metric is printed, with its unit.
    for report in (first, again, traced):
        assert report["attempted"] >= 1 and report["failed"] == 0
    applicable = {
        metric.name: metric.unit for metric in declared.END_TO_END
        if metric.workloads is None or workload in metric.workloads}
    assert {name: entry["unit"]
            for name, entry in first["end_to_end"].items()} == applicable
    assert {name: entry["unit"]
            for name, entry in traced["per_layer"].items()} == {
        name: unit for name, unit, _, _ in declared.PER_LAYER}
    assert set(json.loads(result_line(first))["metrics"]) == set(
        declared.DRIVER_END_TO_END)
    assert list(json.loads(result_line(traced))["metrics"]) == list(
        declared.PER_LAYER_NAMES)
    assert all(first["end_to_end"][name]["value"] > 0
               for name in declared.DRIVER_END_TO_END)

    # Same seed: everything off the host clock repeats exactly.
    clocks = {metric.name: metric.clock for metric in declared.END_TO_END}
    for name in applicable:
        if clocks[name] != "host" and name != "peak_rss_mb":
            assert first["end_to_end"][name] == again["end_to_end"][name], name
    for name in declared.PER_LAYER_NAMES:
        if not _host_clock(name):
            assert first["per_layer"][name] == again["per_layer"][name], name

    # The budget adds up: layer self times + untraced == op wall.
    layers = _values(traced["per_layer"])
    assert layers["trace.targets_missing"] == 0
    assert layers["trace.spans_per_op"] > 0
    covered = sum(layers[name] for name in tracing.self_time_metrics())
    assert covered + layers["harness.untraced_ms"] == pytest.approx(
        layers["harness.op_wall_ms"], rel=0.05)
    assert covered > 0.5 * layers["harness.op_wall_ms"]

    if workload in declared.STORE:
        busy = {name: value for name, value in layers.items()
                if name.startswith(FEDQUERY_LAYERS) and value != 0}
        assert busy == {}


def test_wrappers_are_restored():
    tracer = tracing.Tracer()
    tracer.install()
    bound = tracer.installed()
    assert tracer.targets_missing == 0
    assert len(bound) >= len(tracing.TARGETS)
    assert all(vars(owner)[name] is not original
               for owner, name, original in bound)
    tracer.restore()
    assert tracer.installed() == []
    assert all(vars(owner)[name] is original
               for owner, name, original in bound)


def test_a_vanished_target_is_counted_not_raised(monkeypatch):
    gone = tracing.Target("repro.fedquery.spec", "no_such_codec",
                          "spec.wire_size_ms")
    monkeypatch.setattr(tracing, "TARGETS", (gone,))
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.targets_missing == 1 and tracer.installed() == []


def test_compare_verdicts():
    p50 = next(m for m in declared.END_TO_END if m.name == "op_p50_ms")
    rate = next(m for m in declared.END_TO_END if m.name == "ops_per_s")
    exact = next(m for m in declared.END_TO_END
                 if m.name == "wire_bytes_per_op")
    assert verdict(p50, [100.0], [100.0 * (1 + p50.bound / 2)])[0] == "ok"
    assert verdict(p50, [100.0], [100.0 * (1 + p50.bound * 2)])[0] \
        == "regressed"
    assert verdict(rate, [10.0], [10.0 * (1 - rate.bound * 2)])[0] \
        == "regressed"
    assert verdict(rate, [10.0], [20.0])[0] == "ok"
    # A's own runs spread wider than the bound: cannot tell.
    noisy = [100.0 * (1 + p50.bound * k) for k in (0, 1, 2, 3, 4)]
    worse = [value * (1 + p50.bound * 1.5) for value in noisy]
    assert verdict(p50, noisy, worse)[0] == "unresolved"
    assert verdict(exact, [2048.0], [2048.0])[0] == "ok"
    assert verdict(exact, [2048.0], [2049.0])[0] == "regressed"
