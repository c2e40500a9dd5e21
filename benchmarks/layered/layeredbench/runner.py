"""Runs one workload, assembles its report, and the command line.

Driver contract: ``run.py --workload W --seed N --seconds S --trace T``
prints every metric by name with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` whose
metrics are the declared end-to-end set (``--trace 0``) or the declared
per-layer set (``--trace 1``).
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import subprocess
import sys
from typing import Any

from . import metrics as declared
from .calibration import CALIB_REF_MS
from .compare import compare_files
from .harness import REFERENCE_SECONDS, Outcome, Run, peak_rss_mb
from .tracing import Tracer, self_time_metrics
from .workloads_fedquery import flat_quiet, standing_tenants, tree_mixed
from .workloads_store import store_ingest, store_query

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = BENCH_DIR / "out"


WORKLOAD_FUNCTIONS = {
    function.__name__: function
    for function in (flat_quiet, tree_mixed, standing_tenants,
                     store_ingest, store_query)
}


def run_workload(name: str, seed: int, seconds: float, *,
                 trace: bool = False, toy: bool = False,
                 trace_path: pathlib.Path | None = None) -> dict[str, Any]:
    """Run one workload in this process; returns its report."""
    function = WORKLOAD_FUNCTIONS[name]
    tracer = Tracer() if trace else None
    if tracer is not None:
        # Before set-up: endpoint handlers are wrapped as the fleet
        # registers them.
        tracer.install()
    run = Run(seed, seconds, toy=toy, tracer=tracer)
    try:
        outcome = function(run)
        run.sampler.finish()
    finally:
        if tracer is not None:
            tracer.restore()
        gc.unfreeze()
    report = _assemble(name, run, outcome, tracer)
    if tracer is not None and trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_path)
    return report


def _assemble(name: str, run: Run, outcome: Outcome,
              tracer: Tracer | None) -> dict[str, Any]:
    sampler = run.sampler
    host = sampler.host_metrics(outcome.failed)
    unknown = set(outcome.values) - set(declared.PER_LAYER_NAMES)
    if unknown:
        raise KeyError(f"{name} reported undeclared metrics: {sorted(unknown)}")

    end_to_end: dict[str, float] = {
        "setup_s": run.setup_s,
        "ops_per_s": host["ops_per_s"],
        "op_p50_ms": host["op_p50_ms"],
        "op_tail_ms": host["op_tail_ms"],
        "peak_rss_mb": peak_rss_mb(),
        "failed_share": outcome.failed / outcome.attempted,
    }
    for metric in declared.END_TO_END:
        if metric.source is not None and name in metric.workloads:
            end_to_end[metric.name] = outcome.values[metric.source]

    per_layer = dict.fromkeys(declared.PER_LAYER_NAMES, 0.0)
    per_layer.update(outcome.values)
    per_layer.update(sampler.harness_metrics())
    if tracer is not None:
        per_layer.update(_traced_metrics(sampler, tracer))

    units = {m.name: m.unit for m in declared.END_TO_END}
    units.update({row[0]: row[1] for row in declared.PER_LAYER})
    return {
        "workload": name,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": tracer is not None,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "samples": host["samples"],
        "tail_percentile": host["tail_percentile"],
        "end_to_end": _with_units(end_to_end, units),
        "per_layer": _with_units(per_layer, units),
    }


def _with_units(values: dict[str, float],
                units: dict[str, str]) -> dict[str, dict[str, Any]]:
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


def _traced_metrics(sampler: Any, tracer: Tracer) -> dict[str, float]:
    """Per traced op: layer self times, call counts and ratios."""
    budget = sampler.layer_budget()
    ops = max(1, budget.ops)
    out = {metric: budget.self_ms.get(metric, 0.0) / ops
           for metric in self_time_metrics()}
    out["harness.op_wall_ms"] = budget.wall_ms / ops
    out["harness.untraced_ms"] = (
        budget.wall_ms - sum(budget.self_ms.values())) / ops
    for metric, count in tracer.calls.items():
        out[metric] = count / ops
    tally = tracer.tally
    examined = tally.get("catalog.records_examined", 0.0)
    rows = tally.get("catalog.rows_returned", 0.0)
    out["catalog.records_examined"] = examined / ops
    out["catalog.rows_returned"] = rows / ops
    out["catalog.examined_per_row"] = examined / rows if rows else 0.0
    plans = {kind: tally.get(f"catalog.plan.{kind}", 0.0)
             for kind in ("index", "zonemap", "scan")}
    planned = sum(plans.values())
    for kind, count in plans.items():
        out[f"catalog.plan_share.{kind}"] = count / planned if planned else 0.0
    decoded = tally.get("encoding.records_decoded", 0.0)
    out["encoding.scalar_fallback_share"] = (
        tally.get("encoding.scalar_rows", 0.0) / decoded if decoded else 0.0)
    out["trace.overhead_ratio"] = sampler.overhead_ratio()
    out["trace.spans_per_op"] = budget.spans / ops
    out["trace.targets_missing"] = tracer.targets_missing
    return out


# -- printing -----------------------------------------------------------------


def _print_report(report: dict[str, Any]) -> None:
    print(f"# {report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']:g} trace={int(report['trace'])} "
          f"attempted={report['attempted']} failed={report['failed']} "
          f"samples={report['samples']} tail=p{report['tail_percentile']}")
    section = "per_layer" if report["trace"] else "end_to_end"
    for name, entry in report[section].items():
        print(f"{name:42s} {entry['value']:.6g} {entry['unit']}")


def result_line(report: dict[str, Any]) -> str:
    """The driver's last line: only metrics BENCHMARK.json declares."""
    if report["trace"]:
        metrics = report["per_layer"]
    else:
        metrics = {name: report["end_to_end"][name]
                   for name in declared.DRIVER_END_TO_END}
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })


def describe() -> dict[str, Any]:
    """The whole declared benchmark as one JSON-ready object."""
    return {
        "calib_ref_ms": CALIB_REF_MS,
        "default_seed": declared.DEFAULT_SEED,
        "reference_seconds": REFERENCE_SECONDS,
        "end_to_end": [vars(metric) for metric in declared.END_TO_END],
        "driver_end_to_end": list(declared.DRIVER_END_TO_END),
        "per_layer": [
            {"name": name, "unit": unit, "better": better, "moves": moves}
            for name, unit, better, moves in declared.PER_LAYER
        ],
        "workloads": [vars(workload) for workload in declared.WORKLOADS],
    }


# -- command line -------------------------------------------------------------


def _run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process (peak RSS is per
    process), the same seed each time; optionally saved for --compare."""
    OUT_DIR.mkdir(exist_ok=True)
    runs = []
    for repeat in range(args.runs):
        for name in declared.WORKLOAD_NAMES:
            report_path = OUT_DIR / f"report-{name}.json"
            command = [
                sys.executable, str(BENCH_DIR / "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(report_path),
            ]
            completed = subprocess.run(
                command, stdout=subprocess.PIPE, text=True, check=False)
            lines = completed.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if completed.returncode != 0:
                return completed.returncode
            runs.append(json.loads(report_path.read_text()))
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps({"runs": runs}))
    return 0 if all(run["failed"] == 0 for run in runs) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description="Layered end-to-end benchmark.")
    parser.add_argument("--workload", default="all",
                        choices=declared.WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=declared.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full report(s) here")
    parser.add_argument("--runs", type=int, default=1,
                        help="with --workload all: repeat the set")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="verdict per workload x end-to-end metric")
    parser.add_argument("--describe", action="store_true",
                        help="print the declared benchmark as JSON")
    args = parser.parse_args(argv)
    if args.describe:
        print(json.dumps(describe(), indent=1))
        return 0
    if args.compare:
        return compare_files(*args.compare)
    if args.workload == "all":
        return _run_all(args)
    report = run_workload(
        args.workload, args.seed, args.seconds, trace=bool(args.trace),
        trace_path=OUT_DIR / f"trace-{args.workload}.json",
    )
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(report))
    _print_report(report)
    print(result_line(report))
    return 0
