#!/usr/bin/env python
"""Claim gate: every claim row of the tracked benches and experiments.

The tracked ``BENCH_*.json`` files at the repo root record full-scale
runs that are too slow for CI. Each bench module that writes one
declares what it claims as ``CLAIMS`` rows (``repro.bench.claims``)
and builds its cheap smoke-size report with ``smoke_report()``; the
bench's tier-1 smoke evaluates the same rows against the same report.
Each experiment E1-E15 declares its paper claims the same way, over
its own tables. This script owns no check and no tolerance: it builds
each smoke report and runs each experiment once, evaluates the rows,
and prints ``PASS|FAIL  bench  layer  clock  name: detail`` per row,
so a failure names the bench or experiment, the layer or paper
requirement, and the clock behind it.

Exit status 0 means every row held; 1 means a regression (or a bench
or experiment that crashed, or a tracked file that could not be read).
Run from anywhere:

    python tools/bench_gate.py
"""

from __future__ import annotations

import importlib
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.bench import ALL_EXPERIMENTS, check  # noqa: E402
from repro.bench.claims import evaluate_tracked  # noqa: E402

BENCHES = (
    "bench_store_scale", "bench_aggregation_scale", "bench_fedquery_scale",
    "bench_keymgmt_scale", "bench_standing",
)


def _bench_rows(name: str):
    bench = importlib.import_module(f"benchmarks.{name}")
    return evaluate_tracked(
        bench.CLAIMS, bench.smoke_report(), bench.REPORT_PATH)


def _experiment_rows(name: str):
    module = ALL_EXPERIMENTS[name]
    return check(module, module.run())


def main() -> int:
    failed = 0
    runs = [(name, _bench_rows) for name in BENCHES]
    runs += [(name, _experiment_rows) for name in ALL_EXPERIMENTS]
    for name, rows in runs:
        started = time.perf_counter()
        try:
            verdicts = rows(name)
        except Exception as error:  # a crash in a run IS a regression
            print(f"FAIL  {name}: run crashed: {error!r}")
            failed += 1
            continue
        for verdict in verdicts:
            print(verdict.line())
            failed += not verdict.ok
        print(f"      ({name}: {len(verdicts)} rows, "
              f"{time.perf_counter() - started:.1f}s)")
    if failed:
        print(f"bench gate: {failed} regression(s)")
        return 1
    print("bench gate: every claim holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
