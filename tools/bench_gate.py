#!/usr/bin/env python
"""Bench-regression gate: every tracked bench's claim rows, one line each.

The tracked ``BENCH_*.json`` files at the repo root record full-scale
runs that are too slow for CI. Each bench module that writes one
declares what it claims as ``CLAIMS`` rows (``benchmarks/claims.py``)
and builds its cheap smoke-size report with ``smoke_report()``; the
bench's tier-1 smoke evaluates the same rows against the same report.
This script owns no check and no tolerance: it builds each smoke report
once, evaluates the rows, and prints
``PASS|FAIL  bench  layer  clock  name: detail`` per row, so a failure
names the layer and the clock behind it.

Exit status 0 means every row held; 1 means a regression (or a bench
whose smoke run or tracked file could not be read). Run from anywhere:

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

from benchmarks.claims import evaluate  # noqa: E402

BENCHES = (
    "bench_store_scale", "bench_aggregation_scale", "bench_fedquery_scale",
    "bench_keymgmt_scale", "bench_standing",
)


def main() -> int:
    failed = 0
    for name in BENCHES:
        started = time.perf_counter()
        try:
            bench = importlib.import_module(f"benchmarks.{name}")
            verdicts = evaluate(
                bench.CLAIMS, bench.smoke_report(), bench.REPORT_PATH)
        except Exception as error:  # a crash in a bench IS a regression
            print(f"FAIL  {name}: smoke run crashed: {error!r}")
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
