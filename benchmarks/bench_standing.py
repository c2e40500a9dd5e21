"""Tracked standing-query benchmark: continuous multi-tenant serving.

Runs the standing federated-query subsystem at serving scale —
hundreds of concurrent durable subscriptions, mixed energy and
employment tenants, against one store-backed fleet on one simulated
network — and records the rows the "continuous analytics" claim
needs: windows settled per second, coordinator messages and bytes per
window per subscription, store queries per cell (rows are pushed to
the shared window feeds at ingest: none at a close, one backfill per
feed per cell, whatever the tenant count), the transform mix, a quiet fault-control row
that must sit at zero faults and zero re-asks, and a leakage audit
proving the write-ahead journal holds only gate-transformed window
deltas (masked field elements and sealed blobs — never a raw window
encoding). A late-recovery section crashes the coordinator across a
window close and measures how long the missed window takes to settle
after restart, pinned bit-for-bit to a no-crash control. Both are
E15's measurements, defined once in ``repro.bench.e15_standing``.
Emits ``BENCH_standing.json`` at the repo root so later PRs can track
the trajectory.

Two entry points:

* ``pytest -q benchmarks/bench_standing.py --benchmark-disable`` —
  the tier-1 smoke run: a small tenant mix (24 subscriptions over 12
  cells, ``smoke_report()``), held with the tracked JSON to the
  ``CLAIMS`` rows, writes nothing.
* ``PYTHONPATH=src python benchmarks/bench_standing.py`` — the full
  run (240 subscriptions over 36 cells, 6 windows); rewrites
  ``BENCH_standing.json``.
"""

from __future__ import annotations

import json
import pathlib

from repro.bench.claims import Claim, assert_claims
from repro.bench.e15_standing import (
    FIELD_SECONDS,
    WIDTH_S,
    measure_late_recovery,
    measure_multi_tenant,
)
from repro.fedquery.spec import TRANSFORM_DP, TRANSFORM_EXACT, TRANSFORM_KANON

REPORT_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_standing.json"
)

FULL_CELLS = 36
FULL_TENANTS = 240
FULL_WINDOWS = 6

SMOKE_CELLS = 12
SMOKE_TENANTS = 24
SMOKE_WINDOWS = 3


def build_report(n_cells: int = FULL_CELLS, tenants: int = FULL_TENANTS,
                 windows: int = FULL_WINDOWS) -> dict:
    return {
        "benchmark": "standing",
        "window": {
            "width_s": WIDTH_S,
            "field_seconds": FIELD_SECONDS,
            "kind": "tumbling",
        },
        "multi_tenant": measure_multi_tenant(n_cells, tenants, windows),
        "late_recovery": measure_late_recovery(),
    }


def smoke_report() -> dict:
    return build_report(
        n_cells=SMOKE_CELLS, tenants=SMOKE_TENANTS, windows=SMOKE_WINDOWS,
    )


def write_report(path: pathlib.Path = REPORT_PATH) -> dict:
    report = build_report()
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


# -- claims -------------------------------------------------------------------


def _cell_window_deltas(tenants: dict) -> int:
    """What the quiet path ships: one delta per cell per window close
    per subscription."""
    return (tenants["subscriptions"] * tenants["windows_each"]
            * tenants["cells"])


CLAIMS = (
    # the multi-tenant mix on the quiet path
    Claim("every window settles", "coordinator + journal", "count",
          lambda r: (r["multi_tenant"]["windows_settled"]
                     == r["multi_tenant"]["subscriptions"]
                     * r["multi_tenant"]["windows_each"]), "=="),
    Claim("every subscription completes", "coordinator + journal", "count",
          lambda r: (r["multi_tenant"]["complete_subscriptions"]
                     == r["multi_tenant"]["subscriptions"]), "=="),
    Claim("every window ends complete", "coordinator + journal", "count",
          lambda r: sorted(r["multi_tenant"]["outcomes"]), "==",
          ["complete"]),
    Claim("three transforms in the tenant mix", "egress gate/mask kernels",
          "count", lambda r: sorted(r["multi_tenant"]["transform_mix"]), "==",
          sorted((TRANSFORM_EXACT, TRANSFORM_DP, TRANSFORM_KANON))),
    Claim("energy and employment tenants", "cell agent", "count",
          lambda r: len(r["multi_tenant"]["domain_mix"]), "==", 2),
    Claim("quiet standing control clean", "sim loop/network", "count",
          lambda r: r["multi_tenant"]["no_fault_path_clean"], "=="),
    Claim("one delta per cell per window per subscription",
          "coordinator + journal", "count",
          lambda r: (r["multi_tenant"]["messages_per_window_per_subscription"]
                     / r["multi_tenant"]["cells"]), "==", 1),
    Claim("no store pull at a close", "cell agent", "count",
          lambda r: r["multi_tenant"]["store_pulls_at_close_per_cell"],
          "==", 0),
    Claim("one backfill pull per feed per cell", "cell agent", "count",
          lambda r: r["multi_tenant"]["backfills_per_feed_per_cell"],
          "==", 1),
    # 5x, not 10x: the tracked 0.132 ms per delta (closes read the
    # pushed window feeds, never the store) is about the smoke's
    # (0.125 ms on a busy 2-vCPU host), so 10x would let a 10x slowdown
    # through; 5x still leaves the smoke ~5x headroom for a loaded CI
    # host
    Claim("wall per cell-window delta", "coordinator + journal", "host",
          lambda r: (r["multi_tenant"]["wall_seconds"]
                     / _cell_window_deltas(r["multi_tenant"])), "ratio", 5),
    Claim("journal holds only gate-transformed deltas",
          "egress gate/mask kernels", "count",
          lambda r: r["multi_tenant"]["leakage_audit"][
              "only_gate_transformed_deltas"], "=="),
    Claim("a gated partial per cell per window at least",
          "coordinator + journal", "count",
          lambda r: (r["multi_tenant"]["leakage_audit"]["gated_partials"]
                     / r["multi_tenant"]["cells"]
                     / r["multi_tenant"]["windows_each"]), ">=", 1),
    Claim("leakage audit samples raw encodings", "egress gate/mask kernels",
          "count", lambda r: r["multi_tenant"]["leakage_audit"][
              "raw_encodings_sampled"], ">", 0),
    Claim("tracked mix is serving-scale", "coordinator + journal", "count",
          lambda r: r["multi_tenant"]["subscriptions"], ">=", 200,
          sides="tracked"),
    # a window missed across a coordinator crash: the same small run at
    # either scale
    Claim("late-recovery control clean", "coordinator + journal", "count",
          lambda r: r["late_recovery"]["control_clean"], "=="),
    Claim("late window recovered bit for bit", "coordinator + journal",
          "count", lambda r: r["late_recovery"]["recovered_totals_pinned"],
          "=="),
    Claim("late window recovery latency", "coordinator + journal", "sim",
          lambda r: r["late_recovery"]["recovery_latency_s"], "same"),
    Claim("late window recovery takes time", "coordinator + journal", "sim",
          lambda r: r["late_recovery"]["recovery_latency_s"], ">", 0),
    Claim("crashed coordinator journals", "coordinator + journal", "count",
          lambda r: next(row for row in r["late_recovery"]["rows"]
                         if row["profile"] == "crash+restart")[
              "journal_records"], ">", 0),
)


# -- tier-1 smoke -------------------------------------------------------------


def test_standing_smoke():
    """Small-tenant run of the full pipeline, held to ``CLAIMS``; keeps
    the bench alive under ``pytest -q benchmarks/bench_standing.py
    --benchmark-disable`` without rewriting the tracked JSON."""
    report = smoke_report()
    json.dumps(report)  # must stay serializable
    assert_claims(CLAIMS, report, REPORT_PATH)


if __name__ == "__main__":
    outcome = write_report()
    print(json.dumps(outcome, indent=2))
