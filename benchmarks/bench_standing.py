"""Tracked standing-query benchmark: continuous multi-tenant serving.

Runs the standing federated-query subsystem at serving scale —
hundreds of concurrent durable subscriptions, mixed energy and
employment tenants, against one store-backed fleet on one simulated
network — and records the rows the "continuous analytics" claim
needs: windows settled per second, coordinator messages and bytes per
window per subscription, store queries per cell per window close (the
shared window feed: one per stream collection, whatever the tenant
count), the transform mix, a quiet fault-control row
that must sit at zero faults and zero re-asks, and a leakage audit
proving the write-ahead journal holds only gate-transformed window
deltas (masked field elements and sealed blobs — never a raw window
encoding). A late-recovery section crashes the coordinator across a
window close and measures how long the missed window takes to settle
after restart, pinned bit-for-bit to a no-crash control. Emits
``BENCH_standing.json`` at the repo root so later PRs can track the
trajectory.

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
import time

from repro.bench.claims import Claim, assert_claims
from repro.crypto import shamir
from repro.faults import FaultInjector, FaultPlan
from repro.fedquery import (
    FedQuerySpec,
    StandingCoordinator,
    WindowClause,
    build_fleet,
    journal_elements,
    run_traffic,
    seed_stream_data,
    tenant_specs,
)
from repro.fedquery.journal import REC_PARTIAL
from repro.fedquery.spec import (
    STATUS_OK,
    TRANSFORM_DP,
    TRANSFORM_EXACT,
    TRANSFORM_KANON,
)
from repro.infrastructure import Network
from repro.sim import World

REPORT_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_standing.json"
)

# Window geometry is shared by the full and smoke runs: a 15-minute
# tumbling window over 5-minute field units, the externalization
# granularity E2 showed is safe to release.
WIDTH_S = 900
FIELD_SECONDS = 300

FULL_CELLS = 36
FULL_TENANTS = 240
FULL_WINDOWS = 6

SMOKE_CELLS = 12
SMOKE_TENANTS = 24
SMOKE_WINDOWS = 3

# How many numeric tenants the raw-encoding intersection audit samples
# (each sampled tenant costs cells x windows local queries); the
# structural payload audit below still covers *every* journal record.
AUDIT_SAMPLE = 8

RECOVERY_CELLS = 12
RECOVERY_WINDOWS = 3


def _window(windows: int) -> WindowClause:
    return WindowClause(width_s=WIDTH_S, windows=windows,
                        field_seconds=FIELD_SECONDS)


def _standing_fleet(seed: int, n_cells: int, windows: int, network=None,
                    world=None):
    world = world or World(seed=seed)
    network = network or Network(world)
    fleet = build_fleet(world, network, n_cells)
    seed_stream_data(
        fleet, units=windows * (WIDTH_S // FIELD_SECONDS),
        field_seconds=FIELD_SECONDS,
    )
    return world, network, fleet


def _raw_window_elements(fleet, spec: FedQuerySpec,
                         window: WindowClause) -> set[int]:
    """Every cell's raw (scaled, un-noised) encoding for every window."""
    raw = set()
    for index in range(window.windows):
        wspec = window.windowed_spec(spec, index)
        for name in fleet.roster:
            scalar = fleet.catalogs[name].query(wspec.local_query()).scalar()
            raw.add(shamir.encode_signed(round(float(scalar) * spec.scale)))
    return raw


def _audit_journal(coordinator, fleet, specs, window) -> dict:
    """Two-layer leakage audit of the standing journal.

    Structural: every OK partial record's payload must be a masked
    field element or a sealed blob — the only shapes the egress gate
    emits. Intersection: the journal's numeric elements must be
    disjoint from the raw window encodings of a sample of numeric
    tenants (the full cross-product is quadratic in fleet x tenants).
    """
    gated = ungated = 0
    for record in coordinator.journal.records():
        if record["type"] != REC_PARTIAL or record["status"] != STATUS_OK:
            continue
        payload = record["payload"]
        keys = set(payload) if isinstance(payload, dict) else None
        if keys == {"masked"} or keys == {"count", "blob"}:
            gated += 1
        else:
            ungated += 1
    sampled = [spec for spec in specs if spec.numeric][:AUDIT_SAMPLE]
    raw: set[int] = set()
    for spec in sampled:
        raw |= _raw_window_elements(fleet, spec, window)
    leaked = journal_elements(coordinator.journal) & raw
    return {
        "journal_records": len(coordinator.journal),
        "gated_partials": gated,
        "ungated_partials": ungated,
        "sampled_numeric_tenants": len(sampled),
        "raw_encodings_sampled": len(raw),
        "raw_encodings_in_journal": len(leaked),
        "only_gate_transformed_deltas": ungated == 0 and not leaked,
    }


def measure_multi_tenant(n_cells: int, tenants: int, windows: int,
                         seed: int = 0) -> dict:
    """The headline row: a mixed-tenant population on the quiet path.

    One fleet serves every subscription concurrently; the quiet fault
    injector is attached so the zero-faults control is *measured*, not
    assumed. Every window must settle complete with zero re-asks and
    zero recovery rounds, and the journal audit must come back clean.
    """
    world = World(seed=seed)
    network = Network(world)
    FaultInjector(world, FaultPlan.quiet(seed=seed)).attach_network(network)
    _, _, fleet = _standing_fleet(seed, n_cells, windows,
                                  network=network, world=world)
    window = _window(windows)
    coordinator = StandingCoordinator(world, network)
    specs = tenant_specs(tenants)
    subscriptions, report = run_traffic(coordinator, fleet, specs, window)

    mix: dict[str, int] = {}
    domains: dict[str, int] = {}
    for spec in specs:
        mix[spec.transform] = mix.get(spec.transform, 0) + 1
        domains[spec.collection] = domains.get(spec.collection, 0) + 1
    faults = _counter_total(world.obs.metrics, "faults.injected")
    pulls = _counter_total(world.obs.metrics, "fedquery.standing.feed_pulls")
    return {
        "cells": n_cells,
        "subscriptions": report.subscriptions,
        "windows_each": windows,
        "windows_expected": report.windows_expected,
        "windows_settled": report.windows_settled,
        "complete_subscriptions": report.complete_subscriptions,
        "outcomes": report.outcomes,
        "transform_mix": mix,
        "domain_mix": domains,
        "windows_per_sec": round(report.windows_per_second, 1),
        "messages_per_window_per_subscription": round(
            report.messages_per_window, 2),
        "bytes_per_window_per_subscription": round(
            report.bytes_per_window, 1),
        # One window-feed pull per stream collection per cell per
        # close, however many tenants read it (a count, not a timing).
        "store_queries_per_cell_per_close": pulls / (n_cells * windows),
        "subscribe_messages": report.sub_messages,
        "subscribe_bytes": report.sub_bytes,
        "max_settle_lag_s": report.max_settle_lag_s,
        "wall_seconds": round(report.wall_seconds, 3),
        "fault_control": {
            "profile": "quiet",
            "faults_injected": faults,
            "messages_lost": network.stats.lost,
            "messages_duplicated": network.stats.duplicated,
            "reasks": report.reasks,
            "recovery_rounds": report.recovery_rounds,
        },
        "no_fault_path_clean": (
            faults == 0
            and network.stats.lost == 0
            and network.stats.duplicated == 0
            and report.reasks == 0
            and report.recovery_rounds == 0
            and report.windows_settled == report.windows_expected
            and report.complete_subscriptions == report.subscriptions
        ),
        "leakage_audit": _audit_journal(coordinator, fleet, specs, window),
    }


def measure_late_recovery(n_cells: int = RECOVERY_CELLS,
                          windows: int = RECOVERY_WINDOWS,
                          seed: int = 7) -> dict:
    """Crash the coordinator across a window close, measure recovery.

    Two identical worlds run the same ``aggregate-exact`` subscription.
    The control stays up; the crashed coordinator goes down 100 s
    before window 1 closes and restarts 500 s after, so window 1's
    partials arrive at a dead endpoint and the window must be replayed
    from the journal. Recovery latency is that window's settle lag; the
    recovered totals must equal the control's bit-for-bit.
    """
    window = _window(windows)
    spec = FedQuerySpec(
        recipient="utility", purpose="load-forecast",
        transform=TRANSFORM_EXACT, collection="energy_stream",
        value_field="watts", scale=10,
    )
    rows = []
    totals: dict[str, dict[int, tuple]] = {}
    for profile in ("control", "crash+restart"):
        world, network, fleet = _standing_fleet(seed, n_cells, windows)
        coordinator = StandingCoordinator(
            world, network, horizon_slack_s=2000)
        sub = coordinator.subscribe(spec, fleet.roster, window)
        if profile == "crash+restart":
            _, end_1 = window.window_span_s(1)
            world.loop.schedule_in(end_1 - 100, coordinator.crash,
                                   label="bench crash")
            world.loop.schedule_in(end_1 + 500, coordinator.restart,
                                   label="bench restart")
        started = time.perf_counter()
        coordinator.drive()
        wall = time.perf_counter() - started
        totals[profile] = {
            index: (result.value, result.field_total)
            for index, result in sub.results.items()
        }
        rows.append({
            "profile": profile,
            "windows_settled": len(sub.results),
            "complete": sum(result.outcome == "complete"
                            for result in sub.results.values()),
            "reasks": sum(result.reasks for result in sub.results.values()),
            "max_settle_lag_s": max(sub.settle_lag_s.values(), default=0),
            "journal_records": len(coordinator.journal),
            "wall_seconds": round(wall, 3),
        })
    control, crashed = rows
    return {
        "cells": n_cells,
        "windows": windows,
        "rows": rows,
        "recovery_latency_s": crashed["max_settle_lag_s"],
        "control_clean": (control["max_settle_lag_s"] == 0
                          and control["complete"] == windows),
        "recovered_totals_pinned": (
            crashed["windows_settled"] == windows
            and totals["crash+restart"] == totals["control"]
        ),
    }


def _counter_total(metrics, name: str) -> int:
    metric = metrics.get(name)
    if metric is None:
        return 0
    snapshot = metric.snapshot()
    labels = snapshot.get("labels")
    if labels:
        return sum(labels.values())
    return snapshot["value"]


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
    Claim("one store pull per stream collection per cell per close",
          "cell agent", "count",
          lambda r: (r["multi_tenant"]["store_queries_per_cell_per_close"]
                     / len(r["multi_tenant"]["domain_mix"])), "==", 1),
    # 5x, not 10x: the tracked 0.466 ms per delta is ~2.5x the smoke's
    # (0.18-0.21 ms on a quiet 2-vCPU host, where the full 240 x 6 x 36
    # run costs 0.28 ms), so 10x would let a 25x slowdown through; 5x
    # still leaves the smoke ~12x headroom for a loaded CI host
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
