"""E15 — standing queries: continuous multi-tenant windows over a fleet.

Turns E14's one-shot engine into a continuously-serving system: a
recipient *subscribes* a windowed ``FedQuerySpec`` and the fleet
releases one egress-gated delta per window close. The measured claims:

* **pinning** — a standing ``aggregate-exact`` subscription's
  per-window totals equal re-running the equivalent one-shot windowed
  spec on identical data, bit-for-bit (value *and* field element) —
  including across a coordinator crash/restart mid-subscription;
* **privacy per window** — DP tenants get a fresh noise draw every
  window, the journal holds only gate-transformed deltas (no raw
  window encoding), ``records-kanon`` windows ship sealed batches;
* **multi-tenancy** — a mixed tenant population (energy + employment
  domains, mixed transforms) settles every window on the quiet path
  with zero re-asks.

The crash table renders :func:`measure_late_recovery`, the run
``BENCH_standing.json`` tracks as ``late_recovery`` (same size and
seed); the tenant table renders :func:`measure_multi_tenant`, the
tracked ``multi_tenant`` section (240 tenants over 36 cells), here at
16 tenants over 12 cells. The per-transform standing == one-shot table
is E15's own: no bench measures it.
"""

from __future__ import annotations

import time

from ..crypto import shamir
from ..faults import FaultInjector, FaultPlan
from ..fedquery import (
    Coordinator,
    FedQuerySpec,
    StandingCoordinator,
    WindowClause,
    build_fleet,
    journal_elements,
    run_traffic,
    seed_stream_data,
    tenant_specs,
)
from ..fedquery.journal import REC_PARTIAL
from ..fedquery.spec import (
    STATUS_OK,
    TRANSFORM_DP,
    TRANSFORM_EXACT,
    TRANSFORM_KANON,
)
from ..infrastructure.network import Network
from ..obs import Counter
from ..sim.world import World
from .claims import Claim
from .tables import Table, cell, where

# A 15-minute tumbling window over 5-minute field units, the
# externalization granularity E2 showed is safe to release.
WIDTH_S = 900
FIELD_SECONDS = 300
WINDOWS = 3

# How many numeric tenants the raw-encoding intersection audit samples
# (each sampled tenant costs cells x windows local queries); the
# structural payload audit still covers *every* journal record.
AUDIT_SAMPLE = 8


def _window(windows: int) -> WindowClause:
    return WindowClause(width_s=WIDTH_S, windows=windows,
                        field_seconds=FIELD_SECONDS)


def _spec(transform: str) -> FedQuerySpec:
    if transform == TRANSFORM_KANON:
        return FedQuerySpec(
            recipient="agency", purpose="cohort-release",
            transform=transform, collection="employment",
            project=("qi_age", "qi_zip", "sector"), k=5,
        )
    return FedQuerySpec(
        recipient="utility" if transform == TRANSFORM_EXACT else "institute",
        purpose="load-forecast", transform=transform,
        collection="energy_stream", value_field="watts",
        scale=1000 if transform == TRANSFORM_DP else 10,
        epsilon=2.0,
    )


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
    """A mixed-tenant population on the quiet path.

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
    faults = Counter.total(world.obs.metrics, "faults.injected")
    pulls = Counter.total(world.obs.metrics, "fedquery.standing.feed_pulls")
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


def measure_late_recovery(n_cells: int = 12, windows: int = WINDOWS,
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
    spec = _spec(TRANSFORM_EXACT)
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


def _oneshot_values(seed: int, n_cells: int,
                    spec: FedQuerySpec) -> dict[int, tuple]:
    """Each window's one-shot answer on an identical fresh world."""
    world, network, fleet = _standing_fleet(seed, n_cells, WINDOWS)
    world.loop.run_until(WINDOWS * WIDTH_S + 10)  # let ingestion land
    coordinator = Coordinator(world, network, address="fq-oneshot")
    window = _window(WINDOWS)
    values = {}
    for index in range(WINDOWS):
        result = coordinator.run(window.windowed_spec(spec, index),
                                 fleet.roster)
        values[index] = (result.value, result.field_total)
    return values


def run(seed: int = 0, n_cells: int = 12, tenants: int = 16) -> list[Table]:
    window = _window(WINDOWS)

    transforms = Table(
        title=f"E15: standing windows ({n_cells} cells, {WINDOWS} windows, "
              "quiet net)",
        columns=["transform", "settled", "complete windows", "pinned",
                 "dp windows noisy", "max lag s", "raw leaked"],
    )
    for transform in (TRANSFORM_EXACT, TRANSFORM_DP, TRANSFORM_KANON):
        world, network, fleet = _standing_fleet(seed, n_cells, WINDOWS)
        coordinator = StandingCoordinator(world, network)
        spec = _spec(transform)
        sub = coordinator.subscribe(spec, fleet.roster, window)
        coordinator.drive()
        complete = sum(
            result.outcome == "complete" for result in sub.results.values()
        )
        pinned = True
        noisy = 0
        if transform == TRANSFORM_EXACT:
            oneshot = _oneshot_values(seed, n_cells, spec)
            pinned = all(
                (sub.results[i].value, sub.results[i].field_total)
                == oneshot[i]
                for i in range(WINDOWS)
            )
        elif transform == TRANSFORM_DP:
            noisy = sum(
                abs(sub.results[i].value
                    - fleet.ground_truth(window.windowed_spec(spec, i))) > 0
                for i in range(WINDOWS)
            )
        else:
            pinned = all(
                sub.results[i].sealed_records for i in range(WINDOWS)
            )
        leaked = bool(
            spec.numeric
            and journal_elements(coordinator.journal)
            & _raw_window_elements(fleet, spec, window)
        )
        transforms.add_row(
            transform, len(sub.results), complete, pinned, noisy,
            max(sub.settle_lag_s.values(), default=0), leaked,
        )
    transforms.add_note(
        "pinned: exact per-window totals match the equivalent one-shot "
        "windowed query bit-for-bit; dp draws fresh noise every window; "
        "the journal never holds a raw window encoding"
    )

    # seed + 7: the tracked late_recovery run, row for row
    recovery = measure_late_recovery(n_cells, WINDOWS, seed + 7)
    crash = Table(
        title=f"E15: coordinator crash mid-subscription ({n_cells} cells, "
              "aggregate-exact)",
        columns=["profile", "settled", "outcomes complete",
                 "max lag s", "pinned to control", "reasks"],
    )
    for row in recovery["rows"]:
        crash.add_row(
            row["profile"], row["windows_settled"], row["complete"],
            row["max_settle_lag_s"],
            row["profile"] == "control" or recovery["recovered_totals_pinned"],
            row["reasks"],
        )
    crash.add_note(
        "the journal rebuilds the subscription on restart: the window "
        "whose close fell in the downtime settles late but bit-for-bit "
        "equal to the no-crash control"
    )

    traffic = measure_multi_tenant(n_cells, tenants, WINDOWS, seed + 2)
    tenants_table = Table(
        title=f"E15: multi-tenant standing traffic ({tenants} tenants, "
              f"{n_cells} cells, quiet net)",
        columns=["tenants", "windows settled", "complete subs",
                 "reasks", "messages/window"],
    )
    tenants_table.add_row(
        traffic["subscriptions"], traffic["windows_settled"],
        traffic["complete_subscriptions"], traffic["fault_control"]["reasks"],
        round(traffic["messages_per_window_per_subscription"], 1),
    )
    tenants_table.add_note(
        "mixed energy + employment tenants (exact/dp/kanon mix) against "
        "one fleet; quiet path settles every window with zero re-asks"
    )
    return [transforms, crash, tenants_table]


def _tenants_short(column: str, per_tenant: int = 1):
    """How far the multi-tenant row's ``column`` falls short of
    ``per_tenant`` for every tenant."""
    def read(tables: list[Table]) -> int:
        row = dict(zip(tables[2].columns, tables[2].rows[0]))
        return row["tenants"] * per_tenant - row[column]
    return read


CLAIMS = (
    Claim("every exact window settles", "distributed computation", "count",
          cell(0, TRANSFORM_EXACT, "settled"), "==", WINDOWS),
    Claim("every exact window completes", "distributed computation",
          "count", cell(0, TRANSFORM_EXACT, "complete windows"), "==",
          WINDOWS),
    Claim("exact windows equal one-shot queries", "distributed computation",
          "count", cell(0, TRANSFORM_EXACT, "pinned"), "=="),
    Claim("every dp window settles", "shared commons", "count",
          cell(0, TRANSFORM_DP, "settled"), "==", WINDOWS),
    Claim("every dp window draws fresh noise", "shared commons", "count",
          cell(0, TRANSFORM_DP, "dp windows noisy"), "==", WINDOWS),
    Claim("every kanon window settles", "shared commons", "count",
          cell(0, TRANSFORM_KANON, "settled"), "==", WINDOWS),
    Claim("every kanon window releases sealed records", "shared commons",
          "count", cell(0, TRANSFORM_KANON, "pinned"), "=="),
    Claim("no journal holds a raw window encoding", "threat model", "count",
          where(0, lambda row: row["raw leaked"]), "==", []),
    Claim("control: every window settles", "distributed computation", "count",
          cell(1, "control", "settled"), "==", WINDOWS),
    Claim("control: every window settles on time", "distributed computation",
          "sim", cell(1, "control", "max lag s"), "==", 0),
    Claim("crash: every window settles", "distributed computation", "count",
          cell(1, "crash+restart", "settled"), "==", WINDOWS),
    Claim("crash: windows equal the control's", "distributed computation",
          "count", cell(1, "crash+restart", "pinned to control"), "=="),
    Claim("crash: the downtime's window is late", "distributed computation",
          "sim", cell(1, "crash+restart", "max lag s"), ">", 0),
    Claim("every tenant settles every window", "distributed computation",
          "count", _tenants_short("windows settled", WINDOWS), "==", 0),
    Claim("every tenant's subscription completes", "distributed computation",
          "count", _tenants_short("complete subs"), "==", 0),
    Claim("multi-tenant traffic re-asks no cell", "distributed computation",
          "count", lambda tables: tables[2].column("reasks")[0], "==", 0),
)
