"""Tracked federated-query benchmark: fleet-scale fan-out.

Runs the federated query engine at utility scale — a ~1,000-cell
store-backed fleet on one simulated network, masking over a k-regular
SecAgg graph — and records the per-transformation rows the paper's
"global queries" claim needs: outcome, per-cell plan mix
(index/zonemap/scan), records examined, wire traffic, result error
against the clear-text oracle, and a leakage audit of everything the
untrusted coordinator saw. A fault matrix (quiet control vs lossy)
shows degradation to partial results; the quiet rows must carry zero
faults and zero re-asks. A crash matrix (scale-independent, same rows
in smoke and full runs) crashes and restarts the coordinators
mid-query at every phase, flat and tree: each must recover from its
write-ahead journal to a total bit-for-bit equal to the no-crash
control. Emits ``BENCH_fedquery.json`` at the repo root so later PRs
can track the trajectory.

Two entry points:

A hierarchy section runs the same engine through the coordinator tree
at two orders of magnitude more cells (100,000 over ~sqrt(N) regional
coordinators): the root's own per-cell work — messages and wall —
must land *below* the flat path's 2-messages-per-cell baseline, the
quiet tree row must stay at zero faults and zero re-asks, and a
degraded run (offline cells) must settle to a survivor-exact partial.

Two entry points:

* ``pytest -q benchmarks/bench_fedquery_scale.py --benchmark-disable``
  — the tier-1 smoke run: a small fleet plus a small tree (3 regions
  x ~50 cells, ``smoke_report()``), held with the tracked JSON to the
  ``CLAIMS`` rows, writes nothing.
* ``PYTHONPATH=src python benchmarks/bench_fedquery_scale.py`` — the
  full run (flat 1,000 cells k=32; tree 100,000 cells over 316
  regions); rewrites ``BENCH_fedquery.json``.
"""

from __future__ import annotations

import gc
import json
import pathlib
import time

from repro.commons.anonymize import is_k_anonymous
from repro.crypto import shamir
from repro.errors import IntegrityError
from repro.faults import CrashSpec, FaultInjector, FaultPlan, RetryPolicy
from repro.faults.scenario import run_crash_scenario
from repro.fedquery import (
    Coordinator,
    FedQuerySpec,
    HierarchicalCoordinator,
    build_fleet,
    build_fleet_sharded,
    open_records,
    open_release,
    recipient_key,
)
from repro.fedquery.spec import TRANSFORM_DP, TRANSFORM_EXACT, TRANSFORM_KANON
from repro.infrastructure import Network
from repro.sim import World
from repro.store.query import Between

try:
    from benchmarks.claims import Claim, assert_claims
except ImportError:  # run as a script: benchmarks/ itself is on sys.path
    from claims import Claim, assert_claims

REPORT_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_fedquery.json"
)

FULL_CELLS = 1000
FULL_NEIGHBORS = 32

SMOKE_CELLS = 45
SMOKE_NEIGHBORS = 8

# The coordinator tree: ~sqrt(N) regions at fleet scale.
TREE_CELLS = 100_000
TREE_REGIONS = 316
TREE_NEIGHBORS = 32

TREE_SMOKE_CELLS = 150  # 3 regions x ~50 cells
TREE_SMOKE_REGIONS = 3
TREE_SMOKE_NEIGHBORS = 8

# The crash matrix runs at a small, scale-independent size in both the
# smoke and the full report: the recovery invariants (bit-for-bit
# pinned totals, clean controls, empty leakage audit) do not depend on
# fleet size, and the fully seeded sim makes every row deterministic —
# so the smoke test can hold the tracked section to byte equality.
CRASH_CELLS = 30
CRASH_NEIGHBORS = 4
CRASH_TREE_CELLS = 60
CRASH_TREE_REGIONS = 3
CRASH_SEED = 3
CRASH_RESTART_S = 30.0

FLAT_ADDRESS = "fq-coordinator"
ROOT_ADDRESS = "fq-root"

PURPOSES = {"load-forecast", "study"}


def _spec(transform: str, recipient: str | None = None) -> FedQuerySpec:
    if transform == TRANSFORM_KANON:
        return FedQuerySpec(
            recipient="institute", purpose="study",
            transform=transform, collection="profile", k=5,
        )
    return FedQuerySpec(
        recipient=recipient or (
            "utility" if transform == TRANSFORM_EXACT else "institute"),
        purpose="load-forecast", transform=transform,
        collection="energy", where=Between("hour", 18, 21),
        value_field="watts",
        # DP needs fine fixed-point so the per-cell noise shares
        # survive the integer quantization.
        scale=1000 if transform == TRANSFORM_DP else 10,
        epsilon=2.0,
    )


def _raw_encodings(fleet, spec) -> set[int]:
    """Every cell's raw (scaled, un-noised) field encoding."""
    raw = set()
    for name in fleet.roster:
        scalar = fleet.catalogs[name].query(spec.local_query()).scalar()
        raw.add(shamir.encode_signed(round(float(scalar) * spec.scale)))
    return raw


def _view_elements(result) -> set[int]:
    return {
        item["masked"] if isinstance(item, dict) else item
        for item in result.coordinator_view
        if isinstance(item, (dict, int))
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


def _tracked_containers() -> int:
    """Objects the cyclic collector walks, settled: a pass untracks a
    tuple of untracked things, so a nest of them takes one pass per
    level."""
    for _ in range(3):
        gc.collect()
    return len(gc.get_objects())


def measure_heap_residue(coordinator, fleet) -> float:
    """GC-tracked containers one more quiet exact query leaves behind,
    per cell — the census ``tests/test_fedquery.py::TestHeapResidue``
    pins, on a fleet its earlier queries have warmed. It is what the
    collector's every later pass pays for this query: O(cells), the
    same at any ring degree (a round's masks are one record per cell),
    where the per-(peer, round) memo read 4 + 2k."""
    before = _tracked_containers()
    result = coordinator.run(
        _spec(TRANSFORM_EXACT, recipient="heap-census"), fleet.roster)
    left = _tracked_containers() - before
    assert result.outcome == "complete"
    return left / len(fleet.roster)


# -- per-transformation rows --------------------------------------------------


def measure_transforms(n_cells: int, neighbors: int, seed: int = 0) -> dict:
    """All three transformations over one quiet fleet.

    One world, one fleet, three sequential queries — the realistic
    shape (a fleet serves many recipients), and it keeps the fleet
    build cost paid once.
    """
    world = World(seed=seed)
    network = Network(world)
    build_started = time.perf_counter()
    fleet = build_fleet(world, network, n_cells, purposes=set(PURPOSES))
    build_wall = time.perf_counter() - build_started
    coordinator = Coordinator(world, network, neighbors=neighbors)

    rows = []
    kanon_release = None
    for transform in (TRANSFORM_EXACT, TRANSFORM_DP, TRANSFORM_KANON):
        spec = _spec(transform)
        started = time.perf_counter()
        result = coordinator.run(spec, fleet.roster)
        wall = time.perf_counter() - started
        if spec.numeric:
            truth = fleet.ground_truth(spec)
            error = abs(result.value - truth)
            raw_leaked = bool(_raw_encodings(fleet, spec)
                              & _view_elements(result))
        else:
            truth = error = 0.0
            raw_leaked = False
            key = recipient_key(spec.recipient, fleet.secret)
            released = open_release(result, key, k=spec.k)
            coordinator_locked_out = False
            try:
                open_records(
                    recipient_key(spec.recipient, b"coordinator-guess"),
                    result.sealed_records[0][1],
                )
            except IntegrityError:
                coordinator_locked_out = True
            kanon_release = {
                "k": spec.k,
                "sealed_batches": len(result.sealed_records),
                "released_records": len(released),
                "is_k_anonymous": is_k_anonymous(released, spec.k),
                "coordinator_cannot_open": coordinator_locked_out,
            }
        rows.append({
            "transform": transform,
            "outcome": result.outcome,
            "participants": result.participants,
            "declined": result.declined,
            "demoted": len(result.demoted),
            "plan_mix": {
                kind: result.plan_mix.get(kind, 0)
                for kind in ("index", "zonemap", "scan")
            },
            "records_examined": result.records_examined,
            "messages": result.messages,
            "bytes": result.bytes,
            "reasks": result.reasks,
            "error_vs_oracle": round(error, 6),
            "raw_encoding_in_coordinator_view": raw_leaked,
            "wall_seconds": round(wall, 3),
        })

    metrics = world.obs.metrics
    export = world.obs.export()
    observability = {
        "schema": export["schema"],
        "metrics": {
            name: snapshot
            for name, snapshot in export["metrics"].items()
            if name.startswith(("fedquery.", "net."))
        },
        "fanout_spans": sum(
            1 for span in export["trace"]["spans"]
            if span["name"] == "fedquery.fanout"
        ),
        "collect_spans": sum(
            1 for span in export["trace"]["spans"]
            if span["name"] == "fedquery.collect"
        ),
    }
    report = {
        "cells": n_cells,
        "masking_neighbors": neighbors,
        "fleet_build_wall_seconds": round(build_wall, 3),
        "plans_shipped": _counter_total(metrics, "fedquery.plans"),
        "rows": rows,
        "kanon_release": kanon_release,
        "observability": observability,
    }
    # Last, so the fourth query it runs is in none of the numbers above.
    rows[0]["heap_containers_per_cell_query"] = round(
        measure_heap_residue(coordinator, fleet), 3)
    return report


# -- fault matrix -------------------------------------------------------------


def measure_faults(n_cells: int, neighbors: int, seed: int = 1) -> dict:
    """``aggregate-exact`` under the quiet control and a lossy profile.

    The quiet row is the guarded no-fault-path control: injector
    attached, plan inactive, every fault and re-ask counter at zero.
    The lossy row adds seeded loss/duplication/latency spikes *and* a
    handful of plain-unreachable cells (the paper's weakly connected
    devices), and shows graceful degradation: the unreachable cells are
    demoted, the query ends partial, the released value stays exact
    over the survivors, and the coordinator still never sees a raw
    encoding. The retry budget is sized so mask recovery rides out the
    loss rate at fleet scale — loss shrinks the cohort rather than
    sinking the query.
    """
    offline = 4 if n_cells >= 500 else 2
    rows = []
    for profile in ("quiet", "lossy"):
        world = World(seed=seed)
        network = Network(world)
        plan = (FaultPlan.quiet(seed=seed) if profile == "quiet"
                else FaultPlan.lossy(seed=seed))
        FaultInjector(world, plan).attach_network(network)
        fleet = build_fleet(
            world, network, n_cells, purposes={"load-forecast"},
        )
        down = fleet.roster[:offline] if profile == "lossy" else []
        for name in down:
            network.set_online(name, False)
        coordinator = Coordinator(
            world, network, neighbors=neighbors, collect_timeout_s=10,
            retry_policy=RetryPolicy(
                max_attempts=6, base_delay_s=2.0, max_delay_s=30.0,
            ),
        )
        spec = _spec(TRANSFORM_EXACT)
        started = time.perf_counter()
        result = coordinator.run(spec, fleet.roster)
        wall = time.perf_counter() - started
        survivors = [
            name for name in fleet.roster if name not in result.demoted
        ]
        survivor_truth = fleet.ground_truth(spec, survivors)
        rows.append({
            "profile": profile,
            "offline_cells": len(down),
            "outcome": result.outcome,
            "participants": result.participants,
            "demoted": len(result.demoted),
            "reasks": result.reasks,
            "recovery_rounds": result.recovery_rounds,
            "messages_lost": network.stats.lost,
            "messages_duplicated": network.stats.duplicated,
            "faults_injected": _counter_total(
                world.obs.metrics, "faults.injected"
            ),
            "survivor_exact": (
                result.value is not None
                and abs(result.value - survivor_truth) < 1e-6
            ),
            "raw_encoding_in_coordinator_view": bool(
                _raw_encodings(fleet, spec) & _view_elements(result)
            ),
            "wall_seconds": round(wall, 3),
        })
    quiet_row = rows[0]
    return {
        "rows": rows,
        "no_fault_path_clean": (
            quiet_row["faults_injected"] == 0
            and quiet_row["reasks"] == 0
            and quiet_row["outcome"] == "complete"
        ),
    }


# -- coordinator tree ---------------------------------------------------------


def measure_tree(n_cells: int, regions: int, neighbors: int,
                 flat_baseline: dict, seed: int = 2) -> dict:
    """The hierarchical path at fleet scale, on one sharded fleet.

    Three runs over one build: the quiet ``aggregate-exact`` control
    (quiet fault injector attached — zero faults, zero re-asks, error
    vs the clear-text oracle, leakage audit at *both* tree levels), a
    kanon pass (sealed batches cross two coordinator levels and stay
    unopenable without the recipient key), and a degraded run with a
    handful of offline cells (settles to a survivor-exact partial).

    The headline is the root sub-linearity claim: the root exchanges
    two messages per *region*, so its per-cell messages and its own
    wall seconds per cell (``root_wall_seconds`` counts only root-side
    code) must land below the flat coordinator's per-cell baseline —
    measured, not assumed, against the flat section of this report.
    """
    world = World(seed=seed)
    network = Network(world)
    FaultInjector(world, FaultPlan.quiet(seed=seed)).attach_network(network)
    build_started = time.perf_counter()
    fleet = build_fleet_sharded(
        world, network, n_cells, shards=regions, purposes=set(PURPOSES),
    )
    build_wall = time.perf_counter() - build_started
    root = HierarchicalCoordinator(
        world, network, regions=regions, neighbors=neighbors,
    )

    def tree_row(profile: str, result, wall: float, extra: dict) -> dict:
        row = {
            "profile": profile,
            "outcome": result.outcome,
            "participants": result.participants,
            "regions": result.regions,
            "demoted": len(result.demoted),
            "messages": result.messages,
            "bytes": result.bytes,
            "reasks": result.reasks,
            "root_messages": result.root_messages,
            "root_bytes": result.root_bytes,
            "root_wall_seconds": round(result.root_wall_seconds, 3),
            "root_per_cell_messages": round(
                result.root_messages / n_cells, 6
            ),
            "root_per_cell_wall_ms": round(
                result.root_wall_seconds * 1000 / n_cells, 6
            ),
            "faults_injected": _counter_total(
                world.obs.metrics, "faults.injected"
            ),
            "wall_seconds": round(wall, 3),
        }
        row.update(extra)
        return row

    spec = _spec(TRANSFORM_EXACT)
    started = time.perf_counter()
    result = root.run(spec, fleet.roster)
    quiet_wall = time.perf_counter() - started
    truth = fleet.ground_truth(spec)
    raw = _raw_encodings(fleet, spec)
    region_view = {
        item["masked"] if isinstance(item, dict) else item
        for region in root.regions
        for view in region.views.values()
        for item in view
    }
    rows = [tree_row("quiet", result, quiet_wall, {
        "error_vs_oracle": round(abs(result.value - truth), 6),
        "raw_encoding_in_root_view": bool(raw & _view_elements(result)),
        "raw_encoding_in_region_views": bool(raw & region_view),
    })]

    # Sealed records cross two untrusted levels and stay sealed.
    kanon_spec = _spec(TRANSFORM_KANON)
    kanon_result = root.run(kanon_spec, fleet.roster)
    released = open_release(
        kanon_result, recipient_key(kanon_spec.recipient, fleet.secret),
        k=kanon_spec.k,
    )
    coordinator_locked_out = False
    try:
        open_records(
            recipient_key(kanon_spec.recipient, b"coordinator-guess"),
            kanon_result.sealed_records[0][1],
        )
    except IntegrityError:
        coordinator_locked_out = True
    kanon = {
        "outcome": kanon_result.outcome,
        "sealed_batches": len(kanon_result.sealed_records),
        "released_records": len(released),
        "coordinator_cannot_open": coordinator_locked_out,
    }

    # Degraded run: offline cells spread across the shards. A fresh
    # round tag keeps this cohort's masks distinct from the quiet run.
    offline = 5 if n_cells >= 10_000 else 3
    down = fleet.roster[::max(1, n_cells // offline)][:offline]
    for name in down:
        network.set_online(name, False)
    started = time.perf_counter()
    degraded = root.run(
        spec, fleet.roster,
        round_tag=f"degraded|{spec.recipient}|{spec.purpose}",
    )
    degraded_wall = time.perf_counter() - started
    survivors = [
        name for name in fleet.roster if name not in set(degraded.demoted)
    ]
    rows.append(tree_row("offline-cells", degraded, degraded_wall, {
        "offline_cells": len(down),
        "survivor_exact": (
            degraded.value is not None
            and abs(degraded.value - fleet.ground_truth(spec, survivors))
            < 1e-6
        ),
        "raw_encoding_in_root_view": bool(raw & _view_elements(degraded)),
    }))

    quiet_row = rows[0]
    return {
        "cells": n_cells,
        "regions": regions,
        "masking_neighbors": neighbors,
        "fleet_build_wall_seconds": round(build_wall, 3),
        "shard_plans": _counter_total(
            world.obs.metrics, "fedquery.tree.shard_plans"
        ),
        "flat_baseline_per_cell": flat_baseline,
        "rows": rows,
        "kanon": kanon,
        "root_sublinear": (
            quiet_row["root_per_cell_messages"] < flat_baseline["messages"]
            and quiet_row["root_per_cell_wall_ms"] < flat_baseline["wall_ms"]
        ),
        "no_fault_path_clean": (
            quiet_row["faults_injected"] == 0
            and quiet_row["reasks"] == 0
            and quiet_row["outcome"] == "complete"
        ),
    }


# -- crash matrix -------------------------------------------------------------


def measure_crashes(seed: int = CRASH_SEED) -> dict:
    """Coordinator crash/restart at each query phase, flat and tree.

    Every row is one :func:`run_crash_scenario` run: a quiet fleet, at
    most one injected coordinator crash, and a write-ahead journal on
    every coordinator. The controls (no crash) must stay clean — zero
    faults, zero re-asks, ``complete``. The crash rows must *recover*:
    the restarted coordinator replays its journal, resumes the query,
    and — because every cell's cached partial makes re-asks
    idempotent — lands on a total bit-for-bit equal to the control's.
    The respawn-less region row crashes a regional coordinator with no
    scheduled restart and leans on root failover (``_before_reask``)
    instead. The offline row combines a crash with permanently dark
    cells and must settle to a survivor-exact ``partial``. No journal
    and no coordinator view may ever contain a raw field encoding.
    """

    def flat(profile: str, crash: CrashSpec | None = None, **kwargs) -> dict:
        row = run_crash_scenario(
            seed, topology="flat", crash=crash,
            n_cells=CRASH_CELLS, neighbors=CRASH_NEIGHBORS, **kwargs,
        )
        return {"profile": profile, **row}

    def tree(profile: str, crash: CrashSpec | None = None, **kwargs) -> dict:
        row = run_crash_scenario(
            seed, topology="tree", crash=crash,
            n_cells=CRASH_TREE_CELLS, regions=CRASH_TREE_REGIONS,
            neighbors=CRASH_NEIGHBORS, **kwargs,
        )
        return {"profile": profile, **row}

    region = f"{ROOT_ADDRESS}.r1"
    rows = [flat("flat-quiet")]
    rows += [
        flat(f"flat-crash-{phase}", CrashSpec(
            FLAT_ADDRESS, at_phase=phase, restart_after_s=CRASH_RESTART_S,
        ))
        for phase in ("fanout", "collect", "recover")
    ]
    rows.append(tree("tree-quiet"))
    rows += [
        tree(f"tree-root-{phase}", CrashSpec(
            ROOT_ADDRESS, at_phase=phase, restart_after_s=CRASH_RESTART_S,
        ))
        for phase in ("fanout", "collect", "recover")
    ]
    rows.append(tree("tree-region-collect", CrashSpec(
        region, at_phase="collect", restart_after_s=CRASH_RESTART_S,
    )))
    rows.append(tree("tree-region-norestart", CrashSpec(
        region, at_phase="collect", restart_after_s=None,
    )))
    rows.append(tree("tree-crash-offline", CrashSpec(
        region, at_phase="collect", restart_after_s=CRASH_RESTART_S,
    ), offline_cells=2))

    by_profile = {row["profile"]: row for row in rows}
    flat_control = by_profile["flat-quiet"]
    tree_control = by_profile["tree-quiet"]
    crash_rows = [row for row in rows if row["crash_address"] is not None]
    full_survivor = [
        row for row in crash_rows if row["offline_cells"] == 0
    ]
    return {
        "flat_cells": CRASH_CELLS,
        "tree_cells": CRASH_TREE_CELLS,
        "regions": CRASH_TREE_REGIONS,
        "masking_neighbors": CRASH_NEIGHBORS,
        "rows": rows,
        "no_crash_clean": all(
            row["crashes"] == 0
            and row["faults_injected"] == 0
            and row["reasks"] == 0
            and row["outcome"] == "complete"
            for row in (flat_control, tree_control)
        ),
        "recovered_totals_pinned": all(
            row["outcome"] == "complete"
            and row["crashes"] >= 1
            and row["field_total"] == (
                flat_control if row["topology"] == "flat" else tree_control
            )["field_total"]
            for row in full_survivor
        ),
        "failover_respawns": by_profile["tree-region-norestart"]["respawns"],
        "degraded_survivor_exact": (
            by_profile["tree-crash-offline"]["outcome"] == "partial"
            and by_profile["tree-crash-offline"]["survivor_exact"]
        ),
        "raw_leaked": any(
            row["raw_in_journal"] or row["raw_in_view"] for row in rows
        ),
    }


# -- report -------------------------------------------------------------------


def build_report(n_cells: int = FULL_CELLS,
                 neighbors: int = FULL_NEIGHBORS,
                 tree_cells: int = TREE_CELLS,
                 tree_regions: int = TREE_REGIONS,
                 tree_neighbors: int = TREE_NEIGHBORS) -> dict:
    transforms = measure_transforms(n_cells, neighbors)
    flat_exact = next(
        row for row in transforms["rows"]
        if row["transform"] == TRANSFORM_EXACT
    )
    flat_baseline = {
        "cells": n_cells,
        "messages": round(flat_exact["messages"] / n_cells, 6),
        "wall_ms": round(flat_exact["wall_seconds"] * 1000 / n_cells, 6),
    }
    return {
        "benchmark": "fedquery_scale",
        "command": "PYTHONPATH=src python benchmarks/bench_fedquery_scale.py",
        "fleet": {
            "cells": n_cells,
            "masking_neighbors": neighbors,
            "layouts": "index/zonemap/scan rotating by position",
        },
        "transforms": transforms,
        "fault_matrix": measure_faults(n_cells, neighbors),
        "crash_matrix": measure_crashes(),
        "hierarchy": measure_tree(
            tree_cells, tree_regions, tree_neighbors, flat_baseline,
        ),
    }


def smoke_report() -> dict:
    return build_report(
        n_cells=SMOKE_CELLS, neighbors=SMOKE_NEIGHBORS,
        tree_cells=TREE_SMOKE_CELLS, tree_regions=TREE_SMOKE_REGIONS,
        tree_neighbors=TREE_SMOKE_NEIGHBORS,
    )


def write_report(path: pathlib.Path = REPORT_PATH) -> dict:
    report = build_report()
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


# -- claims -------------------------------------------------------------------


def _transform(report: dict, transform: str) -> dict:
    return next(row for row in report["transforms"]["rows"]
                if row["transform"] == transform)


def _profile(rows: list[dict], profile: str) -> dict:
    return next(row for row in rows if row["profile"] == profile)


def _exact(report: dict) -> dict:
    return _transform(report, TRANSFORM_EXACT)


def _lossy(report: dict) -> dict:
    return _profile(report["fault_matrix"]["rows"], "lossy")


def _tree(report: dict, profile: str = "quiet") -> dict:
    return _profile(report["hierarchy"]["rows"], profile)


CLAIMS = (
    # the flat coordinator, three transforms over one quiet fleet
    Claim("every transform completes over every cell",
          "coordinator + journal", "count",
          lambda r: all(row["outcome"] == "complete"
                        and row["participants"] == r["fleet"]["cells"]
                        for row in r["transforms"]["rows"]), "=="),
    Claim("all three transforms reported", "egress gate/mask kernels",
          "count", lambda r: sorted(row["transform"]
                                    for row in r["transforms"]["rows"]),
          "==", sorted((TRANSFORM_EXACT, TRANSFORM_DP, TRANSFORM_KANON))),
    Claim("flat exact error vs the clear-text oracle",
          "egress gate/mask kernels", "count",
          lambda r: _exact(r)["error_vs_oracle"], "<", 1e-6),
    Claim("flat exact messages per cell", "coordinator + journal", "count",
          lambda r: _exact(r)["messages"] / r["fleet"]["cells"], "same"),
    Claim("flat exact wall per cell", "coordinator + journal", "host",
          lambda r: _exact(r)["wall_seconds"] / r["fleet"]["cells"],
          "ratio", 10),
    Claim("every plan kind serves the exact query", "catalog/plan", "count",
          lambda r: min(_exact(r)["plan_mix"].values()), ">", 0),
    Claim("one plan per participating cell, every transform", "catalog/plan",
          "count", lambda r: all(sum(row["plan_mix"].values())
                                 == row["participants"]
                                 for row in r["transforms"]["rows"]), "=="),
    Claim("heap containers per cell-query vs tracked", "cell agent", "count",
          lambda r: _exact(r)["heap_containers_per_cell_query"], "ratio",
          1.25, why="the coordinator's O(1) share weighs more per cell on "
          "the 45-cell smoke than on the tracked 1,000"),
    Claim("heap containers per cell-query", "cell agent", "count",
          lambda r: _exact(r)["heap_containers_per_cell_query"], "<=", 8,
          sides="tracked"),
    Claim("DP noise is in the released value", "egress gate/mask kernels",
          "count", lambda r: _transform(r, TRANSFORM_DP)["error_vs_oracle"],
          ">", 0),
    Claim("kanon release is k-anonymous", "egress gate/mask kernels",
          "count", lambda r: r["transforms"]["kanon_release"][
              "is_k_anonymous"], "=="),
    Claim("flat coordinator cannot open the sealed batches",
          "egress gate/mask kernels", "count",
          lambda r: r["transforms"]["kanon_release"][
              "coordinator_cannot_open"], "=="),
    Claim("kanon releases every cell's record", "egress gate/mask kernels",
          "count", lambda r: (r["transforms"]["kanon_release"][
              "released_records"] == r["fleet"]["cells"]), "=="),
    Claim("no raw encoding in the flat coordinator's view",
          "egress gate/mask kernels", "count",
          lambda r: any(row["raw_encoding_in_coordinator_view"]
                        for row in (*r["transforms"]["rows"],
                                    *r["fault_matrix"]["rows"])), "==",
          False),
    Claim("fedquery observability schema", "coordinator + journal", "count",
          lambda r: r["transforms"]["observability"]["schema"], "==", 1),
    Claim("one fanout and one collect span per query",
          "coordinator + journal", "count",
          lambda r: [r["transforms"]["observability"]["fanout_spans"],
                     r["transforms"]["observability"]["collect_spans"]],
          "==", [3, 3]),
    Claim("three plans shipped per cell at least", "coordinator + journal",
          "count", lambda r: (r["transforms"]["observability"]["metrics"][
              "fedquery.plans"]["value"] / r["fleet"]["cells"]), ">=", 3),
    Claim("wire bytes counted", "wire codec", "count",
          lambda r: r["transforms"]["observability"]["metrics"][
              "fedquery.bytes"]["value"], ">", 0),
    Claim("tracked flat fleet size", "coordinator + journal", "count",
          lambda r: r["fleet"]["cells"], "==", FULL_CELLS, sides="tracked"),
    # fault matrix
    Claim("quiet fault control clean", "sim loop/network", "count",
          lambda r: r["fault_matrix"]["no_fault_path_clean"], "=="),
    Claim("lossy profile injects faults", "sim loop/network", "count",
          lambda r: _lossy(r)["faults_injected"], ">", 0),
    Claim("lossy query ends partial", "coordinator + journal", "count",
          lambda r: _lossy(r)["outcome"], "==", "partial"),
    Claim("lossy query demotes at least the offline cells",
          "coordinator + journal", "count",
          lambda r: _lossy(r)["demoted"] >= _lossy(r)["offline_cells"] > 0,
          "=="),
    Claim("lossy release exact over the survivors",
          "egress gate/mask kernels", "count",
          lambda r: _lossy(r)["survivor_exact"], "=="),
    # crash matrix: the same small, fully seeded run at either scale, so
    # the live matrix must equal the tracked one and the rows below need
    # read only the live side
    Claim("crash matrix equals tracked", "coordinator + journal", "count",
          lambda r: r["crash_matrix"], "same"),
    Claim("every crash phase is in the matrix", "coordinator + journal",
          "count", lambda r: {
              "flat-quiet", "flat-crash-fanout", "flat-crash-collect",
              "flat-crash-recover", "tree-quiet", "tree-root-fanout",
              "tree-root-collect", "tree-root-recover", "tree-region-collect",
              "tree-region-norestart", "tree-crash-offline",
          } <= {row["profile"] for row in r["crash_matrix"]["rows"]}, "==",
          sides="live"),
    Claim("every crash row crashes and journals", "coordinator + journal",
          "count", lambda r: all(row["crashes"] >= 1
                                 and row["journal_records"] > 0
                                 for row in r["crash_matrix"]["rows"]
                                 if row["crash_address"] is not None), "==",
          sides="live"),
    Claim("crash-free controls clean", "coordinator + journal", "count",
          lambda r: r["crash_matrix"]["no_crash_clean"], "==", sides="live"),
    Claim("recovered totals pinned to the crash-free control",
          "coordinator + journal", "count",
          lambda r: r["crash_matrix"]["recovered_totals_pinned"], "==",
          sides="live"),
    Claim("root failover respawns a dead region", "coordinator + journal",
          "count", lambda r: r["crash_matrix"]["failover_respawns"], ">=", 1,
          sides="live"),
    Claim("crash with offline cells settles survivor-exact",
          "coordinator + journal", "count",
          lambda r: r["crash_matrix"]["degraded_survivor_exact"], "==",
          sides="live"),
    Claim("no journal or view holds a raw encoding", "coordinator + journal",
          "count", lambda r: r["crash_matrix"]["raw_leaked"], "==", False,
          sides="live"),
    # the coordinator tree
    Claim("quiet tree control clean", "sim loop/network", "count",
          lambda r: r["hierarchy"]["no_fault_path_clean"], "=="),
    Claim("quiet tree answer covers every cell", "coordinator + journal",
          "count", lambda r: (_tree(r)["participants"]
                              == r["hierarchy"]["cells"]), "=="),
    Claim("tree exact error vs the clear-text oracle",
          "egress gate/mask kernels", "count",
          lambda r: _tree(r)["error_vs_oracle"], "<", 1e-6),
    Claim("root exchanges two messages per region", "coordinator + journal",
          "count", lambda r: (_tree(r)["root_messages"]
                              / r["hierarchy"]["regions"]), "==", 2),
    Claim("tree exchanges two messages per cell at least",
          "coordinator + journal", "count",
          lambda r: _tree(r)["messages"] / r["hierarchy"]["cells"], ">=", 2),
    Claim("tree root messages per cell below the flat coordinator's",
          "coordinator + journal", "count",
          lambda r: (_tree(r)["root_per_cell_messages"]
                     / r["hierarchy"]["flat_baseline_per_cell"]["messages"]),
          "<", 1),
    Claim("tree root wall per cell below the flat coordinator's",
          "coordinator + journal", "host",
          lambda r: (_tree(r)["root_per_cell_wall_ms"]
                     / r["hierarchy"]["flat_baseline_per_cell"]["wall_ms"]),
          "<", 1),
    Claim("no raw encoding in the tree's root or region views",
          "egress gate/mask kernels", "count",
          lambda r: (_tree(r)["raw_encoding_in_root_view"]
                     or _tree(r)["raw_encoding_in_region_views"]
                     or _tree(r, "offline-cells")[
                         "raw_encoding_in_root_view"]), "==", False),
    Claim("tree kanon releases every cell's record",
          "egress gate/mask kernels", "count",
          lambda r: (r["hierarchy"]["kanon"]["outcome"] == "complete"
                     and r["hierarchy"]["kanon"]["released_records"]
                     == r["hierarchy"]["cells"]), "=="),
    Claim("tree coordinators cannot open the sealed batches",
          "egress gate/mask kernels", "count",
          lambda r: r["hierarchy"]["kanon"]["coordinator_cannot_open"], "=="),
    Claim("degraded tree ends partial", "coordinator + journal", "count",
          lambda r: _tree(r, "offline-cells")["outcome"], "==", "partial"),
    Claim("degraded tree demotes exactly the offline cells",
          "coordinator + journal", "count",
          lambda r: (_tree(r, "offline-cells")["demoted"]
                     == _tree(r, "offline-cells")["offline_cells"] > 0),
          "=="),
    Claim("degraded tree release exact over the survivors",
          "egress gate/mask kernels", "count",
          lambda r: _tree(r, "offline-cells")["survivor_exact"], "=="),
    Claim("degraded tree re-asks", "coordinator + journal", "count",
          lambda r: _tree(r, "offline-cells")["reasks"], ">", 0),
    Claim("the tree has regions", "coordinator + journal", "count",
          lambda r: r["hierarchy"]["regions"], ">=", 2),
    Claim("tracked tree is fleet-scale", "coordinator + journal", "count",
          lambda r: r["hierarchy"]["cells"], ">=", 100_000, sides="tracked"),
)


# -- tier-1 smoke -------------------------------------------------------------


def test_fedquery_scale_smoke():
    """Small-fleet run of the full pipeline, held to ``CLAIMS``; keeps
    the bench alive under ``pytest -q benchmarks/bench_fedquery_scale.py
    --benchmark-disable`` without rewriting the tracked JSON."""
    report = smoke_report()
    json.dumps(report)  # must stay serializable
    assert_claims(CLAIMS, report, REPORT_PATH)


if __name__ == "__main__":
    outcome = write_report()
    print(json.dumps(outcome, indent=2))
