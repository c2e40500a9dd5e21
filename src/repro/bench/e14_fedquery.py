"""E14 — federated queries: networked fan-out across a fleet of cells.

Exercises the paper's "global queries as distributed computations"
claim end-to-end over the simulated network: an untrusted coordinator
ships one declarative plan to a store-backed fleet; every cell runs its
own local plan (the per-cell index/zonemap/scan mix is reported), the
egress gate transforms the result (masked element, DP share, sealed
batch), and the coordinator combines what comes back. The measured
claims:

* **exactness** — the masked ``aggregate-exact`` total equals the
  clear-text oracle over the fleet, bit-for-bit with the legacy
  in-memory protocol;
* **privacy** — no raw per-cell encoding ever appears in the
  coordinator's recorded view, and ``records-kanon`` ships only sealed
  batches the coordinator cannot open;
* **degradation** — under a lossy fault profile with a few cells
  offline the query ends *partial*, exact over the surviving cohort,
  never hung; the quiet control rows record zero re-asks.

The two tables render :func:`measure_transforms` and
:func:`measure_faults`, the sections ``BENCH_fedquery.json`` tracks as
``transforms`` and ``fault_matrix`` (1,000 cells, k = 32), here at 60
cells over the complete masking graph.
"""

from __future__ import annotations

import gc
import time

from ..commons.anonymize import is_k_anonymous
from ..crypto import shamir
from ..errors import IntegrityError
from ..faults import FaultInjector, FaultPlan, RetryPolicy
from ..fedquery import (
    Coordinator,
    FedQuerySpec,
    build_fleet,
    open_records,
    open_release,
    recipient_key,
)
from ..fedquery.spec import (
    TRANSFORM_DP,
    TRANSFORM_EXACT,
    TRANSFORM_KANON,
)
from ..infrastructure.network import Network
from ..obs import Counter
from ..sim.world import World
from ..store.query import Between
from .claims import Claim
from .tables import Table, cell, where

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


def measure_transforms(n_cells: int, neighbors: int | None,
                       seed: int = 0) -> dict:
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
        "plans_shipped": Counter.total(world.obs.metrics, "fedquery.plans"),
        "rows": rows,
        "kanon_release": kanon_release,
        "observability": observability,
    }
    # Last, so the fourth query it runs is in none of the numbers above.
    rows[0]["heap_containers_per_cell_query"] = round(
        measure_heap_residue(coordinator, fleet), 3)
    return report


def measure_faults(n_cells: int, neighbors: int | None,
                   seed: int = 1) -> dict:
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
            "faults_injected": Counter.total(
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


def run(seed: int = 0, n_cells: int = 60) -> list[Table]:
    transforms = Table(
        title=f"E14: federated query fan-out ({n_cells} cells, complete "
              "graph, quiet net)",
        columns=["transform", "outcome", "participants", "index", "zonemap",
                 "scan", "examined", "messages", "bytes", "error",
                 "raw leaked"],
    )
    for row in measure_transforms(n_cells, None, seed)["rows"]:
        transforms.add_row(
            row["transform"], row["outcome"], row["participants"],
            *row["plan_mix"].values(), row["records_examined"],
            row["messages"], row["bytes"], round(row["error_vs_oracle"], 4),
            row["raw_encoding_in_coordinator_view"],
        )
    transforms.add_note(
        "error: |result - clear-text oracle|; exact must be ~0, dp must "
        "be noisy; the coordinator view never contains a raw encoding"
    )

    degradation = Table(
        title=f"E14: degradation under faults ({n_cells} cells, "
              "aggregate-exact)",
        columns=["profile", "offline", "outcome", "participants", "demoted",
                 "reasks", "faults injected", "survivor-exact"],
    )
    for row in measure_faults(n_cells, None, seed + 1)["rows"]:
        degradation.add_row(
            row["profile"], row["offline_cells"], row["outcome"],
            row["participants"], row["demoted"], row["reasks"],
            row["faults_injected"], row["survivor_exact"],
        )
    degradation.add_note(
        "survivor-exact: the released value equals the oracle over the "
        "non-demoted cohort — loss shrinks the cohort, never corrupts it"
    )
    return [transforms, degradation]


def _plans_unused(tables: list[Table]) -> list[str]:
    """The plan kinds the exact query's mix never used."""
    return [plan for plan in ("index", "zonemap", "scan")
            if not tables[0].lookup(TRANSFORM_EXACT, plan) > 0]


# The exact row queries the energy collection, where the fleet's
# layouts rotate: its plan mix must cover all three kinds.
CLAIMS = (
    Claim("the exact query completes", "distributed computation", "count",
          cell(0, TRANSFORM_EXACT, "outcome"), "==", "complete"),
    Claim("the exact query matches the oracle", "distributed computation",
          "count", cell(0, TRANSFORM_EXACT, "error"), "<", 1e-6),
    Claim("the dp query completes", "shared commons", "count",
          cell(0, TRANSFORM_DP, "outcome"), "==", "complete"),
    Claim("the dp query is noisy", "shared commons", "count",
          cell(0, TRANSFORM_DP, "error"), ">", 0),
    Claim("the kanon release completes", "shared commons", "count",
          cell(0, TRANSFORM_KANON, "outcome"), "==", "complete"),
    Claim("no coordinator view holds a raw encoding", "threat model",
          "count", where(0, lambda row: row["raw leaked"]), "==", []),
    Claim("the exact plan mix covers every layout", "metadata/query",
          "count", _plans_unused, "==", []),
    Claim("the quiet control completes", "distributed computation",
          "count", cell(1, "quiet", "outcome"), "==", "complete"),
    Claim("the quiet control re-asks no cell", "distributed computation",
          "count", cell(1, "quiet", "reasks"), "==", 0),
    Claim("the quiet control injects no fault", "distributed computation",
          "count", cell(1, "quiet", "faults injected"), "==", 0),
    Claim("the quiet control is exact", "distributed computation", "count",
          cell(1, "quiet", "survivor-exact"), "=="),
    Claim("lossy: complete or partial", "distributed computation", "count",
          lambda tables: tables[1].lookup("lossy", "outcome") in (
              "complete", "partial"), "=="),
    Claim("lossy: faults injected", "distributed computation", "count",
          cell(1, "lossy", "faults injected"), ">", 0),
    Claim("lossy: exact over the survivors", "distributed computation",
          "count", cell(1, "lossy", "survivor-exact"), "=="),
)
