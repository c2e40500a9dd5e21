"""Tracked key-management benchmark: lifecycle at fleet scale.

Measures the :mod:`repro.keymgmt` subsystem the way the paper's fleet
would feel it: X3DH ring-edge agreement over a 10,000-cell roster
(O(N·k) edges, never N²) with a slice of the fleet asleep during
activation (asynchronous prekey completions), the per-epoch cost of
ratcheted rotation, revocation-to-exclusion latency over the untrusted
network under the quiet control and the ``churning`` fault profile,
and the bit-for-bit equivalence pin of the fedquery totals against the
preshared group-secret build. Emits ``BENCH_keymgmt.json`` at the repo
root so later PRs can track the trajectory.

Two entry points:

* ``pytest -q benchmarks/bench_keymgmt_scale.py --benchmark-disable``
  — the tier-1 smoke run: a ~120-cell roster (``smoke_report()``),
  held with the tracked JSON to the ``CLAIMS`` rows, writes nothing.
* ``PYTHONPATH=src python benchmarks/bench_keymgmt_scale.py`` — the
  full run (10,000 cells, k=8: ~40,000 X3DH agreements); rewrites
  ``BENCH_keymgmt.json``.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.bench.claims import Claim, assert_claims
from repro.crypto.keys import KeyRing
from repro.faults import FaultInjector, FaultPlan
from repro.fedquery import (
    Coordinator,
    FedQuerySpec,
    HierarchicalCoordinator,
    build_fleet,
    build_fleet_sharded,
)
from repro.infrastructure import Network
from repro.keymgmt import DirectoryService, KeyClient, KeyDirectory
from repro.obs import Counter, get_default as _global_obs
from repro.sim import World
from repro.store.query import Between

REPORT_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_keymgmt.json"
)

FULL_CELLS = 10_000
FULL_NEIGHBORS = 8
FULL_OFFLINE = 200
FULL_EPOCHS = 3

SMOKE_CELLS = 120
SMOKE_NEIGHBORS = 8
SMOKE_OFFLINE = 6
SMOKE_EPOCHS = 2

# The revocation section simulates the notice/ack protocol on the
# event loop, so its cost is per-message, not per-modexp — a modest
# fleet exercises the full retry ladder.
SERVICE_CELLS = 40
SERVICE_NEIGHBORS = 4
SERVICE_HORIZON_S = 6 * 3600

EQUIV_FLAT_CELLS = 24
EQUIV_TREE_CELLS = 60
EQUIV_TREE_SHARDS = 3
EQUIV_NEIGHBORS = 8


# -- ring-edge agreement ------------------------------------------------------


def measure_lifecycle(n_cells: int, neighbors: int, offline: int,
                      epochs: int, seed: int = 0) -> dict:
    """Agreement throughput over the full roster, then rotation cost.

    ``offline`` cells sleep through activation: their edges are agreed
    half-way (the online initiator completes its side against the
    sleeper's published prekey bundle) and finish asynchronously when
    the sleeper wakes — the X3DH story, measured. Sleepers are spread
    out along the ring (stride > k/2) so every sleeping edge has an
    awake initiator and the async-completion accounting is exact.
    """
    import random

    metrics = _global_obs().metrics
    rng = random.Random(seed)
    directory = KeyDirectory(rng=rng, neighbors=neighbors)
    stride = max(neighbors, n_cells // max(1, offline))
    sleepers = set(range(0, n_cells, stride))
    while len(sleepers) > offline:
        sleepers.pop()

    enroll_started = time.perf_counter()
    for i in range(n_cells):
        directory.enroll(
            f"cell-{i:05d}",
            KeyRing.generate(random.Random(seed * 1_000_003 + i)),
            online=i not in sleepers,
        )
    enroll_wall = time.perf_counter() - enroll_started

    agreements_before = Counter.total(metrics, "keymgmt.agreements")
    agree_started = time.perf_counter()
    directory.activate()
    agree_wall = time.perf_counter() - agree_started
    agreements = (Counter.total(metrics, "keymgmt.agreements")
                  - agreements_before)
    edges = len(directory.edges())
    pending_before_wake = sum(
        len(directory.pending_peers(f"cell-{i:05d}")) for i in sleepers
    )

    async_before = Counter.total(metrics, "keymgmt.async_completions")
    wake_started = time.perf_counter()
    for i in sorted(sleepers):
        directory.set_online(f"cell-{i:05d}", True)
    wake_wall = time.perf_counter() - wake_started
    async_completions = (Counter.total(metrics, "keymgmt.async_completions")
                         - async_before)

    issue_started = time.perf_counter()
    nodes = directory.issue_all()
    issue_wall = time.perf_counter() - issue_started

    agreement = {
        "cells": n_cells,
        "neighbors": neighbors,
        "edges": edges,
        "offline_during_activation": len(sleepers),
        "enroll_wall_seconds": round(enroll_wall, 3),
        "agree_wall_seconds": round(agree_wall, 3),
        "agreements": agreements,
        "agreements_per_sec": round(agreements / agree_wall, 1)
        if agree_wall else 0.0,
        "pending_before_wake": pending_before_wake,
        "async_completions": async_completions,
        "wake_wall_seconds": round(wake_wall, 3),
        "issue_wall_seconds": round(issue_wall, 3),
        "nodes_issued": len(nodes),
        "all_edges_agreed": all(
            not directory.pending_peers(name) for name in directory.roster()
        ),
    }

    rotation_rows = []
    for _ in range(epochs):
        rotate_started = time.perf_counter()
        epoch = directory.advance_epoch()
        rotate_wall = time.perf_counter() - rotate_started
        issue_started = time.perf_counter()
        fresh = directory.issue_all()
        issue_wall = time.perf_counter() - issue_started
        # spot-check the ratchet actually moved a mask key
        probe = next(iter(fresh.values()))
        peer = next(iter(probe._epoch_keys))
        rotation_rows.append({
            "epoch": epoch,
            "rotate_wall_seconds": round(rotate_wall, 4),
            "rotate_ms_per_cell": round(rotate_wall * 1000 / n_cells, 4),
            "issue_wall_seconds": round(issue_wall, 3),
            "keys_changed": (
                fresh[probe.name]._epoch_keys[peer]
                != nodes[probe.name]._epoch_keys[peer]
            ),
        })
    return {"agreement": agreement, "rotation": rotation_rows}


# -- revocation over the untrusted network ------------------------------------


def measure_revocation(n_cells: int, neighbors: int, horizon: int,
                       seed: int = 11) -> dict:
    """Revocation-to-exclusion latency: quiet control vs churning.

    The quiet row must stay clean — zero faults, zero retries, latency
    0 s (acks land inside the first simulated second). The churning row
    fights the fault plane's on/off cycling: notices are re-sent on the
    retry ladder until every surviving member acked the new epoch.
    """
    rows = []
    for profile in ("quiet", "churning"):
        world = World(seed=seed)
        network = Network(world)
        directory = KeyDirectory(
            rng=world.rng("keymgmt.directory"), neighbors=neighbors)
        clients = {}
        for i in range(n_cells):
            name = f"cell-{i:04d}"
            directory.enroll(name, KeyRing.generate(world.rng(f"km.{name}")))
            clients[name] = KeyClient(world, network, name)
        directory.activate()
        service = DirectoryService(world, network, directory)
        injector = FaultInjector(
            world,
            FaultPlan.quiet(seed=3) if profile == "quiet"
            else FaultPlan.churning(seed=3, addresses=sorted(clients)),
        ).attach_network(network)
        if profile == "churning":
            injector.schedule_churn(network, horizon)
        world.loop.run_until(600)
        started = time.perf_counter()
        tag = service.revoke("cell-0003")
        world.loop.run_until(horizon)
        wall = time.perf_counter() - started
        status = service.rotations[tag]
        metrics = world.obs.metrics
        survivors = [name for name in clients if name != "cell-0003"]
        rows.append({
            "profile": profile,
            "cells": n_cells,
            "completed": status.complete,
            "exclusion_latency_s": service.exclusion_latency(tag),
            "retry_attempts": status.retry_index,
            "exhausted": status.exhausted,
            "acks": status.acks,
            "notices_sent": Counter.total(metrics, "keymgmt.notices"),
            "faults_injected": Counter.total(metrics, "faults.injected"),
            "survivors_excluding_revoked": sum(
                1 for name in survivors
                if "cell-0003" in clients[name].excluded
            ),
            "survivors": len(survivors),
            "wall_seconds": round(wall, 3),
        })
    quiet = rows[0]
    return {
        "rows": rows,
        "no_fault_path_clean": (
            quiet["completed"]
            and quiet["faults_injected"] == 0
            and quiet["retry_attempts"] == 0
            and quiet["exclusion_latency_s"] == 0.0
        ),
    }


# -- equivalence pin vs the preshared stopgap ---------------------------------


SPEC = FedQuerySpec(
    recipient="utility", purpose="load-forecast",
    transform="aggregate-exact", collection="energy",
    where=Between("hour", 18, 21), value_field="watts",
)


def _flat_total(key_lifecycle: bool, epochs: int = 0) -> float:
    world = World(seed=5)
    network = Network(world)
    fleet = build_fleet(world, network, EQUIV_FLAT_CELLS,
                        key_lifecycle=key_lifecycle,
                        ring_neighbors=EQUIV_NEIGHBORS)
    for _ in range(epochs):
        fleet.advance_epoch()
    result = Coordinator(world, network, neighbors=EQUIV_NEIGHBORS).run(
        SPEC, fleet.roster)
    assert result.outcome == "complete", result.outcome
    return result.field_total


def _tree_total(key_lifecycle: bool) -> float:
    world = World(seed=5)
    network = Network(world)
    fleet = build_fleet_sharded(world, network, EQUIV_TREE_CELLS,
                                shards=EQUIV_TREE_SHARDS,
                                key_lifecycle=key_lifecycle,
                                ring_neighbors=EQUIV_NEIGHBORS)
    result = HierarchicalCoordinator(
        world, network, regions=EQUIV_TREE_SHARDS,
        neighbors=EQUIV_NEIGHBORS,
    ).run(SPEC, fleet.roster)
    assert result.outcome == "complete", result.outcome
    return result.field_total


def measure_equivalence() -> dict:
    """The acceptance pin: directory-keyed fleets must answer the
    quiet-path query bit-for-bit like the preshared build, flat and
    through the coordinator tree, at epoch 0 and after rotations."""
    flat_preshared = _flat_total(key_lifecycle=False)
    flat_keyed = _flat_total(key_lifecycle=True)
    flat_rotated = _flat_total(key_lifecycle=True, epochs=2)
    tree_preshared = _tree_total(key_lifecycle=False)
    tree_keyed = _tree_total(key_lifecycle=True)
    return {
        "flat_cells": EQUIV_FLAT_CELLS,
        "tree_cells": EQUIV_TREE_CELLS,
        "flat_field_total": flat_preshared,
        "tree_field_total": tree_preshared,
        "flat_pinned": flat_keyed == flat_preshared,
        "flat_pinned_after_rotation": flat_rotated == flat_preshared,
        "tree_pinned": tree_keyed == tree_preshared,
    }


# -- report -------------------------------------------------------------------


def build_report(n_cells: int = FULL_CELLS,
                 neighbors: int = FULL_NEIGHBORS,
                 offline: int = FULL_OFFLINE,
                 epochs: int = FULL_EPOCHS) -> dict:
    lifecycle = measure_lifecycle(n_cells, neighbors, offline, epochs)
    return {
        "benchmark": "keymgmt_scale",
        "command": "PYTHONPATH=src python benchmarks/bench_keymgmt_scale.py",
        "agreement": lifecycle["agreement"],
        "rotation": lifecycle["rotation"],
        "revocation": measure_revocation(
            SERVICE_CELLS, SERVICE_NEIGHBORS, SERVICE_HORIZON_S),
        "equivalence": measure_equivalence(),
    }


def smoke_report() -> dict:
    return build_report(
        n_cells=SMOKE_CELLS, neighbors=SMOKE_NEIGHBORS,
        offline=SMOKE_OFFLINE, epochs=SMOKE_EPOCHS,
    )


def write_report(path: pathlib.Path = REPORT_PATH) -> dict:
    report = build_report()
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


# -- claims -------------------------------------------------------------------


def _churning(report: dict) -> dict:
    return next(row for row in report["revocation"]["rows"]
                if row["profile"] == "churning")


CLAIMS = (
    # ring-edge agreement over the whole roster
    Claim("k/2 ring edges per cell", "keymgmt", "count",
          lambda r: (r["agreement"]["edges"] == r["agreement"]["cells"]
                     * r["agreement"]["neighbors"] // 2), "=="),
    Claim("one agreement per edge", "keymgmt", "count",
          lambda r: r["agreement"]["agreements"] == r["agreement"]["edges"],
          "=="),
    Claim("every edge agreed", "keymgmt", "count",
          lambda r: r["agreement"]["all_edges_agreed"], "=="),
    Claim("a node issued per cell", "keymgmt", "count",
          lambda r: (r["agreement"]["nodes_issued"]
                     == r["agreement"]["cells"]), "=="),
    Claim("sleeping cells leave edges pending", "keymgmt", "count",
          lambda r: min(r["agreement"]["pending_before_wake"],
                        r["agreement"]["async_completions"]), ">", 0),
    Claim("every pending edge completes on wake", "keymgmt", "count",
          lambda r: (r["agreement"]["async_completions"]
                     == r["agreement"]["pending_before_wake"]), "=="),
    # X3DH cost is per-edge modexp, so the cost per agreement compares
    # across roster sizes up to host load
    Claim("wall per agreement", "keymgmt", "host",
          lambda r: (r["agreement"]["agree_wall_seconds"]
                     / r["agreement"]["agreements"]), "ratio", 10),
    Claim("tracked roster is fleet-scale", "keymgmt", "count",
          lambda r: r["agreement"]["cells"], ">=", 10_000, sides="tracked"),
    # ratcheted rotation
    Claim("a rotation row per epoch", "keymgmt", "count",
          lambda r: [row["epoch"] for row in r["rotation"]], "==",
          list(range(1, SMOKE_EPOCHS + 1)), sides="live"),
    Claim("every rotation changes keys", "keymgmt", "count",
          lambda r: bool(r["rotation"]) and all(
              row["keys_changed"] for row in r["rotation"]), "=="),
    Claim("rotation ms per cell", "keymgmt", "host",
          lambda r: max(row["rotate_ms_per_cell"] for row in r["rotation"]),
          "ratio", 10),
    # revocation over the untrusted network
    Claim("quiet revocation control clean", "keymgmt", "count",
          lambda r: r["revocation"]["no_fault_path_clean"], "=="),
    Claim("churning revocation completes", "keymgmt", "count",
          lambda r: _churning(r)["completed"], "=="),
    Claim("churning profile injects faults", "sim loop/network", "count",
          lambda r: _churning(r)["faults_injected"], ">", 0),
    Claim("churning revocation retries", "keymgmt", "count",
          lambda r: _churning(r)["retry_attempts"], ">", 0),
    Claim("churning exclusion latency", "keymgmt", "sim",
          lambda r: _churning(r)["exclusion_latency_s"], ">", 0),
    Claim("every survivor excludes the revoked cell", "keymgmt", "count",
          lambda r: all(row["survivors_excluding_revoked"] == row["survivors"]
                        for row in r["revocation"]["rows"]), "=="),
    # the equivalence pin against the preshared build
    Claim("directory-keyed totals pinned to preshared (flat, rotated, tree)",
          "keymgmt", "count",
          lambda r: [r["equivalence"][key] for key in (
              "flat_pinned", "flat_pinned_after_rotation", "tree_pinned")],
          "==", [True, True, True]),
)


# -- tier-1 smoke -------------------------------------------------------------


def test_keymgmt_scale_smoke():
    """Small-roster run of the full pipeline, held to ``CLAIMS``; keeps
    the bench alive under ``pytest -q benchmarks/bench_keymgmt_scale.py
    --benchmark-disable`` without rewriting the tracked JSON."""
    report = smoke_report()
    json.dumps(report)  # must stay serializable
    assert_claims(CLAIMS, report, REPORT_PATH)


if __name__ == "__main__":
    outcome = write_report()
    print(json.dumps(outcome, indent=2))
