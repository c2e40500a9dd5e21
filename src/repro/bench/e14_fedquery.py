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
* **degradation** — under a lossy fault profile the query ends
  *partial*, exact over the surviving cohort, never hung; the quiet
  control rows record zero re-asks.
"""

from __future__ import annotations

from ..crypto import shamir
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..fedquery import Coordinator, FedQuerySpec, build_fleet
from ..fedquery.spec import (
    TRANSFORM_DP,
    TRANSFORM_EXACT,
    TRANSFORM_KANON,
)
from ..infrastructure.network import Network
from ..sim.world import World
from ..store.query import Between
from .claims import Claim
from .tables import Table, cell, where

#: Fault profiles of the degradation matrix; ``quiet`` is the control.
PROFILES = ("quiet", "lossy")


def _spec(transform: str) -> FedQuerySpec:
    if transform == TRANSFORM_KANON:
        return FedQuerySpec(
            recipient="institute", purpose="study",
            transform=transform, collection="profile", k=5,
        )
    return FedQuerySpec(
        recipient="utility" if transform == TRANSFORM_EXACT else "institute",
        purpose="load-forecast", transform=transform,
        collection="energy", where=Between("hour", 18, 21),
        value_field="watts",
        # DP needs fine fixed-point so the per-cell noise shares (small
        # gamma differences) survive the integer quantization.
        scale=1000 if transform == TRANSFORM_DP else 10,
        epsilon=2.0,
    )


def _raw_leaked(fleet, spec: FedQuerySpec, result) -> bool:
    """Did any cell's raw (scaled, unnoised) encoding reach the view?"""
    if not spec.numeric:
        return False
    raw = set()
    for name in fleet.roster:
        scalar = fleet.catalogs[name].query(spec.local_query()).scalar()
        raw.add(shamir.encode_signed(round(float(scalar) * spec.scale)))
    seen = {
        item["masked"] if isinstance(item, dict) else item
        for item in result.coordinator_view
        if isinstance(item, (dict, int))
    }
    return bool(raw & seen)


def run(seed: int = 0, n_cells: int = 60) -> list[Table]:
    transforms = Table(
        title=f"E14: federated query fan-out ({n_cells} cells, quiet net)",
        columns=["transform", "outcome", "participants", "index", "zonemap",
                 "scan", "examined", "messages", "bytes", "error",
                 "raw leaked"],
    )
    for transform in (TRANSFORM_EXACT, TRANSFORM_DP, TRANSFORM_KANON):
        world = World(seed=seed)
        network = Network(world)
        fleet = build_fleet(
            world, network, n_cells,
            purposes={"load-forecast", "study"},
        )
        coordinator = Coordinator(world, network)
        spec = _spec(transform)
        result = coordinator.run(spec, fleet.roster)
        if spec.numeric:
            error = abs(result.value - fleet.ground_truth(spec))
        else:
            error = 0.0
        transforms.add_row(
            transform, result.outcome, result.participants,
            result.plan_mix.get("index", 0),
            result.plan_mix.get("zonemap", 0),
            result.plan_mix.get("scan", 0),
            result.records_examined, result.messages, result.bytes,
            round(error, 4), _raw_leaked(fleet, spec, result),
        )
    transforms.add_note(
        "error: |result - clear-text oracle|; exact must be ~0, dp must "
        "be noisy; the coordinator view never contains a raw encoding"
    )

    degradation = Table(
        title=f"E14: degradation under faults ({n_cells} cells, "
              "aggregate-exact)",
        columns=["profile", "outcome", "participants", "demoted", "reasks",
                 "faults injected", "survivor-exact"],
    )
    for profile in PROFILES:
        world = World(seed=seed + 1)
        network = Network(world)
        plan = getattr(FaultPlan, profile)(seed=seed + 1)
        injector = FaultInjector(world, plan)
        injector.attach_network(network)
        fleet = build_fleet(
            world, network, n_cells, purposes={"load-forecast"},
        )
        coordinator = Coordinator(world, network, collect_timeout_s=10)
        spec = _spec(TRANSFORM_EXACT)
        result = coordinator.run(spec, fleet.roster)
        survivors = [
            name for name in fleet.roster if name not in result.demoted
        ]
        survivor_exact = (
            result.value is not None
            and abs(result.value - fleet.ground_truth(spec, survivors)) < 1e-6
        )
        faults = network.stats.lost + network.stats.duplicated
        degradation.add_row(
            profile, result.outcome, result.participants,
            len(result.demoted), result.reasks, faults, survivor_exact,
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
