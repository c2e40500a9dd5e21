"""The shared chaos scenario: the whole stack under one fault plan.

Two functions. :func:`run_chaos_scenario` assembles the full vertical —
network + churn, cloud + transient failures, trusted cells with vaults
and replicators, and one asynchronous masked aggregation — runs it
under a seeded :class:`~repro.faults.plan.FaultPlan`, and reports
whether the system *degraded gracefully*: every replicator converged
once connectivity returned, and the aggregation completed (possibly
flagged partial) instead of hanging or crashing.

:func:`run_crash_scenario` is the crash-recovery twin: one federated
query (flat or tree) with a coordinator crash injected at a chosen
phase, reporting whether the resumed run reached the same terminal
outcome — and the same bit-for-bit total — the no-crash run reaches,
without the write-ahead journal ever holding a raw encoding. It backs
the ``crash_matrix`` bench section, the E13 crash table and the
crash tests.

The same scenario backs three consumers, so they cannot drift apart:

* the fast fault-matrix smoke in ``tests/test_chaos.py`` (tier 1);
* the long chaos soak (``pytest -m soak``);
* the E13 "resilience under churn" bench table.

Import this module directly (``from repro.faults.scenario import …``);
it is deliberately not re-exported from :mod:`repro.faults` because it
pulls in the sync and aggregation layers, which themselves import the
fault plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..commons.aggregation import AggregationNode
from ..commons.async_aggregation import AsyncMaskedAggregation
from ..core import TrustedCell
from ..hardware import SMART_TOKEN
from ..infrastructure import CloudProvider, Network
from ..sim.world import World
from ..sync import Replicator, VaultClient
from .injector import FaultInjector
from .plan import CrashSpec, FaultPlan
from .retry import RetryPolicy


def cell_addresses(n_cells: int) -> tuple[str, ...]:
    """The endpoint names the scenario registers (for churn plans)."""
    return tuple(f"cell-{i}" for i in range(n_cells))


@dataclass
class ChaosReport:
    """What one chaos run observed (all values from the world's obs)."""

    seed: int
    plan_active: bool
    converged: bool
    agg_complete: bool
    agg_partial: bool
    agg_failure: str | None
    agg_demoted: int
    pings_received: int
    faults_injected: int
    fault_counts: dict[str, int] = field(default_factory=dict)
    retry_attempts: int = 0
    retry_exhausted: int = 0
    push_failures: int = 0
    max_staleness: int = 0

    @property
    def degraded_gracefully(self) -> bool:
        """The acceptance predicate: storage converged and the
        aggregation reached a terminal state (full, partial, or a
        *flagged* failure — never a silent hang)."""
        return self.converged and (
            self.agg_complete or self.agg_failure is not None
        )


def _counter_total(metrics, name: str) -> int:
    counter = metrics.get(name)
    if counter is None:
        return 0
    total = counter.value
    for child in getattr(counter, "_children", {}).values():
        total += child.value
    return int(total)


def run_chaos_scenario(
    seed: int,
    plan: FaultPlan,
    n_cells: int = 4,
    horizon: int = 8 * 3600,
    replication_period: int = 900,
    objects_per_cell: int = 3,
    ping_period: int = 600,
    retry_policy: RetryPolicy | None = None,
) -> ChaosReport:
    """Run the full stack under ``plan`` for ``horizon`` sim-seconds.

    Timeline: cells store ``objects_per_cell`` objects at staggered
    times over the first quarter of the horizon; replicators tick every
    ``replication_period`` gated on the *network's* churned online
    state; a hub broadcasts pings every ``ping_period`` (queued for
    offline cells); one async aggregation runs with its deadline at
    half the horizon. After the horizon the injector is disabled and
    the run drains for a few periods — convergence *then* is the
    graceful-degradation claim (faults delay, they must not lose).
    """
    if retry_policy is None:
        retry_policy = RetryPolicy(max_attempts=4, base_delay_s=30.0,
                                   max_delay_s=600.0)
    world = World(seed=seed)
    cloud = CloudProvider(world)
    network = Network(world)
    injector = FaultInjector(world, plan)
    injector.attach_network(network)
    injector.attach_cloud(cloud)

    names = cell_addresses(n_cells)
    pings: dict[str, int] = {name: 0 for name in names}

    def make_handler(name: str):
        def handler(source: str, payload) -> None:
            pings[name] += 1
        return handler

    network.register("hub", lambda s, p: None)
    for name in names:
        network.register(name, make_handler(name))

    def ping() -> None:
        if network.is_online("hub"):
            network.broadcast("hub", list(names), "ping",
                              size_bytes=64, queue_if_offline=True)

    world.loop.schedule_every(ping_period, ping, label="hub ping")
    injector.schedule_churn(network, horizon)

    cells: list[TrustedCell] = []
    replicators: list[Replicator] = []
    store_window = horizon // 4
    for index, name in enumerate(names):
        cell = TrustedCell(world, name, SMART_TOKEN)
        cell.register_user("owner", "pin")
        session = cell.login("owner", "pin")
        vault = VaultClient(cell, cloud, retry_policy=retry_policy)
        replicator = Replicator(
            vault, period=replication_period, retry_policy=retry_policy,
            online_check=lambda a=name: network.is_online(a),
        )
        replicator.start()
        cells.append(cell)
        replicators.append(replicator)
        for obj in range(objects_per_cell):
            at = 1 + (index * objects_per_cell + obj) * max(
                1, store_window // (n_cells * objects_per_cell)
            )
            world.loop.schedule_at(
                at,
                lambda c=cell, s=session, o=obj: c.store_object(
                    s, f"doc-{o}", f"payload-{o}".encode()
                ),
                label=f"store {name}/doc-{obj}",
            )

    # one aggregation round: deadline at half horizon, wake-ups spread
    # before and after it so recovery has survivors to ask
    agg_rng = world.rng("chaos:agg-nodes")
    nodes = [AggregationNode.standalone(name, agg_rng) for name in names]
    deadline = horizon // 2
    wake_times = {
        name: [
            deadline // 2 + index * 61,
            deadline + 600 + index * 61,
            deadline + 2700 + index * 61,
            deadline + 5400 + index * 61,
        ]
        for index, name in enumerate(names)
    }
    aggregation = AsyncMaskedAggregation(
        world, cloud, nodes, {name: 10 + i for i, name in enumerate(names)},
        round_tag=f"chaos-{seed}", deadline=deadline, wake_times=wake_times,
        retry_policy=retry_policy,
    )
    aggregation.start()

    world.loop.run_until(horizon)

    # quiesce: faults off, everyone online, a few periods to drain
    injector.disable()
    for name in names:
        if not network.is_online(name):
            network.set_online(name, True)
    world.loop.run_for(6 * replication_period)

    metrics = world.obs.metrics
    return ChaosReport(
        seed=seed,
        plan_active=plan.active,
        converged=all(r.converged for r in replicators),
        agg_complete=aggregation.result.complete,
        agg_partial=aggregation.result.partial,
        agg_failure=aggregation.result.failure,
        agg_demoted=len(aggregation.result.demoted),
        pings_received=sum(pings.values()),
        faults_injected=injector.injected_total,
        fault_counts=dict(injector.counts),
        retry_attempts=_counter_total(metrics, "retry.attempts"),
        retry_exhausted=_counter_total(metrics, "retry.exhausted"),
        push_failures=sum(r.stats.push_failures for r in replicators),
        max_staleness=max(r.stats.max_staleness for r in replicators),
    )


def run_crash_scenario(
    seed: int,
    *,
    topology: str = "flat",
    crash: CrashSpec | None = None,
    plan: FaultPlan | None = None,
    n_cells: int = 30,
    regions: int = 3,
    neighbors: int = 4,
    offline_cells: int = 0,
    collect_timeout_s: int = 10,
    recovery_timeout_s: int = 10,
    horizon_slack_s: int = 0,
) -> dict:
    """One federated query under a coordinator crash; returns a row.

    ``topology`` is ``"flat"`` (one Coordinator) or ``"tree"`` (a
    3-level root/regions/cells tree). ``crash`` is injected on top of
    ``plan`` (default: a quiet plan — the crash is the only fault).
    ``offline_cells`` takes that many cells (from the end of the
    roster) offline for the whole run, forcing a deterministic
    survivor-exact ``partial``.

    The row carries the terminal outcome, the total, the survivor
    oracle comparison, crash/restart/respawn accounting, and the
    leakage audit over every journal in the system — the same
    disjointness the ``coordinator_view`` audit asserts.
    """
    import dataclasses as _dc

    from ..fedquery import (
        Coordinator,
        FedQuerySpec,
        HierarchicalCoordinator,
        build_fleet,
        build_fleet_sharded,
        journal_elements,
    )
    from ..fedquery.spec import TRANSFORM_EXACT
    from ..store.query import Between

    if topology not in ("flat", "tree"):
        raise ValueError(f"unknown topology {topology!r}")
    if plan is None:
        plan = FaultPlan(seed=seed)
    if crash is not None:
        plan = _dc.replace(plan, crashes=plan.crashes + (crash,))

    world = World(seed=seed)
    network = Network(world)
    injector = FaultInjector(world, plan).attach_network(network)
    spec = FedQuerySpec(
        recipient="utility", purpose="load-forecast",
        transform=TRANSFORM_EXACT, collection="energy",
        where=Between("hour", 18, 21), value_field="watts", scale=10,
    )
    retry = RetryPolicy(max_attempts=3, base_delay_s=2.0,
                        max_delay_s=30.0, jitter=0.1)
    if topology == "flat":
        fleet = build_fleet(world, network, n_cells,
                            purposes={spec.purpose},
                            ring_neighbors=neighbors)
        coordinator = Coordinator(
            world, network, neighbors=neighbors, retry_policy=retry,
            collect_timeout_s=collect_timeout_s,
            recovery_timeout_s=recovery_timeout_s,
            horizon_slack_s=horizon_slack_s,
        )
        journals = [coordinator.journal]
    else:
        fleet = build_fleet_sharded(
            world, network, n_cells, shards=regions,
            purposes={spec.purpose}, ring_neighbors=neighbors,
        )
        coordinator = HierarchicalCoordinator(
            world, network, regions=regions, neighbors=neighbors,
            retry_policy=retry,
            collect_timeout_s=2 * collect_timeout_s,
            recovery_timeout_s=2 * recovery_timeout_s,
            region_collect_timeout_s=collect_timeout_s,
            region_recovery_timeout_s=recovery_timeout_s,
            horizon_slack_s=horizon_slack_s,
        )
        journals = [coordinator.journal] + [
            region.journal for region in coordinator.regions
        ]
    injector.schedule_crashes()
    if plan.churn:
        injector.schedule_churn(network, coordinator._horizon_s())
    offline = fleet.roster[len(fleet.roster) - offline_cells:] \
        if offline_cells else []
    for name in offline:
        network.set_online(name, False)

    result = coordinator.run(spec, fleet.roster)

    survivors = [
        name for name in fleet.roster
        if name not in result.demoted
        and name not in offline
    ]
    survivor_truth = fleet.ground_truth(spec, roster=survivors)
    raw = set()
    from ..crypto import shamir
    for name in fleet.roster:
        scalar = fleet.catalogs[name].query(spec.local_query()).scalar()
        raw.add(shamir.encode_signed(round(float(scalar) * spec.scale)))
    journaled = set()
    for journal in journals:
        journaled |= journal_elements(journal)
    view = {
        item["masked"] if isinstance(item, dict) else item
        for item in result.coordinator_view
        if isinstance(item, (dict, int))
    }
    metrics = world.obs.metrics
    return {
        "topology": topology,
        "seed": seed,
        "crash_address": crash.address if crash else None,
        "crash_phase": crash.at_phase if crash else None,
        "crash_restart_after_s": crash.restart_after_s if crash else None,
        "offline_cells": offline_cells,
        "outcome": result.outcome,
        "failure": result.failure,
        "value": result.value,
        "field_total": result.field_total,
        "participants": result.participants,
        "demoted": len(result.demoted),
        "reasks": result.reasks,
        "recovery_rounds": result.recovery_rounds,
        "crashes": injector.counts.get("crash", 0),
        "respawns": _counter_total(metrics, "fedquery.tree.respawns"),
        "faults_injected": injector.injected_total,
        "retry_attempts": _counter_total(metrics, "retry.attempts"),
        "journal_records": sum(len(journal) for journal in journals),
        "survivor_exact": (
            result.value is not None
            and abs(result.value - survivor_truth) < 1e-9
        ),
        "raw_in_journal": bool(raw & journaled),
        "raw_in_view": bool(raw & view),
    }
