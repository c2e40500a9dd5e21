"""The three federated-query workloads: ``flat_quiet``, ``tree_mixed``
and ``standing_tenants``.

All run through ``repro.fedquery.__all__`` with the coordinators'
default addresses. Every op uses a fresh round tag (a distinct
recipient per op): two sums under one mask set would leak their
difference, and a reused tag hits each cell's mask memo and measures a
different program.
"""

from __future__ import annotations

import statistics
import time
from typing import Any

from repro.fedquery import (
    OUTCOME_COMPLETE,
    OUTCOME_PARTIAL,
    TRAFFIC_PURPOSES,
    TRANSFORM_DP,
    TRANSFORM_EXACT,
    TRANSFORM_KANON,
    Coordinator,
    FedQuerySpec,
    HierarchicalCoordinator,
    StandingCoordinator,
    WindowClause,
    build_fleet,
    build_fleet_sharded,
    open_release,
    recipient_key,
    seed_stream_data,
    tenant_specs,
)
from repro.infrastructure import Network
from repro.obs import get_default
from repro.sim import World
from repro.store import Between

from .harness import Outcome, Run, settle_heap

PURPOSES = {"load-forecast", "study"}
EPSILON = 2.0
K_ANON = 5
#: A DP release may sit this many Laplace scales off the clear-text
#: total before it counts as failed (P ~ 3e-7 per query: the oracle
#: must not fail by chance anywhere in the driver's hundred-odd runs).
DP_SCALES = 15.0
EXACT_TOLERANCE = 1e-6

#: One cycle of one-shot queries.
FLAT_CYCLE = (TRANSFORM_EXACT, TRANSFORM_DP, TRANSFORM_EXACT, TRANSFORM_KANON)
TREE_CYCLE = ("quiet", "quiet", "quiet", "degraded")


def _spec(transform: str, recipient: str, first_hour: int) -> FedQuerySpec:
    if transform == TRANSFORM_KANON:
        return FedQuerySpec(
            recipient=recipient, purpose="study", transform=transform,
            collection="profile", k=K_ANON,
        )
    return FedQuerySpec(
        recipient=recipient, purpose="load-forecast", transform=transform,
        collection="energy",
        where=Between("hour", first_hour, first_hour + 3),
        value_field="watts",
        # DP needs fine fixed-point so the per-cell noise shares
        # survive the integer quantisation.
        scale=1000 if transform == TRANSFORM_DP else 10,
        epsilon=EPSILON,
    )


def _counter(registry: Any, name: str) -> float:
    metric = registry.get(name)
    if metric is None:
        return 0.0
    snapshot = metric.snapshot()
    labels = snapshot.get("labels")
    return float(sum(labels.values()) if labels else snapshot["value"])


class _WorldMeter:
    """Deltas of the deterministic clocks and counters of one world:
    its network and fedquery registry counters, its loop, the HMAC
    oracle, and every cell's flash device."""

    NAMES = ("net.messages", "net.bytes", "net.lost", "net.queued",
             "fedquery.reasks", "fedquery.tree.reasks",
             "fedquery.tree.respawns")

    def __init__(self, world: World, fleet: Any) -> None:
        self.world = world
        self.flashes = [
            catalog.store.flash for catalog in fleet.catalogs.values()]
        self.totals: dict[str, float] = {}
        self._before: dict[str, float] = {}

    def _read(self) -> dict[str, float]:
        registry = self.world.obs.metrics
        reading = {name: _counter(registry, name) for name in self.NAMES}
        reading["crypto.hmac.calls"] = _counter(
            get_default().metrics, "crypto.hmac.calls")
        reading["events"] = self.world.loop.events_executed
        reading["reads"] = sum(flash.reads for flash in self.flashes)
        reading["writes"] = sum(flash.writes for flash in self.flashes)
        reading["erases"] = sum(flash.erases for flash in self.flashes)
        reading["device_us"] = sum(
            flash.elapsed_us for flash in self.flashes)
        return reading

    def before(self) -> None:
        self._before = self._read()

    def after(self) -> None:
        for name, value in self._read().items():
            self.totals[name] = self.totals.get(name, 0.0) \
                + value - self._before[name]

    def values(self, ops: int) -> dict[str, float]:
        total = self.totals
        return {
            "sim.events_per_op": total["events"] / ops,
            "network.messages_per_op": total["net.messages"] / ops,
            "network.bytes_per_op": total["net.bytes"] / ops,
            "network.lost": total["net.lost"],
            "network.queued": total["net.queued"],
            "crypto.hmac_calls": total["crypto.hmac.calls"] / ops,
            "flash.page_reads": total["reads"] / ops,
            "flash.page_writes": total["writes"] / ops,
            "flash.block_erases": total["erases"] / ops,
            "flash.device_ms": total["device_us"] / 1000.0 / ops,
            "flash.max_wear": max(flash.max_wear for flash in self.flashes),
            "hierarchy.respawns": total["fedquery.tree.respawns"],
        }


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


class _ResultTally:
    """Accounting every fedquery workload reads off its results."""

    def __init__(self) -> None:
        self.results: list[Any] = []
        self.latencies: list[int] = []
        self.extra_bytes = 0.0

    def add(self, result: Any, latency_s: int) -> None:
        self.results.append(result)
        self.latencies.append(latency_s)

    def values(self, ops: int) -> dict[str, float]:
        results = self.results
        return {
            "harness.wire_bytes_per_op": (
                sum(r.bytes for r in results) + self.extra_bytes) / ops,
            "harness.sim_latency_s": statistics.median(self.latencies),
            "coordinator.reasks": sum(r.reasks for r in results),
            "coordinator.recovery_rounds": sum(
                r.recovery_rounds for r in results),
            "coordinator.demoted": sum(len(r.demoted) for r in results),
        }


def _k_anonymous(released: list, k: int) -> bool:
    groups: dict[tuple, int] = {}
    for record in released:
        signature = tuple(sorted(record.ranges.items()))
        groups[signature] = groups.get(signature, 0) + 1
    return all(count >= k for count in groups.values())


def _one_shot_correct(fleet: Any, spec: FedQuerySpec, result: Any,
                      cells: int) -> bool:
    """The quiet-path oracle for one one-shot query."""
    if result.outcome != OUTCOME_COMPLETE or result.participants != cells:
        return False
    if spec.transform == TRANSFORM_KANON:
        released = open_release(
            result, recipient_key(spec.recipient, fleet.secret), k=spec.k)
        # One profile record per cell, every QI group at least k wide.
        return len(released) == cells and _k_anonymous(released, spec.k)
    error = abs(result.value - fleet.ground_truth(spec))
    if spec.transform == TRANSFORM_DP:
        return error <= DP_SCALES / spec.epsilon + 1.0 / spec.scale
    return error < EXACT_TOLERANCE


# -- flat_quiet -----------------------------------------------------------------


def flat_quiet(run: Run) -> Outcome:
    """400 store-backed cells, one flat coordinator over a k=32 masking
    ring, no faults; op = one ``Coordinator.run``."""
    cells = run.pick(400, toy=12)
    neighbors = run.pick(32, toy=4)
    cycles = run.count(10, toy=1)
    rng = run.rng("flat_quiet")

    def build():
        world = World(seed=run.seed)
        network = Network(world)
        fleet = build_fleet(world, network, cells, purposes=set(PURPOSES))
        coordinator = Coordinator(world, network, neighbors=neighbors)
        for index, transform in enumerate(FLAT_CYCLE[:2]):
            coordinator.run(
                _spec(transform, f"warm-up-{index}", 18), fleet.roster)
        return world, fleet, coordinator

    world, fleet, coordinator = run.setup(build)
    settle_heap()
    meter = _WorldMeter(world, fleet)
    tally = _ResultTally()
    attempted = failed = 0
    for cycle in range(cycles):
        if run.over_budget():
            break
        for transform in FLAT_CYCLE:
            spec = _spec(
                transform, f"recipient-{attempted}", rng.randrange(0, 21))
            issued = world.now
            meter.before()
            result = run.sampler.sample(
                lambda: coordinator.run(spec, fleet.roster),
                kind=transform, group=cycle,
            )
            meter.after()
            attempted += 1
            failed += not _one_shot_correct(fleet, spec, result, cells)
            tally.add(result, result.completed_at - issued)

    sampler = run.sampler
    values = {
        "coordinator.query_ms.exact": _mean(
            sampler.normalised_ms(kind=TRANSFORM_EXACT)),
        "coordinator.query_ms.dp": _mean(
            sampler.normalised_ms(kind=TRANSFORM_DP)),
        "coordinator.query_ms.kanon": _mean(
            sampler.normalised_ms(kind=TRANSFORM_KANON)),
        "journal.records_at_end": len(coordinator.journal),
    }
    values.update(tally.values(attempted))
    values.update(meter.values(attempted))
    return Outcome(attempted, failed, values)


# -- tree_mixed -----------------------------------------------------------------


def tree_mixed(run: Run) -> Outcome:
    """500 cells sharded over 22 regional coordinators under one root;
    op = one ``HierarchicalCoordinator.run``; every 4th op has seeded
    cells offline and must settle to a survivor-exact partial."""
    cells = run.pick(500, toy=36)
    regions = run.pick(22, toy=3)
    neighbors = run.pick(32, toy=4)
    offline_cells = run.pick(3, toy=2)
    cycles = run.count(10, toy=1)
    rng = run.rng("tree_mixed")

    def build():
        world = World(seed=run.seed)
        network = Network(world)
        fleet = build_fleet_sharded(
            world, network, cells, shards=regions, purposes=set(PURPOSES))
        root = HierarchicalCoordinator(
            world, network, regions=regions, neighbors=neighbors)
        for index in range(2):
            root.run(_spec(TRANSFORM_EXACT, f"warm-up-{index}", 18),
                     fleet.roster)
        return world, network, fleet, root

    world, network, fleet, root = run.setup(build)
    settle_heap()
    meter = _WorldMeter(world, fleet)
    tally = _ResultTally()
    attempted = failed = 0
    for cycle in range(cycles):
        if run.over_budget():
            break
        for kind in TREE_CYCLE:
            spec = _spec(TRANSFORM_EXACT, f"recipient-{attempted}",
                         rng.randrange(0, 21))
            down = rng.sample(fleet.roster, offline_cells) \
                if kind == "degraded" else []
            for name in down:
                network.set_online(name, False)
            issued = world.now
            meter.before()
            result = run.sampler.sample(
                lambda: root.run(spec, fleet.roster),
                kind=kind, group=cycle,
            )
            meter.after()
            for name in down:
                network.set_online(name, True)
            attempted += 1
            if down:
                survivors = [n for n in fleet.roster if n not in down]
                correct = (
                    result.outcome == OUTCOME_PARTIAL
                    and sorted(result.demoted) == sorted(down)
                    and result.value is not None
                    and abs(result.value
                            - fleet.ground_truth(spec, survivors))
                    < EXACT_TOLERANCE
                )
            else:
                correct = _one_shot_correct(fleet, spec, result, cells)
            failed += not correct
            tally.add(result, result.completed_at - issued)

    sampler = run.sampler
    values = {
        "coordinator.query_ms.exact": _mean(sampler.normalised_ms()),
        "hierarchy.root_messages_per_op": sum(
            r.root_messages for r in tally.results) / attempted,
        "hierarchy.quiet_op_ms": _mean(sampler.normalised_ms(kind="quiet")),
        "hierarchy.degraded_op_ms": _mean(
            sampler.normalised_ms(kind="degraded")),
        "journal.records_at_end": len(root.journal) + sum(
            len(region.journal) for region in root.regions),
    }
    values.update(tally.values(attempted))
    values.update(meter.values(attempted))
    return Outcome(attempted, failed, values)


# -- standing_tenants -----------------------------------------------------------

FIELD_S = 300  # one stream unit
WINDOW_S = 900  # tumbling windows of three units
#: Sim seconds past a window's end by which its collect has settled on
#: the quiet path, and before the next unit's rows arrive.
SETTLE_S = 5
ORACLE_TENANTS = 4


def standing_tenants(run: Run) -> Outcome:
    """16 cells ingesting two stream domains while 16 tenants hold
    tumbling-window subscriptions; sample = the wall to drain one
    window close (rows arriving, every subscription's re-scan, masks,
    collect), op = one settled tenant-window."""
    cells = run.pick(16, toy=4)
    neighbors = run.pick(8, toy=2)
    tenants = run.pick(16, toy=4)
    warm_up = 2
    windows = warm_up + run.count(40, toy=3)
    clause = WindowClause(
        width_s=WINDOW_S, windows=windows, field_seconds=FIELD_S)
    specs = tenant_specs(tenants)

    def drain(world: World, index: int) -> None:
        world.loop.run_until(clause.window_span_s(index)[1] + SETTLE_S)

    def build():
        world = World(seed=run.seed)
        network = Network(world)
        fleet = build_fleet(
            world, network, cells, purposes=set(TRAFFIC_PURPOSES))
        seed_stream_data(
            fleet, units=windows * WINDOW_S // FIELD_S, field_seconds=FIELD_S)
        coordinator = StandingCoordinator(world, network, neighbors=neighbors)
        started = time.perf_counter()
        subscriptions = [
            coordinator.subscribe(spec, fleet.roster, clause)
            for spec in specs
        ]
        subscribe_s = time.perf_counter() - started
        for index in range(warm_up):
            drain(world, index)
        return world, fleet, coordinator, subscriptions, subscribe_s

    world, fleet, coordinator, subscriptions, subscribe_s = run.setup(build)
    settle_heap()
    meter = _WorldMeter(world, fleet)
    attempted = failed = 0
    measured: list[int] = []
    for index in range(warm_up, windows):
        if run.over_budget():
            break
        meter.before()
        run.sampler.sample(
            lambda: drain(world, index), ops=tenants,
            group=index - warm_up)
        meter.after()
        attempted += tenants
        measured.append(index)
        failed += sum(
            1 for sub in subscriptions
            if index not in sub.results
            or sub.results[index].outcome != OUTCOME_COMPLETE
        )

    # Oracle: sampled exact tenants' window totals against the
    # clear-text windowed query (the store now holds every unit; the
    # windowed predicate bounds the range).
    exact = [sub for sub in subscriptions
             if sub.spec.transform == TRANSFORM_EXACT]
    for sub in run.rng("standing_oracle").sample(
            exact, min(ORACLE_TENANTS, len(exact))):
        for index in measured:
            result = sub.results.get(index)
            if result is None or result.outcome != OUTCOME_COMPLETE:
                continue  # already counted as failed
            truth = fleet.ground_truth(clause.windowed_spec(sub.spec, index))
            if abs(result.value - truth) >= EXACT_TOLERANCE:
                failed += 1

    tally = _ResultTally()
    for sub in subscriptions:
        for index in measured:
            if index in sub.results:
                tally.add(sub.results[index], sub.settle_lag_s[index])
    # The measured windows' share of the subscribe traffic.
    tally.extra_bytes = len(measured) / windows * sum(
        sub.sub_bytes for sub in subscriptions)
    results = tally.results
    settled = len(results)
    values = {
        "journal.records_at_end": len(coordinator.journal),
        "standing.subscribe_ms": subscribe_s * 1000.0 / tenants,
        "standing.windows_settled": settled,
        "standing.messages_per_window": sum(
            r.messages for r in results) / settled,
        "standing.examined_per_window_per_cell": sum(
            r.records_examined for r in results) / settled / cells,
    }
    values.update(tally.values(attempted))
    values.update(meter.values(attempted))
    return Outcome(attempted, failed, values)
