"""The coordinator tree: hierarchical federation for very large fleets.

A flat :class:`~repro.fedquery.coordinator.Coordinator` does O(N) work
per query *and* ships every cell the full roster, so wire bytes and
coordinator work grow as O(N^2) — fine at a thousand cells, hopeless
at a hundred thousand. The tree splits the fan-out two ways:

* a root :class:`HierarchicalCoordinator` partitions the global roster
  into ~sqrt(N) **contiguous shards** and ships each shard to a
  :class:`RegionalCoordinator` — the root's own work is O(sqrt(N));
* each region ships each cell of its shard an O(k) roster **window** —
  the cell's ring neighbors plus their global positions — instead of
  the full roster.

Both levels *are* the flat coordinator's journalled state machine
(collect deadline, re-ask, demote, settle, recover, finish, crash and
resume): a region's children are its shard's cells, the root's
children are its regions, and each class below overrides only the
edges where its level differs — what a child is sent, how its reply
is journalled and folded, and where a settled run reports to.

The privacy argument is the boundary-mask trick: cells mask on the
**global** ring graph, exactly as the flat path does. Within a shard
the pairwise masks of interior edges cancel in the shard's partial
sum, but the k/2 edges crossing each shard boundary are unpaired —
so every shard partial a region forwards is still a uniformly masked
field element. No level of the tree below the final combine learns
anything: regions see per-cell masked elements (meaningless, as
before), the root sees masked shard sums, and only the sum over *all*
shards — bit-for-bit the flat total — unmasks. Sealed record batches
pass through regions as opaquely as they pass the flat coordinator.

Degradation composes recursively. Regions demote unresponsive cells
exactly as the flat coordinator does; the root re-asks and, on an
exhausted budget, demotes a whole *region* — all its cells become
missing (none of their contributions entered the combine, so their
interior edges cancel by absence and only their boundary edges need
survivor recovery). The root compiles the **global** missing list,
regions fan it to the survivors whose ring neighborhoods intersect it,
and the net recovery masks sum — through the regions — to exactly the
flat path's correction. Every level runs under its own bounded
horizon, and the root's horizon includes the regions', so a lossy run
settles to ``partial`` (survivor-exact) or ``abandoned`` instead of
hanging.

Privacy parameters never shrink with the shards: plan windows carry
``global_size``, so the cohort floor and the DP noise calibration are
global, and each cell's noise share is drawn once per query no matter
how the roster is sharded.
"""

from __future__ import annotations

import time
from typing import Any

from ..commons import kernels
from ..commons.aggregation import _effective_degree, ring_neighbor_positions
from ..errors import CellOfflineError, ConfigurationError, ProtocolError
from ..faults.retry import RetryPolicy
from ..infrastructure.network import Network
from ..sim.world import World
from .coordinator import Coordinator, FedQueryResult, _RunState
from .journal import (
    REC_MASK,
    REC_MASK_REPORT,
    REC_PARTIAL,
    REC_REPORT,
    QueryJournal,
)
from .spec import (
    MSG_SHARD_MASK,
    MSG_SHARD_PARTIAL,
    MSG_SHARD_PLAN,
    MSG_SHARD_RECOVER,
    STATUS_OK,
    FedQuerySpec,
    plan_message,
    shard_mask_message,
    shard_partial_message,
    shard_plan_message,
    shard_recover_message,
    wire_size,
)


def partition_shards(roster: list[str], regions: int) -> list[list[str]]:
    """Split a roster into ``regions`` contiguous shards, sizes within 1.

    Contiguity is load-bearing: it is what confines a shard's unpaired
    mask edges to the two ring boundaries, keeping each region's
    positions map (shard plus k/2 of boundary zone on either side)
    O(shard) instead of O(N).
    """
    if regions < 1:
        raise ConfigurationError("a roster splits into at least one shard")
    count = min(regions, len(roster))
    if count < 1:
        raise ConfigurationError("the roster needs at least one cell")
    base, extra = divmod(len(roster), count)
    shards, start = [], 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        shards.append(roster[start:start + size])
        start += size
    return shards


class RegionalCoordinator(Coordinator):
    """One region of the tree: the flat machinery over one shard.

    A pure event-driven endpoint — it never drives the world loop (the
    root does). It reuses the superclass's per-cell re-ask ladder,
    demotion, recovery and accounting verbatim; what changes is the
    edges of the state machine: runs start from a ``fq.shard_plan``
    message instead of :meth:`run`, collection settles into a
    ``fq.shard_partial`` report instead of a combine, and recovery is
    triggered by the root's **global** missing list and settles into a
    ``fq.shard_mask`` report. A run is dropped at each report: the
    journal is then the region's only memory of the shard. A root
    re-ask resends the journaled report, and the root's recover request
    rebuilds the run with :meth:`_restore_state` — the restart path —
    so the root's retry ladder is idempotent.
    """

    _EVENTS = "fedquery.shard"

    def __init__(self, world: World, network: Network, *, region: int,
                 address: str, **kwargs: Any) -> None:
        super().__init__(world, network, address=address, **kwargs)
        self.region = region

    @property
    def views(self) -> dict[str, list[Any]]:
        """tag -> the region's coordinator_view (leakage audit surface):
        its cells' OK masked payloads and net masks, read off the
        journal in append order."""
        return {
            tag: [
                record["payload"] if record["type"] == REC_PARTIAL
                else record["net_mask"]
                for record in records
                if record["type"] == REC_MASK or (
                    record["type"] == REC_PARTIAL
                    and record["status"] == STATUS_OK)
            ]
            for tag, records in self.journal.by_tag().items()
        }

    # -- inbound ---------------------------------------------------------------

    def _on_message(self, sender: str, payload: Any) -> None:
        if self._crashed:
            return  # a delivery already in flight when the process died
        if not isinstance(payload, dict):
            return
        kind = payload.get("kind")
        if kind == MSG_SHARD_PLAN:
            self._on_shard_plan(payload)
        elif kind == MSG_SHARD_RECOVER:
            self._on_shard_recover(payload)
        else:
            super()._on_message(sender, payload)

    def _on_shard_plan(self, message: dict[str, Any]) -> None:
        tag = message["tag"]
        records = self.journal.of(tag)
        if records:
            # A root re-ask: resend the journaled report — or, still
            # collecting, leave the reply to the settle.
            self._resend(records, REC_REPORT)
            return
        state = self._place(
            _RunState(
                tag, FedQuerySpec.from_wire(message["spec"]),
                list(message["shard"]), message["round_tag"],
                message["neighbors"],
            ),
            message["positions"], message["global_size"],
            message["reply_to"],
        )
        if _effective_degree(state.global_size, state.neighbors) is None:
            raise ProtocolError(
                "the coordinator tree needs a k-regular masking graph "
                "(neighbors < global size - 1)"
            )
        self._admit(state)
        self._fan_out(state)

    def _place(self, state: _RunState, positions: dict[str, Any],
               global_size: int, root: str) -> _RunState:
        """Pin a shard's run state to its place on the global ring."""
        state.positions = {
            name: int(position) for name, position in positions.items()
        }
        state.global_size = int(global_size)
        state.name_at = {
            position: name for name, position in state.positions.items()
        }
        state.root = root
        return state

    def _start_record(self, state: _RunState) -> dict[str, Any]:
        record = super()._start_record(state)
        record.update(
            region=self.region, positions=dict(state.positions),
            global_size=state.global_size, root=state.root,
        )
        return record

    def _label(self, what: str, state: _RunState,
               child: str | None = None) -> str:
        if child is not None:
            return super()._label(what, state, child)  # a cell, as flat
        return f"fq shard {what} {state.tag} r{self.region}"

    def _where(self, state: _RunState) -> dict[str, Any]:
        return {"region": self.region}

    # -- windowed fan-out ------------------------------------------------------

    def _plan_for(self, state: _RunState, child: str) -> dict[str, Any]:
        """An O(k) plan: the cell's ring window, with global positions."""
        position = state.positions[child]
        degree = _effective_degree(state.global_size, state.neighbors)
        window = ring_neighbor_positions(
            position, state.global_size, degree
        ) + [position]
        window.sort()
        return plan_message(
            state.tag, state.spec,
            [state.name_at[entry] for entry in window], self.address,
            round_tag=state.round_tag, neighbors=state.neighbors,
            positions={state.name_at[entry]: entry for entry in window},
            global_size=state.global_size,
        )

    # -- settle: report the shard partial upward -------------------------------

    def _settle(self, state: _RunState) -> None:
        if state.phase != "collect":
            return
        if state.deadline_handle is not None:
            state.deadline_handle.cancel()
        ok = state.ok_children()
        if state.spec.numeric:
            # Still masked: the shard's boundary edges have no partner
            # in this sum, so the root learns nothing per shard.
            masked_sum = kernels.accumulate(state.masked())
            count = len(ok)
            sealed: list[tuple[str, str]] = []
        else:
            masked_sum = None
            count, sealed = state.released()
        state.phase = "report"
        reply = shard_partial_message(
            state.tag, self.address, self.region,
            statuses=dict(state.status), masked_sum=masked_sum, count=count,
            sealed=sealed, plan_mix=state.plan_mix, examined=state.examined,
            messages=state.messages, bytes_=state.bytes, reasks=state.reasks,
        )
        self.journal.append({
            "type": REC_REPORT, "tag": state.tag, "region": self.region,
            "reply": reply,
        })
        if state.phase != "report":
            return  # the journal hook crashed us mid-append
        self._events.emit(
            "fedquery.shard.settle", tag=state.tag, region=self.region,
            participants=len(ok), reasks=state.reasks,
        )
        self._send_up(state.root, reply)
        del self._active[state.tag]  # the journal answers from here on

    def _resend(self, records: list[dict[str, Any]], kind: str) -> bool:
        """Resend the reply of the ``kind`` report (REC_REPORT or
        REC_MASK_REPORT) journaled in ``records``, if there is one."""
        for record in records:
            if record["type"] == kind:
                self._send_up(records[0]["root"], record["reply"])
                return True
        return False

    def _send_up(self, root: str, message: dict[str, Any]) -> None:
        # Root-level traffic is billed by the root (both directions),
        # exactly as cell-level traffic is billed by this region.
        try:
            self.network.send(
                self.address, root, message, size_bytes=wire_size(message)
            )
        except CellOfflineError:
            pass  # the root's re-ask ladder owns this failure

    # -- recovery: the root's global missing list ------------------------------

    def _on_shard_recover(self, message: dict[str, Any]) -> None:
        tag = message["tag"]
        if tag in self._active:
            return  # still collecting, or recovery already in flight
        records = self.journal.of(tag)
        if not records or self._resend(records, REC_MASK_REPORT):
            return  # unknown tag, or a root re-ask of the mask report
        state = self._restore_state(records[0], records)
        if state.phase != "done" or not state.spec.numeric:
            return  # not reported, or a record shard: no recovery
        state.missing = list(message["missing"])
        state.recover_targets = self._relevant_survivors(state)
        self._active[tag] = state
        self._start_recovery(state)

    def _relevant_survivors(self, state: _RunState) -> list[str]:
        # Only survivors whose ring neighborhood intersects the missing
        # set are asked; everyone else's net mask is identically zero,
        # so skipping them is bit-for-bit free and keeps recovery
        # traffic proportional to the damage, not the fleet.
        missing = set(state.missing)
        degree = _effective_degree(state.global_size, state.neighbors)
        targets = []
        for name in state.ok_children():
            ring = ring_neighbor_positions(
                state.positions[name], state.global_size, degree
            )
            if any(state.name_at.get(entry) in missing for entry in ring):
                targets.append(name)
        return targets

    def _recover_targets(self, state: _RunState) -> list[str]:
        return state.recover_targets

    def _masks_complete(self, state: _RunState) -> None:
        self._report_mask(
            state, net_sum=kernels.accumulate(state.masks.values())
        )

    def _mask_recovery_failed(self, state: _RunState) -> None:
        # A survivor whose value is in the total cannot reveal its
        # masks: report the failure upward; the root must abandon.
        self._report_mask(state, net_sum=None, failure="mask-recovery")

    def _report_mask(self, state: _RunState, *, net_sum: int | None,
                     failure: str | None = None) -> None:
        messages, bytes_, reasks = state.reported
        reply = shard_mask_message(
            state.tag, self.address, self.region, net_sum=net_sum,
            reasks=state.reasks - reasks,
            messages=state.messages - messages,
            bytes_=state.bytes - bytes_, failure=failure,
        )
        self.journal.append({
            "type": REC_MASK_REPORT, "tag": state.tag,
            "region": self.region, "reply": reply,
        })
        if state.phase == "crashed":
            return  # the journal hook crashed us mid-append
        state.phase = "done"
        self._send_up(state.root, reply)
        del self._active[state.tag]

    # -- a run rebuilt from its records ----------------------------------------

    def _restore_state(self, start: dict[str, Any],
                       records: list[dict[str, Any]]) -> _RunState:
        """Rebuild a shard's run from its records, on a restart or a
        root recover request. A reported run that is not recovering
        comes back ``done``: a restart leaves it in the journal."""
        state = self._place(
            super()._restore_state(start, records),
            start["positions"], start["global_size"], start["root"],
        )
        report = next((r for r in records if r["type"] == REC_REPORT), None)
        if report is not None:
            # The report snapshot is the authoritative accounting at
            # settle time; outbound ships lost to a crash are not in
            # the journal, so rebuild from the snapshot plus the
            # journaled post-report mask traffic. Deltas in the mask
            # report stay non-negative by construction.
            reply = report["reply"]
            masks = [r for r in records if r["type"] == REC_MASK]
            state.messages = reply["messages"] + len(masks)
            state.bytes = reply["bytes"] + sum(
                r.get("size", 0) for r in masks)
            state.reasks = reply["reasks"]
            state.reported = (
                reply["messages"], reply["bytes"], reply["reasks"])
            if state.phase == "collect":
                state.phase = "done"
        if any(r["type"] == REC_MASK_REPORT for r in records):
            state.phase = "done"
        if state.phase == "recover":
            state.recover_targets = self._relevant_survivors(state)
        return state


class _RootClock:
    """Accumulates wall time spent inside the root's own code.

    The whole-query wall is linear in N by construction — every cell
    computes in-process — so the sub-linearity claim needs the root's
    share alone. Re-entrant (handlers call handlers): only the
    outermost span is counted.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._depth = 0
        self._entered = 0.0

    def __enter__(self) -> "_RootClock":
        if self._depth == 0:
            self._entered = time.perf_counter()
        self._depth += 1
        return self

    def __exit__(self, *exc: Any) -> None:
        self._depth -= 1
        if self._depth == 0:
            self.seconds += time.perf_counter() - self._entered

    def timed(self, door: Any) -> Any:
        """``door``, run under this clock."""
        def run(*args: Any) -> Any:
            with self:
                return door(*args)
        return run


class HierarchicalCoordinator(Coordinator):
    """The root of the coordinator tree.

    Owns ``regions`` :class:`RegionalCoordinator` endpoints (addresses
    ``{address}.r{i}``) and, per query, partitions the roster into that
    many contiguous shards — pick ``regions ~ sqrt(N)`` and the root's
    work per query is O(sqrt(N)) messages instead of the flat path's
    O(N). It is the :class:`Coordinator` state machine with the regions
    as its children: :meth:`run` drives the loop to a bounded horizon
    (which *includes* the regions' horizons, so no level can hang the
    tree) and returns a :class:`FedQueryResult` with the same outcomes,
    plus the tree extras — ``regions``, ``root_messages``,
    ``root_bytes`` — while ``messages``/``bytes``/``reasks`` aggregate
    the whole tree. A region silent past the retry budget is demoted
    whole; a crashed one is revived by the re-ask that finds it.

    The windowed masking graph must be k-regular, so the global roster
    must satisfy ``neighbors < len(roster) - 1``; below that, use the
    flat coordinator (a tree over a roster that small is pointless).
    """

    _TAG = "fqh"
    _EVENTS = "fedquery.tree"
    _REASK_STREAM = "fedquery.tree.reask"
    _PARTIAL, _MASK = MSG_SHARD_PARTIAL, MSG_SHARD_MASK

    def __init__(
        self,
        world: World,
        network: Network,
        *,
        regions: int,
        neighbors: int = 32,
        address: str = "fq-root",
        retry_policy: RetryPolicy | None = None,
        collect_timeout_s: int = 60,
        recovery_timeout_s: int = 60,
        region_retry_policy: RetryPolicy | None = None,
        region_collect_timeout_s: int = 30,
        region_recovery_timeout_s: int = 30,
        latency_ms: float = 5.0,
        bandwidth_bytes_per_s: float = 1e9,
        journal: QueryJournal | None = None,
        horizon_slack_s: int = 0,
    ) -> None:
        if regions < 1:
            raise ConfigurationError("the tree needs at least one region")
        if collect_timeout_s < 1 or recovery_timeout_s < 1:
            # Checked here too: before any region claims an address.
            raise ConfigurationError("timeouts must be at least 1 s")
        if _effective_degree(regions + neighbors + 2, neighbors) is None:
            raise ConfigurationError(
                "neighbors must be an even integer >= 2 for the tree's "
                "windowed masking graph"
            )
        # Times every door into the root's own code (see _entered) and
        # nothing the loop runs in between. Made before the base class
        # registers the network handler through it.
        self.clock = _RootClock()
        self.regions = [
            RegionalCoordinator(
                world, network, region=region,
                address=f"{address}.r{region}",
                retry_policy=region_retry_policy,
                collect_timeout_s=region_collect_timeout_s,
                recovery_timeout_s=region_recovery_timeout_s,
                neighbors=neighbors,
            )
            for region in range(regions)
        ]
        self._region_at = {region.address: region for region in self.regions}
        # The root's own write-ahead journal (regions each keep their
        # own): a root crash resumes the whole query from here.
        super().__init__(
            world, network, address=address, retry_policy=retry_policy,
            collect_timeout_s=collect_timeout_s,
            recovery_timeout_s=recovery_timeout_s, neighbors=neighbors,
            latency_ms=latency_ms,
            bandwidth_bytes_per_s=bandwidth_bytes_per_s,
            journal=journal, horizon_slack_s=horizon_slack_s,
        )

    def _instruments(self, metrics: Any) -> None:
        self._plans_metric = metrics.counter(
            "fedquery.tree.shard_plans",
            help="shard plans shipped to regional coordinators")
        self._bytes_metric = metrics.counter(
            "fedquery.tree.root_bytes",
            help="root coordinator wire bytes, both directions")
        self._reasks_metric = metrics.counter(
            "fedquery.tree.reasks", help="region-level re-asks sent")
        self._demotions_metric = metrics.counter(
            "fedquery.tree.demotions",
            help="whole regions demoted after the retry budget")
        self._partials_metric = metrics.counter(
            "fedquery.tree.shard_partials",
            help="shard partials received from regional coordinators",
            labelnames=("status",))
        self._respawns_metric = metrics.counter(
            "fedquery.tree.respawns",
            help="crashed regional coordinators revived by the root")
        self._queries_metric = metrics.counter(
            "fedquery.tree.queries",
            help="tree queries by terminal outcome", labelnames=("outcome",))

    # -- public API ------------------------------------------------------------

    def run(self, spec: FedQuerySpec, roster: list[str], *,
            round_tag: str | None = None) -> FedQueryResult:
        """Execute ``spec`` across ``roster`` through the tree."""
        if roster and _effective_degree(len(roster), self.neighbors) is None:
            raise ConfigurationError(
                f"a roster of {len(roster)} cannot carry a {self.neighbors}-"
                "regular masking ring; use the flat Coordinator below "
                f"{self.neighbors + 2} cells"
            )
        clock_before = self.clock.seconds
        result = super().run(spec, roster, round_tag=round_tag)
        result.root_wall_seconds = self.clock.seconds - clock_before
        return result

    def _horizon_s(self) -> int:
        """Bounded horizon for the whole tree: the root's own collect +
        recovery ladders on top of the slowest region's horizon. (The
        crash slack double-counts region crashes — the deepest region's
        horizon already includes its own — which only widens the
        bound.)"""
        return super()._horizon_s() + max(
            region._horizon_s() for region in self.regions
        )

    def _entered(self, door: Any) -> Any:
        return self.clock.timed(door)

    # -- the edges: regions as children ----------------------------------------

    def _new_state(self, tag: str, spec: FedQuerySpec, roster: list[str],
                   round_tag: str, neighbors: int | None) -> _RunState:
        shards = partition_shards(roster, len(self.regions))
        state = _RunState(
            tag, spec, roster, round_tag, neighbors,
            children=[region.address for region in self.regions[:len(shards)]],
        )
        state.shards = dict(zip(state.children, shards))
        state.starts, start = {}, 0
        for child, shard in state.shards.items():
            state.starts[child] = start
            start += len(shard)
        return state

    def _zone(self, state: _RunState, child: str) -> dict[str, int]:
        """Global positions for a shard plus its ring boundary zones."""
        size = len(state.roster)
        degree = _effective_degree(size, state.neighbors)
        half = degree // 2
        start = state.starts[child]
        positions = {}
        for offset in range(start - half,
                            start + len(state.shards[child]) + half):
            position = offset % size
            positions[state.roster[position]] = position
        return positions

    def _plan_for(self, state: _RunState, child: str) -> dict[str, Any]:
        return shard_plan_message(
            state.tag, state.spec, state.shards[child],
            self._zone(state, child), len(state.roster), self.address,
            region=self._region_at[child].region,
            round_tag=state.round_tag, neighbors=state.neighbors,
        )

    def _recover_for(self, state: _RunState, child: str) -> dict[str, Any]:
        return shard_recover_message(state.tag, state.missing, self.address)

    def _before_reask(self, state: _RunState, child: str) -> None:
        """Regional failover: revive a crashed region before re-asking.

        The root's retry ladder is the failure detector — a region that
        missed its shard deadline and is found crashed is restarted
        here, replays its own journal, and answers the re-ask from that
        journal or by re-collecting.
        """
        endpoint = self._region_at[child]
        if not endpoint.crashed:
            return
        self._respawns_metric.inc()
        self._events.emit(
            "crash.respawn", address=child, region=endpoint.region,
            tag=state.tag,
        )
        endpoint.restart()

    def _partial_record(self, state: _RunState,
                        message: dict[str, Any]) -> dict[str, Any]:
        return {
            "type": REC_PARTIAL, "tag": state.tag, "from": message["from"],
            "message": message, "size": wire_size(message),
        }

    def _fold_partial(self, state: _RunState,
                      record: dict[str, Any]) -> None:
        child, message = record["from"], record["message"]
        state.resolve(child, STATUS_OK)
        state.leaves.update(message["statuses"])
        state.payloads[child] = {
            "masked": message["masked_sum"], "count": message["count"],
            "sealed": message["sealed"],
        }
        for plan, count in message["plan_mix"].items():
            state.plan_mix[plan] = state.plan_mix.get(plan, 0) + count
        state.examined += message["examined"]
        self._fold_billing(state, message)
        if message["masked_sum"] is not None:
            state.view.append(message["masked_sum"])

    def _mask_record(self, state: _RunState,
                     message: dict[str, Any]) -> dict[str, Any]:
        return {
            "type": REC_MASK, "tag": state.tag, "from": message["from"],
            "message": message, "size": wire_size(message),
        }

    def _fold_mask(self, state: _RunState, record: dict[str, Any]) -> None:
        message = record["message"]
        if message.get("failure"):
            state.failed = message["failure"]
            return
        state.masks[record["from"]] = message["net_sum"]
        state.view.append(message["net_sum"])
        self._fold_billing(state, message)

    @staticmethod
    def _fold_billing(state: _RunState, message: dict[str, Any]) -> None:
        state.sub_messages += message["messages"]
        state.sub_bytes += message["bytes"]
        state.sub_reasks += message["reasks"]

    def _own_share(self, state: _RunState) -> dict[str, Any]:
        return {
            "regions": len(state.children),
            "root_messages": state.messages, "root_bytes": state.bytes,
        }

    # -- what the root calls things --------------------------------------------

    def _label(self, what: str, state: _RunState,
               child: str | None = None) -> str:
        if child is None:
            return f"fq tree {what} {state.tag}"
        return f"fq region {what} {self._region_at[child].region}"

    def _where(self, state: _RunState) -> dict[str, Any]:
        return {"regions": len(state.children)}

    def _announce_demotion(self, state: _RunState, child: str) -> None:
        self._events.emit(
            "fedquery.region.demote", tag=state.tag,
            region=self._region_at[child].region,
            cells=len(state.shards[child]), attempts=state.attempts[child],
        )
