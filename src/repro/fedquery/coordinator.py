"""The untrusted coordinator: fans plans out, combines transformed partials.

The coordinator runs on the "highly powerful, highly available but
untrusted infrastructure" of the paper. Everything it touches is
already transformed by the cells' egress gates: masked field elements
(meaningless individually), net recovery masks (protect nothing), and
sealed record batches (ciphertext under a recipient key it does not
hold). Its job is purely operational — scheduling, collection,
straggler handling — and its view is recorded in
``FedQueryResult.coordinator_view`` so tests and benches can assert no
raw value ever appears there.

Liveness discipline (mirrors :class:`~repro.commons.async_aggregation.
AsyncMaskedAggregation`): a collect deadline, per-cell
:class:`~repro.faults.retry.RetryPolicy` re-asks, demotion when the
budget is exhausted, one mask-recovery round to cancel the demoted and
declined cells' edges, and three terminal outcomes — **complete**,
**partial** (demotions, but the survivors' answer is exact over the
survivors), **abandoned** (privacy floor or unrecoverable masks; no
value released). A run never hangs: :meth:`Coordinator.run` drives the
event loop to a bounded horizon and raises if the query somehow failed
to reach a terminal state.

There is one such state machine. Its run state is keyed by *child*
address — a cell here and in a tree region, a regional coordinator at
the tree's root (:mod:`~repro.fedquery.hierarchy`) — and the few edges
where the levels differ are overridable methods, listed on
:class:`Coordinator`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from ..commons import kernels
from ..commons.anonymize import GeneralizedRecord, k_anonymize
from ..crypto import shamir
from ..errors import CellOfflineError, ConfigurationError, ProtocolError
from ..faults.retry import RetryPolicy, schedule_retry
from ..infrastructure.network import Network
from ..sim.world import World
from . import gate
from .journal import (
    REC_DEMOTE,
    REC_DONE,
    REC_MASK,
    REC_PARTIAL,
    REC_RECOVER,
    REC_START,
    QueryJournal,
)
from .spec import (
    MSG_MASK,
    MSG_PARTIAL,
    STATUS_DECLINED,
    STATUS_FLOOR,
    STATUS_OK,
    FedQuerySpec,
    plan_message,
    recover_message,
    wire_size,
)

OUTCOME_COMPLETE = "complete"
OUTCOME_PARTIAL = "partial"
OUTCOME_ABANDONED = "abandoned"


@dataclass
class FedQueryResult:
    """Terminal state of one federated query, plus full accounting."""

    transform: str
    tag: str
    roster_size: int
    participants: int = 0  # cells whose partial made the combine
    declined: int = 0
    floored: int = 0  # refused: roster under the cell-side cohort floor
    demoted: list[str] = field(default_factory=list)
    value: float | None = None
    field_total: int | None = None  # the combined field element (numeric)
    sealed_records: list[tuple[str, str]] | None = None  # (sender, blob hex)
    plan_mix: dict[str, int] = field(default_factory=dict)
    records_examined: int = 0
    messages: int = 0
    bytes: int = 0
    reasks: int = 0
    recovery_rounds: int = 0
    outcome: str = OUTCOME_ABANDONED
    failure: str | None = None
    completed_at: int = 0
    # Every payload the untrusted side saw, verbatim.
    coordinator_view: list[Any] = field(default_factory=list)
    # Tree shape and the ROOT's own share of the wire traffic
    # (``messages``/``bytes`` are always the whole-tree totals). Zero
    # when the coordinator's children are the cells themselves.
    regions: int = 0
    root_messages: int = 0
    root_bytes: int = 0
    # Wall-clock seconds spent in the root's OWN code (fan-out,
    # handlers, deadlines) — excludes region and cell work, so it is
    # the honest numerator for the per-cell sub-linearity claim.
    root_wall_seconds: float = 0.0

    @property
    def partial(self) -> bool:
        return self.outcome == OUTCOME_PARTIAL

    @property
    def abandoned(self) -> bool:
        return self.outcome == OUTCOME_ABANDONED


#: What a REC_DONE record journals of a result, in field order.
_RESULT_FIELDS = tuple(
    entry.name for entry in dataclasses.fields(FedQueryResult))

_PENDING = "pending"
_DEMOTED = "demoted"


class _RunState:
    """Mutable per-query bookkeeping (one instance per run).

    ``children`` are whom this level ships to and hears from — the
    roster's cells themselves, or the regional coordinators at the
    tree's root — and key ``status``, ``attempts``, ``payloads``,
    ``masks`` and ``mask_attempts``. ``roster``, ``leaves`` and
    ``missing`` always name cells.
    """

    def __init__(self, tag: str, spec: FedQuerySpec, roster: list[str],
                 round_tag: str, neighbors: int | None,
                 children: list[str] | None = None) -> None:
        self.tag = tag
        self.spec = spec
        self.roster = roster
        self.round_tag = round_tag
        self.neighbors = neighbors
        self.children = roster if children is None else children
        self.status: dict[str, str] = dict.fromkeys(self.children, _PENDING)
        self.pending = len(self.status)  # children still _PENDING
        self.attempts: dict[str, int] = dict.fromkeys(self.children, 1)
        # cell -> the collect status it reported. A cell with no entry
        # once every child is resolved was demoted — by itself, or with
        # its whole region.
        self.leaves: dict[str, str] = {}
        # OK child -> {"masked": element} (numeric) or
        # {"count": n, "sealed": [(sender, blob hex), ...]} (records).
        self.payloads: dict[str, dict[str, Any]] = {}
        self.plan_mix: dict[str, int] = {}
        self.examined = 0
        self.reasks = 0
        self.messages = 0  # this level's OWN traffic, both directions
        self.bytes = 0
        # What the children billed below this level (zero over cells).
        self.sub_messages = 0
        self.sub_bytes = 0
        self.sub_reasks = 0
        self.view: list[Any] = []
        self.phase = "collect"
        self.masks: dict[str, int] = {}
        self.mask_attempts: dict[str, int] = {}
        self.missing: list[str] = []
        self.recovery_rounds = 0
        self.started_at = 0
        self.deadline_handle = None
        self.result: FedQueryResult | None = None
        # Phases already reported to the fault plane (crash triggers
        # are per-query, once per phase).
        self.phases_seen: set[str] = set()
        # A child's journaled report of unrecoverable masks: the query
        # must be abandoned — also after a restart, when the report
        # beat the crash to the journal.
        self.failed: str | None = None
        # The plan every child is sent when it does not depend on the
        # child (built lazily, so a state rebuilt from the journal
        # rebuilds it on its first re-ask).
        self.plan: dict[str, Any] | None = None

    def resolved(self, child: str) -> bool:
        return self.status[child] != _PENDING

    def resolve(self, child: str, status: str) -> None:
        """Record ``child``'s terminal collect status — the one place
        ``status`` is written, so ``pending`` stays its count."""
        if self.status[child] == _PENDING:
            self.pending -= 1
        self.status[child] = status

    def collected(self) -> bool:
        return self.pending == 0

    def ok_children(self) -> list[str]:
        return [
            child for child in self.children
            if self.status[child] == STATUS_OK
        ]

    def participants(self) -> list[str]:
        return [
            name for name in self.roster
            if self.leaves.get(name) == STATUS_OK
        ]

    def masked(self) -> list[int]:
        """The OK children's masked elements (or masked shard sums)."""
        return [
            self.payloads[child]["masked"] for child in self.ok_children()
        ]

    def released(self) -> tuple[int, list[tuple[str, str]]]:
        """Record count and sealed batches the OK children released."""
        ok = self.ok_children()
        return (
            sum(self.payloads[child]["count"] for child in ok),
            [
                (sender, blob) for child in ok
                for sender, blob in self.payloads[child]["sealed"]
            ],
        )


class Coordinator:
    """Runs federated queries over a roster of cell endpoints.

    One journalled state machine — ship, collect deadline, re-ask,
    demote, settle, recover, mask re-ask, finish, finalize, plus crash,
    restart, replay and resume — parameterised over its *children*.
    Here a child is a cell. The coordinator tree
    (:mod:`~repro.fedquery.hierarchy`) reuses the machine at both of
    its levels by overriding only the edges where a level differs:
    the message a child is sent (:meth:`_plan_for`,
    :meth:`_recover_for`), how its reply is journalled and folded
    (:meth:`_partial_record`/:meth:`_fold_partial`,
    :meth:`_mask_record`/:meth:`_fold_mask`), what precedes a re-ask
    (:meth:`_before_reask`), whom recovery waits on and how it ends
    (:meth:`_recover_targets`, :meth:`_masks_complete`,
    :meth:`_mask_recovery_failed`), and what it calls things — the
    names below, :meth:`_label`, :meth:`_where`,
    :meth:`_announce_demotion`. Every door into a coordinator's own
    code from outside passes :meth:`_entered`.
    """

    # What this level calls things. The pins and the tracked benches
    # read these names, so each level keeps its own.
    _TAG = "fq"  # run() tags: fq<n>|recipient|purpose
    _EVENTS = "fedquery"  # span and event names
    _REASK_STREAM = "fedquery.reask"  # retry jitter, one stream per address
    _PARTIAL, _MASK = MSG_PARTIAL, MSG_MASK  # the replies children send

    def __init__(
        self,
        world: World,
        network: Network,
        *,
        address: str = "fq-coordinator",
        retry_policy: RetryPolicy | None = None,
        collect_timeout_s: int = 30,
        recovery_timeout_s: int = 30,
        neighbors: int | None = None,
        latency_ms: float = 5.0,
        bandwidth_bytes_per_s: float = 1e9,
        journal: QueryJournal | None = None,
        horizon_slack_s: int = 0,
    ) -> None:
        if collect_timeout_s < 1 or recovery_timeout_s < 1:
            raise ConfigurationError("timeouts must be at least 1 s")
        self.world = world
        self.network = network
        self.address = address
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_delay_s=2.0, multiplier=2.0,
            max_delay_s=30.0, jitter=0.1,
        )
        self.collect_timeout_s = collect_timeout_s
        self.recovery_timeout_s = recovery_timeout_s
        self.neighbors = neighbors
        # The write-ahead journal survives a crash (the coordinator's
        # one piece of durable state); extra horizon slack lets tests
        # that crash/restart by hand still finish inside run()'s bound.
        self.journal = journal if journal is not None else QueryJournal()
        self.horizon_slack_s = horizon_slack_s
        self._crashed = False
        self._retry_rng = world.rng(f"{self._REASK_STREAM}.{address}")
        self._sequence = 0
        self._active: dict[str, _RunState] = {}
        # tag -> terminal result: the reply channel to the querier. It
        # outlives _RunState rebuilds, so run() reads results here.
        self._results: dict[str, FedQueryResult] = {}
        self._running: str | None = None  # the tag run() is waiting on
        network.register(
            address, self._entered(self._on_message),
            latency_ms=latency_ms,
            bandwidth_bytes_per_s=bandwidth_bytes_per_s,
        )
        if network.fault_injector is not None:
            network.fault_injector.register_crashable(self)
        self._events = world.obs.events
        self._tracer = world.obs.tracer
        self._instruments(world.obs.metrics)
        self.journal.gauge = world.obs.metrics.gauge(
            "journal.bytes", help="write-ahead journal size (text bytes)",
            labelnames=("coordinator",)).labels(coordinator=address)
        self.journal.gauge.set(self.journal.bytes)

    # -- what this level calls things, and who times it ------------------------

    def _instruments(self, metrics: Any) -> None:
        self._plans_metric = metrics.counter(
            "fedquery.plans", help="query plans shipped to cells")
        self._bytes_metric = metrics.counter(
            "fedquery.bytes", help="coordinator wire bytes, both directions")
        self._reasks_metric = metrics.counter(
            "fedquery.reasks", help="straggler re-asks sent")
        self._demotions_metric = metrics.counter(
            "fedquery.demotions", help="cells demoted after the retry budget")
        self._partials_metric = metrics.counter(
            "fedquery.partials", help="cell partials received",
            labelnames=("status",))
        self._queries_metric = metrics.counter(
            "fedquery.queries", help="federated queries by terminal outcome",
            labelnames=("outcome",))

    def _label(self, what: str, state: _RunState,
               child: str | None = None) -> str:
        """The loop-callback label of a run's deadline, or of one
        child's re-ask. Tracers match on these spellings."""
        return f"fq {what} {state.tag if child is None else child}"

    def _where(self, state: _RunState) -> dict[str, Any]:
        """Span and event attributes placing this level in the tree:
        a region's index, the root's region count, nothing here."""
        return {}

    def _announce_demotion(self, state: _RunState, child: str) -> None:
        self._events.emit("fedquery.demote", tag=state.tag, cell=child,
                          attempts=state.attempts[child])

    def _entered(self, door: Any) -> Any:
        """Hook: every door into this coordinator's own code from
        outside — the launch, the network handler, loop callbacks, the
        restart replay — is passed through here before it is handed
        out. The tree's root times them."""
        return door

    # -- public API ------------------------------------------------------------

    def run(self, spec: FedQuerySpec, roster: list[str], *,
            round_tag: str | None = None) -> FedQueryResult:
        """Execute ``spec`` across ``roster`` and drive the loop to done.

        ``roster`` is the full masking roster in a fixed order every
        cell will see; offline or unresponsive members are handled by
        the re-ask/demote/recover machinery, not by the caller.
        """
        tag = self._running = self._entered(self._launch)(
            spec, roster, round_tag)
        self.world.loop.run_until(self.world.now + self._horizon_s())
        self._running = None
        # Read the reply channel, not the state object: a crash and
        # restart mid-query rebuilds _RunState from the journal, so the
        # instance _launch created may not be the one that settled.
        result = self._results.pop(tag, None)
        if result is None:
            raise ProtocolError(f"federated query {tag!r} did not settle")
        self._active.pop(tag, None)
        return result

    def _launch(self, spec: FedQuerySpec, roster: list[str],
                round_tag: str | None) -> str:
        """Open a run — journal it, fan it out, arm the collect
        deadline — and return its tag."""
        if not roster:
            raise ConfigurationError("the roster needs at least one cell")
        if len(set(roster)) != len(roster):
            raise ConfigurationError("roster names must be unique")
        self._sequence += 1
        tag = f"{self._TAG}{self._sequence}|{spec.recipient}|{spec.purpose}"
        state = self._new_state(
            tag, spec, list(roster),
            round_tag if round_tag is not None
            else f"{spec.recipient}|{spec.purpose}",
            self.neighbors,
        )
        self._admit(state)
        self._events.emit(
            f"{self._EVENTS}.start", tag=tag, transform=spec.transform,
            roster=len(roster), **self._where(state),
        )
        self._fan_out(state)
        return tag

    def _new_state(self, tag: str, spec: FedQuerySpec, roster: list[str],
                   round_tag: str, neighbors: int | None) -> _RunState:
        """A fresh run state. The tree's root overrides this to make
        its regions, not the cells, the children."""
        return _RunState(tag, spec, roster, round_tag, neighbors)

    def _admit(self, state: _RunState) -> None:
        state.started_at = self.world.now
        self._active[state.tag] = state
        self.journal.append(self._start_record(state))

    def _fan_out(self, state: _RunState) -> None:
        with self._tracer.span(
            f"{self._EVENTS}.fanout", tag=state.tag,
            transform=state.spec.transform, roster=len(state.roster),
            **self._where(state),
        ):
            for child in state.children:
                self._ship(state, child)
        if self._notify_phase(state, "fanout"):
            return  # crashed right after fan-out; restart resumes
        self._arm_collect(state)

    def _arm_collect(self, state: _RunState, suffix: str = "") -> None:
        state.deadline_handle = self.world.loop.schedule_in(
            self.collect_timeout_s,
            self._entered(lambda: self._collect_deadline(state)),
            label=self._label("deadline", state) + suffix,
        )

    def _horizon_s(self) -> int:
        """A safe upper bound on one query's wall time, in sim seconds."""
        backoff = sum(self.retry_policy.worst_case_delays())
        # Two phased deadlines (collect + recovery), each followed by a
        # full retry ladder; 2x covers jitter, message latency and the
        # fault plane's injected delays with a wide margin.
        return int(
            2 * (self.collect_timeout_s + self.recovery_timeout_s
                 + 2 * backoff)
        ) + self._crash_slack_s() + 120

    def _crash_slack_s(self) -> int:
        """Extra horizon covering planned crash downtime plus a fresh
        collect/recovery episode per restart (the ladder restarts with
        the process)."""
        slack = self.horizon_slack_s
        injector = self.network.fault_injector
        if injector is not None and injector.plan.crashes:
            episode = int(
                self.collect_timeout_s + self.recovery_timeout_s
                + 2 * sum(self.retry_policy.worst_case_delays())
            )
            for spec in injector.plan.crashes:
                slack += (spec.restart_after_s or 0) + episode
        return slack

    # -- crash and restart -----------------------------------------------------

    @property
    def crashed(self) -> bool:
        return self._crashed

    def _notify_phase(self, state: _RunState, phase: str) -> bool:
        """Report a phase transition to the fault plane, once per query.

        Returns True when the report triggered a crash of *this*
        endpoint — the caller must drop its stale state and return.
        """
        if phase in state.phases_seen:
            return False
        state.phases_seen.add(phase)
        injector = self.network.fault_injector
        if injector is None:
            return False
        return injector.phase_reached(self.address, phase)

    def crash(self) -> None:
        """Kill the process: lose every in-memory run state, go dark.

        The journal (durable by contract) and the reply channel keep
        their contents; everything else — active states, deadlines,
        retry ladders — dies. In-flight deliveries already scheduled by
        the network die at the handler's crash guard. Children are
        separate processes: they keep running, their replies to the
        dark endpoint are lost, and the resumed run re-asks them.
        """
        if self._crashed:
            return
        self._crashed = True
        for state in self._active.values():
            if state.deadline_handle is not None:
                state.deadline_handle.cancel()
            state.phase = "crashed"  # neutralizes stale loop callbacks
        self._active.clear()
        if self.network.is_online(self.address):
            self.network.set_online(self.address, False)
        self._events.emit(
            "crash.down", address=self.address, journal=len(self.journal),
        )

    def restart(self) -> None:
        """Come back: rebuild every unfinished run from the journal and
        resume it (re-ship to unresolved children, re-arm deadlines).
        Children replay their cached replies bit-for-bit, so resumed
        re-asks are idempotent. No-op unless crashed."""
        if not self._crashed:
            return
        self._crashed = False
        if not self.network.is_online(self.address):
            self.network.set_online(self.address, True)
        self._entered(self._replay_journal)()

    def _replay_journal(self) -> None:
        for tag, records in self.journal.by_tag().items():
            done = next(
                (r for r in records if r["type"] == REC_DONE), None,
            )
            if done is not None:
                # Finished before (or during) the crash: nothing to
                # resume. Republish the journaled result only if
                # someone still waits on it — history nobody will pop
                # would pin a full coordinator_view per finished query.
                if self._awaited(tag) and tag not in self._results:
                    self._results[tag] = self._result_from_wire(
                        done["result"]
                    )
                continue
            if records[0]["type"] == REC_START:
                self._revive(records)

    def _awaited(self, tag: str) -> bool:
        """Does anyone still wait on ``tag``'s result?"""
        return tag == self._running

    def _revive(self, records: list[dict[str, Any]]) -> None:
        """Rebuild one unfinished run from its records and resume it."""
        state = self._restore_state(records[0], records)
        if state.phase == "done":
            return  # already terminal at this level; nothing to resume
        self._active[state.tag] = state
        self._events.emit(
            "crash.recovered", address=self.address, tag=state.tag,
            records=len(records), phase=state.phase,
        )
        self._resume(state)

    def _start_record(self, state: _RunState) -> dict[str, Any]:
        return {
            "type": REC_START, "tag": state.tag,
            "spec": state.spec.to_wire(), "roster": list(state.roster),
            "round_tag": state.round_tag, "neighbors": state.neighbors,
            "sequence": self._sequence, "at": state.started_at,
        }

    def _restore_state(self, start: dict[str, Any],
                       records: list[dict[str, Any]]) -> _RunState:
        state = self._new_state(
            start["tag"], FedQuerySpec.from_wire(start["spec"]),
            list(start["roster"]), start["round_tag"], start["neighbors"],
        )
        state.started_at = int(start.get("at", 0))
        self._sequence = max(self._sequence, int(start.get("sequence", 0)))
        for record in records[1:]:
            kind = record["type"]
            if kind in (REC_PARTIAL, REC_MASK):
                # Outbound ships are not journaled; inbound replies are.
                state.messages += 1
                state.bytes += record.get("size", 0)
                if kind == REC_PARTIAL:
                    self._fold_partial(state, record)
                else:
                    self._fold_mask(state, record)
            elif kind == REC_DEMOTE:
                state.resolve(record["child"], _DEMOTED)
            elif kind == REC_RECOVER:
                state.phase = "recover"
                state.recovery_rounds = 1
                state.missing = list(record["missing"])
        return state

    def _resume(self, state: _RunState) -> None:
        if state.failed:
            self._finalize(state, failure=state.failed)
        elif state.phase != "collect":
            self._ask_masks(state, resumed=True)
        elif state.collected():
            self._settle(state)
        else:
            for child in state.children:
                if not state.resolved(child):
                    state.attempts[child] = 1  # the ladder restarts too
                    self._before_reask(state, child)
                    self._ship(state, child)
            self._arm_collect(state, " (resumed)")

    def _result_from_wire(self, wire: dict[str, Any]) -> FedQueryResult:
        sealed = wire.get("sealed_records")
        if sealed is not None:
            wire = dict(wire, sealed_records=[
                (sender, blob) for sender, blob in sealed
            ])
        return FedQueryResult(**wire)

    # -- fan-out and re-asks ---------------------------------------------------

    def _plan_for(self, state: _RunState, child: str) -> dict[str, Any]:
        """The plan message for one child. Here it does not depend on
        the child: one message object, built and sized once per run
        state, goes to every child and every re-ask. The tree's regions
        override this to ship an O(k) roster *window* instead of the
        full roster, its root to ship a whole shard."""
        if state.plan is None:
            state.plan = plan_message(
                state.tag, state.spec, state.roster, self.address,
                round_tag=state.round_tag, neighbors=state.neighbors,
            )
        return state.plan

    def _recover_for(self, state: _RunState, child: str) -> dict[str, Any]:
        """The recovery request for one child (see :meth:`_plan_for`)."""
        return recover_message(
            state.tag, state.recovery_rounds, state.missing, self.address,
        )

    def _before_reask(self, state: _RunState, child: str) -> None:
        """Hook: a silent child is about to be asked again. The tree's
        root revives a crashed region here."""

    def _ship(self, state: _RunState, child: str) -> None:
        self._plans_metric.inc()
        self._send(state, child, self._plan_for(state, child))

    def _send(self, state: _RunState, child: str,
              message: dict[str, Any]) -> None:
        size = wire_size(message)
        self._bill(state, size)
        try:
            self.network.send(self.address, child, message, size_bytes=size)
        except CellOfflineError:
            pass  # stays unanswered; the deadline's re-ask chain owns it

    def _bill(self, state: _RunState, size: int) -> None:
        state.messages += 1
        state.bytes += size
        self._bytes_metric.inc(size)

    def _collect_deadline(self, state: _RunState) -> None:
        if state.phase != "collect":
            return
        for child in state.children:
            if not state.resolved(child):
                self._reask(state, child)

    def _reask(self, state: _RunState, child: str) -> None:
        if state.phase != "collect" or state.resolved(child):
            return
        handle = schedule_retry(
            self.world, self.retry_policy, state.attempts[child],
            self._entered(lambda: self._reask(state, child)),
            rng=self._retry_rng, label=self._label("reask", state, child),
        )
        if handle is None:
            self._demote(state, child)
            return
        state.attempts[child] += 1
        state.reasks += 1
        self._reasks_metric.inc()
        self._before_reask(state, child)
        self._ship(state, child)

    def _demote(self, state: _RunState, child: str) -> None:
        # None of a demoted child's contributions entered the combine:
        # its cells become missing, and only the mask edges they share
        # with survivors need recovery (the missing list handles that).
        self.journal.append({
            "type": REC_DEMOTE, "tag": state.tag, "child": child,
        })
        if state.phase != "collect":
            return  # the journal hook crashed us mid-append
        state.resolve(child, _DEMOTED)
        self._demotions_metric.inc()
        self._announce_demotion(state, child)
        if state.collected():
            self._settle(state)

    # -- inbound ---------------------------------------------------------------

    def _on_message(self, sender: str, payload: Any) -> None:
        if self._crashed:
            return  # a delivery already in flight when the process died
        if not isinstance(payload, dict):
            return
        state = self._active.get(payload.get("tag"))
        if state is None:
            return
        kind = payload.get("kind")
        if kind == self._PARTIAL:
            self._on_partial(state, payload)
        elif kind == self._MASK:
            self._on_mask(state, payload)

    def _on_partial(self, state: _RunState, message: dict[str, Any]) -> None:
        child = message["from"]
        if state.phase != "collect" or child not in state.status \
                or state.resolved(child):
            return  # duplicate, late (post-demotion), or off-roster
        if self._notify_phase(state, "collect"):
            return  # crashed mid-collect: this delivery dies unrecorded
        record = self._partial_record(state, message)
        self.journal.append(record)
        if state.phase != "collect":
            return  # the journal hook crashed us mid-append
        self._bill(state, record["size"])
        self._fold_partial(state, record)
        self._partials_metric.labels(status=state.status[child]).inc()
        if state.collected():
            self._settle(state)

    def _partial_record(self, state: _RunState,
                        message: dict[str, Any]) -> dict[str, Any]:
        """The journal record for a child's collect reply — everything
        :meth:`_fold_partial` needs, live or replayed."""
        status = message["status"]
        return {
            "type": REC_PARTIAL, "tag": state.tag, "from": message["from"],
            "status": status,
            "payload": message["payload"] if status == STATUS_OK else None,
            "plan": message.get("plan"),
            "examined": message.get("examined", 0),
            "size": wire_size(message),
        }

    def _fold_partial(self, state: _RunState,
                      record: dict[str, Any]) -> None:
        """Fold one journalled collect reply into the run state."""
        child, status = record["from"], record["status"]
        state.resolve(child, status)
        state.leaves[child] = status
        if status != STATUS_OK:
            return
        payload = record["payload"]
        state.view.append(payload)
        if not state.spec.numeric:
            blob = payload["blob"]
            payload = {
                "count": payload["count"],
                "sealed": [(child, blob)] if blob is not None else [],
            }
        state.payloads[child] = payload
        plan = record["plan"]
        state.plan_mix[plan] = state.plan_mix.get(plan, 0) + 1
        state.examined += record["examined"]

    def _on_mask(self, state: _RunState, message: dict[str, Any]) -> None:
        child = message["from"]
        if state.phase != "recover" or child in state.masks:
            return
        targets = self._recover_targets(state)
        if child not in targets:
            return
        record = self._mask_record(state, message)
        self.journal.append(record)
        if state.phase != "recover":
            return  # the journal hook crashed us mid-append
        self._bill(state, record["size"])
        self._fold_mask(state, record)
        if state.failed:
            self._finalize(state, failure=state.failed)
        elif len(state.masks) == len(targets):
            self._masks_complete(state)

    def _mask_record(self, state: _RunState,
                     message: dict[str, Any]) -> dict[str, Any]:
        """The journal record for a child's recovery reply."""
        return {
            "type": REC_MASK, "tag": state.tag, "from": message["from"],
            "net_mask": message["net_mask"], "size": wire_size(message),
        }

    def _fold_mask(self, state: _RunState, record: dict[str, Any]) -> None:
        """Fold one journalled recovery reply into the run state."""
        state.masks[record["from"]] = record["net_mask"]
        state.view.append(record["net_mask"])

    # -- settle: combine, recover, finish --------------------------------------

    def _settle(self, state: _RunState) -> None:
        if state.phase != "collect":
            return
        if state.deadline_handle is not None:
            state.deadline_handle.cancel()
        ok = state.participants()
        if not ok:
            self._finalize(state, failure="no-participants")
            return
        if len(ok) < state.spec.min_cohort:
            self._finalize(state, failure="privacy-floor")
            return
        if state.spec.numeric:
            state.missing = [
                name for name in state.roster
                if state.leaves.get(name) != STATUS_OK
            ]
            if not state.missing:
                state.phase = "recover"  # vacuous: nothing to recover
                if self._notify_phase(state, "recover"):
                    return  # restart re-settles from the journal
                self._finish_numeric(state)
                return
            self._start_recovery(state)
        else:
            self._finish_kanon(state)

    def _recover_targets(self, state: _RunState) -> list[str]:
        """The children whose net masks recovery waits on. The tree's
        regions narrow this to ring-relevant survivors."""
        return state.ok_children()

    def _start_recovery(self, state: _RunState) -> None:
        state.phase = "recover"
        state.recovery_rounds = 1
        self.journal.append({
            "type": REC_RECOVER, "tag": state.tag,
            "missing": list(state.missing),
        })
        if self._notify_phase(state, "recover") \
                or state.phase != "recover":
            return  # crashed entering recovery; restart resumes it
        self._events.emit(
            f"{self._EVENTS}.recover", tag=state.tag,
            missing=len(state.missing),
            survivors=len(self._recover_targets(state)),
            **self._where(state),
        )
        self._ask_masks(state)

    def _ask_masks(self, state: _RunState, resumed: bool = False) -> None:
        """Ask every recovery target whose net mask is still missing
        and arm the recovery deadline — or finish, if none is."""
        waiting = [
            child for child in self._recover_targets(state)
            if child not in state.masks
        ]
        if not waiting:
            self._masks_complete(state)
            return
        for child in waiting:
            state.mask_attempts[child] = 1
            if resumed:
                self._before_reask(state, child)
            self._send(state, child, self._recover_for(state, child))
        self.world.loop.schedule_in(
            self.recovery_timeout_s,
            self._entered(lambda: self._recovery_deadline(state)),
            label=self._label("recover deadline", state)
            + (" (resumed)" if resumed else ""),
        )

    def _recovery_deadline(self, state: _RunState) -> None:
        if state.phase != "recover" or state.result is not None:
            return
        for child in self._recover_targets(state):
            if child not in state.masks:
                self._reask_mask(state, child)

    def _reask_mask(self, state: _RunState, child: str) -> None:
        if state.phase != "recover" or state.result is not None \
                or child in state.masks:
            return
        handle = schedule_retry(
            self.world, self.retry_policy, state.mask_attempts[child],
            self._entered(lambda: self._reask_mask(state, child)),
            rng=self._retry_rng,
            label=self._label("mask reask", state, child),
        )
        if handle is None:
            self._mask_recovery_failed(state)
            return
        state.mask_attempts[child] += 1
        state.reasks += 1
        self._reasks_metric.inc()
        self._before_reask(state, child)
        self._send(state, child, self._recover_for(state, child))

    def _masks_complete(self, state: _RunState) -> None:
        """All awaited net masks are in. Hook for the tree's regions."""
        self._finish_numeric(state)

    def _mask_recovery_failed(self, state: _RunState) -> None:
        """A survivor's re-ask budget ran out mid-recovery.

        A child whose value is already in the total cannot reveal its
        masks: the edges it shares with missing cells can never be
        cancelled. Nothing releasable remains. Hook for the tree's
        regions (which report the failure upward instead).
        """
        self._finalize(state, failure="mask-recovery")

    def _finish_numeric(self, state: _RunState) -> None:
        if state.result is not None:
            return
        total = kernels.accumulate(
            state.masked() + list(state.masks.values())
        )
        value = shamir.decode_signed(total) / state.spec.scale
        self._finalize(state, field_total=total, value=value)

    def _finish_kanon(self, state: _RunState) -> None:
        released, sealed = state.released()
        if released < max(state.spec.k, state.spec.min_cohort):
            self._finalize(state, failure="privacy-floor")
            return
        self._finalize(state, sealed_records=sealed)

    def _own_share(self, state: _RunState) -> dict[str, Any]:
        """Result fields a level above other coordinators reports about
        itself, beside the whole-tree totals. None over cells."""
        return {}

    def _finalize(
        self,
        state: _RunState,
        *,
        failure: str | None = None,
        field_total: int | None = None,
        value: float | None = None,
        sealed_records: list[tuple[str, str]] | None = None,
    ) -> None:
        if state.result is not None:
            return
        state.phase = "done"
        counts = {STATUS_OK: 0, STATUS_DECLINED: 0, STATUS_FLOOR: 0}
        demoted = []
        for name in state.roster:
            status = state.leaves.get(name)
            if status in counts:
                counts[status] += 1
            else:
                demoted.append(name)
        reasks = state.reasks + state.sub_reasks
        if failure is not None:
            outcome = OUTCOME_ABANDONED
        elif demoted:
            outcome = OUTCOME_PARTIAL
        else:
            outcome = OUTCOME_COMPLETE
        with self._tracer.span(
            f"{self._EVENTS}.collect", tag=state.tag,
            transform=state.spec.transform,
        ) as span:
            span.annotate(
                outcome=outcome, participants=counts[STATUS_OK],
                demoted=len(demoted), reasks=reasks,
                waited_s=self.world.now - state.started_at,
                **self._where(state),
            )
        self._queries_metric.labels(outcome=outcome).inc()
        self._events.emit(
            f"{self._EVENTS}.settle", tag=state.tag, outcome=outcome,
            participants=counts[STATUS_OK], demoted=len(demoted),
            failure=failure,
        )
        result = FedQueryResult(
            transform=state.spec.transform,
            tag=state.tag,
            roster_size=len(state.roster),
            participants=counts[STATUS_OK],
            declined=counts[STATUS_DECLINED],
            floored=counts[STATUS_FLOOR],
            demoted=demoted,
            value=value,
            field_total=field_total,
            sealed_records=sealed_records,
            plan_mix=state.plan_mix,
            records_examined=state.examined,
            messages=state.messages + state.sub_messages,
            bytes=state.bytes + state.sub_bytes,
            reasks=reasks,
            recovery_rounds=state.recovery_rounds,
            outcome=outcome,
            failure=failure,
            completed_at=self.world.now,
            coordinator_view=state.view,
            **self._own_share(state),
        )
        # Journal the terminal record *before* publishing: a crash
        # between the two republishes from the journal on restart.
        self.journal.append({
            "type": REC_DONE, "tag": state.tag, "outcome": outcome,
            # Shallow: the journal's JSON round-trip copies it anyway.
            "result": {name: getattr(result, name)
                       for name in _RESULT_FIELDS},
        })
        if self._crashed:
            return  # died after the durable record; restart republishes
        state.result = result
        self._results[state.tag] = result


def open_release(
    result: FedQueryResult,
    key: bytes,
    k: int,
    *,
    quasi_identifiers: list[str] | None = None,
    sensitive_attributes: list[str] | None = None,
) -> list[GeneralizedRecord]:
    """Recipient-side: open a ``records-kanon`` release and anonymize.

    The *recipient* holds the fleet's recipient key (the coordinator
    never does); it decrypts each cell's sealed batch, concatenates the
    rows in roster order, and runs the same Mondrian ``k_anonymize``
    the legacy orchestrator ran — by default auto-detecting the
    ``qi_``-prefixed quasi-identifiers exactly as the orchestrator did.

    Raises :class:`~repro.errors.IntegrityError` if any batch fails to
    open — forged, truncated, or not even hex (the coordinator relays
    the blobs): the recipient must treat that as evidence of tampering.
    """
    if result.sealed_records is None:
        raise ProtocolError("result carries no sealed records")
    rows: list[dict[str, Any]] = []
    for _, blob_hex in result.sealed_records:
        rows.extend(gate.open_records(key, blob_hex))
    if not rows:
        raise ProtocolError("release is empty")
    if quasi_identifiers is None:
        quasi_identifiers = sorted(
            name for name in rows[0] if name.startswith("qi_")
        )
    if sensitive_attributes is None:
        sensitive_attributes = sorted(
            name for name in rows[0] if not name.startswith("qi_")
        )
    return k_anonymize(rows, quasi_identifiers, sensitive_attributes, k)
