"""Standing federated queries: durable windowed subscriptions.

The paper's recipients do not ask one-shot questions — a utility wants
the peak-load curve every 15 minutes, an employment agency wants
eligibility counts every reporting period. This module compiles a
:class:`~repro.fedquery.spec.FedQuerySpec` plus a :class:`WindowClause`
(tumbling or sliding, sim-time aligned) into a **durable subscription**:

* Cell side — each subscribed cell does its standing work once per
  close, not once per tenant: one loop event per distinct close time
  walks the cell's live subscriptions, and all of them read their
  windows off one shared **window feed** per ``(collection,
  time_field, field_seconds)``, which the collection pushes every
  write to as it is ingested — a close reads its feed, never the
  store. Every tenant evaluates its window over those rows the way the
  one-shot query does: numeric tenants with the store's
  ``Aggregate``, record tenants by releasing the matching rows. At
  every window close the cell re-evaluates its opt-in and
  UCON policy, re-checks the cohort floor, and releases only an
  egress-gated *delta*: a masked field element under a **fresh
  per-window round tag** (so mask keystreams never repeat across
  windows, and compose with the keymgmt epoch ratchet), with a fresh
  DP draw per window for ``aggregate-dp``.

* Coordinator side — :class:`StandingCoordinator` opens one collect
  round per window, merges window partials with the full re-ask /
  demote / mask-recovery machinery of the one-shot engine, and
  journals subscription state so standing queries survive coordinator
  crashes: a restart rebuilds every subscription from the journal,
  resumes half-collected windows and opens the windows whose close it
  slept through (cells replay their cached window partials verbatim,
  or compute the equivalent one-shot windowed query — bit-for-bit the
  same value either way).

Bit-for-bit contract: a standing ``aggregate-exact`` subscription's
per-window total equals re-running the equivalent one-shot windowed
``FedQuerySpec`` on the same data. This holds because a close runs
the spec's ``Aggregate.compute`` — the one-shot query's own fold —
over the window's live matched rows in log order, and requires that
rows are ingested in event-time order (the **ordered-ingest
contract**: the traffic generator's; a row that arrives for a window
already closed is counted on ``fedquery.standing.late_rows`` — see
:class:`_WindowFeed` and ``docs/fedquery.md``). What a cell retains
for all of this is bounded by the rows from its lowest reader cursor
up (the feed's **retention bound**), and a subscription's cell runtime
is released with its last window.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any

from ..errors import CellOfflineError, ConfigurationError, ProtocolError
from ..store.catalog import Catalog
from ..store.encoding import Record
from ..store.query import (
    Aggregate,
    And,
    Between,
    Predicate,
    Query,
    TruePredicate,
)
from .coordinator import Coordinator, FedQueryResult, _RunState
from .journal import REC_DONE
from .spec import MSG_SUB, FedQuerySpec, WireMessage, plan_kind, wire_size

if TYPE_CHECKING:
    from .cell import CellQueryAgent

#: Journal record type for a standing subscription's durable state.
REC_SUBSCRIBE = "subscribe"


# -- the window clause -------------------------------------------------------


@dataclass(frozen=True)
class WindowClause:
    """A bounded train of sim-time-aligned windows.

    Window ``i`` spans ``[origin_s + i*slide_s, origin_s + i*slide_s +
    width_s)`` in sim seconds; ``slide_s is None`` means tumbling.
    ``time_field`` names the event-time field of the spec's collection
    and ``field_seconds`` its unit (e.g. a field counting 15-minute
    slots has ``field_seconds=900``) — window boundaries must land on
    whole field units so the windowed predicate is exact.
    """

    width_s: int
    windows: int
    slide_s: int | None = None
    origin_s: int = 0
    time_field: str = "t"
    field_seconds: int = 1

    def __post_init__(self) -> None:
        if self.width_s < 1:
            raise ConfigurationError("window width must be >= 1 s")
        if self.windows < 1:
            raise ConfigurationError("a subscription needs >= 1 window")
        slide = self.width_s if self.slide_s is None else self.slide_s
        if not 1 <= slide <= self.width_s:
            raise ConfigurationError("slide must be in [1 s, width]")
        if self.field_seconds < 1:
            raise ConfigurationError("field_seconds must be >= 1")
        for label, value in (("width_s", self.width_s), ("slide", slide),
                             ("origin_s", self.origin_s)):
            if value % self.field_seconds:
                raise ConfigurationError(
                    f"{label} must be a whole number of field units "
                    f"({self.field_seconds} s each)"
                )

    @property
    def slide(self) -> int:
        return self.width_s if self.slide_s is None else self.slide_s

    def window_span_s(self, index: int) -> tuple[int, int]:
        """Window ``index``'s ``[start, end)`` in sim seconds."""
        start = self.origin_s + index * self.slide
        return start, start + self.width_s

    def window_bounds(self, index: int) -> tuple[int, int]:
        """Inclusive ``[low, high]`` bounds in ``time_field`` units."""
        start, end = self.window_span_s(index)
        return start // self.field_seconds, end // self.field_seconds - 1

    def windowed_spec(self, spec: FedQuerySpec, index: int) -> FedQuerySpec:
        """The one-shot spec equivalent to window ``index``."""
        low, high = self.window_bounds(index)
        bounded = Between(self.time_field, low, high)
        where: Predicate = bounded if isinstance(spec.where, TruePredicate) \
            else And(spec.where, bounded)
        return dataclasses.replace(spec, where=where)

    def to_wire(self) -> dict[str, Any]:
        return {
            "width_s": self.width_s, "windows": self.windows,
            "slide_s": self.slide_s, "origin_s": self.origin_s,
            "time_field": self.time_field,
            "field_seconds": self.field_seconds,
        }

    @classmethod
    def from_wire(cls, data: dict[str, Any]) -> "WindowClause":
        return cls(
            width_s=data["width_s"], windows=data["windows"],
            slide_s=data.get("slide_s"), origin_s=data.get("origin_s", 0),
            time_field=data.get("time_field", "t"),
            field_seconds=data.get("field_seconds", 1),
        )


def sub_message(tag: str, spec: FedQuerySpec, window: WindowClause,
                roster: list[str], reply_to: str, *, round_base: str,
                neighbors: int | None = None) -> dict[str, Any]:
    """The subscription fan-out message.

    ``round_base`` keys the per-window mask keystreams (window ``i``
    masks under ``f"{round_base}|w{i}"``); it must be unique per
    subscription or two tenants sharing a recipient and purpose would
    reuse keystreams across different values.

    Like :func:`~repro.fedquery.spec.plan_message`, the message owns
    its roster as a tuple (a list on the wire), which every subscribed
    cell keeps by reference; read-only.
    """
    return WireMessage({
        "kind": MSG_SUB, "tag": tag, "spec": spec.to_wire(),
        "window": window.to_wire(), "roster": tuple(roster),
        "reply_to": reply_to, "round_base": round_base,
        "neighbors": neighbors,
    })


def window_tag(sub_tag: str, index: int) -> str:
    """The per-window collect tag (one one-shot-shaped run per window)."""
    return f"{sub_tag}|w{index}"


# -- the standing coordinator ------------------------------------------------


@dataclass
class StandingSubscription:
    """The caller-facing handle for one standing query.

    Like ``Coordinator._results``, this object is the reply channel: it
    survives a crash/restart cycle (the journal rebuilds the run state,
    results keep landing here).
    """

    tag: str
    spec: FedQuerySpec
    window: WindowClause
    roster: list[str]
    round_base: str
    neighbors: int | None
    started_at: int
    results: dict[int, FedQueryResult] = field(default_factory=dict)
    #: Per settled window: seconds between the window's end and the
    #: collect settling — 0 on the quiet path, the recovery latency for
    #: windows a crashed coordinator slept through.
    settle_lag_s: dict[int, int] = field(default_factory=dict)
    sub_messages: int = 0
    sub_bytes: int = 0

    @property
    def complete(self) -> bool:
        return len(self.results) == self.window.windows

    def outcomes(self) -> dict[str, int]:
        mix: dict[str, int] = {}
        for result in self.results.values():
            mix[result.outcome] = mix.get(result.outcome, 0) + 1
        return mix


class StandingCoordinator(Coordinator):
    """A coordinator that also serves durable windowed subscriptions.

    Each window of each subscription is one collect round with the full
    one-shot machinery (deadline, re-asks, demotion, mask recovery) —
    the standing layer adds the durable subscription record, the
    per-window scheduling, and crash recovery that re-opens every
    window the downtime swallowed.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._sub_sequence = 0
        self._subscriptions: dict[str, StandingSubscription] = {}
        # window tag -> (subscription tag, window index)
        self._window_of: dict[str, tuple[str, int]] = {}
        # Deliveries that beat their window's open event: a restart in
        # a close's own second can re-arm the open behind the cells'
        # zero-delay partials.
        self._early: dict[str, list[tuple[str, Any]]] = {}
        # Window tags whose open event was armed at or after their
        # close: the cells' partials may have gone to a coordinator
        # that was down, so the open pulls what it has not heard.
        self._late_opens: set[str] = set()
        metrics = self.world.obs.metrics
        self._windows_metric = metrics.counter(
            "fedquery.windows", help="standing windows by terminal outcome",
            labelnames=("outcome",))
        self._subs_metric = metrics.counter(
            "fedquery.subscriptions", help="standing subscriptions opened")

    # -- public API ----------------------------------------------------------

    def subscribe(self, spec: FedQuerySpec, roster: list[str],
                  window: WindowClause, *,
                  round_base: str | None = None) -> StandingSubscription:
        """Open a durable subscription; windows settle as sim time runs.

        Returns immediately — drive the loop (:meth:`drive`, or the
        caller's own ``run_until``) to let windows close and settle.
        """
        if not roster:
            raise ConfigurationError("the roster needs at least one cell")
        if len(set(roster)) != len(roster):
            raise ConfigurationError("roster names must be unique")
        self._sub_sequence += 1
        tag = f"sub{self._sub_sequence}|{spec.recipient}|{spec.purpose}"
        sub = StandingSubscription(
            tag=tag, spec=spec, window=window, roster=list(roster),
            # Defaults to the tag: unique per subscription, so no two
            # tenants ever share a mask keystream.
            round_base=round_base if round_base is not None else tag,
            neighbors=self.neighbors, started_at=self.world.now,
        )
        self.journal.append({
            "type": REC_SUBSCRIBE, "tag": tag, "spec": spec.to_wire(),
            "window": window.to_wire(), "roster": list(roster),
            "round_base": sub.round_base, "neighbors": sub.neighbors,
            "at": sub.started_at, "sub_sequence": self._sub_sequence,
        })
        self._register_subscription(sub)
        self._subs_metric.inc()
        self._events.emit(
            "fedquery.subscribe", tag=tag, transform=spec.transform,
            roster=len(roster), windows=window.windows,
        )
        with self._tracer.span(
            "fedquery.subscribe", tag=tag, roster=len(roster),
            windows=window.windows,
        ):
            message = sub_message(
                tag, spec, window, sub.roster, self.address,
                round_base=sub.round_base, neighbors=sub.neighbors,
            )
            size = wire_size(message)
            for name in sub.roster:
                sub.sub_messages += 1
                sub.sub_bytes += size
                self._bytes_metric.inc(size)
                try:
                    self.network.send(
                        self.address, name, message, size_bytes=size)
                except CellOfflineError:
                    pass  # the window deadline's re-ask chain owns it
        self._arm_windows(sub)
        return sub

    def subscription(self, tag: str) -> StandingSubscription:
        sub = self._subscriptions.get(tag)
        if sub is None:
            raise ProtocolError(f"unknown subscription {tag!r}")
        return sub

    def drive(self, *, slack_s: int = 0) -> None:
        """Run the loop until every subscribed window had time to settle."""
        last_end = self.world.now
        for sub in self._subscriptions.values():
            last_end = max(
                last_end, sub.window.window_span_s(sub.window.windows - 1)[1]
            )
        self.world.loop.run_until(last_end + self._horizon_s() + slack_s)

    # -- window lifecycle -----------------------------------------------------

    def _register_subscription(self, sub: StandingSubscription) -> None:
        self._subscriptions[sub.tag] = sub
        for index in range(sub.window.windows):
            self._window_of[window_tag(sub.tag, index)] = (sub.tag, index)

    def _arm_windows(self, sub: StandingSubscription) -> None:
        now = self.world.now
        for index in range(sub.window.windows):
            wtag = window_tag(sub.tag, index)
            if index in sub.results or wtag in self._active:
                continue
            _, end_s = sub.window.window_span_s(index)
            if end_s <= now:
                self._late_opens.add(wtag)
            self.world.loop.schedule_in(
                max(0, end_s - now),
                lambda tag=sub.tag, i=index: self._open_window(tag, i),
                label=f"fq window open {wtag}",
            )

    def _open_window(self, sub_tag: str, index: int) -> None:
        wtag = window_tag(sub_tag, index)
        late = wtag in self._late_opens
        self._late_opens.discard(wtag)  # a restart arms it again
        if self._crashed:
            return
        sub = self._subscriptions.get(sub_tag)
        if sub is None or index in sub.results:
            return
        if wtag in self._active:
            return  # re-armed twice across a restart
        state = self._new_state(
            wtag, sub.window.windowed_spec(sub.spec, index),
            list(sub.roster), f"{sub.round_base}|w{index}", sub.neighbors,
        )
        self._admit(state)
        if self._notify_phase(state, "fanout"):
            return  # crashed opening the window; restart re-opens it
        for sender, payload in self._early.pop(wtag, []):
            super()._on_message(sender, payload)
        if state.phase != "collect":
            return  # an early partial already settled the window
        if late:
            # Armed at or after the close (the coordinator was down
            # across it): pull the partials not heard yet instead of
            # waiting for the collect deadline. Subscribed cells replay
            # their cached window delta verbatim; cells that never saw
            # the subscription compute the equivalent one-shot windowed
            # query — the same value bit-for-bit.
            for name in sub.roster:
                if not state.resolved(name):
                    self._ship(state, name)
        self._arm_collect(state)

    def _route_result(self, wtag: str) -> None:
        """Move a settled window's result onto its subscription handle."""
        entry = self._window_of.get(wtag)
        if entry is None:
            return  # a one-shot run()'s tag: run() pops it itself
        # Popped before the next early return: a window already routed
        # must not keep a second coordinator_view alive on the reply
        # channel.
        result = self._results.pop(wtag, None)
        if result is None:
            return
        sub_tag, index = entry
        sub = self._subscriptions.get(sub_tag)
        if sub is None or index in sub.results:
            return
        sub.results[index] = result
        _, end_s = sub.window.window_span_s(index)
        sub.settle_lag_s[index] = max(0, result.completed_at - end_s)
        self._active.pop(wtag, None)
        self._windows_metric.labels(outcome=result.outcome).inc()
        self._events.emit(
            "fedquery.window", tag=sub_tag, window=index,
            outcome=result.outcome, lag_s=sub.settle_lag_s[index],
        )

    # -- overrides ------------------------------------------------------------

    def _on_message(self, sender: str, payload: Any) -> None:
        if not self._crashed and isinstance(payload, dict):
            wtag = payload.get("tag")
            entry = self._window_of.get(wtag) if wtag else None
            if entry is not None and wtag not in self._active:
                sub = self._subscriptions.get(entry[0])
                if sub is not None and entry[1] not in sub.results:
                    # Beat the window's open event: hold it back.
                    self._early.setdefault(wtag, []).append((sender, payload))
                    return
        super()._on_message(sender, payload)

    def _finalize(self, state: _RunState, **kwargs: Any) -> None:
        super()._finalize(state, **kwargs)
        if state.tag in self._results:
            self._route_result(state.tag)

    def crash(self) -> None:
        super().crash()
        self._early.clear()

    def _awaited(self, tag: str) -> bool:
        # A window's result is waited on until it sits on its handle.
        sub_tag, index = self._window_of.get(tag, (None, None))
        sub = self._subscriptions.get(sub_tag)
        return super()._awaited(tag) or (
            sub is not None and index not in sub.results)

    def _replay_journal(self) -> None:
        # Subscriptions first: window-tag results republished below
        # need their subscription to route onto. The in-memory handle
        # survives (it is the reply channel); only truly unknown tags
        # are rebuilt from their durable record.
        for records in self.journal.by_tag().values():
            record = next(
                (r for r in records if r["type"] == REC_SUBSCRIBE), None)
            if record is None:
                continue
            self._sub_sequence = max(
                self._sub_sequence, int(record.get("sub_sequence", 0)))
            if record["tag"] in self._subscriptions:
                continue
            self._register_subscription(StandingSubscription(
                tag=record["tag"],
                spec=FedQuerySpec.from_wire(record["spec"]),
                window=WindowClause.from_wire(record["window"]),
                roster=list(record["roster"]),
                round_base=record["round_base"],
                neighbors=record["neighbors"],
                started_at=int(record.get("at", 0)),
            ))
        super()._replay_journal()
        for wtag in [t for t in self._results if t in self._window_of]:
            self._route_result(wtag)
        for sub in self._subscriptions.values():
            self._arm_windows(sub)


# -- the cell-side runtime ---------------------------------------------------


def handle_subscription(agent: "CellQueryAgent",
                        message: dict[str, Any]) -> None:
    """Install a standing subscription on a cell (MSG_SUB handler).
    A window feed is fed by its cell's store: a cell with none behind
    it drops the subscription."""
    if not isinstance(getattr(agent.source, "catalog", None), Catalog):
        agent._dropped("sub-without-store")
        return
    if agent._standing is None:
        agent._standing = _CellStanding(agent)
    agent._standing.install(message)


class _CellStanding:
    """One cell's standing runtime: window feeds, live subscriptions
    and the close ticks that drive them.

    The cell does its standing work once per close time, not once per
    tenant: one loop event per distinct close time (armed lazily — each
    tick arms the next close of every subscription it walked, so a
    cell holds at most one pending event per distinct upcoming close,
    never ``windows x subscriptions``) walks the live subscriptions in
    install order, and all of them read their windows off the shared
    :class:`_WindowFeed` of their ``(collection, time_field,
    field_seconds)``, which holds the rows pushed to it at ingest.

    A subscription's runtime is released when its last window closes;
    a feed goes with its last reader.
    """

    def __init__(self, agent: "CellQueryAgent") -> None:
        self.agent = agent
        self.catalog: Catalog = agent.source.catalog
        # Live subscriptions by tag, in install order.
        self.subscriptions: dict[str, _CellSubscription] = {}
        self.feeds: dict[tuple[str, str, int], _WindowFeed] = {}
        # Close times that already have a loop event pending.
        self._armed: set[int] = set()
        metrics = agent.world.obs.metrics
        self.pulls = metrics.counter(
            "fedquery.standing.feed_pulls",
            help="window-feed backfills from the store by plan kind",
            labelnames=("plan",))
        self.examined = metrics.counter(
            "fedquery.standing.feed_rows_examined",
            help="store records examined by window-feed backfills")
        self.pushed = metrics.counter(
            "fedquery.standing.rows_pushed",
            help="rows window feeds took at ingest")
        self.late = metrics.counter(
            "fedquery.standing.late_rows",
            help="rows that arrived below a feed's floor (trimmed) or "
                 "inside a window a reader had closed (closed)",
            labelnames=("reason",))
        self.consumed = metrics.counter(
            "fedquery.standing.rows_consumed",
            help="feed rows read by subscriptions (before their own "
                 "predicate)")
        self._retained = metrics.gauge(
            "fedquery.standing.feed_rows",
            help="rows retained in a cell's window feeds after a close",
            labelnames=("cell",)).labels(cell=agent.name)

    def install(self, message: dict[str, Any]) -> None:
        tag = message["tag"]
        window = WindowClause.from_wire(message["window"])
        if tag in self.subscriptions or window_tag(
                tag, window.windows - 1) in self.agent._partials:
            # A duplicate (already armed), or late for a subscription
            # whose last window this cell already answered: its runtime
            # was released and every window replays from the cache.
            return
        spec = FedQuerySpec.from_wire(message["spec"])
        key = (spec.collection, window.time_field, window.field_seconds)
        feed = self.feeds.get(key)
        if feed is None:
            feed = self.feeds[key] = _WindowFeed(
                self, spec.collection, window.time_field)
        sub = _CellSubscription(self.agent, message, spec, window, feed)
        self.subscriptions[tag] = sub
        self._arm(sub.next_close_s)

    def _arm(self, close_s: int) -> None:
        at = max(close_s, self.agent.world.now)  # overdue closes run now
        if at in self._armed:
            return
        self._armed.add(at)
        self.agent.world.loop.schedule_at(
            at, partial(self._tick, at),
            label=f"fq window close {self.agent.name} @{at}",
        )

    def _tick(self, at: int) -> None:
        self._armed.discard(at)
        for sub in list(self.subscriptions.values()):
            sub.close_due(at)
            if sub.finished:
                del self.subscriptions[sub.tag]
                sub.feed.readers.remove(sub)
            else:
                self._arm(sub.next_close_s)
        retained = 0
        for key, feed in list(self.feeds.items()):
            if feed.readers:
                retained += feed.trim()
            else:
                feed.release()
                del self.feeds[key]
        self._retained.set(retained)


class _WindowFeed:
    """The live rows of one ``(collection, time_field, field_seconds)``
    that a cell's subscriptions can still need, pushed at ingest.

    The feed's first read backfills it: ONE ``Catalog.query`` of
    ``Between(time_field, floor, None)`` — no tenant predicate, no
    projection, so the plan rides zone maps and range indexes on the
    time field — for the rows already stored. From then on the feed is
    one of the collection's write feeds (:meth:`Collection.add_feed
    <repro.store.catalog.Collection.add_feed>`): every insert, batch
    insert and delete through the collection reaches it once the store
    and the indexes have taken it, so no close reads the store. A
    reader whose range starts below what the feed covers (a
    subscription installed after its first windows ended) extends it
    downward with one more query. A write that goes around the
    collection is not seen, just as the indexes do not see it.

    The feed holds the live rows of time units ``[low, ...)`` by record
    id, in log order (the backfilled rows first, as the store returned
    them): a write of an id it holds replaces that row and moves it to
    the end, as the log does; a delete removes it.

    **Ordered-ingest contract**, checked where rows arrive: a row whose
    time unit is below ``low`` is counted as ``trimmed`` on
    ``fedquery.standing.late_rows`` and not kept; a row inside a window
    some reader has already closed is counted as ``closed`` and kept,
    so every reader that has not closed that window sees it.

    **Retention bound.** :meth:`trim` (after every close tick) drops
    everything below the lowest reader cursor, so the feed holds the
    rows from the lowest reader cursor up to the newest arrival; a
    reader's cursor is the start of its next window.
    """

    def __init__(self, runtime: _CellStanding, collection: str,
                 time_field: str) -> None:
        self.runtime = runtime
        self.collection = collection
        self.time_field = time_field
        self.readers: list[_CellSubscription] = []
        # The lowest time unit the rows cover; None until the first
        # read backfills the feed and it starts listening.
        self.low: int | None = None
        self._above: Between | None = None  # units >= low
        self._below: Between | None = None  # units < low
        self._rows: dict[str, Record] = {}

    def _backfill(self, low: int, high: int | None) -> dict[str, Record]:
        """The stored live rows of time units ``[low, high]``, by id."""
        runtime = self.runtime
        result = runtime.catalog.query(Query(
            self.collection, Between(self.time_field, low, high),
            with_ids=True))
        runtime.pulls.labels(plan=plan_kind(result.plan)).inc()
        runtime.examined.inc(result.records_examined)
        return dict(zip(result.ids, result.rows))

    def _cover(self, low: int) -> None:
        self.low = low
        self._above = Between(self.time_field, low, None)
        self._below = Between(self.time_field, None, low - 1)

    def read(self, low: int, high: int) -> list[Record]:
        """The live rows of time units ``[low, high]`` in log order.
        Returned rows are shared between readers: copy, never mutate."""
        if self.low is None:
            floor = min(low, *(reader.cursor for reader in self.readers))
            self._rows = self._backfill(floor, None)
            self._cover(floor)
            self.runtime.catalog.collection(self.collection).add_feed(self)
        elif low < self.low:
            self._rows = {**self._backfill(low, self.low - 1), **self._rows}
            self._cover(low)
        within = Between(self.time_field, low, high)
        rows = [row for row in self._rows.values() if within.matches(row)]
        self.runtime.consumed.inc(len(rows))
        return rows

    def written(self, record_id: str, record: Record) -> None:
        """A write through the collection (:class:`WriteFeed
        <repro.store.catalog.WriteFeed>`): the feed keeps a snapshot,
        as the store does."""
        rows = self._rows
        rows.pop(record_id, None)
        runtime = self.runtime
        if self._above.matches(record):
            rows[record_id] = dict(record)
            runtime.pushed.inc()
            if any(reader.closed is not None and reader.closed.matches(record)
                   for reader in self.readers):
                runtime.late.labels(reason="closed").inc()
        elif self._below.matches(record):
            runtime.late.labels(reason="trimmed").inc()

    def deleted(self, record_id: str) -> None:
        self._rows.pop(record_id, None)

    def trim(self) -> int:
        """Drop what no reader can still need; returns rows retained."""
        floor = min(reader.cursor for reader in self.readers)
        if self.low is not None and floor > self.low:
            self._cover(floor)
            above = self._above
            self._rows = {record_id: row
                          for record_id, row in self._rows.items()
                          if above.matches(row)}
        return len(self._rows)

    def release(self) -> None:
        """Stop listening: the feed's last reader is gone."""
        if self.low is not None:
            self.runtime.catalog.collection(self.collection).remove_feed(
                self)


class _CellSubscription:
    """One cell's runtime for one subscription: everything that is
    per-(subscription, window) and nothing that can be shared.

    At every close a tenant reads the closing window's rows off the
    feed and keeps those its own ``spec.where`` matches: a numeric
    tenant returns the spec's ``Aggregate.compute`` over them (the
    store's own aggregate, the one the one-shot query runs), a
    ``records-kanon`` tenant the rows, projected. Either way the close
    goes out through ``CellQueryAgent._egress`` under the window's own
    tag and round tag.
    """

    def __init__(self, agent: "CellQueryAgent", message: dict[str, Any],
                 spec: FedQuerySpec, window: WindowClause,
                 feed: _WindowFeed) -> None:
        self.agent = agent
        self.tag = message["tag"]
        self.spec = spec
        self.window = window
        self.feed = feed
        self.round_base = message["round_base"]
        self.reply_to = message["reply_to"]
        # The masking context every window shares; each close adds its
        # own round tag. The roster by reference: ``sub_message`` made
        # it a tuple, and a copy per cell per subscription is O(N²).
        roster = message["roster"]
        self._context = {
            "roster": roster, "neighbors": message.get("neighbors"),
            "positions": None, "global_size": len(roster),
        }
        self._next = 0  # the next window to close
        # The lowest time unit this subscription can still need from
        # the feed: the start of its next window.
        self.cursor = window.origin_s // window.field_seconds
        # The time units of the windows closed so far (None: none yet).
        self.closed: Between | None = None
        # The store's own aggregate, the one the one-shot query runs.
        self._aggregate = (Aggregate(spec.aggregate, spec.value_field)
                           if spec.numeric else None)
        feed.readers.append(self)

    @property
    def finished(self) -> bool:
        return self._next >= self.window.windows

    @property
    def next_close_s(self) -> int:
        return self.window.window_span_s(self._next)[1]

    def close_due(self, now: int) -> None:
        """Close, in order, every window that ended at or before ``now``."""
        while not self.finished and self.next_close_s <= now:
            self._close(self._next)
            self._next += 1

    def _close(self, index: int) -> None:
        agent = self.agent
        wtag = window_tag(self.tag, index)
        if wtag not in agent._partials:  # else a plan re-ask beat the close
            # The cell's one egress ladder, re-run at every close: an
            # opt-out or a UCON condition flipping mid-subscription
            # declines from the next window on, the cohort floor is
            # re-checked, and the per-window tags make the masks and
            # the DP draw fresh. The ladder reads nothing
            # window-dependent off the spec; the window is in ``local``.
            agent._egress(wtag, self.spec, self.reply_to, {
                **self._context, "round_tag": f"{self.round_base}|w{index}",
            }, partial(self._window_local, index))
        # Answered, declined or replayed: no later window reaches below
        # the next window's start, so the feed may let go of it.
        self.cursor = self.window.window_bounds(index + 1)[0]
        self.closed = Between(self.window.time_field,
                              self.window.window_bounds(0)[0],
                              self.window.window_bounds(index)[1])

    def _window_local(self, index: int) -> tuple[Any, str, int]:
        """Window ``index``'s local result, read off the shared feed:
        the spec's aggregate or projection over the window's rows that
        its predicate matches, in log order. Plan ``feed``; examined is
        the window rows read off it."""
        rows = self.feed.read(*self.window.window_bounds(index))
        spec = self.spec
        matched = [row for row in rows if spec.where.matches(row)]
        if self._aggregate is not None:
            return self._aggregate.compute(matched), "feed", len(rows)
        fields = spec.project
        return [
            dict(row) if fields is None
            else {name: row.get(name) for name in fields}
            for row in matched
        ], "feed", len(rows)
