"""Standing federated queries: durable windowed subscriptions.

The paper's recipients do not ask one-shot questions — a utility wants
the peak-load curve every 15 minutes, an employment agency wants
eligibility counts every reporting period. This module compiles a
:class:`~repro.fedquery.spec.FedQuerySpec` plus a :class:`WindowClause`
(tumbling or sliding, sim-time aligned) into a **durable subscription**:

* Cell side — each subscribed cell runs an *incremental* window over
  the bounded-memory :mod:`repro.streams` operators, fed by its own
  store's scan path. At every window close it re-evaluates its opt-in
  and UCON policy, re-checks the cohort floor, and releases only an
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
``FedQuerySpec`` on the same data. This holds because the incremental
path pushes matched rows through :class:`~repro.streams.operators.
WindowAggregate` in the store's matched order and accumulates
left-to-right from int 0 — exactly ``Aggregate.compute`` — and
requires only that rows are ingested in event-time order (the traffic
generator's contract; see ``docs/fedquery.md``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any

from ..errors import CellOfflineError, ConfigurationError, ProtocolError
from ..store.query import And, Between, Predicate, TruePredicate
from ..streams import Sample, StreamPipeline, WindowAggregate
from .coordinator import Coordinator, FedQueryResult, _RunState
from .journal import REC_DONE
from .spec import MSG_SUB, TRANSFORM_KANON, FedQuerySpec, wire_size

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
    """
    return {
        "kind": MSG_SUB, "tag": tag, "spec": spec.to_wire(),
        "window": window.to_wire(), "roster": list(roster),
        "reply_to": reply_to, "round_base": round_base,
        "neighbors": neighbors,
    }


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
        # Deliveries that beat their window's open event (defensive).
        self._early: dict[str, list[tuple[str, Any]]] = {}
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
        for index in range(sub.window.windows):
            wtag = window_tag(sub.tag, index)
            if index in sub.results or wtag in self._active:
                continue
            _, end_s = sub.window.window_span_s(index)
            self.world.loop.schedule_in(
                max(0, end_s - self.world.now),
                lambda tag=sub.tag, i=index: self._open_window(tag, i),
                label=f"fq window open {wtag}",
            )

    def _open_window(self, sub_tag: str, index: int) -> None:
        if self._crashed:
            return
        sub = self._subscriptions.get(sub_tag)
        if sub is None or index in sub.results:
            return
        wtag = window_tag(sub_tag, index)
        if wtag in self._active:
            return  # re-armed twice across a restart
        state = self._new_state(
            wtag, sub.window.windowed_spec(sub.spec, index),
            list(sub.roster), f"{sub.round_base}|w{index}", sub.neighbors,
        )
        self._admit(state)
        if self._notify_phase(state, "fanout"):
            return  # crashed opening the window; restart re-opens it
        _, end_s = sub.window.window_span_s(index)
        if self.world.now > end_s:
            # Late open (the close slid past during coordinator
            # downtime): pull the window partials instead of waiting
            # for the collect deadline. Subscribed cells replay their
            # cached window delta verbatim; cells that never saw the
            # subscription compute the equivalent one-shot windowed
            # query — the same value bit-for-bit.
            for name in sub.roster:
                self._ship(state, name)
        for sender, payload in self._early.pop(wtag, []):
            super()._on_message(sender, payload)
        if state.phase != "collect":
            return  # an early partial already settled the window
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
    """Install a standing subscription on a cell (MSG_SUB handler)."""
    tag = message["tag"]
    if tag not in agent._standing:  # else a duplicate: already armed
        agent._standing[tag] = _CellSubscription(agent, message)


class _CellSubscription:
    """One cell's incremental runtime for one subscription.

    Holds a :class:`~repro.streams.StreamPipeline` with a single
    :class:`~repro.streams.WindowAggregate` plus an event-time
    watermark: every window close scans only the rows the watermark
    has not covered yet (through the store's normal plan selection —
    the ``Between`` bound rides zone maps and range indexes), pushes
    them through the window operator in matched order, and closes the
    window at its boundary. New rows must be ingested in event-time
    order for the matched order to equal the one-shot query's — the
    documented contract of the standing path.
    """

    def __init__(self, agent: "CellQueryAgent",
                 message: dict[str, Any]) -> None:
        self.agent = agent
        self.tag = tag = message["tag"]
        self.spec = spec = FedQuerySpec.from_wire(message["spec"])
        self.window = window = WindowClause.from_wire(message["window"])
        self.round_base = message["round_base"]
        self.reply_to = message["reply_to"]
        # The masking context every window shares; each close adds its
        # own round tag.
        self._context = {
            "roster": list(message["roster"]),
            "neighbors": message.get("neighbors"),
            "positions": None, "global_size": len(message["roster"]),
        }
        self._watermark_units = window.origin_s // window.field_seconds
        self._pipeline: StreamPipeline | None = None
        if spec.numeric:
            self._pipeline = StreamPipeline([WindowAggregate(
                window.width_s, slide=window.slide,
                aggregate=spec.aggregate, origin=window.origin_s,
            )])
        now = agent.world.now
        for index in range(window.windows):
            _, end_s = window.window_span_s(index)
            agent.world.loop.schedule_in(
                max(0, end_s - now),
                lambda i=index: self.close_window(i),
                label=f"fq window close {tag}|w{index} {agent.name}",
            )

    def close_window(self, index: int) -> None:
        agent = self.agent
        wtag = window_tag(self.tag, index)
        if wtag in agent._partials:
            return  # a coordinator plan re-ask already computed it
        wspec = self.window.windowed_spec(self.spec, index)
        if self.spec.numeric:
            local = partial(self._window_value, index)
        else:
            # Record windows are not incremental: the sealed release is
            # the window's matching rows, bound to the window tag.
            local = partial(agent.source.run_local, wspec)
        # The cell's one egress ladder, re-run at every close: an
        # opt-out or a UCON condition flipping mid-subscription declines
        # from the next window on, the cohort floor is re-checked, and
        # the per-window tags make the masks and the DP draw fresh.
        agent._egress(wtag, wspec, self.reply_to, {
            **self._context, "round_tag": f"{self.round_base}|w{index}",
        }, local)

    def _window_value(self, index: int) -> tuple[float, str, int]:
        """Advance the watermark and close window ``index`` exactly."""
        window = self.window
        start_s, end_s = window.window_span_s(index)
        end_units = end_s // window.field_seconds
        plan, examined = "none", 0
        if end_units > self._watermark_units:
            bounded = Between(
                window.time_field, self._watermark_units, end_units - 1)
            where: Predicate = bounded \
                if isinstance(self.spec.where, TruePredicate) \
                else And(self.spec.where, bounded)
            fetch = dataclasses.replace(
                self.spec, transform=TRANSFORM_KANON, where=where,
                project=None,
            )
            rows, plan, examined = self.agent.source.run_local(fetch)
            pipeline = self._pipeline
            count_all = self.spec.aggregate == "count"
            for row in rows:
                timestamp = int(row[window.time_field]) * window.field_seconds
                if count_all:
                    pipeline.push(Sample(timestamp, 1.0))
                    continue
                value = row.get(self.spec.value_field)
                if isinstance(value, bool) or not isinstance(
                        value, (int, float)):
                    continue  # Aggregate.compute's exact filter
                pipeline.push(Sample(timestamp, float(value)))
            self._watermark_units = end_units
        closed = self._pipeline.close_until(end_s)
        value = next(
            (sample.value for sample in closed
             if sample.timestamp == start_s),
            0.0,  # an empty window is a 0.0 sum/count, like the store
        )
        return value, plan, examined
