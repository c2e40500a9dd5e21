"""Simulated network between cells and the cloud.

Endpoints register a handler under an address; messages are delivered
through the event loop after a latency computed from the sender's
uplink bandwidth and base latency. Endpoints can be taken offline to
model the paper's "weakly available trusted cells"; sends to an offline
endpoint either fail fast or are queued until it returns, at the
sender's choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..errors import CellOfflineError, ConfigurationError, NetworkError
from ..sim.world import World

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.injector import FaultInjector

Handler = Callable[[str, Any], None]  # (sender_address, payload)


@dataclass
class NetworkStats:
    """Cumulative traffic counters (the unit experiment E9 reports).

    ``per_link`` keeps its historical meaning (message counts);
    ``per_link_bytes`` tracks the bytes each directed link carried,
    which is what the E9 traffic tables actually bill.
    """

    messages: int = 0
    bytes: int = 0
    dropped: int = 0
    queued: int = 0
    lost: int = 0  # fault-injected silent losses (sender unaware)
    duplicated: int = 0  # fault-injected duplicate deliveries
    per_link: dict[tuple[str, str], int] = field(default_factory=dict)
    per_link_bytes: dict[tuple[str, str], int] = field(default_factory=dict)

    def record(self, source: str, destination: str, size: int) -> None:
        self.messages += 1
        self.bytes += size
        link = (source, destination)
        self.per_link[link] = self.per_link.get(link, 0) + 1
        self.per_link_bytes[link] = self.per_link_bytes.get(link, 0) + size


#: Outcome strings returned by :meth:`Network.send`.
SEND_SCHEDULED = "scheduled"
SEND_QUEUED = "queued"


@dataclass
class BroadcastReport:
    """Per-destination outcome of one :meth:`Network.broadcast`.

    ``scheduled`` destinations had the message put on the wire (it may
    still be lost by the fault plane — loss is silent by design),
    ``queued`` ones were offline but will receive it when they return,
    ``dropped`` ones were offline and the message was rejected.
    """

    scheduled: list[str] = field(default_factory=list)
    queued: list[str] = field(default_factory=list)
    dropped: list[str] = field(default_factory=list)

    @property
    def offline(self) -> list[str]:
        """Every destination that was offline, queued or not."""
        return self.queued + self.dropped


class Network:
    """A star network: every endpoint can reach every other endpoint.

    Latency model: ``base_latency + size / uplink_bandwidth`` using the
    sender's link parameters (registered per endpoint).
    """

    def __init__(self, world: World) -> None:
        self.world = world
        self._handlers: dict[str, Handler] = {}
        self._online: dict[str, bool] = {}
        self._latency_s: dict[str, float] = {}
        self._bandwidth: dict[str, float] = {}
        self._queues: dict[str, list[tuple[str, Any, int]]] = {}
        self.stats = NetworkStats()
        self.fault_injector: FaultInjector | None = None
        metrics = world.obs.metrics
        self._events = world.obs.events
        self._messages_metric = metrics.counter(
            "net.messages", help="messages delivered")
        self._bytes_metric = metrics.counter(
            "net.bytes", help="payload bytes delivered")
        self._dropped_metric = metrics.counter(
            "net.dropped", help="sends rejected: destination offline")
        self._queued_metric = metrics.counter(
            "net.queued", help="sends parked for an offline destination")
        self._lost_metric = metrics.counter(
            "net.lost", help="messages silently lost by the fault plane")

    def register(
        self,
        address: str,
        handler: Handler,
        latency_ms: float = 20.0,
        bandwidth_bytes_per_s: float = 1e6,
    ) -> None:
        """Attach an endpoint to the network."""
        if address in self._handlers:
            raise ConfigurationError(f"address already registered: {address!r}")
        self._handlers[address] = handler
        self._online[address] = True
        self._latency_s[address] = latency_ms / 1000.0
        self._bandwidth[address] = bandwidth_bytes_per_s
        self._queues[address] = []

    def is_online(self, address: str) -> bool:
        return self._online.get(address, False)

    def set_online(self, address: str, online: bool) -> None:
        """Change endpoint availability; flushes its queue on return.

        Queued messages already paid the sender's transfer time when
        they were first sent, so the flush delivers them in strict
        enqueue order as one zero-delay scheduled event per message —
        re-applying each sender's *current* latency here would let a
        fast sender's late message overtake a slow sender's earlier one.
        """
        if address not in self._handlers:
            raise ConfigurationError(f"unknown address {address!r}")
        was_online = self._online[address]
        self._online[address] = online
        if online and not was_online:
            pending, self._queues[address] = self._queues[address], []
            if pending:
                by_source: dict[str, int] = {}
                for source, _, _ in pending:
                    by_source[source] = by_source.get(source, 0) + 1
                self._events.emit(
                    "network.flush", address=address, count=len(pending),
                    by_source=by_source,
                )
            handler = self._handlers[address]
            for source, payload, size in pending:
                self.stats.record(source, address, size)
                self._messages_metric.inc()
                self._bytes_metric.inc(size)
                self.world.loop.schedule_in(
                    0,
                    lambda h=handler, s=source, p=payload: h(s, p),
                    label=f"flush {source}->{address}",
                )

    def send(
        self,
        source: str,
        destination: str,
        payload: Any,
        size_bytes: int = 0,
        queue_if_offline: bool = False,
    ) -> str:
        """Send ``payload`` from ``source`` to ``destination``.

        ``size_bytes`` drives the latency/traffic accounting (payloads
        are Python objects; their serialized size is declared by the
        protocol layer, which knows it exactly for sealed blobs).
        Returns :data:`SEND_SCHEDULED` or :data:`SEND_QUEUED`.
        """
        if source not in self._handlers:
            raise NetworkError(f"unregistered sender {source!r}")
        if destination not in self._handlers:
            raise NetworkError(f"unregistered destination {destination!r}")
        if not self._online[source]:
            raise CellOfflineError(f"sender {source!r} is offline")
        if not self._online[destination]:
            if queue_if_offline:
                self._queues[destination].append((source, payload, size_bytes))
                self.stats.queued += 1
                self._queued_metric.inc()
                self._events.emit(
                    "network.queue", source=source, destination=destination,
                    size=size_bytes,
                )
                return SEND_QUEUED
            self.stats.dropped += 1
            self._dropped_metric.inc()
            self._events.emit(
                "network.drop", source=source, destination=destination,
                size=size_bytes,
            )
            raise CellOfflineError(f"destination {destination!r} is offline")
        self._deliver(source, destination, payload, size_bytes)
        return SEND_SCHEDULED

    def _deliver(self, source: str, destination: str, payload: Any, size: int) -> None:
        extra_delay = 0
        copies = 1
        injector = self.fault_injector
        if injector is not None:
            decision = injector.link_decision(source, destination, size)
            if decision is not None:
                if decision.drop:
                    # silent loss: the sender already believes it sent;
                    # nothing is billed because nothing reached the wire's
                    # far end (the injector recorded the fault)
                    self.stats.lost += 1
                    self._lost_metric.inc()
                    return
                copies = decision.copies
                extra_delay = decision.extra_delay_s
        transfer_seconds = self._latency_s[source] + (
            size / self._bandwidth[source] if size else 0.0
        )
        delay = max(1, round(transfer_seconds)) if transfer_seconds > 0.5 else 0
        delay += extra_delay
        handler = self._handlers[destination]
        for copy_index in range(copies):
            self.stats.record(source, destination, size)
            self._messages_metric.inc()
            self._bytes_metric.inc(size)
            if copy_index > 0:
                self.stats.duplicated += 1
            self.world.loop.schedule_in(
                delay, lambda: handler(source, payload),
                label=f"msg {source}->{destination}",
            )

    def broadcast(
        self,
        source: str,
        destinations: list[str],
        payload: Any,
        size_bytes: int = 0,
        queue_if_offline: bool = False,
    ) -> BroadcastReport:
        """Send to many endpoints; reports each destination's outcome.

        Offline destinations are *queued* when ``queue_if_offline`` is
        set and *dropped* otherwise — the report distinguishes the two,
        because a queued message still arrives (late) while a dropped
        one never will.
        """
        if source in self._handlers and not self._online[source]:
            raise CellOfflineError(f"sender {source!r} is offline")
        report = BroadcastReport()
        for destination in destinations:
            try:
                outcome = self.send(
                    source, destination, payload, size_bytes,
                    queue_if_offline=queue_if_offline,
                )
            except CellOfflineError:
                report.dropped.append(destination)
                continue
            if outcome == SEND_QUEUED:
                report.queued.append(destination)
            else:
                report.scheduled.append(destination)
        return report
