"""Discrete-event scheduler.

The platform's distributed protocols (sync, secure aggregation, message
delivery with latency) run on a classic event-driven simulation loop:
callbacks are scheduled at absolute simulated timestamps and executed in
timestamp order, with a monotonically increasing sequence number as a
deterministic tie-breaker.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import ConfigurationError
from .clock import SimClock


@dataclass
class _ScheduledEvent:
    timestamp: int
    callback: Callable[[], Any]
    label: str = ""
    cancelled: bool = False


class EventHandle:
    """Handle returned by :meth:`EventLoop.schedule`; allows cancelling."""

    def __init__(self, event: _ScheduledEvent) -> None:
        self._event = event

    def cancel(self) -> None:
        self._event.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def timestamp(self) -> int:
        return self._event.timestamp


class EventLoop:
    """Deterministic discrete-event loop bound to a :class:`SimClock`.

    Events scheduled for the same timestamp run in scheduling order.
    Callbacks may schedule further events, including at the current
    timestamp (which run within the same :meth:`run_until` call).
    """

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        # (timestamp, sequence, event): the sequence is unique, so heap
        # comparisons stay on the two ints and never reach the event.
        self._queue: list[tuple[int, int, _ScheduledEvent]] = []
        self._sequence = 0
        self._events_executed = 0

    @property
    def events_executed(self) -> int:
        """Total callbacks executed; useful as a progress metric."""
        return self._events_executed

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return sum(1 for _, _, event in self._queue if not event.cancelled)

    def schedule_at(
        self, timestamp: int, callback: Callable[[], Any], label: str = ""
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulated ``timestamp``."""
        if timestamp < self.clock.now:
            raise ConfigurationError(
                f"cannot schedule event at {timestamp}, now is {self.clock.now}"
            )
        event = _ScheduledEvent(int(timestamp), callback, label)
        heapq.heappush(self._queue, (event.timestamp, self._sequence, event))
        self._sequence += 1
        return EventHandle(event)

    def schedule_in(
        self, delay: int, callback: Callable[[], Any], label: str = ""
    ) -> EventHandle:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ConfigurationError("delay must be non-negative")
        return self.schedule_at(self.clock.now + int(delay), callback, label)

    def schedule_every(
        self,
        period: int,
        callback: Callable[[], Any],
        label: str = "",
        first_at: int | None = None,
    ) -> EventHandle:
        """Schedule ``callback`` periodically, forever (until cancelled).

        Returns the handle for the *first* occurrence; cancelling it
        stops the whole series (each occurrence re-checks the flag).
        """
        if period <= 0:
            raise ConfigurationError("period must be positive")
        start = self.clock.now + period if first_at is None else first_at
        event = _ScheduledEvent(int(start), lambda: None, label)
        heapq.heappush(self._queue, (event.timestamp, self._sequence, event))
        self._sequence += 1
        handle = EventHandle(event)

        def fire() -> None:
            if handle.cancelled:
                return
            callback()
            if not handle.cancelled:
                self.schedule_at(self.clock.now + period, fire, label)

        event.callback = fire
        return handle

    def run_until(self, timestamp: int, max_events: int | None = None) -> int:
        """Execute all events up to and including ``timestamp``.

        Advances the clock to each event's time, then to ``timestamp``.
        Returns the number of callbacks executed. ``max_events`` guards
        against runaway self-rescheduling loops in tests.
        """
        executed = 0
        while self._queue and self._queue[0][0] <= timestamp:
            entry = heapq.heappop(self._queue)
            event = entry[2]
            if event.cancelled:
                continue
            if max_events is not None and executed >= max_events:
                heapq.heappush(self._queue, entry)
                break
            self.clock.advance_to(event.timestamp)
            event.callback()
            executed += 1
            self._events_executed += 1
        if self.clock.now < timestamp:
            self.clock.advance_to(timestamp)
        return executed

    def run_for(self, seconds: int, max_events: int | None = None) -> int:
        """Execute all events within the next ``seconds`` of simulated time."""
        return self.run_until(self.clock.now + int(seconds), max_events)

    def drain(self, max_events: int = 1_000_000) -> int:
        """Run until the queue is empty (bounded by ``max_events``)."""
        executed = 0
        while self._queue and executed < max_events:
            event = heapq.heappop(self._queue)[2]
            if event.cancelled:
                continue
            self.clock.advance_to(event.timestamp)
            event.callback()
            executed += 1
            self._events_executed += 1
        return executed
