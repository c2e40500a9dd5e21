"""Background replication for weakly connected cells.

"Some trusted sources being weakly connected to the Internet;
asynchrony problems must also be addressed."

The :class:`Replicator` runs on the simulation event loop: every
``period`` seconds it wakes, samples the cell's connectivity (from its
hardware profile's availability, an explicit override, or a live
``online_check`` such as the network's churn state), and pushes every
envelope whose version is newer than what the vault last saw. It
tracks *staleness* — how long a dirty object waited before reaching
the vault — which is the quantity weak connectivity actually degrades.

Transient cloud failures (the fault plane's
:class:`~repro.errors.TransientCloudError`) never abort a round: the
failed object stays dirty, the rest of the batch still pushes, and —
when a ``retry_policy`` is set — a dedicated backoff retry is scheduled
on the event loop so the object does not have to wait a full period.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..errors import ConfigurationError, TransientCloudError
from ..faults.retry import RetryPolicy
from ..sim.events import EventHandle
from .vault import VaultClient


@dataclass
class ReplicationStats:
    ticks: int = 0
    offline_ticks: int = 0
    objects_pushed: int = 0
    push_failures: int = 0  # transient failures absorbed (object kept dirty)
    deferred_retries: int = 0  # backoff retries scheduled on the loop
    max_staleness: int = 0  # seconds a dirty object waited, worst case


class Replicator:
    """Periodic cell→vault synchronization with availability sampling."""

    def __init__(
        self,
        vault: VaultClient,
        period: int = 3600,
        availability: float | None = None,
        rng: random.Random | None = None,
        retry_policy: RetryPolicy | None = None,
        online_check: Callable[[], bool] | None = None,
        batch: bool = False,
    ) -> None:
        """``online_check`` (when given) replaces the Bernoulli
        availability draw with a live predicate — e.g. the network's
        churned online state for this cell's endpoint — so connectivity
        and the fault plane share one source of truth.

        ``batch=True`` pushes each round's dirty set through
        :meth:`VaultClient.push_many` (one manifest refresh per round
        instead of one per object); failures keep per-object
        bookkeeping, so backoff retries behave as in the unbatched
        path."""
        if period < 1:
            raise ConfigurationError("replication period must be >= 1 second")
        self.vault = vault
        self.cell = vault.cell
        self.period = period
        self.retry_policy = retry_policy
        self.online_check = online_check
        self.batch = batch
        self.availability = (
            availability
            if availability is not None
            else self.cell.profile.availability
        )
        if not 0.0 <= self.availability <= 1.0:
            raise ConfigurationError("availability must be a probability")
        self._rng = rng or self.cell.world.rng(f"replicator:{self.cell.name}")
        self._retry_rng = self.cell.world.rng(
            f"replicator-retry:{self.cell.name}"
        )
        self._pushed_versions: dict[str, int] = {}
        self._dirty_since: dict[str, int] = {}
        self._retry_attempts: dict[str, int] = {}
        self.stats = ReplicationStats()
        self._handle: EventHandle | None = None
        obs = self.cell.world.obs
        self._obs = obs
        self._ticks_metric = obs.metrics.counter(
            "sync.ticks", help="replicator wake-ups",
            labelnames=("outcome",))
        self._pushed_metric = obs.metrics.counter(
            "sync.objects_pushed", help="dirty objects replicated")
        self._failures_metric = obs.metrics.counter(
            "sync.push_failures",
            help="transient push failures absorbed by the replicator")
        self._staleness_metric = obs.metrics.histogram(
            "sync.staleness_seconds",
            help="seconds a dirty object waited before reaching the vault",
            buckets=(60, 300, 900, 3600, 4 * 3600, 24 * 3600, float("inf")),
        )

    # -- dirtiness tracking --------------------------------------------------

    def dirty_objects(self) -> list[str]:
        """Objects whose local version is ahead of the vault's.

        Also prunes ``_dirty_since`` entries whose object no longer
        exists or is no longer dirty (deleted, evicted, or pushed out
        of band before an online tick) — without the prune those
        entries would accumulate forever on churny cells.
        """
        now = self.cell.world.now
        dirty = []
        for object_id, envelope in self.cell._envelopes.items():
            if self._pushed_versions.get(object_id) != envelope.version:
                dirty.append(object_id)
                self._dirty_since.setdefault(object_id, now)
        dirty_set = set(dirty)
        for object_id in list(self._dirty_since):
            if object_id not in dirty_set:
                del self._dirty_since[object_id]
        return sorted(dirty)

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Begin ticking on the world's event loop."""
        if self._handle is not None:
            raise ConfigurationError("replicator already started")
        self._handle = self.cell.world.loop.schedule_every(
            self.period, self.tick, label=f"replicate {self.cell.name}"
        )

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # -- connectivity ----------------------------------------------------------

    def _is_online(self) -> bool:
        if self.online_check is not None:
            return bool(self.online_check())
        return self._rng.random() < self.availability

    # -- one replication round --------------------------------------------------

    def _push_one(self, object_id: str) -> bool:
        """Push one dirty object; returns True on success.

        A transient failure is absorbed: the object stays dirty, the
        failure is counted, and (with a retry policy) a backoff retry
        is scheduled so the object need not wait for the next period.
        """
        try:
            self.vault.push(object_id)
        except TransientCloudError as error:
            self.stats.push_failures += 1
            self._failures_metric.inc()
            self._obs.events.emit(
                "sync.push_failed", cell=self.cell.name,
                object_id=object_id, error=type(error).__name__,
            )
            self._schedule_backoff(object_id)
            return False
        envelope = self.cell._envelopes.get(object_id)
        if envelope is not None:
            self._pushed_versions[object_id] = envelope.version
        self._retry_attempts.pop(object_id, None)
        now = self.cell.world.now
        waited = now - self._dirty_since.pop(object_id, now)
        self.stats.max_staleness = max(self.stats.max_staleness, waited)
        self._staleness_metric.observe(waited)
        return True

    def _push_batch(self, dirty: list[str]) -> tuple[int, int]:
        """Push a round's dirty set in one vault batch; returns
        ``(pushed, failed)`` with the same per-object bookkeeping
        (versions, staleness, backoff scheduling) as the unbatched
        path."""
        report = self.vault.push_many(dirty, raise_on_failure=False)
        now = self.cell.world.now
        for object_id in report.pushed:
            envelope = self.cell._envelopes.get(object_id)
            if envelope is not None:
                self._pushed_versions[object_id] = envelope.version
            self._retry_attempts.pop(object_id, None)
            waited = now - self._dirty_since.pop(object_id, now)
            self.stats.max_staleness = max(self.stats.max_staleness, waited)
            self._staleness_metric.observe(waited)
        for object_id, reason in report.failed.items():
            self.stats.push_failures += 1
            self._failures_metric.inc()
            self._obs.events.emit(
                "sync.push_failed", cell=self.cell.name,
                object_id=object_id, error=reason,
            )
            self._schedule_backoff(object_id)
        return len(report.pushed), len(report.failed)

    def _schedule_backoff(self, object_id: str) -> None:
        if self.retry_policy is None:
            return  # degrade to the next periodic tick
        attempt = self._retry_attempts.get(object_id, 0) + 1
        if attempt >= self.retry_policy.max_attempts:
            # budget exhausted: fall back to the periodic tick; reset so
            # the next tick's failure starts a fresh backoff ladder
            self._retry_attempts.pop(object_id, None)
            self._obs.metrics.counter(
                "retry.exhausted",
                help="retry episodes that gave up after max_attempts",
                labelnames=("op",),
            ).labels(op="sync.push").inc()
            self._obs.events.emit(
                "retry.exhausted", op="sync.push", object_id=object_id,
                attempts=attempt,
            )
            return
        self._retry_attempts[object_id] = attempt
        delay = max(1, round(
            self.retry_policy.delay_for(attempt, self._retry_rng)
        ))
        self.stats.deferred_retries += 1
        self._obs.metrics.counter(
            "retry.attempts",
            help="re-attempts after transient failures",
            labelnames=("op",),
        ).labels(op="sync.push").inc()
        self._obs.events.emit(
            "retry.attempt", op="sync.push", object_id=object_id,
            attempt=attempt + 1, backoff_s=delay,
        )
        self.cell.world.loop.schedule_in(
            delay, lambda: self._retry_push(object_id),
            label=f"retry push {self.cell.name}/{object_id}",
        )

    def _retry_push(self, object_id: str) -> None:
        """A deferred backoff retry for one object (sim-time backoff)."""
        if object_id not in self.dirty_objects():
            self._retry_attempts.pop(object_id, None)
            return  # superseded, deleted, or already pushed by a tick
        if not self._is_online():
            # still disconnected: keep climbing the backoff ladder
            self._schedule_backoff(object_id)
            return
        if self._push_one(object_id):
            self.stats.objects_pushed += 1
            self._pushed_metric.inc()
            self._obs.events.emit(
                "sync.retry_push", cell=self.cell.name, object_id=object_id,
            )

    def tick(self) -> int:
        """One wake-up: push everything dirty if the uplink is up.

        Returns the number of objects pushed this round. Transient
        failures never abort the batch: the failed object stays dirty
        and the remaining objects still push.
        """
        self.stats.ticks += 1
        dirty = self.dirty_objects()
        if not self._is_online():
            self.stats.offline_ticks += 1
            self._ticks_metric.labels(outcome="offline").inc()
            self._obs.events.emit(
                "sync.tick", cell=self.cell.name, outcome="offline",
                dirty=len(dirty),
            )
            return 0
        pushed = 0
        failed = 0
        with self._obs.tracer.span(
            "sync.tick", cell=self.cell.name, dirty=len(dirty)
        ):
            if self.batch and dirty:
                pushed, failed = self._push_batch(dirty)
            else:
                for object_id in dirty:
                    if self._push_one(object_id):
                        pushed += 1
                    else:
                        failed += 1
        self.stats.objects_pushed += pushed
        self._ticks_metric.labels(outcome="online").inc()
        self._pushed_metric.inc(pushed)
        self._obs.events.emit(
            "sync.tick", cell=self.cell.name, outcome="online", pushed=pushed,
            failed=failed,
        )
        return pushed

    @property
    def converged(self) -> bool:
        """True iff the vault holds the newest version of everything."""
        return not self.dirty_objects()
