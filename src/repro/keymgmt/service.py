"""The untrusted-network half of the key lifecycle.

The :class:`KeyDirectory` mutates synchronously inside trusted
hardware; what crosses the untrusted network are *lifecycle notices*:

* ``km.rotate`` — directory -> member: "epoch ``e`` is current, these
  names are excluded". Carries **no key material** (members ratchet
  their chains locally; the notice only tells them when). Broadcast on
  every rotation, join, leave and revocation.
* ``km.ack`` — member -> directory: "I am at epoch ``e``".

A revocation is only *operationally* complete once every remaining
member acknowledged the new epoch — a member still masking at the old
epoch would pair with the revoked cell's stale keys. Under the
``churning`` fault profile members sleep through notices, so the
service re-sends to the unacknowledged remainder on a
:class:`~repro.faults.retry.RetryPolicy` backoff ladder sized to
outlast typical offline windows. The quiet no-fault path stays clean:
first sends land, acks return before the check fires, and no retry
instrument records anything.

The service also journals every pending notice and ack (see
:class:`~repro.fedquery.journal.QueryJournal`) so the rotation and
revocation guarantees survive a directory *service* restart: a crashed
service comes back, rebuilds each unfinished rotation's pending set
from the journal, and re-sends to the unacknowledged remainder. The
trusted :class:`KeyDirectory` itself lives inside trusted hardware and
is not what crashes here — only its untrusted-network front end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import CellOfflineError, ProtocolError
from ..faults.retry import RetryPolicy, schedule_retry
from ..fedquery.journal import QueryJournal
from ..fedquery.spec import wire_size
from ..infrastructure.network import Network
from ..sim.world import World
from .directory import KeyDirectory

DIRECTORY_ADDRESS = "km-directory"

MSG_ROTATE = "km.rotate"
MSG_ACK = "km.ack"

#: Sized against FaultPlan.churning's default 900 s mean offline
#: window: the ladder spans hours of simulated time before giving up.
ROTATION_RETRY = RetryPolicy(
    max_attempts=10, base_delay_s=60.0, multiplier=2.0,
    max_delay_s=1800.0, jitter=0.1,
)


def rotate_message(tag: str, epoch: int, generation: int,
                   revoked: list[str], reason: str) -> dict[str, Any]:
    return {"kind": MSG_ROTATE, "tag": tag, "epoch": epoch,
            "generation": generation, "revoked": sorted(revoked),
            "reason": reason}


def ack_message(tag: str, name: str, epoch: int) -> dict[str, Any]:
    return {"kind": MSG_ACK, "tag": tag, "name": name, "epoch": epoch}


class KeyClient:
    """A member cell's lifecycle endpoint: tracks the current epoch."""

    def __init__(self, world: World, network: Network, name: str, *,
                 directory_address: str = DIRECTORY_ADDRESS,
                 latency_ms: float = 20.0) -> None:
        self.world = world
        self.network = network
        self.name = name
        self.directory_address = directory_address
        self.epoch = 0
        self.excluded: set[str] = set()
        network.register(name, self._on_message, latency_ms=latency_ms)

    def _on_message(self, source: str, payload: dict[str, Any]) -> None:
        if payload.get("kind") != MSG_ROTATE:
            return
        # Notices can arrive duplicated or out of order (fault plane);
        # the epoch is monotone and exclusions only grow.
        self.epoch = max(self.epoch, payload["epoch"])
        self.excluded.update(payload["revoked"])
        ack = ack_message(payload["tag"], self.name, self.epoch)
        try:
            self.network.send(self.name, source, ack,
                              size_bytes=wire_size(ack))
        except CellOfflineError:
            pass  # the retry ladder will re-elicit the ack


@dataclass
class RotationStatus:
    """Progress of one rotation notice across the fleet."""

    tag: str
    epoch: int
    reason: str
    started_at: int
    pending: set[str]
    retry_index: int = 0
    completed_at: int | None = None
    exhausted: bool = False
    acks: int = 0
    revoked: list[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.completed_at is not None


class DirectoryService:
    """Fans lifecycle notices out of a :class:`KeyDirectory`."""

    def __init__(self, world: World, network: Network,
                 directory: KeyDirectory, *,
                 address: str = DIRECTORY_ADDRESS,
                 retry_policy: RetryPolicy = ROTATION_RETRY,
                 ack_timeout_s: int = 120,
                 latency_ms: float = 5.0,
                 journal=None) -> None:
        self.world = world
        self.network = network
        self.directory = directory
        self.address = address
        self.retry_policy = retry_policy
        self.ack_timeout_s = ack_timeout_s
        self.rotations: dict[str, RotationStatus] = {}
        self.journal = journal if journal is not None else QueryJournal()
        self._crashed = False
        self._rng = world.rng(f"keymgmt.service.{address}")
        self._notices = world.obs.metrics.counter(
            "keymgmt.notices", help="lifecycle notices sent",
            labelnames=("kind",))
        self._acks = world.obs.metrics.counter(
            "keymgmt.acks", help="rotation acknowledgements received")
        self._retries = world.obs.metrics.counter(
            "retry.attempts",
            help="re-attempts after transient failures",
            labelnames=("op",))
        network.register(address, self._on_message, latency_ms=latency_ms)
        if network.fault_injector is not None:
            network.fault_injector.register_crashable(self)

    # -- lifecycle entry points -------------------------------------------

    def advance_epoch(self) -> str:
        """Rotate the directory and announce the new epoch."""
        self.directory.advance_epoch()
        return self._announce("rotate", [])

    def revoke(self, name: str) -> str:
        """Revoke ``name`` and announce its exclusion to the remainder.

        Returns the rotation tag; :meth:`exclusion_latency` reports how
        long the fleet took to fully converge on the new epoch.
        """
        self.directory.revoke(name)
        return self._announce("revoke", [name])

    def enroll(self, name: str, ring=None, **kwargs) -> str | None:
        """Enroll through the directory; announces when post-activation."""
        was_active = self.directory.active
        self.directory.enroll(name, ring, **kwargs)
        if was_active:
            return self._announce("join", [])
        return None

    # -- notice fan-out with retry ----------------------------------------

    def _announce(self, reason: str, revoked: list[str]) -> str:
        tag = f"km-{reason}-e{self.directory.epoch}-{len(self.rotations)}"
        status = RotationStatus(
            tag=tag, epoch=self.directory.epoch, reason=reason,
            started_at=self.world.now,
            pending=set(self.directory.roster()),
            revoked=list(revoked),
        )
        if not status.pending:
            raise ProtocolError("no members left to notify")
        # Journal-before-send: a service crash between the directory
        # mutation and the fan-out must still deliver the notice after
        # a restart (the revocation has already happened in hardware).
        self.journal.append({
            "type": "rotation", "tag": tag, "epoch": status.epoch,
            "reason": reason, "revoked": list(revoked),
            "pending": sorted(status.pending), "at": status.started_at,
        })
        if self._crashed:
            return tag  # crashed mid-append; restart resumes the notice
        self.rotations[tag] = status
        with self.world.obs.tracer.span("keymgmt.announce", tag=tag,
                                        reason=reason):
            self._send_round(status)
        self.world.loop.schedule_in(
            self.ack_timeout_s, lambda: self._check(tag),
            label=f"km-ack-check:{tag}")
        return tag

    def _send_round(self, status: RotationStatus) -> None:
        message = rotate_message(status.tag, status.epoch,
                                 self.directory.generation, status.revoked,
                                 status.reason)
        size = wire_size(message)
        for name in sorted(status.pending):
            self._notices.labels(kind=status.reason).inc()
            try:
                self.network.send(self.address, name, message,
                                  size_bytes=size)
            except CellOfflineError:
                pass  # sleeping member; the retry ladder covers it

    def _check(self, tag: str) -> None:
        status = self.rotations.get(tag)
        if status is None or not status.pending:
            return  # resolved, or the state died with a crash
        handle = schedule_retry(
            self.world, self.retry_policy, status.retry_index + 1,
            lambda: self._resend(tag), rng=self._rng,
            label=f"km.rotate:{status.reason}")
        if handle is None:
            status.exhausted = True
            self.journal.append({"type": "exhausted", "tag": tag})
            self.world.obs.events.emit(
                "keymgmt.rotate.exhausted", tag=tag,
                unreachable=sorted(status.pending))
            return
        status.retry_index += 1
        self._retries.labels(op=f"km.rotate:{status.reason}").inc()
        self.world.obs.events.emit(
            "keymgmt.rotate.retry", tag=tag, attempt=status.retry_index,
            unacked=len(status.pending))

    def _resend(self, tag: str) -> None:
        status = self.rotations.get(tag)
        if status is None or not status.pending:
            return  # resolved, or the state died with a crash
        self._send_round(status)
        self.world.loop.schedule_in(
            self.ack_timeout_s, lambda: self._check(tag),
            label=f"km-ack-check:{tag}")

    def _on_message(self, source: str, payload: dict[str, Any]) -> None:
        if self._crashed:
            return  # a delivery already in flight when the service died
        if payload.get("kind") != MSG_ACK:
            return
        status = self.rotations.get(payload["tag"])
        if status is None:
            return
        self.journal.append({
            "type": "ack", "tag": payload["tag"], "name": source,
            "epoch": payload["epoch"],
        })
        if self._crashed:
            return  # the journal hook crashed us mid-append
        self._acks.inc()
        status.acks += 1
        if payload["epoch"] < status.epoch:
            return  # stale ack from a reordered older notice
        status.pending.discard(source)
        if not status.pending and status.completed_at is None:
            status.completed_at = self.world.now
            self.journal.append({
                "type": "complete", "tag": status.tag,
                "at": status.completed_at,
            })
            self.world.obs.events.emit(
                "keymgmt.rotate.complete", tag=status.tag,
                epoch=status.epoch, reason=status.reason,
                latency_s=status.completed_at - status.started_at)

    # -- crash and restart -------------------------------------------------

    @property
    def crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """Kill the service: every in-flight rotation's in-memory state
        dies; the journal (durable by contract) and the trusted
        :class:`KeyDirectory` (hardware-resident) survive."""
        if self._crashed:
            return
        self._crashed = True
        self.rotations.clear()
        if self.network.is_online(self.address):
            self.network.set_online(self.address, False)
        self.world.obs.events.emit(
            "crash.down", address=self.address, journal=len(self.journal))

    def restart(self) -> None:
        """Rebuild every rotation from the journal; re-send to the
        unacknowledged remainder of unfinished ones. The retry ladder
        restarts with the process (``retry_index`` resets) — the
        convergence guarantee is unchanged, only re-dated."""
        if not self._crashed:
            return
        self._crashed = False
        if not self.network.is_online(self.address):
            self.network.set_online(self.address, True)
        self._replay_journal()

    def _replay_journal(self) -> None:
        for tag, records in self.journal.by_tag().items():
            start = records[0]
            if start["type"] != "rotation":
                continue
            status = RotationStatus(
                tag=tag, epoch=int(start["epoch"]), reason=start["reason"],
                started_at=int(start["at"]),
                pending=set(start["pending"]),
                revoked=list(start["revoked"]),
            )
            for record in records[1:]:
                kind = record["type"]
                if kind == "ack":
                    status.acks += 1
                    if record["epoch"] >= status.epoch:
                        status.pending.discard(record["name"])
                elif kind == "complete":
                    status.completed_at = int(record["at"])
                elif kind == "exhausted":
                    status.exhausted = True
            self.rotations[tag] = status
            if not status.pending and status.completed_at is None:
                # The last ack hit the journal but the crash beat the
                # completion record: the fleet *had* converged; re-date
                # the completion to the restart.
                status.completed_at = self.world.now
                self.journal.append({
                    "type": "complete", "tag": tag,
                    "at": status.completed_at,
                })
            if status.complete or status.exhausted:
                continue
            self.world.obs.events.emit(
                "crash.recovered", address=self.address, tag=tag,
                records=len(records), pending=len(status.pending))
            self._send_round(status)
            self.world.loop.schedule_in(
                self.ack_timeout_s, lambda t=tag: self._check(t),
                label=f"km-ack-check:{tag} (resumed)")

    # -- reporting ---------------------------------------------------------

    def exclusion_latency(self, tag: str) -> float | None:
        """Seconds from the announcement to full fleet convergence."""
        status = self.rotations[tag]
        if status.completed_at is None:
            return None
        return float(status.completed_at - status.started_at)
