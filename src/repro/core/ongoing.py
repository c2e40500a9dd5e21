"""Ongoing usage control: rights re-evaluated *while* they are held.

UCON-ABC distinguishes pre-decisions from **ongoing** decisions:
"obligations (actions a subject must take before **or while** it holds
a right), conditions (environmental ... factors)". A long read — a
movie, a large export — must be interruptible when a condition stops
holding (the time window closes, the device leaves the permitted
location).

:class:`OngoingUse` models this: opening performs the full pre-check
(grant, conditions, mutability — one use is consumed at open), and
every chunk read re-evaluates the *conditions* against the current
context. A failed re-check revokes the stream mid-use, which is
audited as ``stream-revoked``.
"""

from __future__ import annotations

from ..errors import AccessDenied, ConfigurationError
from ..policy.conditions import describe
from .cell import Session, TrustedCell


class OngoingUse:
    """One policy-supervised streaming read."""

    def __init__(
        self,
        cell: TrustedCell,
        session: Session,
        object_id: str,
        chunk_size: int = 4096,
    ) -> None:
        if chunk_size < 1:
            raise ConfigurationError("chunk size must be >= 1")
        self.cell = cell
        self.session = session
        self.object_id = object_id
        self.chunk_size = chunk_size
        self._offset = 0
        self._revoked = False
        self._closed = False
        # The pre-decision: the ordinary monitored read performs grant,
        # condition, mutability and obligation handling, and charges
        # one use. The payload stays inside this handle.
        self._payload = cell.read_object(session, object_id)
        metadata = cell.catalog.collection("objects").get(object_id)
        envelope = cell.envelope_for(object_id)
        _, self._policy = envelope.open(
            cell.tee.keys.key_for(object_id, metadata["version"])
        )
        cell.audit.append(
            cell.world.now, session.subject, object_id, "stream-open", True,
            reason=f"{len(self._payload)} bytes, chunks of {chunk_size}",
        )

    # -- state ----------------------------------------------------------------

    @property
    def revoked(self) -> bool:
        return self._revoked

    @property
    def finished(self) -> bool:
        return self._offset >= len(self._payload)

    @property
    def bytes_delivered(self) -> int:
        return self._offset

    # -- the ongoing decision ---------------------------------------------------

    def _recheck(self) -> None:
        context = self.session.context()  # fresh timestamp/location
        failed = self._policy.failed_condition(context)
        if failed is None:
            return
        self._revoked = True
        self.cell.audit.append(
            self.cell.world.now, context.subject, self.object_id,
            "stream-revoked", False,
            reason=f"ongoing condition failed: {describe(failed)}",
        )
        raise AccessDenied(
            f"ongoing use of {self.object_id!r} revoked: {describe(failed)}"
        )

    def read_chunk(self) -> bytes:
        """The next chunk, after re-evaluating ongoing conditions.

        Returns ``b""`` at end of stream. Raises :class:`AccessDenied`
        (and permanently revokes the handle) if a condition no longer
        holds; already-delivered bytes are not recalled — that is the
        nature of ongoing control.
        """
        if self._revoked or self._closed:
            raise AccessDenied(
                f"stream over {self.object_id!r} is "
                f"{'revoked' if self._revoked else 'closed'}"
            )
        if self.finished:
            return b""
        self._recheck()
        chunk = self._payload[self._offset : self._offset + self.chunk_size]
        self._offset += len(chunk)
        if self.finished:
            self.cell.audit.append(
                self.cell.world.now, self.session.subject, self.object_id,
                "stream-complete", True,
            )
        return chunk

    def read_all(self) -> bytes:
        """Drain the stream (rechecking per chunk)."""
        parts = []
        while True:
            chunk = self.read_chunk()
            if not chunk:
                return b"".join(parts)
            parts.append(chunk)

    def close(self) -> None:
        """Release the handle (idempotent); drops the plaintext."""
        self._closed = True
        self._payload = b""


def open_stream(
    cell: TrustedCell, session: Session, object_id: str, chunk_size: int = 4096
) -> OngoingUse:
    """Open an ongoing-controlled read (free-function entry point)."""
    return OngoingUse(cell, session, object_id, chunk_size)
