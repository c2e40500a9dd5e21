"""The write-ahead query journal: what lets a coordinator crash.

The paper parks the coordinator on "highly powerful, highly available
but untrusted infrastructure" — this module makes the *availability*
half earned instead of assumed. The one coordinator state machine
(:class:`~repro.fedquery.coordinator.Coordinator` — and with it every
level that subclasses it: each
:class:`~repro.fedquery.hierarchy.RegionalCoordinator`, the
:class:`~repro.fedquery.hierarchy.HierarchicalCoordinator` root, the
standing coordinator) and keymgmt's ``DirectoryService`` append a
record *before* acting on the event it describes, and on restart
rebuild their run state from the journal alone and resume. The
coordinator folds replayed records through the same edges its live
handlers use. Children's idempotent replies (DP noise drawn once per
query, cells' masks replayed byte-for-byte, regions' shard reports
resent from their own journals) make the resumed re-asks bit-for-bit
safe.

Privacy contract — the journal is **untrusted storage**: it may only
ever hold what already crossed the egress gate. Records carry masked
field elements, net recovery masks, sealed ciphertext blobs, statuses
and wire bookkeeping — the same surface as ``coordinator_view`` — and
never a raw encoding. :func:`journal_elements` extracts every numeric
payload a journal holds so tests can intersect it with the fleet's raw
encodings and assert the intersection is empty.

Records are normalized through JSON on append. That is deliberate, not
cosmetic: replay then reconstructs state only from what a real durable
log would have held (tuples come back as lists, keys as strings, no
live-object aliasing), and a non-serializable payload — the shape a
leak would take — fails loudly at append time, not at restart time.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from ..errors import ProtocolError
from .spec import compact_json

#: Record types shared by the fedquery coordinators. The directory
#: service defines its own small vocabulary; the journal itself is
#: type-agnostic — it only requires ``type`` and ``tag`` fields.
REC_START = "start"
REC_PARTIAL = "partial"
REC_DEMOTE = "demote"
REC_RECOVER = "recover"
REC_MASK = "mask"
REC_REPORT = "report"
REC_MASK_REPORT = "mask_report"
REC_DONE = "done"


class QueryJournal:
    """An append-only, in-memory stand-in for a durable coordinator log.

    ``on_append(index, record)`` is the durability hook: it fires after
    the record is persisted, so a crash raised from inside it models a
    process dying right after the disk write — the record survives,
    everything the handler would have done next is lost. The
    crash-after-every-record property test drives exactly that.
    """

    def __init__(self, on_append: Callable[[int, dict], None] | None = None
                 ) -> None:
        self._records: list[dict[str, Any]] = []
        # tag -> its records, append order: grouped as they are appended,
        # so a revival reads only its own tag's records.
        self._tags: dict[str, list[dict[str, Any]]] = {}
        self.on_append = on_append

    def __len__(self) -> int:
        return len(self._records)

    def append(self, record: dict[str, Any]) -> int:
        """Durably append one record; returns its index."""
        if "type" not in record or "tag" not in record:
            raise ProtocolError("journal records need 'type' and 'tag'")
        try:
            normalized = json.loads(compact_json(record))
        except (TypeError, ValueError) as error:
            raise ProtocolError(
                f"unjournalable record {record.get('type')!r}: {error}"
            ) from error
        index = len(self._records)
        self._records.append(normalized)
        self._tags.setdefault(normalized["tag"], []).append(normalized)
        if self.on_append is not None:
            self.on_append(index, normalized)
        return index

    def records(self) -> list[dict[str, Any]]:
        """A copy of every record, in append order."""
        return list(self._records)

    def of(self, tag: str) -> list[dict[str, Any]]:
        """A copy of ``tag``'s records, in append order."""
        return list(self._tags.get(tag, ()))

    def by_tag(self) -> dict[str, list[dict[str, Any]]]:
        """Records grouped by query tag, append order preserved."""
        return {tag: list(records) for tag, records in self._tags.items()}


def journal_elements(journal: QueryJournal) -> set[int]:
    """Every numeric payload element a journal holds (leakage audit).

    Walks the payload-bearing positions of every known record shape —
    flat partials (``{"masked": ...}``), net recovery masks, shard
    partial sums and shard net sums — so tests can assert the set is
    disjoint from the fleet's raw field encodings, exactly as they do
    for ``coordinator_view``.
    """
    elements: set[int] = set()

    def collect(value: Any) -> None:
        if isinstance(value, bool):
            return
        if isinstance(value, int):
            elements.add(value)
        elif isinstance(value, dict):
            for key in ("masked", "masked_sum", "net_mask", "net_sum"):
                entry = value.get(key)
                if isinstance(entry, int) and not isinstance(entry, bool):
                    elements.add(entry)

    for record in journal.records():
        for key in ("payload", "net_mask", "message", "reply"):
            if key in record:
                collect(record[key])
    return elements
