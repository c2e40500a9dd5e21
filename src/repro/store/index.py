"""In-RAM secondary indexes over the embedded store.

Trusted cells "keep locally extended metadata: access information,
indexes, keywords" sufficient "to allow performing queries before
accessing the Cloud". Two index shapes cover the catalog's needs:

* :class:`HashIndex` — equality lookups (keyword, owner, type).
* :class:`OrderedIndex` — range lookups (timestamps, sizes).

Both map a field value to the set/list of record ids holding it and are
maintained incrementally by the catalog. Their RAM footprint is
approximated for budget checks on low-end profiles.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Iterable

from ..errors import QueryError
from .encoding import Value

#: An ordered-index entry ``(value, record_id)``'s sort value: range
#: bounds bisect on it alone, whatever the ids sort as.
_entry_value = itemgetter(0)


class HashIndex:
    """Equality index: value -> set of record ids."""

    def __init__(self, field: str) -> None:
        self.field = field
        self._buckets: dict[Value, set[str]] = {}

    def add(self, record_id: str, value: Value) -> None:
        self._buckets.setdefault(value, set()).add(record_id)

    def add_many(self, entries: Iterable[tuple[str, Value]]) -> None:
        """Bulk insert (batch-ingest path); same result as repeated add."""
        buckets = self._buckets
        for record_id, value in entries:
            bucket = buckets.get(value)
            if bucket is None:
                buckets[value] = {record_id}
            else:
                bucket.add(record_id)

    def remove(self, record_id: str, value: Value) -> None:
        bucket = self._buckets.get(value)
        if bucket is not None:
            bucket.discard(record_id)
            if not bucket:
                del self._buckets[value]

    def lookup(self, value: Value) -> set[str]:
        """Record ids whose field equals ``value`` (possibly empty)."""
        return set(self._buckets.get(value, ()))

    def distinct_values(self) -> list[Value]:
        return list(self._buckets)

    @property
    def entry_count(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    @property
    def ram_bytes(self) -> int:
        """Rough footprint: 48 bytes per posting, 32 per distinct value."""
        return self.entry_count * 48 + len(self._buckets) * 32


class OrderedIndex:
    """Range index: sorted (value, record_id) pairs.

    Values must be mutually comparable (all numeric or all strings for
    a given field); mixing raises :class:`QueryError` at insert time so
    corruption is caught where it happens.
    """

    def __init__(self, field: str) -> None:
        self.field = field
        self._entries: list[tuple[Value, str]] = []

    def add(self, record_id: str, value: Value) -> None:
        if value is None:
            raise QueryError(f"cannot order None value in index on {self.field!r}")
        entry = (value, record_id)
        try:
            position = bisect.bisect_left(self._entries, entry)
        except TypeError as exc:
            raise QueryError(
                f"mixed value types in ordered index on {self.field!r}"
            ) from exc
        self._entries.insert(position, entry)

    def add_many(self, entries: Iterable[tuple[str, Value]]) -> None:
        """Bulk insert: extend then sort once (Timsort), instead of one
        O(n) list-insert per posting.

        This is where batch ingest wins at the catalog layer: repeated
        :meth:`add` is quadratic in batch size, while appending a
        sorted run costs one near-linear merge — and the append-only
        common case (time-series ids arriving in order) short-circuits
        to a plain list extend.
        """
        new: list[tuple[Value, str]] = []
        for record_id, value in entries:
            if value is None:
                raise QueryError(
                    f"cannot order None value in index on {self.field!r}"
                )
            new.append((value, record_id))
        if not new:
            return
        try:
            new.sort()
            if self._entries:
                # one cross-batch probe catches batch-vs-existing type
                # mixes before they corrupt the sorted invariant
                self._entries[-1] < new[0]
        except TypeError as exc:
            raise QueryError(
                f"mixed value types in ordered index on {self.field!r}"
            ) from exc
        if not self._entries:
            self._entries = new
        elif self._entries[-1] <= new[0]:
            self._entries.extend(new)
        else:
            self._entries.extend(new)
            self._entries.sort()

    def remove(self, record_id: str, value: Value) -> None:
        entry = (value, record_id)
        position = bisect.bisect_left(self._entries, entry)
        if position < len(self._entries) and self._entries[position] == entry:
            del self._entries[position]

    def range(
        self,
        low: Value = None,
        high: Value = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[str]:
        """Record ids with ``low <= value <= high`` (bounds optional)."""
        if low is None:
            start = 0
        elif include_low:
            start = bisect.bisect_left(self._entries, low, key=_entry_value)
        else:
            start = bisect.bisect_right(self._entries, low, key=_entry_value)
        if high is None:
            stop = len(self._entries)
        elif include_high:
            stop = bisect.bisect_right(self._entries, high, key=_entry_value)
        else:
            stop = bisect.bisect_left(self._entries, high, key=_entry_value)
        return [record_id for _, record_id in self._entries[start:stop]]

    def minimum(self) -> Value:
        if not self._entries:
            raise QueryError(f"ordered index on {self.field!r} is empty")
        return self._entries[0][0]

    def maximum(self) -> Value:
        if not self._entries:
            raise QueryError(f"ordered index on {self.field!r} is empty")
        return self._entries[-1][0]

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    @property
    def ram_bytes(self) -> int:
        return self.entry_count * 64


def intersect_id_sets(sets: Iterable[set[str]]) -> set[str]:
    """Intersection of candidate id sets, smallest-first for speed."""
    ordered = sorted(sets, key=len)
    if not ordered:
        return set()
    result = set(ordered[0])
    for other in ordered[1:]:
        result &= other
        if not result:
            break
    return result
