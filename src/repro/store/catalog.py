"""The metadata catalog: named collections with declared indexes.

This is the embedded database a trusted cell runs locally. Collections
hold records persisted through the log-structured store; fields can be
declared hash- or range-indexed, and queries route through
:mod:`repro.store.query` with an index-aware planner.
"""

from __future__ import annotations

from itertools import islice
from operator import lt
from typing import Iterable, Iterator

from ..errors import ConfigurationError, NotFoundError, QueryError
from ..hardware.flash import NandFlash
from ..hardware.profiles import HardwareProfile
from .encoding import Record
from .index import HashIndex, OrderedIndex
from .keywords import KeywordIndex
from .log_store import LogStructuredStore
from .query import (
    And,
    BatchCandidates,
    Between,
    Eq,
    HasKeyword,
    Predicate,
    Query,
    QueryResult,
    execute,
)


class Collection:
    """One named record collection with optional secondary indexes."""

    def __init__(self, name: str, store: LogStructuredStore) -> None:
        self.name = name
        self._store = store
        self._hash_indexes: dict[str, HashIndex] = {}
        self._ordered_indexes: dict[str, OrderedIndex] = {}
        self._keyword_indexes: dict[str, KeywordIndex] = {}

    # -- index management -----------------------------------------------------

    def _rows(self) -> Iterator[tuple[str, Record]]:
        """``(full_id, record)`` over the collection's live records —
        what ``scan()`` yields of them, in its order — decoding no other
        collection's rows: the one walk an index backfill reads."""
        for chunk_ids, batch in self._store.scan_batches(prefix=self._prefix):
            yield from zip(chunk_ids, batch.rows())

    def create_hash_index(self, field: str) -> None:
        """Declare an equality index on ``field`` (backfills existing rows)."""
        if field in self._hash_indexes:
            raise ConfigurationError(f"hash index on {field!r} already exists")
        index = HashIndex(field)
        for record_id, record in self._rows():
            if field in record:
                index.add(record_id, record[field])
        self._hash_indexes[field] = index

    def create_ordered_index(self, field: str) -> None:
        """Declare a range index on ``field`` (backfills existing rows)."""
        if field in self._ordered_indexes:
            raise ConfigurationError(f"ordered index on {field!r} already exists")
        index = OrderedIndex(field)
        for record_id, record in self._rows():
            if record.get(field) is not None:
                index.add(record_id, record[field])
        self._ordered_indexes[field] = index

    def create_keyword_index(self, field: str) -> None:
        """Declare an inverted keyword index on a text ``field``
        (backfills existing rows)."""
        if field in self._keyword_indexes:
            raise ConfigurationError(f"keyword index on {field!r} already exists")
        index = KeywordIndex(field)
        for record_id, record in self._rows():
            if field in record:
                index.add(record_id, record[field])
        self._keyword_indexes[field] = index

    @property
    def indexed_fields(self) -> dict[str, str]:
        """field -> index kind ("hash", "ordered" or "keyword")."""
        kinds = {field: "hash" for field in self._hash_indexes}
        kinds.update({field: "ordered" for field in self._ordered_indexes})
        kinds.update({field: "keyword" for field in self._keyword_indexes})
        return kinds

    @property
    def index_ram_bytes(self) -> int:
        return (
            sum(index.ram_bytes for index in self._hash_indexes.values())
            + sum(index.ram_bytes for index in self._ordered_indexes.values())
            + sum(index.ram_bytes for index in self._keyword_indexes.values())
        )

    # -- record lifecycle ---------------------------------------------------

    @property
    def _prefix(self) -> str:
        return f"{self.name}/"

    def _full_id(self, record_id: str) -> str:
        return self._prefix + record_id

    def insert(self, record_id: str, record: Record) -> None:
        """Insert or replace a record and maintain indexes."""
        full_id = self._full_id(record_id)
        previous = (
            self._store.get(full_id) if self._store.contains(full_id) else None
        )
        self._store.put(full_id, record)  # may refuse: indexes untouched
        if previous is not None:
            self._unindex(full_id, previous)
        self._index(full_id, record)

    def insert_many(self, items: Iterable[tuple[str, Record]]) -> int:
        """Batch insert: one pass through the store's page-coalescing
        ingest plus bulk index maintenance.

        Produces the same flash image and the same final index state as
        the equivalent sequence of :meth:`insert` calls (replacements —
        including intra-batch duplicates — are unindexed exactly as the
        sequential path would), but pays the per-record catalog
        overhead once per batch: ordered indexes extend-and-sort
        instead of insorting each posting. Returns the number of
        records appended to the log. If the store refuses a record
        mid-batch, the indexes still follow exactly the leading records
        it took (``inserts`` counts them) before the error propagates.
        """
        items = [(self._full_id(record_id), record) for record_id, record in items]
        replaced: dict[str, Record] = {}
        for full_id, _ in items:
            if full_id not in replaced and self._store.contains(full_id):
                replaced[full_id] = self._store.get(full_id)
        before = self._store.inserts
        try:
            return self._store.insert_many(items)
        finally:
            self._index_many(items[: self._store.inserts - before], replaced)

    def _index_many(self, items: list[tuple[str, Record]],
                    replaced: dict[str, Record]) -> None:
        """Bulk index maintenance for records the store has taken;
        ``replaced`` holds the versions they superseded."""
        pending: dict[str, Record] = {}
        for full_id, record in items:
            previous = pending.get(full_id, replaced.get(full_id))
            if previous is not None:
                self._unindex(full_id, previous)
            pending[full_id] = record
        for field, index in self._hash_indexes.items():
            index.add_many(
                (full_id, record[field])
                for full_id, record in pending.items()
                if field in record
            )
        for field, index in self._ordered_indexes.items():
            index.add_many(
                (full_id, record[field])
                for full_id, record in pending.items()
                if record.get(field) is not None
            )
        for field, index in self._keyword_indexes.items():
            for full_id, record in pending.items():
                if field in record:
                    index.add(full_id, record[field])

    def get(self, record_id: str) -> Record:
        return self._store.get(self._full_id(record_id))

    def get_many(self, record_ids: list[str]) -> list[Record]:
        """Fetch several records, reading each flash page at most once."""
        return self._store.get_many(
            [self._full_id(record_id) for record_id in record_ids]
        )

    def contains(self, record_id: str) -> bool:
        return self._store.contains(self._full_id(record_id))

    def delete(self, record_id: str) -> None:
        full_id = self._full_id(record_id)
        if not self._store.contains(full_id):
            raise NotFoundError(f"no record {record_id!r} in {self.name!r}")
        self._unindex(full_id, self._store.get(full_id))
        self._store.delete(full_id)

    def _index(self, full_id: str, record: Record) -> None:
        for field, index in self._hash_indexes.items():
            if field in record:
                index.add(full_id, record[field])
        for field, index in self._ordered_indexes.items():
            if record.get(field) is not None:
                index.add(full_id, record[field])
        for field, index in self._keyword_indexes.items():
            if field in record:
                index.add(full_id, record[field])

    def _unindex(self, full_id: str, record: Record) -> None:
        for field, index in self._hash_indexes.items():
            if field in record:
                index.remove(full_id, record[field])
        for field, index in self._ordered_indexes.items():
            if record.get(field) is not None:
                index.remove(full_id, record[field])
        for field, index in self._keyword_indexes.items():
            if field in record:
                index.remove(full_id, record[field])

    def record_ids(self) -> list[str]:
        prefix = self._prefix
        return [
            full_id[len(prefix):]
            for full_id in self._store.record_ids()
            if full_id.startswith(prefix)
        ]

    def __len__(self) -> int:
        return len(self.record_ids())

    # -- planner hooks -----------------------------------------------------------

    def _candidate_ids(
        self, predicate: Predicate,
    ) -> tuple[set[str] | list[str] | None, str]:
        """Candidate full-ids (distinct) from indexes, or (None, "scan")."""
        if (isinstance(predicate, Eq) and predicate.value is not None
                and predicate.field in self._hash_indexes):
            # (``Eq(field, None)`` also matches records without the
            # field, which no index lists.)
            return (
                self._hash_indexes[predicate.field].lookup(predicate.value),
                f"index:{predicate.field}",
            )
        if isinstance(predicate, Between) and predicate.field in self._ordered_indexes:
            try:
                ids = self._ordered_indexes[predicate.field].range(
                    predicate.low, predicate.high
                )
            except TypeError:
                # A bound that cannot be ordered against the entries:
                # no index; the zone-map/scan plan answers (no rows).
                return None, "scan"
            return ids, f"range:{predicate.field}"
        if isinstance(predicate, HasKeyword) and predicate.field in self._keyword_indexes:
            ids = self._keyword_indexes[predicate.field].lookup_all(
                list(predicate.terms)
            )
            return ids, f"keyword:{predicate.field}"
        if isinstance(predicate, And):
            best = None
            for child in predicate.children:
                candidate, plan = self._candidate_ids(child)
                if candidate is None:
                    continue
                if best is None or len(candidate) < len(best[0]):
                    best = (candidate, plan)
            if best is not None:
                return best
        return None, "scan"

    def _range_hint(self, predicate: Predicate) -> tuple[str, object, object] | None:
        """An unindexed range/equality constraint usable for zone-map
        block pruning when the planner would otherwise full-scan."""
        if isinstance(predicate, Between):
            return predicate.field, predicate.low, predicate.high
        if isinstance(predicate, Eq) and predicate.value is not None:
            return predicate.field, predicate.value, predicate.value
        if isinstance(predicate, And):
            # Any child's hint is a valid pre-filter; take the one whose
            # zone maps admit the fewest blocks (ties: the first).
            hints = [
                hint for hint in map(self._range_hint, predicate.children)
                if hint is not None
            ]
            if len(hints) > 1:
                return min(
                    hints, key=lambda hint: self._store.blocks_admitted(*hint))
            return hints[0] if hints else None
        return None


def _index_candidates(fetched) -> BatchCandidates:
    """An index fetch's ``(record_ids, batch)`` chunks as candidates.
    Index plans return rows in ascending id order: when the log does
    not already hold them that way, ``execute`` gets the ids to sort
    by."""
    chunks = []
    ascending = True
    previous = ""
    for chunk_ids, batch in fetched:
        chunks.append(batch)
        ascending = ascending and previous < chunk_ids[0] and all(
            map(lt, chunk_ids, islice(chunk_ids, 1, None)))
        previous = chunk_ids[-1]
    return BatchCandidates(chunks, None if ascending else [
        chunk_ids for chunk_ids, _ in fetched])


class Catalog:
    """A set of collections sharing one flash device and RAM budget."""

    def __init__(
        self,
        flash: NandFlash,
        profile: HardwareProfile | None = None,
        *,
        page_cache_bytes: int | None = None,
        zone_maps: bool = True,
        checkpoint_blocks: int = 0,
        checkpoint_interval_pages: int | None = None,
    ) -> None:
        ram_budget = profile.ram_bytes if profile is not None else None
        self.profile = profile
        self.store = LogStructuredStore(
            flash,
            ram_budget_bytes=ram_budget,
            page_cache_bytes=page_cache_bytes,
            zone_maps=zone_maps,
            checkpoint_blocks=checkpoint_blocks,
            checkpoint_interval_pages=checkpoint_interval_pages,
        )
        self._collections: dict[str, Collection] = {}

    def collection(self, name: str) -> Collection:
        """Get or create the named collection."""
        if "/" in name:
            raise ConfigurationError("collection names cannot contain '/'")
        if name not in self._collections:
            self._collections[name] = Collection(name, self.store)
        return self._collections[name]

    def collections(self) -> list[str]:
        return sorted(self._collections)

    @property
    def ram_bytes(self) -> int:
        """Store RAM (directory, write buffer, zone maps, resident
        cache pages) plus index RAM, for profile budget checks."""
        return self.store.ram_bytes + sum(
            collection.index_ram_bytes for collection in self._collections.values()
        )

    def query(self, query: Query) -> QueryResult:
        """Execute a query against its collection."""
        if query.collection not in self._collections:
            raise QueryError(f"unknown collection {query.collection!r}")
        collection = self._collections[query.collection]
        flash = self.store.flash

        def batch_chunks(field=None, low=None, high=None):
            """The collection's chunks off the columnar scan — its rows,
            in the order ``scan_range`` yields them."""
            return BatchCandidates([
                batch for _, batch in self.store.scan_batches(
                    field, low, high, collection._prefix)])

        def fetch_candidates(predicate: Predicate):
            before = flash.reads
            ids, plan = collection._candidate_ids(predicate)
            if ids is not None:
                candidates = _index_candidates(self.store.fetch_batches(ids))
                return candidates, plan, flash.reads - before
            # No index applies; before surrendering to a full scan, try
            # zone-map block pruning on a range/equality constraint. The
            # pruned scan yields a block-granular superset that
            # execute() re-filters, exactly like index candidates.
            hint = (
                collection._range_hint(predicate)
                if self.store.zone_maps_enabled else None
            )
            if hint is None:
                return None, "scan", 0
            chunks = batch_chunks(*hint)
            return chunks, f"zonemap:{hint[0]}", flash.reads - before

        def fetch_all():
            before = flash.reads
            return batch_chunks(), flash.reads - before

        result = execute(query, fetch_candidates, fetch_all)
        if self.profile is not None:
            # Abstract CPU accounting: one op per record examined.
            self.profile.cpu_seconds(result.records_examined)
        return result
