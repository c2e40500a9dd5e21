"""The metadata catalog: named collections with declared indexes.

This is the embedded database a trusted cell runs locally. Collections
hold records persisted through the log-structured store; fields can be
declared hash- or range-indexed, and queries route through
:mod:`repro.store.query` with an index-aware planner.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, islice
from operator import lt
from typing import Iterable, Iterator, Protocol

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


class WriteFeed(Protocol):
    """What :meth:`Collection.add_feed` takes: told of each write, by
    collection-local record id, after the store and indexes took it."""

    def written(self, record_id: str, record: Record) -> None:
        """``record`` now stands under ``record_id`` (new or replaced)."""

    def deleted(self, record_id: str) -> None:
        """``record_id`` no longer stands."""


class Collection:
    """One named record collection with optional secondary indexes."""

    def __init__(self, name: str, store: LogStructuredStore) -> None:
        self.name = name
        self._prefix = f"{name}/"
        self._store = store
        self._hash_indexes: dict[str, HashIndex] = {}
        self._ordered_indexes: dict[str, OrderedIndex] = {}
        self._keyword_indexes: dict[str, KeywordIndex] = {}
        self._feeds: list[WriteFeed] = []

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

    # -- write feeds ----------------------------------------------------------

    def add_feed(self, feed: WriteFeed) -> None:
        """Tell ``feed`` of every later write through this collection:
        :meth:`insert`, :meth:`insert_many` and :meth:`delete` call it
        once the store and the indexes have taken the write. A write
        that goes around the collection (straight to the log store)
        reaches no feed, just as it reaches no index."""
        self._feeds.append(feed)

    def remove_feed(self, feed: WriteFeed) -> None:
        self._feeds.remove(feed)

    # -- record lifecycle ---------------------------------------------------

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
        for feed in self._feeds:
            feed.written(record_id, record)

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
        it took (``inserts`` counts them) before the error propagates;
        so do the write feeds.
        """
        prefix = self._prefix
        items = [(prefix + record_id, record) for record_id, record in items]
        store = self._store
        replaced: dict[str, Record] = {}
        live = store.live_ids(full_id for full_id, _ in items)
        if live:  # read in batch order, first occurrence each
            for full_id in dict.fromkeys(
                    full_id for full_id, _ in items if full_id in live):
                replaced[full_id] = store.get(full_id)
        before = store.inserts
        try:
            return store.insert_many(items)
        finally:
            taken = store.inserts - before
            self._index_many(items[:taken], replaced)
            for feed in self._feeds:
                for full_id, record in items[:taken]:
                    feed.written(full_id[len(prefix):], record)

    def _index_many(self, items: list[tuple[str, Record]],
                    replaced: dict[str, Record]) -> None:
        """Bulk index maintenance for records the store has taken;
        ``replaced`` holds the versions they superseded."""
        # Last version per id; an earlier one in the batch was never
        # indexed, so only the stored versions it supersedes are removed.
        pending = dict(items)
        for full_id, previous in replaced.items():
            if full_id in pending:
                self._unindex(full_id, previous)
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
        for feed in self._feeds:
            feed.deleted(record_id)

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
        result = execute(query, partial(self._candidates, collection))
        if result.ids is not None:  # collection-local, as inserted
            start = len(collection._prefix)
            result.ids = [full_id[start:] for full_id in result.ids]
        if self.profile is not None:
            # Abstract CPU accounting: one op per record examined.
            self.profile.cpu_seconds(result.records_examined)
        return result

    def _candidates(self, collection: Collection, predicate: Predicate,
                    ) -> tuple[BatchCandidates, str, int]:
        """``(candidates, plan, flash_reads)`` of ``predicate`` over
        ``collection``: an index's ids fetched, else the blocks a range
        or equality constraint lets the zone maps admit, else all, each
        scan in ``scan_range``'s order (``execute`` re-filters)."""
        store = self.store
        before = store.flash.reads
        ids, plan = collection._candidate_ids(predicate)
        if ids is not None:
            fetched = store.fetch_batches(ids)
        else:
            hint = (collection._range_hint(predicate)
                    if store.zone_maps_enabled else None)
            if hint is not None:
                plan = f"zonemap:{hint[0]}"
            fetched = store.scan_batches(*hint or (None,) * 3,
                                         collection._prefix)
        fetched = list(fetched)
        chunk_ids = [record_ids for record_ids, _ in fetched]
        chunks = [batch for _, batch in fetched]
        # Index plans return rows in ascending id order: when the log
        # does not already hold them that way, execute sorts by the ids.
        by_id = ids is not None and not all(map(
            lt, chain.from_iterable(chunk_ids),
            islice(chain.from_iterable(chunk_ids), 1, None)))
        return (BatchCandidates(chunks, chunk_ids, by_id=by_id), plan,
                store.flash.reads - before)
