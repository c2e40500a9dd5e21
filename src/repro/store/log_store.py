"""Log-structured record store over simulated NAND flash.

Embedded secure microcontrollers cannot update flash in place, so the
store is append-only: inserts and deletes are log entries packed into
pages, written strictly sequentially. A RAM-resident directory maps
record ids to their latest log location; compaction rewrites live
records into fresh blocks and erases the old ones. Every operation has
a flash cost visible in the device counters, and the RAM the store
holds is bounded by the profile's budget.

Each store decision is written once:

* **write path** — ``_commit_page`` is the one routine through which a
  data page reaches flash (allocate, sequence, program, cache, summary,
  integrity tag, directory apply, flush counter, checkpoint trigger)
  and ``_apply_entries`` is what a page's entries do to the directory,
  the live counts and the zone map, at commit and at replay alike.
  Those same places record what the next checkpoint delta must carry:
  ``_apply_entries`` (and its ``append_only`` bulk form in
  ``_commit_frame_runs``) the ids it added, replaced or deleted,
  ``_note_page`` and ``_erase_block`` the blocks whose live count or
  zone map moved. The
  single-record API (``put``, ``delete``, compaction) frames entries
  through one appender; the batch API (``insert_many``,
  ``insert_batch``) runs one chunk loop whose one lane decision sends
  a chunk through the columnar frame encoder or through ``put`` — the
  flash image is the same, bit for bit.
* **read path** — one page walk (group the directory by page, zone-map
  prune, pages in order, entries by offset) serves ``scan`` /
  ``scan_range`` (per-record decode, the reference) and one chunk
  decoder (pages through :func:`~repro.store.encoding.decode_page`)
  behind ``scan_batches``, ``fetch_batches`` and ``get_many``, which
  gathers the rows a resident page kept instead of decoding them
  again; one wrapper names record, page, block and offset on any
  decode failure. The write buffer answers from the records it holds.

Around them: an optional bounded LRU page cache (page images and the
rows decoded from them, :mod:`~repro.store.page_cache`), per-block zone maps
(:mod:`~repro.store.zonemap`), and a chain of checkpoint segments (one
base, then deltas that cost what changed) in a reserved region so a
reboot replays only the pages written since the last of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import itemgetter
from struct import Struct
from typing import Iterable, Iterator, Mapping

from ..errors import (
    CapacityError,
    ConfigurationError,
    NotFoundError,
    StorageError,
)
from ..hardware.flash import NandFlash
from ..obs import get_default as _obs_default
from .encoding import (
    COLUMNAR_MIN_BATCH,
    ColumnBatch,
    Record,
    Value,
    decode_page,
    decode_record,
    encode_frame_runs,
    encode_record,
    lane_plan,
    lane_plan_for_batch,
)
from .page_cache import KeptRow, PageCache
from .zonemap import BlockSummary

_ENTRY_INSERT = 1
_ENTRY_DELETE = 2


class _BatchRows:
    """Lazy sequence view over a :class:`ColumnBatch` slice.

    The fused commit only touches individual records at run templates
    and page-tail boundaries (a handful per chunk), so materializing
    rows on demand keeps the batch ingest path free of the per-record
    dict builds the whole lane exists to avoid.
    """

    __slots__ = ("_batch", "_base", "_count")

    def __init__(self, batch: ColumnBatch, base: int, count: int) -> None:
        self._batch = batch
        self._base = base
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, _ = index.indices(self._count)
            return _BatchRows(self._batch, self._base + start, stop - start)
        return self._batch.row(self._base + index)

    def lane_plan(self):
        """:func:`encoding.lane_plan` of these rows, classified from
        the batch's arrays instead of per-record gathers."""
        return lane_plan_for_batch(
            self._batch, self._base, self._base + self._count)


def _kept_rows(batch: ColumnBatch, start: int, end: int) -> list[KeptRow]:
    """Rows ``start:end`` of a decoded batch as the page cache keeps
    them: immutable ``(fields, values)`` pairs, fields sorted like the
    decoders'. A columnar slice is one zip, not a dict per row."""
    names = batch.fields
    if names and not batch.scalar_rows:
        return list(zip(repeat(names), zip(*(
            batch.columns[name][start:end] for name in names))))
    return [(tuple(row), tuple(row.values()))
            for row in map(batch.row, range(start, end))]


def _gathered(rows: list[KeptRow]) -> ColumnBatch:
    """A fresh batch over kept rows: their columns when every row has
    the same fields and there are enough of them for the vector lane to
    pay (the bar :func:`~repro.store.encoding.decode_page` sets), dicts
    built from them otherwise."""
    fields = rows[0][0]
    if len(rows) >= COLUMNAR_MIN_BATCH and all(
            names is fields or names == fields for names, _ in rows):
        return ColumnBatch(len(rows), fields, {
            name: [values[at] for _, values in rows]
            for at, name in enumerate(fields)})
    return ColumnBatch.from_records(
        [dict(zip(names, values)) for names, values in rows])


# Store instruments live on the process-default scope (stores have no
# world). Bind the instruments, not their values: the test fixture
# resets the registry in place between tests.
_OBS = _obs_default()
_FLUSHES = _OBS.metrics.counter(
    "store.flush", help="data pages committed (one flash page program each)")
_COMPACTIONS = _OBS.metrics.counter(
    "store.compaction", help="compaction passes (full or incremental)")
_RECOVERY_PAGES = _OBS.metrics.counter(
    "store.recovery_pages",
    help="log pages replayed rebuilding directories after reboot")
_CHECKPOINTS = _OBS.metrics.counter(
    "store.checkpoints", labelnames=("kind", "reason"),
    help="checkpoint segments written, by kind (base|delta) and why: a "
         "delta is ok; a base is first|half_full|compacted|reboot")
_CHECKPOINT_PAGES = _OBS.metrics.counter(
    "store.checkpoint_pages",
    help="checkpoint-region pages programmed (one flash program each)")
_INGEST_CHUNKS = _OBS.metrics.counter(
    "store.ingest.chunks", labelnames=("lane", "reason"),
    help="batch-ingest chunks by the lane the one lane decision chose "
         "(columnar|scalar) and why (ok|small_batch|no_plan|ram_headroom|"
         "oversize_frame)")
_DECODE_ROWS = _OBS.metrics.counter(
    "store.decode.rows", labelnames=("lane",),
    help="rows the chunk decoder (scans and index fetches) handed out, by "
         "lane: decoded by decode_page (columnar; scalar = rows that fell "
         "back to decode_record) or gathered from the page cache (kept)")
_DECODE_SCALAR = _DECODE_ROWS.labels(lane="scalar")
_DECODE_COLUMNAR = _DECODE_ROWS.labels(lane="columnar")
_DECODE_KEPT = _DECODE_ROWS.labels(lane="kept")

_CKPT_MAGIC = b"\xc4\x4b"
_CKPT_HEADER_BYTES = 16  # magic(2) + id(8) + chunk(2) + total(2) + length(2)
# A checkpoint segment's payload: a base holds the whole state, a delta
# what changed since the segment before it in the chain.
_CKPT_BASE = b"CKP1"
_CKPT_DELTA = b"CKD1"
_CKPT_LOCATION = Struct(">IHH")  # page, offset, length of a directory entry
# A delta's directory entry for an id that is gone: no such page exists.
_CKPT_TOMBSTONE = (0xFFFFFFFF, 0, 0)


@dataclass
class RecoveryStats:
    """What one reboot recovery cost (see :meth:`LogStructuredStore.recover`)."""

    mode: str  # "full" or "checkpoint"
    pages_replayed: int = 0
    checkpoint_pages_read: int = 0
    probe_reads: int = 0
    checkpoint_seq: int = 0
    checkpoint_segments: int = 0  # chain length folded: the base + deltas

    @property
    def total_pages_read(self) -> int:
        return self.pages_replayed + self.checkpoint_pages_read + self.probe_reads


class LogStructuredStore:
    """Append-only record store with id-based lookup.

    Records are ``dict`` field maps (see :mod:`repro.store.encoding`)
    keyed by a caller-supplied string id. A record must fit in one
    flash page after encoding.

    :meth:`put` / :meth:`get` / :meth:`scan` / :meth:`scan_range` are
    the single-record API and the reference: whatever the batch calls
    (:meth:`insert_many`, :meth:`insert_batch`, :meth:`scan_batches`,
    :meth:`get_many`) do must leave the flash image a ``put`` loop
    would and return the rows a ``scan`` would. Which encoder a batch
    chunk takes is decided from the chunk alone (size, schema, RAM
    headroom, frame size) and counted in ``store.ingest.chunks``.

    ``page_cache_bytes`` enables the bounded LRU page cache;
    ``checkpoint_blocks`` reserves that many blocks (an even count) at
    the end of the device for checkpoint segments, written on demand
    via :meth:`checkpoint` or automatically every
    ``checkpoint_interval_pages`` committed pages; ``zone_maps=False``
    turns off field summaries (block fingerprints are kept regardless —
    incremental recovery needs them); ``integrity_key`` adds one HMAC
    tag per data page, verified whenever the page is read from flash.
    """

    def __init__(self, flash: NandFlash, ram_budget_bytes: int | None = None,
                 *, page_cache_bytes: int | None = None,
                 zone_maps: bool = True, checkpoint_blocks: int = 0,
                 checkpoint_interval_pages: int | None = None,
                 integrity_key: bytes | None = None) -> None:
        self.flash = flash
        self._page_size = flash.timings.page_size
        self._pages_per_block = flash.timings.pages_per_block
        if checkpoint_blocks < 0 or checkpoint_blocks % 2:
            raise ConfigurationError(
                "checkpoint_blocks must be an even, non-negative block count"
            )
        if checkpoint_blocks >= flash.block_count:
            raise ConfigurationError(
                "checkpoint region leaves no data blocks"
            )
        self._checkpoint_blocks = checkpoint_blocks
        self._data_block_count = flash.block_count - checkpoint_blocks
        self._checkpoint_interval = checkpoint_interval_pages
        self._pages_since_checkpoint = 0
        self._checkpoint_counter = 0
        # A/B halves of the reserved region: the chain grows in
        # _ckpt_half from _ckpt_next_page on; a base goes to the other
        # half. Unknown region state (fresh store over a used device)
        # is wiped before the first write.
        self._ckpt_half = 1
        self._ckpt_next_page = 0
        self._ckpt_region_known = False
        # Why the next checkpoint must be a base (None: a delta will
        # do), and — only while a delta will do — what it must carry
        # since the last segment: new ids are the directory's own tail
        # (a dict keeps insertion order), so they are only counted;
        # replaced and deleted ids and touched blocks are held.
        self._ckpt_base_reason: str | None = "first"
        self._delta_appended = 0
        self._delta_ids: dict[str, None] | None = None
        self._delta_blocks: set[int] | None = None
        self.checkpoints_written = 0
        # id -> (page, offset, length); None means deleted
        self._directory: dict[str, tuple[int, int, int]] = {}
        self._buffer = bytearray()
        # id, kind, payload offset on the page-to-be, payload length,
        # record (inserts carry a snapshot of theirs: zone maps fold it
        # at the flush, get serves a copy of it)
        self._buffer_entries: list[
            tuple[str, int, int, int, Record | None]
        ] = []
        # id -> index of its latest buffered entry (O(1) get/contains)
        self._buffered: dict[str, int] = {}
        self._live_per_block: dict[int, int] = {}
        # Per-block zone maps / fingerprints, maintained at flush and
        # replay, dropped on erase.
        self._summaries: dict[int, BlockSummary] = {}
        self._zone_maps = zone_maps
        self.page_cache = (
            PageCache(flash, page_cache_bytes)
            if page_cache_bytes is not None else None
        )
        # Block-granular allocation: one active block receives pages
        # sequentially; erased blocks return to the free list; fresh
        # blocks come from the tail.
        self._tail_block = 0
        self._active_block: int | None = None
        self._active_offset = 0
        self._free_blocks: list[int] = []
        self._allocated_pages = 0
        # Every flushed page starts with a monotone sequence number so
        # a rebooted cell can rebuild its RAM directory by log replay.
        self._page_sequence = 0
        self._ram_budget = ram_budget_bytes
        self._batch_scratch_bytes = 0
        # Optional page-granular integrity: one HMAC tag per flushed
        # data page, RAM-resident, verified on every read from flash. One
        # MAC amortized over a page's worth of frames instead of one
        # per record — the batched crypto cost model.
        self._integrity_key = integrity_key
        self._page_tags: dict[int, bytes] = {}
        if integrity_key is not None:
            from ..crypto.primitives import hmac_sha256, verify_hmac
            self._hmac = hmac_sha256
            self._verify_hmac = verify_hmac
        self.inserts = 0
        self.deletes = 0
        self.last_recovery: RecoveryStats | None = None

    # -- RAM accounting -----------------------------------------------------

    _DIRECTORY_ENTRY_BYTES = 48  # id hash + location tuple, order of magnitude
    _BUFFER_ENTRY_BYTES = 24  # entry tuple + buffered-id slot
    _DELTA_ENTRY_BYTES = 16  # one tracked id or block: hash + reference

    @property
    def directory_ram_bytes(self) -> int:
        """Approximate RAM held by the directory *plus* the unflushed
        page buffer and its entry table — buffered-but-unflushed data
        counts against the budget exactly like flushed directory
        entries, so the bound cannot be dodged by never flushing —
        *plus* the replaced or deleted ids and the blocks tracked for
        the next checkpoint delta, bounded by what was applied since
        the last segment and released when it is written."""
        held = (
            len(self._directory) * self._DIRECTORY_ENTRY_BYTES
            + len(self._buffer)
            + len(self._buffer_entries) * self._BUFFER_ENTRY_BYTES
        )
        if self._delta_ids is not None:
            held += self._DELTA_ENTRY_BYTES * (
                len(self._delta_ids) + len(self._delta_blocks))
        return held

    @property
    def summaries_ram_bytes(self) -> int:
        """Approximate RAM held by the per-block zone maps."""
        return sum(summary.ram_bytes for summary in self._summaries.values())

    _PAGE_TAG_BYTES = 72  # 32-byte HMAC tag + dict slot + page key

    @property
    def integrity_ram_bytes(self) -> int:
        """Approximate RAM held by the per-page integrity tags."""
        return len(self._page_tags) * self._PAGE_TAG_BYTES

    @property
    def batch_scratch_bytes(self) -> int:
        """Transient RAM held by in-flight columnar batch buffers
        (encode blobs, column arrays, decode chunks) and by a
        checkpoint segment being serialized. Non-zero only while a
        batch operation or :meth:`checkpoint` runs; the columnar paths
        size their chunks from the budget headroom so scratch never
        triggers a :class:`CapacityError` the scalar path would not
        have raised."""
        return self._batch_scratch_bytes

    @property
    def ram_bytes(self) -> int:
        """Everything the store holds in RAM (cache pages and their kept
        rows, in-flight batch scratch and integrity tags included)."""
        cache = self.page_cache.ram_bytes if self.page_cache is not None else 0
        return (
            self.directory_ram_bytes + self.summaries_ram_bytes + cache
            + self._batch_scratch_bytes + self.integrity_ram_bytes
        )

    def _check_ram(self, growth: int = 0) -> None:
        if self._ram_budget is None:
            return
        held = growth + (
            self.directory_ram_bytes + self.summaries_ram_bytes
            + self.integrity_ram_bytes
        )
        if held > self._ram_budget:
            raise CapacityError(
                f"store RAM (directory + write buffer + zone maps) exceeds "
                f"budget ({held} > {self._ram_budget} bytes)"
            )

    def _ram_headroom(self) -> int | None:
        """Budget minus persistent RAM; None when unbudgeted."""
        if self._ram_budget is None:
            return None
        return self._ram_budget - (
            self.directory_ram_bytes + self.summaries_ram_bytes
            + self.integrity_ram_bytes
        )

    # -- cached device reads --------------------------------------------------

    def _read_page(
        self, page: int,
    ) -> tuple[bytes, Mapping[int, KeptRow] | None]:
        """``(image, kept rows)`` of a page: through the page cache when
        there is one — a resident page is trusted RAM, verified when it
        was loaded, and brings the rows kept from it — else ``None``
        for the rows."""
        if self.page_cache is None:
            return self._load_page(page), None
        return self.page_cache.read(page, (
            self.flash.read_page if self._integrity_key is None
            else self._load_page))

    def _load_page(self, page: int) -> bytes:
        """One device read, verified against the page's integrity tag."""
        data = self.flash.read_page(page)
        if self._integrity_key is not None:
            tag = self._page_tags.get(page)
            if tag is not None and not self._verify_hmac(
                self._integrity_key, page.to_bytes(4, "big") + data, tag
            ):
                raise StorageError(
                    f"page integrity check failed [page {page} block "
                    f"{page // self._pages_per_block}]"
                )
        return data

    # -- the write path ---------------------------------------------------------

    _PAGE_HEADER_BYTES = 8

    def _note_page(self, page: int, page_data: bytes,
                   sequence: int) -> BlockSummary:
        """Fingerprint (and tag) one data page, at commit or replay."""
        block = page // self._pages_per_block
        if self._delta_blocks is not None:
            self._delta_blocks.add(block)
        summary = self._summaries.setdefault(block, BlockSummary())
        summary.note_page(sequence)
        if self._integrity_key is not None:
            # reads return the padded image, so that is what is tagged
            padded = page_data.ljust(self._page_size, b"\xff")
            self._page_tags[page] = self._hmac(
                self._integrity_key, page.to_bytes(4, "big") + padded)
        return summary

    def _commit_page(self, body: bytes, apply, fold_pending=None) -> None:
        """The one routine through which a data page reaches flash.

        Allocate, sequence, program, note the write in the cache,
        fingerprint and tag the page, then ``apply(page, summary)`` —
        the caller's directory apply — and only then count the flush
        and, when the interval is due, checkpoint. ``fold_pending`` is
        the fused path handing over the zone folds it still holds: a
        checkpoint serializes the summaries, so they must land first
        or recovered blocks would carry under-approximate (unsafe)
        bounds.
        """
        page = self._allocate_page()
        self._page_sequence += 1
        page_data = self._page_sequence.to_bytes(
            self._PAGE_HEADER_BYTES, "big") + body
        self.flash.write_page(page, page_data)
        if self.page_cache is not None:
            self.page_cache.note_write(page, page_data)
        apply(page, self._note_page(page, page_data, self._page_sequence))
        _FLUSHES.inc()
        self._pages_since_checkpoint += 1
        if (
            self._checkpoint_interval is not None
            and self._pages_since_checkpoint >= self._checkpoint_interval
        ):
            if fold_pending is not None:
                fold_pending()
            self.checkpoint()

    def _apply_entries(self, page: int, summary: BlockSummary,
                       entries) -> None:
        """The one directory apply: what a page's log entries do to the
        directory, the live counts and the zone map, in log order.

        ``entries`` yields ``(record_id, kind, offset, length, record)``
        with ``offset`` the payload's position on the page; a ``None``
        record folds nothing (deletes, and inserts whose fields the
        fused path folds by column). While a checkpoint delta is
        possible, what it must carry is noted: a new id by count (it
        joins the directory's tail), a replaced or deleted id and the
        block that loses its live record by name.
        """
        pages_per_block = self._pages_per_block
        block = page // pages_per_block
        directory = self._directory
        live = self._live_per_block
        zone_maps = self._zone_maps
        delta_ids = self._delta_ids
        for record_id, kind, offset, length, record in entries:
            old = directory.get(record_id)
            if old is not None:  # retire the superseded version
                old_block = old[0] // pages_per_block
                remaining = live.get(old_block, 0) - 1
                if remaining > 0:
                    live[old_block] = remaining
                else:
                    live.pop(old_block, None)
                if delta_ids is not None:
                    delta_ids[record_id] = None
                    self._delta_blocks.add(old_block)
            elif delta_ids is not None and kind == _ENTRY_INSERT:
                self._delta_appended += 1
            if kind == _ENTRY_INSERT:
                directory[record_id] = (page, offset, length)
                live[block] = live.get(block, 0) + 1
                if zone_maps and record is not None:
                    summary.note_record(record)
            else:
                summary.tombstones += 1
                if old is not None:
                    del directory[record_id]

    def _flush_buffer(self) -> None:
        if self._buffer_entries:
            self._commit_page(bytes(self._buffer), self._apply_buffer)

    def _apply_buffer(self, page: int, summary: BlockSummary) -> None:
        # Empty the buffer first: a checkpoint the commit triggers
        # flushes again and must find nothing left to write.
        entries = self._buffer_entries
        self._buffer = bytearray()
        self._buffer_entries = []
        self._buffered = {}
        self._apply_entries(page, summary, entries)

    def _allocate_page(self) -> int:
        pages_per_block = self._pages_per_block
        if self._active_block is None or self._active_offset >= pages_per_block:
            if self._free_blocks:
                self._active_block = self._free_blocks.pop(0)
            else:
                if self._tail_block >= self._data_block_count:
                    raise CapacityError("flash device is full; compact first")
                self._active_block = self._tail_block
                self._tail_block += 1
            self._active_offset = 0
        page = self._active_block * pages_per_block + self._active_offset
        self._active_offset += 1
        self._allocated_pages += 1
        return page

    def _append(self, kind: int, record_id: str, payload: bytes,
                record: Record | None = None) -> None:
        """The one scalar appender: frame one log entry (``kind | id
        length | id | payload length | payload``) into the page buffer,
        flushing first when it would not fit."""
        id_bytes = record_id.encode()
        frame = (
            bytes([kind])
            + len(id_bytes).to_bytes(2, "big")
            + id_bytes
            + len(payload).to_bytes(2, "big")
            + payload
        )
        header = self._PAGE_HEADER_BYTES
        usable = self._page_size - header
        if len(frame) > usable:
            raise StorageError(
                f"record {record_id!r} ({len(frame)} bytes framed) exceeds "
                f"usable page size {usable}"
            )
        if len(self._buffer) + len(frame) > usable:
            self._flush_buffer()
        # Checked before the entry is held, so a refused append (like an
        # oversize or device-full one) leaves the store without it.
        self._check_ram(len(frame) + self._BUFFER_ENTRY_BYTES)
        self._buffered[record_id] = len(self._buffer_entries)
        self._buffer_entries.append((
            record_id, kind, header + len(self._buffer) + 5 + len(id_bytes),
            len(payload), record,
        ))
        self._buffer += frame

    # -- public API ---------------------------------------------------------

    def put(self, record_id: str, record: Record) -> None:
        """Insert or replace the record stored under ``record_id``. The
        store keeps a snapshot: changing ``record`` afterwards changes
        nothing stored."""
        self._append(
            _ENTRY_INSERT, record_id, encode_record(record), dict(record))
        self.inserts += 1

    def insert_many(self, items: Iterable[tuple[str, Record]]) -> int:
        """Batch ingest: append many records with page-granular cost.

        Produces the *identical* flash image a sequence of :meth:`put`
        calls would (same framing, same page boundaries, same sequence
        numbers) — the batch ingest benchmark proves this bit-for-bit —
        but skips the per-record call overhead wherever a chunk fits
        the columnar lane (see :meth:`_ingest`). Returns the number of
        records appended. If it raises, ``inserts`` has still counted
        exactly the leading records the store now holds.
        """
        record_ids, records = tuple(zip(*items)) or ((), ())
        return self._ingest(record_ids, records, lane_plan)

    def insert_batch(self, record_ids: list[str],
                     batch: ColumnBatch) -> int:
        """Ingest a :class:`ColumnBatch` without ever materializing
        per-record dicts.

        This is the producer-side columnar entry point: a data source
        that already holds typed arrays (see
        :meth:`ColumnBatch.from_arrays`) feeds them straight into the
        fused page commit — same flash image as
        ``insert_many(zip(record_ids, batch.rows()))``, bit for bit,
        but without the per-record encode, gather, and type-scan costs.
        Returns the number of records appended.
        """
        if not isinstance(record_ids, list):
            record_ids = list(record_ids)
        if len(record_ids) != batch.count:
            raise StorageError(
                f"{len(record_ids)} record ids for {batch.count} batch rows")
        return self._ingest(
            record_ids, _BatchRows(batch, 0, batch.count), _BatchRows.lane_plan)

    _CHUNK_RECORDS = 16384

    def _ingest(self, record_ids, rows, plan_of) -> int:
        """The one chunk loop behind :meth:`insert_many` and
        :meth:`insert_batch`, which differ only in how a chunk's rows
        and lane plan are obtained (``rows[a:b]``, ``plan_of(rows)``).

        Each chunk takes the lane :meth:`_choose_lane` picks: the
        columnar lane assembles frames as numpy matrices per
        constant-layout run and commits full pages straight from the
        run blobs; the scalar lane is a :meth:`put` loop.
        """
        before = self.inserts
        position = 0
        while position < len(record_ids):
            chunk_ids, chunk, reason, plan, runs = self._choose_lane(
                record_ids, rows, position, plan_of)
            _INGEST_CHUNKS.labels(
                lane="scalar" if runs is None else "columnar", reason=reason,
            ).inc()
            if runs is None:
                for record_id, record in zip(chunk_ids, chunk):
                    self.put(record_id, record)
            else:
                self._commit_frame_runs(chunk_ids, chunk, runs, plan)
            position += len(chunk_ids)
        self._check_ram()
        return self.inserts - before

    def _choose_lane(self, record_ids, rows, position, plan_of):
        """The one lane decision, taken from what the store observes.

        Returns ``(ids, rows, reason, plan, runs)`` for the chunk starting
        at ``position``; ``runs`` is ``None`` on the scalar lane. Columnar
        needs at least ``COLUMNAR_MIN_BATCH`` records, RAM headroom for
        that many (batch scratch — frame blobs + column arrays — stays
        a small fraction of what the budget has left; unbudgeted stores
        use the fixed chunk size), a uniform schema the encoder has a
        plan for, and frames that fit a page (an oversize record is
        left to ``put`` to name in its error).
        """
        remaining = len(record_ids) - position
        fit = self._CHUNK_RECORDS
        headroom = self._ram_headroom()
        if headroom is not None and remaining >= COLUMNAR_MIN_BATCH:
            frame_estimate = 5 + len(record_ids[position].encode()) + len(
                encode_record(rows[position]))
            per_record = 2 * frame_estimate + 88  # blob + matrix + directory growth
            fit = min(fit, headroom // (4 * per_record))
        if min(remaining, fit) < COLUMNAR_MIN_BATCH:
            # a put loop needs no scratch: it takes the rest in one go
            reason = ("small_batch" if remaining < COLUMNAR_MIN_BATCH
                      else "ram_headroom")
            return record_ids[position:], rows[position:], reason, None, None
        chunk_ids = record_ids[position : position + fit]
        chunk = rows[position : position + fit]
        plan = plan_of(chunk)
        runs = None if plan is None else encode_frame_runs(
            _ENTRY_INSERT, chunk_ids, chunk, plan)
        if runs is None:
            return chunk_ids, chunk, "no_plan", None, None
        usable = self._page_size - self._PAGE_HEADER_BYTES
        if any(run.frame_len > usable for run in runs):
            return chunk_ids, chunk, "oversize_frame", None, None
        return chunk_ids, chunk, "ok", plan, runs

    def _buffer_frames(self, record_ids, records, run, first: int,
                       take: int) -> None:
        """Buffer ``take`` pre-encoded frames of ``run`` that the caller
        knows fit, with snapshots of their records (zone maps fold them
        at the flush, like :meth:`put`'s)."""
        buffer = self._buffer
        entries = self._buffer_entries
        buffered = self._buffered
        frame_len = run.frame_len
        offset = self._PAGE_HEADER_BYTES + len(buffer) + run.payload_offset
        buffer += run.blob[first * frame_len : (first + take) * frame_len]
        for index in range(run.start + first, run.start + first + take):
            record_id = record_ids[index]
            buffered[record_id] = len(entries)
            entries.append(
                (record_id, _ENTRY_INSERT, offset, run.payload_len,
                 dict(records[index]))
            )
            offset += frame_len
        self.inserts += take

    def _commit_frame_runs(self, record_ids, records, runs, plan) -> None:
        """Drive pre-encoded frame runs through buffer and fused pages.

        Replays exactly the ``put`` loop's page layout: head frames top
        up the current write buffer, maximal full pages are committed
        straight from the run blobs, and the tail (anything after the
        last page boundary, including an exactly-full final page) stays
        buffered. ``inserts`` advances as records are buffered or
        committed, so it is right wherever a commit raises.
        """
        usable = self._page_size - self._PAGE_HEADER_BYTES
        directory = self._directory
        live = self._live_per_block
        self._batch_scratch_bytes = 48 * len(records) + sum(
            2 * len(run.blob) for run in runs)
        # The directory apply's single specialisation: when no id in
        # the chunk collides with the directory, the write buffer, or
        # another chunk id, nothing is retired — the directory takes a
        # C-speed bulk update per run slice, not a per-record loop.
        unique = set(record_ids)
        append_only = (
            len(unique) == len(record_ids)
            and directory.keys().isdisjoint(unique)
            and self._buffered.keys().isdisjoint(unique)
        )
        run_index = 0
        in_run = 0  # frames already consumed from runs[run_index]
        n_runs = len(runs)
        try:
            # Head: top up a non-empty write buffer until the next
            # frame does not fit and it flushes (or the batch ends).
            while run_index < n_runs and self._buffer:
                run = runs[run_index]
                take = min((usable - len(self._buffer)) // run.frame_len,
                           run.count - in_run)
                self._buffer_frames(record_ids, records, run, in_run, take)
                in_run += take
                if in_run < run.count:
                    self._flush_buffer()
                    self._check_ram()
                    break
                run_index += 1
                in_run = 0
            # Zone folds of committed pages are deferred into
            # ``zone_spans`` and applied per block (and before any
            # mid-chunk checkpoint) — see :meth:`_fold_zone_spans`.
            zone_columns = (
                self._zone_columns(plan, records)
                if self._zone_maps and run_index < n_runs else []
            )
            zone_spans: list[tuple[object, int, int]] = []

            def fold_pending() -> None:
                if zone_spans:
                    self._fold_zone_spans(zone_columns, zone_spans)
                    zone_spans.clear()

            def apply_parts(page, summary, parts) -> None:
                offset = self._PAGE_HEADER_BYTES
                on_page = 0
                for run, start_in, take in parts:
                    base = run.start + start_in
                    ids = record_ids[base : base + take]
                    value_at = offset + run.payload_offset
                    offsets = range(
                        value_at, value_at + take * run.frame_len,
                        run.frame_len)
                    if append_only:
                        directory.update(zip(ids, zip(
                            repeat(page), offsets, repeat(run.payload_len))))
                        self._delta_appended += take
                    else:
                        self._apply_entries(page, summary, zip(
                            ids, repeat(_ENTRY_INSERT), offsets,
                            repeat(run.payload_len), repeat(None)))
                    offset += take * run.frame_len
                    on_page += take
                if append_only:
                    block = page // self._pages_per_block
                    live[block] = live.get(block, 0) + on_page
                self.inserts += on_page
                if zone_columns:
                    first_run, first_in, _ = parts[0]
                    last_run, last_in, last_take = parts[-1]
                    zone_spans.append((
                        summary,
                        first_run.start + first_in,
                        last_run.start + last_in + last_take,
                    ))

            # Body: commit maximal pages straight from the run blobs.
            while run_index < n_runs:
                parts: list[tuple[object, int, int]] = []  # run, start, count
                fill = 0
                scan_run = run_index
                scan_in = in_run
                while scan_run < n_runs:
                    run = runs[scan_run]
                    fit = (usable - fill) // run.frame_len
                    remaining = run.count - scan_in
                    take = remaining if remaining < fit else fit
                    if take <= 0:
                        break
                    parts.append((run, scan_in, take))
                    fill += take * run.frame_len
                    scan_in += take
                    if scan_in == run.count:
                        scan_run += 1
                        scan_in = 0
                if scan_run >= n_runs:
                    break  # tail stays buffered (even an exactly-full page)
                body = b"".join(
                    run.blob[start_in * run.frame_len
                             : (start_in + take) * run.frame_len]
                    for run, start_in, take in parts
                )
                self._commit_page(
                    body,
                    lambda page, summary: apply_parts(page, summary, parts),
                    fold_pending,
                )
                self._check_ram()
                run_index, in_run = scan_run, scan_in
            fold_pending()
            # Tail: buffer what is left after the last page boundary.
            while run_index < n_runs:
                run = runs[run_index]
                self._buffer_frames(
                    record_ids, records, run, in_run, run.count - in_run)
                run_index += 1
                in_run = 0
        finally:
            self._batch_scratch_bytes = 0

    @staticmethod
    def _zone_columns(plan, records) -> list[tuple[str, str, object, object]]:
        """Per-field column accessors for the fused zone-map fold. A
        chunk-level NaN sweep (vectorized ``arr != arr``) lets pages of
        NaN-free float columns take the clean min/max fold."""
        zone_columns = []
        for name in plan.names:
            kind = plan.kinds[name]
            if kind == "c":
                zone_columns.append((name, "c", [records[0][name]], None))
            elif kind == "f":
                arr = plan.arrays[name]
                flags = arr != arr
                zone_columns.append(
                    (name, "f", arr, flags if flags.any() else None)
                )
            else:
                zone_columns.append((name, "i", plan.arrays[name], None))
        return zone_columns

    def _fold_zone_spans(self, zone_columns, zone_spans) -> None:
        """Fold committed pages' column slices into block summaries,
        grouped per block: two numpy reductions per field per block
        instead of a Python ``min``/``max`` pass per page.

        Exactly equivalent to the scalar flush path's per-page
        ``note_values`` folds: min/max are associative and the pages of
        one chunk consume contiguous column ranges in commit order.
        The cases where "which equal element wins" is observable — NaN
        pages and ``±0.0`` ties — replay the per-page fold verbatim.
        """
        groups: list[tuple[object, list[tuple[int, int]]]] = []
        for summary, lo, hi in zone_spans:
            if groups and groups[-1][0] is summary:
                groups[-1][1].append((lo, hi))
            else:
                groups.append((summary, [(lo, hi)]))
        for summary, spans in groups:
            group_lo = spans[0][0]
            group_hi = spans[-1][1]
            for name, kind, column, nan_flags in zone_columns:
                if kind == "c":
                    summary.note_values(name, column)
                    continue
                if (
                    nan_flags is not None
                    and nan_flags[group_lo:group_hi].any()
                ):
                    for lo, hi in spans:
                        values = column[lo:hi].tolist()
                        if nan_flags[lo:hi].any():
                            summary.note_values(name, values)
                        else:
                            summary.note_values(name, values, clean=True)
                    continue
                block = column[group_lo:group_hi]
                bound_lo = block.min().item()
                bound_hi = block.max().item()
                if kind == "f" and (bound_lo == 0.0 or bound_hi == 0.0):
                    # A ±0.0 tie: numpy reductions may keep a different
                    # (repr-distinguishable) zero than the sequential
                    # fold would. Replay per page instead.
                    for lo, hi in spans:
                        summary.note_values(
                            name, column[lo:hi].tolist(), clean=True)
                    continue
                summary.note_values(name, [bound_lo, bound_hi], clean=True)

    def delete(self, record_id: str) -> None:
        """Delete a record (raises :class:`NotFoundError` if absent)."""
        if not self.contains(record_id):
            raise NotFoundError(f"no record {record_id!r}")
        self._append(_ENTRY_DELETE, record_id, b"")
        self.deletes += 1

    def contains(self, record_id: str) -> bool:
        index = self._buffered.get(record_id)
        if index is not None:
            return self._buffer_entries[index][1] == _ENTRY_INSERT
        return record_id in self._directory

    def flush(self) -> None:
        """Force buffered entries to flash (partial page write)."""
        self._flush_buffer()

    def record_ids(self) -> list[str]:
        """All live record ids (buffered writes included), sorted."""
        ids = set(self._directory)
        for entry_id, index in self._buffered.items():
            if self._buffer_entries[index][1] == _ENTRY_INSERT:
                ids.add(entry_id)
            else:
                ids.discard(entry_id)
        return sorted(ids)

    # -- the read path ----------------------------------------------------------

    def _decode_at(self, data: bytes, record_id: str, page: int,
                   offset: int, length: int) -> Record:
        """Decode one record off a page image; the one place a decode
        failure learns which record, page, block and offset it was."""
        try:
            return decode_record(data[offset : offset + length])
        except StorageError as error:
            raise StorageError(
                f"{error} [record {record_id!r} page {page} block "
                f"{page // self._pages_per_block} offset {offset}]"
            ) from error

    def _locations_by_page(self, field: str | None = None,
                           low: Value = None, high: Value = None):
        """Group flash-resident directory entries by page, dropping the
        pages of blocks whose zone map proves no record can satisfy
        ``low <= record[field] <= high`` (one ``admits`` verdict per
        block: it is a pure function of the block summary)."""
        rejected: set[int] = set()
        if self._zone_maps and field is not None:
            rejected = {
                block for block, summary in self._summaries.items()
                if not summary.admits(field, low, high)
            }
        pages_per_block = self._pages_per_block
        buffered = self._buffered
        by_page: dict[int, list[tuple[str, int, int]]] = {}
        for record_id, (page, offset, length) in self._directory.items():
            if record_id in buffered or page // pages_per_block in rejected:
                continue
            by_page.setdefault(page, []).append((record_id, offset, length))
        return by_page

    def _walk_pages(self, by_page):
        """The one page walk: pages in order, each read once, with the
        rows kept from it (``None`` unless it was resident) and its
        ``(record_id, offset, length)`` entries in log order."""
        for page in sorted(by_page):
            data, kept = self._read_page(page)
            yield page, data, kept, sorted(by_page[page], key=itemgetter(1))

    def _buffered_tail(self, entry_ids: list[str]) -> list[tuple[str, Record]]:
        """Live records among the ids a scan found buffered at its start."""
        return [
            (entry_id, self.get(entry_id))
            for entry_id in entry_ids if self.contains(entry_id)
        ]

    def get(self, record_id: str) -> Record:
        """Fetch the latest version of a record (one page read, unless
        the record is still in the write buffer: then a copy of the
        record the buffer holds)."""
        index = self._buffered.get(record_id)
        if index is not None:
            _, kind, offset, length, record = self._buffer_entries[index]
            if kind == _ENTRY_DELETE:
                raise NotFoundError(f"no record {record_id!r}")
            if record is not None:
                return dict(record)
            offset -= self._PAGE_HEADER_BYTES
            return decode_record(
                bytes(self._buffer[offset : offset + length]),
                context="write buffer",
            )
        location = self._directory.get(record_id)
        if location is None:
            raise NotFoundError(f"no record {record_id!r}")
        page, offset, length = location
        return self._decode_at(
            self._read_page(page)[0], record_id, page, offset, length)

    def fetch_batches(
        self, record_ids: Iterable[str],
    ) -> list[tuple[list[str], ColumnBatch]]:
        """Columnar point fetch: ``(record_ids, ColumnBatch)`` chunks
        holding exactly the named records.

        This is what an index-driven fetch uses. Flash-resident records
        arrive like :meth:`scan_batches` chunks — each page read once,
        pages in order, entries in log order, through the same chunk
        decoder — and records still in the write buffer as one final
        scalar batch. An unknown (or deleted-in-buffer) id raises
        :class:`NotFoundError` before any page is read.
        """
        buffered = self._buffered
        directory = self._directory
        by_page: dict[int, list[tuple[str, int, int]]] = {}
        tail: list[tuple[str, Record]] = []
        for record_id in record_ids:
            if record_id in buffered:
                tail.append((record_id, self.get(record_id)))
                continue
            location = directory.get(record_id)
            if location is None:
                raise NotFoundError(f"no record {record_id!r}")
            by_page.setdefault(location[0], []).append(
                (record_id, location[1], location[2]))
        chunks = list(self._decode_chunks(by_page))
        if tail:
            chunks.append(self._tail_chunk(tail))
        return chunks

    def get_many(self, record_ids: list[str]) -> list[Record]:
        """Fetch several records, reading each flash page at most once:
        :meth:`fetch_batches` unpacked into request order (a repeated
        id repeats its record)."""
        results: dict[str, Record] = {}
        for chunk_ids, batch in self.fetch_batches(record_ids):
            results.update(zip(chunk_ids, batch.rows()))
        return [results[record_id] for record_id in record_ids]

    def scan(self) -> Iterator[tuple[str, Record]]:
        """Iterate ``(record_id, record)`` over all live records.

        Reads each flash page at most once (records are grouped by
        page), so this is the honest full-scan baseline that E8
        compares against index lookups — :meth:`scan_range` with
        nothing to prune on.
        """
        return self.scan_range(None)

    @property
    def zone_maps_enabled(self) -> bool:
        return self._zone_maps

    def blocks_admitted(self, field: str, low: Value = None,
                        high: Value = None) -> int:
        """How many summarized blocks a zone-map scan of ``low <=
        record[field] <= high`` would have to read — the planner's
        selectivity estimate when several range hints are available."""
        return sum(
            summary.admits(field, low, high)
            for summary in self._summaries.values()
        )

    def scan_range(self, field: str | None, low: Value = None,
                   high: Value = None) -> Iterator[tuple[str, Record]]:
        """Skip-scan: like :meth:`scan`, but pages of blocks whose zone
        map proves no record can satisfy ``low <= record[field] <=
        high`` are never read. Yields a *superset* of the matching
        records (block granularity) — callers re-filter, exactly as
        they re-filter index candidates. A plain scan when zone maps
        are disabled or ``field`` is ``None``.
        """
        tail = sorted(self._buffered)
        for page, data, _, entries in self._walk_pages(
            self._locations_by_page(field, low, high)
        ):
            for record_id, offset, length in entries:
                yield record_id, self._decode_at(
                    data, record_id, page, offset, length)
        yield from self._buffered_tail(tail)

    _SCAN_CHUNK_PAGES = 64

    def scan_batches(
        self, field: str | None = None, low: Value = None, high: Value = None,
    ) -> Iterator[tuple[list[str], ColumnBatch]]:
        """Columnar scan: yield ``(record_ids, ColumnBatch)`` chunks.

        Covers exactly what :meth:`scan_range` yields — same records,
        same order, same page reads, same zone-map pruning — but
        decodes a chunk of pages at a time through
        :func:`encoding.decode_page`, so uniform frames become column
        slices instead of per-record dicts. The buffered tail arrives
        as one final scalar batch.
        """
        tail = sorted(self._buffered)
        yield from self._decode_chunks(
            self._locations_by_page(field, low, high))
        tail_rows = self._buffered_tail(tail)
        if tail_rows:
            yield self._tail_chunk(tail_rows)

    @staticmethod
    def _tail_chunk(rows: list[tuple[str, Record]]):
        """Write-buffer records as a scalar ``(record_ids, batch)``."""
        tail_ids, records = zip(*rows)
        return list(tail_ids), ColumnBatch.from_records(list(records))

    def _decode_chunks(
        self, by_page: dict[int, list[tuple[str, int, int]]],
    ) -> Iterator[tuple[list[str], ColumnBatch]]:
        """The one chunk decoder: walk ``by_page`` a chunk of pages at
        a time. A chunk found resident in the page cache, every page of
        it, is :meth:`_gather`'s; any other chunk — one page or more
        read from flash — is one :meth:`_decode`, so a cold walk that
        meets a few resident pages pays nothing for them. Chunk size
        shrinks with the RAM budget headroom so decode scratch stays
        charged but bounded."""
        at_once = self._SCAN_CHUNK_PAGES
        headroom = self._ram_headroom()
        if headroom is not None:
            at_once = max(1, min(at_once, headroom // (4 * self._page_size)))
        walk = self._walk_pages(by_page)
        while chunk := list(islice(walk, at_once)):
            record_ids = [
                entry[0] for _, _, _, entries in chunk for entry in entries
            ]
            if all(kept is not None for _, _, kept, _ in chunk):
                yield record_ids, self._gather(chunk)
            else:
                yield record_ids, self._decode(chunk)

    def _decode(self, pages) -> ColumnBatch:
        """One :func:`encoding.decode_page` call over the entries of
        ``pages`` (walked ``(page, image, kept, entries)``), its
        scratch charged meanwhile."""
        self._batch_scratch_bytes = 3 * len(pages) * self._page_size
        try:
            batch = decode_page([
                data[offset : offset + length]
                for _, data, _, entries in pages
                for _, offset, length in entries
            ])
        except StorageError:
            # Error path only: decode record by record so the failure is
            # located like every other read's.
            for page, data, _, entries in pages:
                for record_id, offset, length in entries:
                    self._decode_at(data, record_id, page, offset, length)
            raise
        finally:
            self._batch_scratch_bytes = 0
        _DECODE_SCALAR.inc(len(batch.scalar_rows))
        _DECODE_COLUMNAR.inc(batch.count - len(batch.scalar_rows))
        return batch

    def _gather(self, chunk) -> ColumnBatch:
        """A chunk of resident pages: the rows kept from them are
        gathered, the other entries go through one :meth:`_decode`, and
        what that decoded is handed to the cache to keep. The batch
        returned is the decoded one when nothing was kept yet, else a
        fresh one (:func:`_gathered`)."""
        rows: list[KeptRow | None] = []
        todo = []  # (page, image, kept, entries) still to decode
        for page, data, kept, entries in chunk:
            found = [kept.get(offset) for _, offset, _ in entries]
            rows += found
            if None in found:
                todo.append((page, data, kept, [
                    entry for entry, row in zip(entries, found)
                    if row is None]))
        if not todo:
            _DECODE_KEPT.inc(len(rows))
            return _gathered(rows)
        batch = self._decode(todo)
        self._keep(todo, batch)
        if batch.count == len(rows):  # nothing was kept yet
            return batch
        _DECODE_KEPT.inc(len(rows) - batch.count)
        fresh = iter(_kept_rows(batch, 0, batch.count))
        return _gathered(
            [next(fresh) if row is None else row for row in rows])

    def _keep(self, pages, batch: ColumnBatch) -> None:
        """Hand the page cache the rows ``batch`` decoded off resident
        ``pages`` (in their entries' order)."""
        position = 0
        for page, _, _, entries in pages:
            end = position + len(entries)
            self.page_cache.keep(page, dict(zip(
                map(itemgetter(1), entries),
                _kept_rows(batch, position, end))))
            position = end

    def __len__(self) -> int:
        return len(self.record_ids())

    # -- compaction -----------------------------------------------------------

    @property
    def pages_used(self) -> int:
        """Pages currently holding log data (allocated, not yet erased)."""
        return self._allocated_pages

    def _used_blocks(self) -> list[int]:
        """Blocks currently holding log data (including the active one)."""
        free = set(self._free_blocks)
        return [
            block for block in range(self._tail_block)
            if block not in free
        ]

    def _erase_block(self, block: int) -> None:
        """Erase one data block and drop its zone map (the page cache
        invalidates itself through the device's erase listener)."""
        self.flash.erase_block(block)
        self._summaries.pop(block, None)
        if self._delta_blocks is not None:
            self._delta_blocks.add(block)
        if self._page_tags:
            first_page = block * self._pages_per_block
            for page in range(first_page, first_page + self._pages_per_block):
                self._page_tags.pop(page, None)

    def compact(self) -> int:
        """Full compaction: stage the live set in RAM, erase every used
        block, and rewrite the live records from scratch.

        This is the stop-the-world strategy of the smallest embedded
        log stores; it needs no reserved space and its full cost (page
        reads + block erases + page writes) lands in the flash
        counters. Returns the number of blocks erased. See
        :meth:`compact_incremental` for the pay-as-you-go alternative.
        """
        self._flush_buffer()
        live = [(record_id, self.get(record_id)) for record_id in self.record_ids()]
        # Clearing the directory is the one thing a delta cannot say.
        self._track_delta(self._ckpt_base_reason or "compacted")
        used = self._used_blocks()
        for block in used:
            self._erase_block(block)
        self._directory.clear()
        self._live_per_block.clear()
        self._tail_block = 0
        self._active_block = None
        self._active_offset = 0
        self._free_blocks = []
        self._allocated_pages = 0
        for record_id, record in live:
            self._append(_ENTRY_INSERT, record_id, encode_record(record), record)
        self._flush_buffer()
        _COMPACTIONS.inc()
        return len(used)

    def _weight(self, block: int) -> int:
        """What collecting ``block`` must carry forward: its live
        records and its delete entries."""
        summary = self._summaries.get(block)
        return self._live_per_block.get(block, 0) + (
            summary.tombstones if summary is not None else 0)

    def _tombstoned_ids(self, block: int) -> list[str]:
        """The ids ``block``'s delete entries name that are not live
        again: a relocated delete would outrank a later re-insert."""
        summary = self._summaries.get(block)
        if summary is None or not summary.tombstones:
            return []
        first = block * self._pages_per_block
        ids = {
            record_id
            for page in range(first, first + summary.pages)
            for record_id, kind, _, _, _ in self._page_entries(
                page, self._read_page(page)[0])
            if kind == _ENTRY_DELETE
        }
        return sorted(ids.difference(self._directory))

    def compact_incremental(self, max_victims: int = 1) -> int:
        """Victim-block garbage collection: relocate the live records
        and delete entries of the lightest full blocks, erase them,
        recycle them.

        The classic flash-GC strategy: cost is proportional to what the
        victims still carry (often near zero for churn-heavy workloads)
        instead of the whole store, at the price of bookkeeping and
        potentially uneven wear. A delete entry is carried like a live
        record — older versions of its id may sit in other blocks, and
        a replay without it would bring them back — until a full
        :meth:`compact` drops every one. Returns the number of blocks
        reclaimed; picking fewer than ``max_victims`` (or none) happens
        when no full, non-active block exists.
        """
        self._flush_buffer()
        pages_per_block = self._pages_per_block
        candidates = [
            block for block in self._used_blocks()
            if block != self._active_block
        ]
        victims = sorted(candidates, key=self._weight)[:max_victims]
        reclaimed = 0
        for victim in victims:
            live_ids = sorted(
                record_id
                for record_id, (page, _, _) in self._directory.items()
                if page // pages_per_block == victim
            )
            tombstoned = self._tombstoned_ids(victim)
            for record_id, record in zip(live_ids, self.get_many(live_ids)):
                self._append(
                    _ENTRY_INSERT, record_id, encode_record(record), record
                )
            for record_id in tombstoned:
                self._append(_ENTRY_DELETE, record_id, b"")
            self._flush_buffer()
            self._erase_block(victim)
            self._live_per_block.pop(victim, None)
            self._free_blocks.append(victim)
            self._allocated_pages -= pages_per_block
            reclaimed += 1
        if reclaimed:
            _COMPACTIONS.inc()
        return reclaimed

    # -- checkpoint segments -----------------------------------------------------

    @property
    def _region_start_block(self) -> int:
        return self.flash.block_count - self._checkpoint_blocks

    def _half_blocks(self, half: int) -> range:
        half_size = self._checkpoint_blocks // 2
        start = self._region_start_block + half * half_size
        return range(start, start + half_size)

    @property
    def _half_pages(self) -> int:
        return (self._checkpoint_blocks // 2) * self._pages_per_block

    def _track_delta(self, base_reason: str | None) -> None:
        """Set why the next checkpoint must be a base (``None``: a
        delta will do) and restart what a delta would carry — tracked
        only while one is possible, so a store with no region, or with
        a base due, holds nothing."""
        self._ckpt_base_reason = base_reason
        self._delta_appended = 0
        tracking = base_reason is None and self._checkpoint_blocks > 0
        self._delta_ids = {} if tracking else None
        self._delta_blocks = set() if tracking else None

    def _serialize_checkpoint(self, base: bool) -> bytearray:
        """One segment's payload. A delta carries the directory entries
        applied since the segment before it — the ids new since then
        are the last ones the directory took (any older id a deletion
        lets into that tail rides along unchanged), the replaced or
        deleted ones were noted (a tombstone for an id that is gone) —
        and the live count and zone map of every block touched or
        erased since (a zero count, an empty map, for what is gone);
        a base is the segment whose change set is everything."""
        directory = self._directory
        if base:
            magic = _CKPT_BASE
            entries = directory.items()
            live_blocks = sorted(self._live_per_block)
            zone_blocks = sorted(self._summaries)
        else:
            magic = _CKPT_DELTA
            entries = chain(
                islice(reversed(directory.items()), self._delta_appended),
                ((record_id, directory.get(record_id, _CKPT_TOMBSTONE))
                 for record_id in self._delta_ids),
            )
            live_blocks = zone_blocks = sorted(self._delta_blocks)
        payload = bytearray(magic + self._page_sequence.to_bytes(8, "big"))

        def open_blob() -> int:
            payload.extend(bytes(8))  # its length, known at the close
            return len(payload)

        def close_blob(start: int) -> None:
            payload[start - 8 : start] = (
                len(payload) - start).to_bytes(8, "big")

        pack_location = _CKPT_LOCATION.pack
        start = open_blob()
        for record_id, location in entries:
            id_bytes = record_id.encode()
            payload += (len(id_bytes).to_bytes(2, "big") + id_bytes
                        + pack_location(*location))
        close_blob(start)
        live = self._live_per_block
        start = open_blob()
        for block in live_blocks:
            payload += (block.to_bytes(4, "big")
                        + live.get(block, 0).to_bytes(4, "big"))
        close_blob(start)
        start = open_blob()
        for block in zone_blocks:
            summary = self._summaries.get(block)
            encoded = (b"" if summary is None
                       else encode_record(summary.to_record()))
            payload += (block.to_bytes(4, "big")
                        + len(encoded).to_bytes(4, "big") + encoded)
        close_blob(start)
        return payload

    @staticmethod
    def _parse_checkpoint(payload: bytes,
                          directory: dict[str, tuple[int, int, int]],
                          live: dict[int, int],
                          summaries: dict[int, BlockSummary]) -> int:
        """Fold one segment's payload into the state the segments
        before it left (empty dicts for a base) and return the page
        sequence it was taken at: entries overwrite, a tombstone, a
        zero live count and an empty zone map remove."""
        if payload[:4] not in (_CKPT_BASE, _CKPT_DELTA):
            raise StorageError("malformed checkpoint payload")
        sequence = int.from_bytes(payload[4:12], "big")
        cursor = 12

        def take_blob() -> tuple[int, int]:
            nonlocal cursor
            start = cursor + 8
            end = start + int.from_bytes(payload[cursor:start], "big")
            if end > len(payload):
                raise StorageError("truncated checkpoint payload")
            cursor = end
            return start, end

        position, end = take_blob()
        unpack_location = _CKPT_LOCATION.unpack_from
        while position < end:
            id_end = position + 2 + int.from_bytes(
                payload[position : position + 2], "big")
            record_id = payload[position + 2 : id_end].decode()
            location = unpack_location(payload, id_end)
            if location == _CKPT_TOMBSTONE:
                directory.pop(record_id, None)
            else:
                directory[record_id] = location
            position = id_end + 8
        position, end = take_blob()
        for position in range(position, end, 8):
            block = int.from_bytes(payload[position : position + 4], "big")
            count = int.from_bytes(payload[position + 4 : position + 8], "big")
            if count:
                live[block] = count
            else:
                live.pop(block, None)
        position, end = take_blob()
        while position < end:
            block = int.from_bytes(payload[position : position + 4], "big")
            length = int.from_bytes(payload[position + 4 : position + 8], "big")
            position += 8
            if length:
                summaries[block] = BlockSummary.from_record(
                    decode_record(
                        bytes(payload[position : position + length]),
                        context=f"checkpoint zone map block {block}",
                    )
                )
            else:
                summaries.pop(block, None)
            position += length
        return sequence

    def checkpoint(self) -> int:
        """Persist what the directory, live counts and zone maps have
        become into the reserved checkpoint region; returns the pages
        written.

        The region holds a chain: one base segment (the whole state)
        and, on the next free pages of the same half, delta segments
        that each carry only what changed since the segment before.
        A base is written — into the *other* half, erased first, so
        the previous complete chain survives a crash mid-write — only
        when a delta cannot do: the first checkpoint, no room left in
        the half, a :meth:`compact` since, or a chain found (or left)
        cut short. Reboot recovery folds the chain and replays only
        pages written after its last segment (see :meth:`recover`).
        """
        if not self._checkpoint_blocks:
            raise ConfigurationError(
                "store was built without a checkpoint region"
            )
        self._flush_buffer()
        capacity = self._page_size - _CKPT_HEADER_BYTES
        # a mid-chunk checkpoint runs inside a batch's own scratch
        scratch = self._batch_scratch_bytes

        def segment(base: bool) -> tuple[bytearray, int]:
            payload = self._serialize_checkpoint(base)
            self._batch_scratch_bytes = scratch + len(payload)
            return payload, -(-len(payload) // capacity)

        reason = self._ckpt_base_reason
        try:
            payload, pages = segment(reason is not None)
            if (reason is None
                    and self._ckpt_next_page + pages > self._half_pages):
                reason = "half_full"
                payload, pages = segment(True)
            if pages > self._half_pages:
                raise StorageError(
                    f"checkpoint needs {pages} pages but each half of the "
                    f"region holds {self._half_pages}; grow checkpoint_blocks"
                )
            return self._write_segment(payload, pages, reason)
        finally:
            self._batch_scratch_bytes = scratch

    def _write_segment(self, payload: bytearray, pages: int,
                       base_reason: str | None) -> int:
        """Program one segment: a delta (``base_reason`` None) after
        the chain in its half, a base at the start of the other half."""
        pages_per_block = self._pages_per_block
        entries = (
            self._delta_appended + len(self._delta_ids)
            if base_reason is None else len(self._directory))
        if base_reason is None:
            half, first = self._ckpt_half, self._ckpt_next_page
        else:
            if not self._ckpt_region_known:
                # Fresh store over a device of unknown history: wipe the
                # whole region so stale segments cannot shadow this one.
                stale = range(self._region_start_block, self.flash.block_count)
                self._ckpt_region_known = True
                half = 0
            else:
                half = 1 - self._ckpt_half
                stale = self._half_blocks(half)
            for block in stale:
                first_page = block * pages_per_block
                if any(
                    self.flash.is_written(page)
                    for page in range(first_page, first_page + pages_per_block)
                ):
                    self.flash.erase_block(block)
            first = 0
        # From the first program to the last the chain on flash is cut
        # short: if one fails, the next checkpoint must be a base — in
        # the half this one did not complete in.
        self._track_delta(base_reason or "reboot")
        self._checkpoint_counter += 1
        capacity = self._page_size - _CKPT_HEADER_BYTES
        page = self._half_blocks(half)[0] * pages_per_block + first
        for index in range(pages):
            chunk = payload[index * capacity : (index + 1) * capacity]
            self.flash.write_page(page + index, (
                _CKPT_MAGIC
                + self._checkpoint_counter.to_bytes(8, "big")
                + index.to_bytes(2, "big")
                + pages.to_bytes(2, "big")
                + len(chunk).to_bytes(2, "big")
                + chunk
            ))
        self._ckpt_half = half
        self._ckpt_next_page = first + pages
        self._track_delta(None)
        self._pages_since_checkpoint = 0
        self.checkpoints_written += 1
        kind = "delta" if base_reason is None else "base"
        _CHECKPOINTS.labels(kind=kind, reason=base_reason or "ok").inc()
        _CHECKPOINT_PAGES.inc(pages)
        _OBS.events.emit(
            "store.checkpoint", seq=self._page_sequence, segment=kind,
            reason=base_reason or "ok", pages=pages, records=entries,
        )
        return pages

    def _read_checkpoint_chain(self, region_pages: list[int],
                               stats: RecoveryStats) -> list[bytes]:
        """Read the reserved region's programmed pages; returns the
        payloads of the newest complete chain — its base, then the
        complete deltas that follow it with consecutive ids in the same
        half, up to the first torn or missing one (empty: no complete
        base) — and restores the writer: the chain's half, the next
        free page there as *programmed* (torn pages included; NAND
        will not take them twice), the segment counter, and whether
        the next checkpoint may extend the chain."""
        region_first = self._region_start_block * self._pages_per_block
        half_pages = self._half_pages
        chunks: dict[int, dict[int, bytes]] = {}
        totals: dict[int, int] = {}
        halves: dict[int, int] = {}
        programmed = [0, 0]  # pages of each half up to its last programmed one
        for page in region_pages:
            data = self.flash.read_page(page)
            stats.checkpoint_pages_read += 1
            half, offset = divmod(page - region_first, half_pages)
            programmed[half] = offset + 1
            if data[:2] != _CKPT_MAGIC:
                continue
            segment = int.from_bytes(data[2:10], "big")
            index = int.from_bytes(data[10:12], "big")
            length = int.from_bytes(data[14:16], "big")
            chunks.setdefault(segment, {})[index] = data[16 : 16 + length]
            totals[segment] = int.from_bytes(data[12:14], "big")
            halves[segment] = half
        self._ckpt_region_known = True
        self._checkpoint_counter = max(chunks, default=0)

        def complete(segment: int, magic: bytes) -> bool:
            got = chunks.get(segment, {})
            return (len(got) == totals.get(segment)
                    and got.get(0, b"")[:4] == magic)

        bases = [
            segment for segment in chunks if complete(segment, _CKPT_BASE)]
        if not bases:
            self._track_delta("reboot" if region_pages else "first")
            return []
        linked = [max(bases)]
        self._ckpt_half = halves[linked[0]]
        self._ckpt_next_page = programmed[self._ckpt_half]
        while (complete(linked[-1] + 1, _CKPT_DELTA)
               and halves[linked[-1] + 1] == self._ckpt_half):
            linked.append(linked[-1] + 1)
        self._track_delta(
            None if linked[-1] == self._checkpoint_counter else "reboot")
        return [
            b"".join(chunks[segment][index]
                     for index in range(totals[segment]))
            for segment in linked
        ]

    # -- reboot recovery -------------------------------------------------------

    @classmethod
    def recover(cls, flash: NandFlash,
                ram_budget_bytes: int | None = None, *,
                page_cache_bytes: int | None = None,
                zone_maps: bool = True,
                checkpoint_blocks: int = 0,
                checkpoint_interval_pages: int | None = None,
                use_checkpoint: bool = True,
                integrity_key: bytes | None = None) -> "LogStructuredStore":
        """Rebuild a store from a flash device after a reboot.

        The RAM directory is volatile; a restarted cell reconstructs it
        by replaying log pages in sequence order. Without a checkpoint
        (or with ``use_checkpoint=False``) every programmed page is
        read — the seed behaviour, cost visible in the flash counters.
        With a checkpoint region the replay is *incremental*: the
        newest complete base and the complete deltas chained to it
        restore the directory and zone maps as of the last of them
        (any prefix of the chain is a state the store was in, so a
        torn delta costs replay pages, never correctness), one probe
        read per previously known block proves it unchanged (NAND
        sequence numbers are monotone, so a matching first-page
        sequence rules out recycling), and only pages written after
        that segment are replayed. ``last_recovery`` records what the
        reboot cost either way.
        """
        store = cls(
            flash, ram_budget_bytes=ram_budget_bytes,
            page_cache_bytes=page_cache_bytes, zone_maps=zone_maps,
            checkpoint_blocks=checkpoint_blocks,
            checkpoint_interval_pages=checkpoint_interval_pages,
            integrity_key=integrity_key,
        )
        pages_per_block = flash.timings.pages_per_block
        header = cls._PAGE_HEADER_BYTES
        stats = RecoveryStats(mode="full")
        data_page_limit = store._data_block_count * pages_per_block
        programmed = flash.written_pages()
        written = [page for page in programmed if page < data_page_limit]
        segments: list[bytes] = []
        if checkpoint_blocks:
            segments = store._read_checkpoint_chain(
                programmed[len(written):], stats)
            if segments and not use_checkpoint:
                # the state is not built from the chain, so no delta
                # can extend it
                store._track_delta("reboot")
                segments = []
        sequenced: list[tuple[int, int, bytes]] = []
        if segments:
            stats.mode = "checkpoint"
            stats.checkpoint_segments = len(segments)
            for payload in segments:
                stats.checkpoint_seq = store._parse_checkpoint(
                    payload, store._directory, store._live_per_block,
                    store._summaries)
            store._page_sequence = stats.checkpoint_seq
            by_block: dict[int, list[int]] = {}
            for page in written:
                by_block.setdefault(page // pages_per_block, []).append(page)
            # Blocks the checkpoint knew that were erased (and possibly
            # rewritten) since — by compaction — are *stale*: their
            # checkpointed directory entries point at recycled pages.
            # Every record that survived lives in a strictly newer log
            # entry (GC relocates before erasing; full compaction
            # rewrites everything), so the stale entries are purged and
            # the replay below restores the survivors.
            stale_blocks: set[int] = set()
            for block in list(store._summaries):
                if block not in by_block:
                    stale_blocks.add(block)
                    store._summaries.pop(block)
                    store._live_per_block.pop(block, None)
            for block, pages in sorted(by_block.items()):
                pages.sort()
                summary = store._summaries.get(block)
                if summary is None or not summary.pages:
                    fresh = pages  # block unknown to the checkpoint
                else:
                    probe = flash.read_page(pages[0])
                    stats.probe_reads += 1
                    first_seq = int.from_bytes(probe[:header], "big")
                    if first_seq == summary.min_seq:
                        # unchanged prefix: replay only the tail pages
                        # programmed after the checkpoint
                        fresh = pages[summary.pages :]
                    else:
                        # erased and recycled since the checkpoint:
                        # every page here is newer; rebuild its summary
                        # from the replay
                        stale_blocks.add(block)
                        store._summaries.pop(block, None)
                        store._live_per_block.pop(block, None)
                        sequenced.append((first_seq, pages[0], probe))
                        fresh = pages[1:]
                for page in fresh:
                    data = flash.read_page(page)
                    sequenced.append(
                        (int.from_bytes(data[:header], "big"), page, data)
                    )
            if stale_blocks:
                for record_id, location in list(store._directory.items()):
                    if location[0] // pages_per_block in stale_blocks:
                        del store._directory[record_id]
                        if store._delta_ids is not None:
                            store._delta_ids[record_id] = None
                if store._delta_blocks is not None:
                    store._delta_blocks.update(stale_blocks)
        else:
            for page in written:
                data = flash.read_page(page)
                sequenced.append(
                    (int.from_bytes(data[:header], "big"), page, data)
                )
        sequenced.sort()
        for sequence, page, data in sequenced:
            store._replay_page(page, data, sequence)
            if sequence > store._page_sequence:
                store._page_sequence = sequence
        stats.pages_replayed = len(sequenced)
        _RECOVERY_PAGES.inc(len(sequenced))
        # Rebuild the allocator: tail past the last programmed block;
        # the block with trailing unprogrammed pages (at most one, by
        # the sequential-write discipline) resumes as the active block;
        # fully-erased blocks below the tail return to the free list.
        written_set = set(written)
        blocks_with_data = sorted(
            {page // pages_per_block for page in written_set}
        )
        store._allocated_pages = len(written_set)
        if blocks_with_data:
            store._tail_block = blocks_with_data[-1] + 1
            store._free_blocks = [
                block for block in range(store._tail_block)
                if block not in blocks_with_data
            ]
            # The sequential-program discipline guarantees at most one
            # partially-filled block: whatever was active at shutdown
            # (which, after GC recycling, need not be the highest one).
            for block in blocks_with_data:
                used_in_block = sum(
                    1 for page in written_set
                    if page // pages_per_block == block
                )
                if used_in_block < pages_per_block:
                    store._active_block = block
                    store._active_offset = used_in_block
                    break
        store.last_recovery = stats
        _OBS.events.emit(
            "store.recovery", mode=stats.mode,
            pages_replayed=stats.pages_replayed,
            checkpoint_pages=stats.checkpoint_pages_read,
            segments=stats.checkpoint_segments, probes=stats.probe_reads,
        )
        return store

    def _replay_page(self, page: int, data: bytes, sequence: int) -> None:
        """Apply one programmed page's log entries, parsed back off its
        image, exactly as its commit applied them."""
        self._apply_entries(
            page, self._note_page(page, data, sequence),
            self._page_entries(page, data),
        )

    def _page_entries(self, page: int, data: bytes):
        """Parse a page image back into :meth:`_apply_entries` entries
        (inserts carry their decoded record when zone maps want it)."""
        offset = self._PAGE_HEADER_BYTES
        while offset + 5 <= len(data):
            kind = data[offset]
            if kind not in (_ENTRY_INSERT, _ENTRY_DELETE):
                break  # 0xFF padding: end of entries on this page
            id_length = int.from_bytes(data[offset + 1 : offset + 3], "big")
            id_start = offset + 3
            payload_length = int.from_bytes(
                data[id_start + id_length : id_start + id_length + 2], "big"
            )
            payload_start = id_start + id_length + 2
            if payload_start + payload_length > len(data):
                break  # torn write: ignore the partial tail entry
            record_id = data[id_start : id_start + id_length].decode()
            record = None
            if kind == _ENTRY_INSERT and self._zone_maps:
                record = self._decode_at(
                    data, record_id, page, payload_start, payload_length)
            yield record_id, kind, payload_start, payload_length, record
            offset = payload_start + payload_length
