"""Per-block zone maps for the log-structured store.

A zone map (a.k.a. block summary or small materialized aggregate) is
the skip-scan structure embedded databases use when a secondary index
is too RAM-expensive: for every flash block the store remembers, in a
few dozen bytes, the min/max page sequence written there and the
min/max value of every record field flushed into it. A range query can
then prove "no record in this block can match" and skip the block's
pages entirely — the query never pays the device reads.

Summaries are *conservative over everything ever written to the
block*, superseded record versions included, so pruning can only skip
blocks, never matching records. Compaction erases a victim block and
drops its summary; the relocated records rebuild fresh summaries in
their new blocks at flush time.

Summaries also serve recovery: checkpoint segments persist them (a
delta carries those of the blocks touched since the segment before),
and their (first sequence, page count) fingerprint is how an
incremental reboot decides whether a block changed since the last
segment (see :meth:`LogStructuredStore.recover`).
"""

from __future__ import annotations

from .encoding import Record, Value

# Sentinel distinguishing "field never seen in this block" (prunable
# for any range) from "field seen but not summarizable" (never prune).
_ABSENT = object()
# A NaN fails every comparison, so it passes every range predicate and
# moves no min/max: a block that holds one must admit every range.
_EVERY_RANGE = (float("-inf"), float("inf"))


class BlockSummary:
    """Zone map of one flash block: sequences, pages, delete entries,
    field bounds."""

    __slots__ = ("min_seq", "max_seq", "pages", "tombstones", "fields")

    def __init__(self) -> None:
        self.min_seq: int | None = None
        self.max_seq: int | None = None
        self.pages = 0
        # Delete entries written to this block: incremental GC must
        # carry them forward, so they weigh like live records.
        self.tombstones = 0
        # field -> (lo, hi) bounds, or None when the block holds values
        # for the field that cannot be ordered (mixed types): such a
        # field can never be pruned in this block.
        self.fields: dict[str, tuple[Value, Value] | None] = {}

    # -- maintenance (called at flush and replay) ---------------------------

    def note_page(self, sequence: int) -> None:
        """Record one page written to this block."""
        if self.min_seq is None:
            self.min_seq = sequence
        self.max_seq = sequence if self.max_seq is None else max(
            self.max_seq, sequence
        )
        self.pages += 1

    def note_record(self, record: Record) -> None:
        """Fold one flushed record's fields into the bounds."""
        for name, value in record.items():
            if value is None:
                continue
            bounds = self.fields.get(name, _ABSENT)
            if bounds is None:
                continue  # already unorderable for this block
            if value != value:
                self.fields[name] = _EVERY_RANGE
                continue
            if bounds is _ABSENT:
                self.fields[name] = (value, value)
                continue
            lo, hi = bounds
            try:
                if value < lo:
                    lo = value
                if value > hi:
                    hi = value
            except TypeError:
                # mixed types (e.g. int then str): never prune on this
                # field in this block
                self.fields[name] = None
                continue
            self.fields[name] = (lo, hi)

    def note_values(self, name: str, values: list, *,
                    clean: bool = False) -> None:
        """Fold one field's column slice into the bounds in one pass.

        Exactly equivalent to ``note_record({name: v})`` for each value
        in order — including the order-dependent corner cases. Builtin
        ``min``/``max`` keep the *first* extremal element, which is the
        same tie behaviour as the sequential strict-compare fold, but
        only when comparisons are total: any NaN in the slice (which
        widens the bounds to every range) or an unorderable mix drops
        to the per-value fold. ``clean=True`` is the caller asserting
        the slice holds no ``None``/NaN and one orderable type (the
        columnar ingest path proves this from its typed arrays),
        skipping the per-value scans.
        """
        bounds = self.fields.get(name, _ABSENT)
        if bounds is None:
            return  # already unorderable for this block
        if clean:
            if not values:
                return
            lo = min(values)
            hi = max(values)
        else:
            values = [value for value in values if value is not None]
            if not values:
                return
            try:
                has_nan = any(value != value for value in values)
            except TypeError:
                has_nan = True  # exotic __eq__: take the exact path
            if not has_nan:
                try:
                    lo = min(values)
                    hi = max(values)
                except TypeError:
                    has_nan = True  # mixed types inside the slice
            if has_nan:
                for value in values:
                    self.note_record({name: value})
                return
        if bounds is _ABSENT:
            self.fields[name] = (lo, hi)
            return
        cur_lo, cur_hi = bounds
        try:
            if lo < cur_lo:
                cur_lo = lo
            if hi > cur_hi:
                cur_hi = hi
        except TypeError:
            self.fields[name] = None
            return
        self.fields[name] = (cur_lo, cur_hi)

    # -- pruning ------------------------------------------------------------

    def admits(self, field: str, low: Value, high: Value) -> bool:
        """Could any record ever written to this block match
        ``low <= record[field] <= high``? False means the block is
        provably dead for the range and its pages can be skipped."""
        bounds = self.fields.get(field, _ABSENT)
        if bounds is _ABSENT:
            # no record in this block ever carried the field, and a
            # missing field matches no range predicate
            return False
        if bounds is None:
            return True
        lo, hi = bounds
        try:
            if low is not None and hi < low:
                return False
            if high is not None and lo > high:
                return False
        except TypeError:
            return True  # query bounds not comparable with stored type
        return True

    # -- accounting ---------------------------------------------------------

    @property
    def ram_bytes(self) -> int:
        """Rough footprint: 32 bytes fixed + ~48 per summarized field."""
        return 32 + sum(len(name) + 48 for name in self.fields)

    # -- checkpoint serialization -------------------------------------------

    def to_record(self) -> Record:
        """Flatten into an encodable record (for the checkpoint)."""
        record: Record = {
            "s": self.min_seq, "S": self.max_seq, "p": self.pages,
        }
        if self.tombstones:
            record["d"] = self.tombstones
        for name, bounds in self.fields.items():
            if bounds is None:
                record["x:" + name] = True
            else:
                record["l:" + name] = bounds[0]
                record["h:" + name] = bounds[1]
        return record

    @classmethod
    def from_record(cls, record: Record) -> "BlockSummary":
        summary = cls()
        summary.min_seq = record["s"]
        summary.max_seq = record["S"]
        summary.pages = record["p"]
        summary.tombstones = record.get("d", 0)
        for key, value in record.items():
            if key.startswith("x:"):
                summary.fields[key[2:]] = None
            elif key.startswith("l:"):
                name = key[2:]
                summary.fields[name] = (value, record["h:" + name])
        return summary
