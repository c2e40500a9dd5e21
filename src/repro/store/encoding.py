"""Compact binary encoding for records, scalar and columnar.

The embedded store persists records as flat field maps. The encoding is
a deterministic tagged binary format (not JSON) because (a) records
must round-trip ``bytes`` values such as wrapped keys and digests, and
(b) determinism matters: the same record must serialize to the same
bytes so Merkle leaves and MACs are stable.

Supported value types: ``None``, ``bool``, ``int``, ``float``, ``str``,
``bytes``.

Two encode/decode paths share this format, same pattern as
:mod:`repro.commons.kernels`:

* the **scalar reference** (:func:`encode_record` /
  :func:`decode_record`) — one record at a time, the semantic oracle;
* the **columnar batch path** (:func:`encode_records`,
  :func:`encode_frames`, :func:`decode_page`) — numpy-backed,
  operating on a page's or a batch's worth of records as per-field
  typed arrays (:class:`ColumnBatch`). It is pinned
  bit-for-bit to the scalar path: batch-encoded payloads are byte
  identical and batch-decoded records compare equal, for every value
  tag. Batches that do not fit the vectorized lane (mixed schemas,
  negative or >63-bit ints, non-numeric columns) transparently fall
  back to the scalar reference, so callers never see a semantic
  difference — only a cost difference.
"""

from __future__ import annotations

import struct

import numpy as _np

from ..errors import StorageError

_TAG_NONE = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_INT = 3
_TAG_FLOAT = 4
_TAG_STR = 5
_TAG_BYTES = 6

Value = None | bool | int | float | str | bytes
Record = dict[str, Value]


def _encode_value(value: Value) -> bytes:
    if value is None:
        return bytes([_TAG_NONE])
    if value is True:
        return bytes([_TAG_TRUE])
    if value is False:
        return bytes([_TAG_FALSE])
    if isinstance(value, int):
        payload = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        return bytes([_TAG_INT]) + _varlen(payload)
    if isinstance(value, float):
        return bytes([_TAG_FLOAT]) + struct.pack(">d", value)
    if isinstance(value, str):
        return bytes([_TAG_STR]) + _varlen(value.encode())
    if isinstance(value, bytes):
        return bytes([_TAG_BYTES]) + _varlen(value)
    raise StorageError(f"unsupported record value type: {type(value).__name__}")


def _varlen(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "big") + payload


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.data):
            raise StorageError("truncated record encoding")
        chunk = self.data[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def take_varlen(self) -> bytes:
        length = int.from_bytes(self.take(4), "big")
        return self.take(length)

    @property
    def exhausted(self) -> bool:
        return self.offset == len(self.data)


def _decode_value(reader: _Reader) -> Value:
    tag = reader.take(1)[0]
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_INT:
        return int.from_bytes(reader.take_varlen(), "big", signed=True)
    if tag == _TAG_FLOAT:
        return struct.unpack(">d", reader.take(8))[0]
    if tag == _TAG_STR:
        return reader.take_varlen().decode()
    if tag == _TAG_BYTES:
        return reader.take_varlen()
    raise StorageError(f"unknown value tag {tag}")


def encode_record(record: Record) -> bytes:
    """Serialize a record deterministically (fields in sorted order)."""
    parts = [len(record).to_bytes(2, "big")]
    for field_name in sorted(record):
        parts.append(_varlen(field_name.encode()))
        parts.append(_encode_value(record[field_name]))
    return b"".join(parts)


def _decode_record_inner(data: bytes) -> Record:
    reader = _Reader(data)
    field_count = int.from_bytes(reader.take(2), "big")
    record: Record = {}
    try:
        for _ in range(field_count):
            field_name = reader.take_varlen().decode()
            record[field_name] = _decode_value(reader)
    except UnicodeDecodeError as exc:
        raise StorageError("corrupted text in record encoding") from exc
    if not reader.exhausted:
        raise StorageError("trailing bytes after record")
    return record


def decode_record(data: bytes, *, context: str | None = None) -> Record:
    """Inverse of :func:`encode_record`; raises :class:`StorageError`
    on any malformed input (including invalid UTF-8 from bit flips).

    ``context`` is appended to the error message so corrupt-flash
    diagnostics can name the page/block/offset the bytes came from,
    not just "bad tag".
    """
    if context is None:
        return _decode_record_inner(data)
    try:
        return _decode_record_inner(data)
    except StorageError as error:
        raise StorageError(f"{error} [{context}]") from error


# -- columnar batch path ------------------------------------------------------
#
# Everything below is the vectorized lane. It exists purely for speed:
# every function either produces byte-identical output to the scalar
# reference above or returns None / falls back to it, so callers treat
# the two lanes as interchangeable.

# Below this many records the numpy call overhead dominates; the scalar
# loop is faster and trivially exact.
COLUMNAR_MIN_BATCH = 16

_INT64_MIN = -(2**63)


class ColumnBatch:
    """A batch of decoded records held as per-field columns.

    ``fields`` is the (sorted) schema of the columnar lane; ``columns``
    maps each field to a list of ``count`` Python values. Rows that did
    not fit the uniform schema live whole in ``scalar_rows`` (row index
    -> record); their slots in the column lists hold placeholders that
    must never be read. ``row(i)`` / ``rows()`` materialize plain
    records equal to what :func:`decode_record` would have produced.
    """

    __slots__ = ("count", "fields", "columns", "scalar_rows", "_numeric")

    def __init__(self, count: int, fields: tuple[str, ...] = (),
                 columns: dict[str, list] | None = None,
                 scalar_rows: dict[int, Record] | None = None) -> None:
        self.count = count
        self.fields = tuple(fields)
        self.columns = columns if columns is not None else {}
        self.scalar_rows = scalar_rows if scalar_rows is not None else {}
        self._numeric: dict[str, tuple | None] = {}

    @classmethod
    def from_records(cls, records: list[Record]) -> "ColumnBatch":
        """A fully scalar batch (used when vectorization is off)."""
        return cls(len(records), scalar_rows=dict(enumerate(records)))

    @classmethod
    def from_arrays(cls, arrays: dict[str, object],
                    consts: dict[str, Value] | None = None,
                    count: int | None = None) -> "ColumnBatch":
        """Build a batch straight from per-field numpy arrays.

        ``arrays`` maps field name -> one-dimensional integer/float
        array (one value per row); ``consts`` maps field name -> one
        str/bytes/bool/None value repeated for every row. This is the
        producer-side entry point of the columnar ingest lane: the
        arrays are kept as the batch's cached numeric views, so
        :func:`lane_plan_for_batch` skips the per-record gathers and
        type scans entirely and the encoder works on the arrays the
        producer already holds. ``row()``/``rows()`` still materialize
        records equal to what the scalar path would have seen.
        """
        consts = consts or {}
        columns: dict[str, list] = {}
        numeric: dict[str, tuple] = {}
        for name, column in arrays.items():
            arr = _np.asarray(column)
            if arr.ndim != 1:
                raise StorageError(
                    f"column {name!r} must be one-dimensional")
            if count is None:
                count = arr.shape[0]
            elif arr.shape[0] != count:
                raise StorageError(
                    f"column {name!r} has {arr.shape[0]} values, "
                    f"expected {count}")
            kind = arr.dtype.kind
            try:
                if kind in "iu":
                    arr = _np.ascontiguousarray(
                        arr.astype(_np.int64, casting="safe", copy=False))
                    numeric[name] = ("i", arr)
                elif kind == "f":
                    arr = _np.ascontiguousarray(
                        arr.astype(_np.float64, casting="safe", copy=False))
                    numeric[name] = ("f", arr)
                else:
                    raise StorageError(
                        f"column {name!r}: unsupported dtype {arr.dtype} "
                        "(pass non-numeric fields via consts)")
            except TypeError as exc:  # e.g. uint64 cannot cast safely
                raise StorageError(
                    f"column {name!r}: dtype {arr.dtype} does not fit "
                    "int64") from exc
        if count is None:
            count = 0
        for name, value in consts.items():
            if name in numeric:
                raise StorageError(f"field {name!r} given twice")
            if not (value is None or type(value) in (bool, str, bytes)):
                raise StorageError(
                    f"const field {name!r}: unsupported type "
                    f"{type(value).__name__}")
            columns[name] = [value] * count
        # Numeric columns stay as their arrays; the Python value lists
        # materialize lazily (``row``/``rows``) so the fused ingest
        # path never pays a whole-column ``tolist``.
        batch = cls(count, tuple(sorted(set(columns) | set(numeric))), columns)
        batch._numeric.update(numeric)
        return batch

    def row(self, index: int) -> Record:
        if index in self.scalar_rows:
            return self.scalar_rows[index]
        columns = self.columns
        if len(columns) != len(self.fields):  # lazy from_arrays batch
            out = {}
            for name in self.fields:
                column = columns.get(name)
                if column is not None:
                    out[name] = column[index]
                else:
                    out[name] = self._numeric[name][1][index].item()
            return out
        return {name: columns[name][index] for name in self.fields}

    def _materialize_columns(self) -> None:
        for name in self.fields:
            if name not in self.columns:
                self.columns[name] = self._numeric[name][1].tolist()

    def rows(self) -> list[Record]:
        if not self.scalar_rows:
            names = self.fields
            if not names:
                return [{} for _ in range(self.count)]
            if len(self.columns) != len(names):
                self._materialize_columns()
            return [
                dict(zip(names, values))
                for values in zip(*(self.columns[name] for name in names))
            ]
        return [self.row(index) for index in range(self.count)]

    def numeric_view(self, name: str):
        """``(kind, array)`` for a pure-numeric column, else ``None``.

        ``kind`` is ``"i"`` (int64) or ``"f"`` (float64); the array has
        ``count`` entries and is only meaningful at non-scalar rows.
        Returns ``None`` when the column is absent, mixed-type, holds
        bools, or holds ints outside int64 — callers must then fall
        back to per-record :meth:`Predicate.matches`.
        """
        if name in self._numeric:
            return self._numeric[name]
        view = None
        column = self.columns.get(name)
        if column is not None:
            kinds = set(map(type, column))
            if kinds == {int}:
                try:
                    view = ("i", _np.fromiter(
                        column, dtype=_np.int64, count=self.count))
                except OverflowError:
                    view = None
            elif kinds == {float}:
                view = ("f", _np.fromiter(
                    column, dtype=_np.float64, count=self.count))
        self._numeric[name] = view
        return view


# -- vectorized encode --------------------------------------------------------


class _LanePlan:
    """Column classification of a uniform-schema record batch."""

    __slots__ = ("names", "kinds", "arrays", "consts", "lengths", "count")

    def __init__(self, names, kinds, arrays, consts, lengths, count):
        self.names = names      # sorted field names
        self.kinds = kinds      # name -> "i" | "f" | "c"
        self.arrays = arrays    # name -> int64/float64 ndarray
        self.consts = consts    # name -> encoded (tag + value) bytes
        self.lengths = lengths  # name -> per-record int payload lengths
        self.count = count


def _int_lengths(arr) -> "object":
    """Per-value encoded length of the INT payload (the ``L`` in
    ``tag | varlen(L) | L bytes``), matching ``(bit_length+8)//8 + 1``
    of the scalar encoder for the full int64 range."""
    lengths = _np.full(arr.shape, 2, dtype=_np.int64)
    for k in range(1, 8):
        bound = 1 << (8 * k - 1)
        lengths += arr >= bound
        lengths += arr <= -bound
    lengths += arr == _INT64_MIN  # bit_length 64 needs one more byte
    return lengths


def lane_plan(records: list[Record]) -> _LanePlan | None:
    """Classify a batch for the vectorized encoder.

    Returns ``None`` (caller falls back to the scalar encoder) unless
    every record has the same field set and every column is pure
    ``int`` (within int64), pure ``float``, or a constant
    str/bytes/None/bool. ``type() is`` checks keep bools and subclasses
    out of the numeric lanes — they encode differently.
    """
    count = len(records)
    if count < COLUMNAR_MIN_BATCH:
        return None
    names = sorted(records[0])
    width = len(names)
    # Uniform-schema check in two C-speed passes: every record holds all
    # of ``names`` (the gathers below raise KeyError otherwise), and the
    # field-count total matches — together those force len(r) == width
    # for every record.
    if sum(map(len, records)) != width * count:
        return None
    kinds: dict[str, str] = {}
    arrays: dict[str, object] = {}
    consts: dict[str, bytes] = {}
    lengths: dict[str, object] = {}
    for name in names:
        try:
            column = [record[name] for record in records]
        except KeyError:
            return None
        col_types = set(map(type, column))
        if col_types == {int}:
            try:
                arr = _np.fromiter(column, dtype=_np.int64, count=count)
            except OverflowError:
                return None
            kinds[name] = "i"
            arrays[name] = arr
            lengths[name] = _int_lengths(arr)
        elif col_types == {float}:
            kinds[name] = "f"
            arrays[name] = _np.fromiter(column, dtype=_np.float64, count=count)
        elif len(col_types) == 1 and col_types <= {str, bytes, type(None), bool}:
            if column.count(column[0]) != count:
                return None
            kinds[name] = "c"
            consts[name] = _encode_value(column[0])
        else:
            return None
    return _LanePlan(names, kinds, arrays, consts, lengths, count)


def lane_plan_for_batch(batch: ColumnBatch, start: int = 0,
                        end: int | None = None) -> _LanePlan | None:
    """Lane plan for a slice of a :class:`ColumnBatch`, classifying
    from the batch's cached numeric views instead of per-record
    gathers. Returns ``None`` (callers fall back to materialized rows)
    unless every column is a numeric view or a constant
    str/bytes/None/bool column — the :meth:`ColumnBatch.from_arrays`
    shape. The resulting plan encodes bit-identically to
    :func:`lane_plan` over ``batch.rows()[start:end]``.
    """
    if batch.scalar_rows or not batch.fields:
        return None
    if end is None:
        end = batch.count
    count = end - start
    if count < COLUMNAR_MIN_BATCH:
        return None
    names = sorted(batch.fields)
    kinds: dict[str, str] = {}
    arrays: dict[str, object] = {}
    consts: dict[str, bytes] = {}
    lengths: dict[str, object] = {}
    for name in names:
        view = batch.numeric_view(name)
        if view is not None:
            kind, arr = view
            arr = arr[start:end]
            kinds[name] = kind
            arrays[name] = arr
            if kind == "i":
                lengths[name] = _int_lengths(arr)
        else:
            column = batch.columns[name][start:end]
            first = column[0]
            if not (first is None or type(first) in (bool, str, bytes)):
                return None
            if column.count(first) != count:
                return None
            kinds[name] = "c"
            consts[name] = _encode_value(first)
    return _LanePlan(names, kinds, arrays, consts, lengths, count)


def _int_column_bytes(arr, length: int):
    """``(n, length)`` uint8 matrix: each value's big-endian
    two's-complement bytes, exactly ``to_bytes(length, signed=True)``."""
    out = _np.empty((arr.shape[0], length), dtype=_np.uint8)
    for j in range(length):
        shift = 8 * (length - 1 - j)
        if shift >= 64:
            out[:, j] = _np.where(arr < 0, 0xFF, 0x00)
        else:
            out[:, j] = ((arr >> shift) & 0xFF).astype(_np.uint8)
    return out


def _float_column_bytes(arr):
    """``(n, 8)`` uint8 matrix of IEEE big-endian doubles (``>d``)."""
    return _np.ascontiguousarray(arr, dtype=">f8").view(_np.uint8).reshape(-1, 8)


def _payload_layout(plan: _LanePlan, records: list[Record], start: int):
    """Template payload + per-field value-byte offsets for the run
    beginning at ``start``. The template comes from the *scalar*
    encoder, so the skeleton (everything but numeric value bytes) is
    correct by construction."""
    template = encode_record(records[start])
    offsets: dict[str, tuple[int, int]] = {}
    position = 2
    for name in plan.names:
        position += 4 + len(name.encode())
        kind = plan.kinds[name]
        if kind == "i":
            length = int(plan.lengths[name][start])
            offsets[name] = (position + 5, length)  # tag + 4-byte varlen
            position += 5 + length
        elif kind == "f":
            offsets[name] = (position + 1, 8)
            position += 9
        else:
            position += len(plan.consts[name])
    if position != len(template):  # pragma: no cover - structural guard
        return None
    return template, offsets


def _run_bounds(plan: _LanePlan, extra=None) -> list[int]:
    """Cut points where any int column's byte length (or the optional
    ``extra`` signature array) changes — within a run every frame has
    one fixed layout."""
    count = plan.count
    signatures = list(plan.lengths.values())
    if extra is not None:
        signatures.append(extra)
    if not signatures or count < 2:
        return [0, count]
    change = _np.zeros(count - 1, dtype=bool)
    for signature in signatures:
        change |= signature[1:] != signature[:-1]
    return [0] + (_np.flatnonzero(change) + 1).tolist() + [count]


def _scatter_columns(plan, matrix, offsets, start, end) -> None:
    for name, (value_offset, length) in offsets.items():
        kind = plan.kinds[name]
        if kind == "i":
            matrix[:, value_offset : value_offset + length] = _int_column_bytes(
                plan.arrays[name][start:end], length
            )
        elif kind == "f":
            matrix[:, value_offset : value_offset + 8] = _float_column_bytes(
                plan.arrays[name][start:end]
            )


def encode_records(records: list[Record]) -> list[bytes]:
    """Batch :func:`encode_record`: byte-identical payloads, one numpy
    matrix per constant-layout run instead of one call per record."""
    if not isinstance(records, list):
        records = list(records)
    plan = lane_plan(records)
    if plan is None:
        return [encode_record(record) for record in records]
    out: list[bytes] = []
    bounds = _run_bounds(plan)
    for start, end in zip(bounds, bounds[1:]):
        layout = _payload_layout(plan, records, start)
        if layout is None:  # pragma: no cover - structural guard
            out.extend(encode_record(r) for r in records[start:end])
            continue
        template, offsets = layout
        width = len(template)
        matrix = _np.empty((end - start, width), dtype=_np.uint8)
        matrix[:] = _np.frombuffer(template, dtype=_np.uint8)
        _scatter_columns(plan, matrix, offsets, start, end)
        blob = matrix.tobytes()
        out.extend(
            blob[i * width : (i + 1) * width] for i in range(end - start)
        )
    return out


class FrameRun:
    """One constant-layout run of encoded log frames.

    ``blob`` holds ``count`` back-to-back frames of ``frame_len`` bytes
    each, byte-identical to the frames ``LogStructuredStore._append``
    buffers for the same (kind, id, record) triples. ``payload_offset``
    is where the encoded record starts inside each frame."""

    __slots__ = ("start", "count", "frame_len", "payload_len",
                 "payload_offset", "blob")

    def __init__(self, start, count, frame_len, payload_len,
                 payload_offset, blob):
        self.start = start
        self.count = count
        self.frame_len = frame_len
        self.payload_len = payload_len
        self.payload_offset = payload_offset
        self.blob = blob


def encode_frame_runs(kind: int, record_ids: list[str],
                      records: list[Record],
                      plan: _LanePlan | None = None) -> list[FrameRun] | None:
    """Vectorized log-frame assembly for a whole batch.

    Returns ``None`` when the batch does not fit the columnar lane (the
    caller takes the ``put`` loop). Otherwise the concatenation of the
    returned runs' blobs equals the frames that loop would buffer for
    the batch, bit for bit.
    """
    if plan is None:
        plan = lane_plan(records)
    if plan is None:
        return None
    count = plan.count
    # One encode of the joined ids beats 86k per-id encodes; when the
    # byte length matches the char length the batch is pure ASCII and
    # char offsets are byte offsets, so runs slice straight out of the
    # joined blob.
    joined = "".join(record_ids)
    joined_bytes = joined.encode()
    if len(joined_bytes) == len(joined):
        id_lengths = _np.fromiter(
            map(len, record_ids), dtype=_np.int64, count=count)
    else:
        encoded_ids = [record_id.encode() for record_id in record_ids]
        joined_bytes = b"".join(encoded_ids)
        id_lengths = _np.fromiter(
            map(len, encoded_ids), dtype=_np.int64, count=count)
    id_starts = _np.zeros(count + 1, dtype=_np.int64)
    _np.cumsum(id_lengths, out=id_starts[1:])
    runs: list[FrameRun] = []
    bounds = _run_bounds(plan, extra=id_lengths)
    kind_byte = bytes([kind])
    for start, end in zip(bounds, bounds[1:]):
        layout = _payload_layout(plan, records, start)
        if layout is None:  # pragma: no cover - structural guard
            return None
        template, offsets = layout
        id_length = int(id_lengths[start])
        first_id_at = int(id_starts[start])
        payload_offset = 5 + id_length
        header = (
            kind_byte
            + id_length.to_bytes(2, "big")
            + joined_bytes[first_id_at : first_id_at + id_length]
            + len(template).to_bytes(2, "big")
        )
        frame_template = header + template
        frame_len = len(frame_template)
        run_count = end - start
        matrix = _np.empty((run_count, frame_len), dtype=_np.uint8)
        matrix[:] = _np.frombuffer(frame_template, dtype=_np.uint8)
        if id_length:
            matrix[:, 3 : 3 + id_length] = _np.frombuffer(
                joined_bytes[first_id_at : int(id_starts[end])],
                dtype=_np.uint8,
            ).reshape(run_count, id_length)
        shifted = {
            name: (payload_offset + value_offset, length)
            for name, (value_offset, length) in offsets.items()
        }
        _scatter_columns(plan, matrix, shifted, start, end)
        runs.append(FrameRun(
            start=start, count=run_count, frame_len=frame_len,
            payload_len=len(template), payload_offset=payload_offset,
            blob=matrix.tobytes(),
        ))
    return runs


# -- vectorized decode --------------------------------------------------------


def _template_layout(template: bytes, record: Record):
    """Walk a decoded template payload; per sorted field returns
    ``(kind, value_offset, value_length)`` with kind ``"i"`` (int, only
    when the vector accumulator stays in int64: L <= 8), ``"f"``
    (float), ``"s"``/``"b"`` (str/bytes, sliced per row), or ``"k"``
    (tag-only constants: None/bools). Returns ``None`` when a field
    cannot be handled (the whole group decodes scalar)."""
    layout = []
    position = 2
    for name in sorted(record):
        position += 4 + len(name.encode())
        tag = template[position]
        position += 1
        if tag in (_TAG_NONE, _TAG_TRUE, _TAG_FALSE):
            layout.append((name, "k", position, 0))
        elif tag == _TAG_INT:
            length = int.from_bytes(template[position : position + 4], "big")
            if length > 8:
                return None  # int64 accumulator would overflow
            layout.append((name, "i", position + 4, length))
            position += 4 + length
        elif tag == _TAG_FLOAT:
            layout.append((name, "f", position, 8))
            position += 8
        else:  # str / bytes
            length = int.from_bytes(template[position : position + 4], "big")
            layout.append(
                (name, "s" if tag == _TAG_STR else "b", position + 4, length)
            )
            position += 4 + length
    if position != len(template):  # pragma: no cover - structural guard
        return None
    return layout


def _int_column_values(matrix, offset: int, length: int):
    """Signed big-endian decode of ``matrix[:, offset:offset+length]``
    into int64 (callers guarantee ``length <= 8``)."""
    first = matrix[:, offset].astype(_np.int64)
    values = _np.where(first >= 128, first - 256, first)
    for j in range(1, length):
        values = (values << 8) | matrix[:, offset + j]
    return values


def decode_page(payloads: list[bytes], *,
                context: str | None = None) -> ColumnBatch:
    """Batch :func:`decode_record` over one page's (or chunk's) payload
    slices.

    Payloads are grouped by length; each group is decoded against its
    first payload's layout after verifying every skeleton byte (field
    counts, name bytes, tags, length prefixes) matches — identical
    skeletons imply identical structure, so only value bytes differ and
    numeric columns decode in one numpy pass. Rows failing the skeleton
    check, and groups the vector lane cannot express, fall back to the
    scalar decoder. The resulting records compare equal to per-record
    :func:`decode_record`, errors included.
    """
    count = len(payloads)
    if count < COLUMNAR_MIN_BATCH:
        return ColumnBatch.from_records(
            [decode_record(p, context=context) for p in payloads]
        )
    by_length: dict[int, list[int]] = {}
    for index, payload in enumerate(payloads):
        by_length.setdefault(len(payload), []).append(index)

    fields: tuple[str, ...] | None = None
    columns: dict[str, list] = {}
    scalar_rows: dict[int, Record] = {}

    def decode_scalar(indexes) -> None:
        for index in indexes:
            scalar_rows[index] = decode_record(payloads[index], context=context)

    for length, indexes in by_length.items():
        if len(indexes) < COLUMNAR_MIN_BATCH:
            decode_scalar(indexes)
            continue
        template = payloads[indexes[0]]
        first_record = decode_record(template, context=context)
        layout = _template_layout(template, first_record)
        group_fields = tuple(sorted(first_record))
        if layout is None or (fields is not None and group_fields != fields):
            decode_scalar(indexes)
            continue
        if fields is None:
            fields = group_fields
            columns = {name: [None] * count for name in fields}
        matrix = _np.frombuffer(
            b"".join(payloads[i] for i in indexes), dtype=_np.uint8
        ).reshape(len(indexes), length)
        template_arr = _np.frombuffer(template, dtype=_np.uint8)
        value_mask = _np.zeros(length, dtype=bool)
        for _name, kind, offset, value_len in layout:
            if kind != "k":
                value_mask[offset : offset + value_len] = True
        skeleton = _np.flatnonzero(~value_mask)
        ok = (matrix[:, skeleton] == template_arr[skeleton]).all(axis=1)
        good = _np.flatnonzero(ok)
        if len(good) < len(indexes):
            decode_scalar(indexes[i] for i in _np.flatnonzero(~ok).tolist())
        if not len(good):
            continue
        good_rows = matrix[good] if len(good) < len(indexes) else matrix
        good_indexes = [indexes[i] for i in good.tolist()]
        for name, kind, offset, value_len in layout:
            column = columns[name]
            if kind == "i":
                values = _int_column_values(
                    good_rows, offset, value_len).tolist()
                for index, value in zip(good_indexes, values):
                    column[index] = value
            elif kind == "f":
                values = _np.ascontiguousarray(
                    good_rows[:, offset : offset + 8]
                ).view(">f8").ravel().tolist()
                for index, value in zip(good_indexes, values):
                    column[index] = value
            elif kind == "k":
                value = first_record[name]
                for index in good_indexes:
                    column[index] = value
            else:
                if kind == "s":
                    try:
                        for index in good_indexes:
                            payload = payloads[index]
                            column[index] = payload[
                                offset : offset + value_len].decode()
                    except UnicodeDecodeError as exc:
                        raise StorageError(
                            "corrupted text in record encoding"
                            + (f" [{context}]" if context else "")
                        ) from exc
                else:
                    for index in good_indexes:
                        payload = payloads[index]
                        column[index] = payload[offset : offset + value_len]
    if fields is None or len(scalar_rows) == count:
        return ColumnBatch(count, scalar_rows=scalar_rows)
    # placeholder-fill the slots owned by scalar rows so numeric_view's
    # type scan never trips over them
    if scalar_rows:
        for name in fields:
            column = columns[name]
            filler = column[next(
                i for i in range(count) if i not in scalar_rows)]
            for index in scalar_rows:
                column[index] = filler
    return ColumnBatch(count, fields, columns, scalar_rows)
