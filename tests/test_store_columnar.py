"""Property tests pinning the columnar batch path to the scalar path.

The store-level reference is the single-record API — a ``put`` loop for
the flash image, ``scan``/``scan_range`` for rows — and, for catalog
queries, an oracle that never touches the store: the inserted dicts
filtered with ``Predicate.matches``.

Every vectorized surface added by the columnar record path must be
*observationally identical* to the per-record reference it replaces:
``encode_records`` to ``encode_record``, ``decode_page`` rows to
``decode_record``, ``matches_batch`` masks to ``matches``,
``insert_batch``/``scan_batches`` flash state to the scalar ingest and
scan, zone-map folds to per-record ``note_record``, and the page-level
AEAD bundles to per-frame seals (modulo 4 vs 4·N keyed HMACs, which is
the point). The oracle for value-level comparisons is the canonical
record encoding — it distinguishes ``1``/``1.0``/``True``, ``0.0`` and
``-0.0``, and is deterministic for NaN.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import (
    open_frames,
    pack_frames,
    seal,
    seal_frames,
    unpack_frames,
)
from repro.crypto.primitives import hmac_invocations
from repro.errors import (
    CapacityError,
    IntegrityError,
    NotFoundError,
    QueryError,
    StorageError,
)
from repro.hardware import FlashTimings, NandFlash
from repro.obs import get_default
from repro.policy import DataEnvelope, private_policy
from repro.store import (
    Aggregate,
    Between,
    Catalog,
    Eq,
    HasKeyword,
    LogStructuredStore,
    Query,
    decode_record,
    encode_record,
)
from repro.store.encoding import (
    COLUMNAR_MIN_BATCH,
    ChunkPayloads,
    ColumnBatch,
    _row_builder,
    build_rows,
    decode_page,
    encode_records,
)
from repro.store.query import MATCH_ALL, And, Contains, Ne, Not, Or
from repro.store.zonemap import BlockSummary

TIMINGS = FlashTimings(
    page_size=256, pages_per_block=4,
    read_page_us=25.0, write_page_us=250.0, erase_block_us=1500.0,
)

KEY = bytes(range(16))

INT64_HI = 2**63 - 1
INT64_LO = -(2**63)

# Every value tag plus the adversarial corners: bools (not ints!), int64
# edges and beyond, exact-float boundaries, NaN/±0.0/infinities, empty
# and non-ASCII strings, bytes.
SPECIAL_VALUES = [
    None, True, False,
    0, 1, -1, 7, 255, -256,
    INT64_HI, INT64_LO, INT64_HI + 1, INT64_LO - 1,
    2**53, 2**53 + 1, -(2**53) - 1,
    0.0, -0.0, 1.0, -1.5, 2.25e10,
    float("nan"), float("inf"), float("-inf"),
    "", "a", "zz", "beach family picnic", "énergie",
    b"", b"\x00\xff", b"frame",
]

FIELD_POOL = ["t", "w", "unit", "note", "x"]


def make_flash(pages=512):
    return NandFlash(TIMINGS, capacity_bytes=pages * TIMINGS.page_size)


def flash_image(flash):
    import hashlib

    digest = hashlib.sha256()
    for page in flash.written_pages():
        digest.update(page.to_bytes(4, "big"))
        digest.update(flash.read_page(page))
    return digest.hexdigest()


def random_record(rng, fields=None):
    if fields is None:
        fields = rng.sample(FIELD_POOL, rng.randint(0, len(FIELD_POOL)))
    return {name: rng.choice(SPECIAL_VALUES) for name in fields}


def random_batch_records(rng, count):
    """Sometimes uniform-schema (vector lane), sometimes ragged."""
    if rng.random() < 0.6:
        fields = rng.sample(FIELD_POOL, rng.randint(1, 3))
        if rng.random() < 0.5:
            # numeric-leaning columns: the lane's sweet spot
            return [
                {
                    name: rng.choice(
                        [rng.randint(-100, 100), rng.uniform(-5, 5),
                         rng.choice(SPECIAL_VALUES)]
                    )
                    for name in fields
                }
                for _ in range(count)
            ]
        return [random_record(rng, fields) for _ in range(count)]
    return [random_record(rng) for _ in range(count)]


def summaries_snapshot(store):
    """repr-level zone-map state: distinguishes 0.0 from -0.0."""
    out = {}
    for block, summary in sorted(store._summaries.items()):
        fields = {
            name: tuple(map(repr, bounds)) if bounds else bounds
            for name, bounds in summary.fields.items()
        }
        out[block] = (summary.min_seq, summary.max_seq, summary.pages, fields)
    return out


# -- codec equivalence --------------------------------------------------------


class TestCodecEquivalence:
    def test_encode_records_bit_for_bit(self):
        rng = random.Random(2013)
        for trial in range(40):
            records = random_batch_records(rng, rng.randint(0, 80))
            expected = [encode_record(record) for record in records]
            assert encode_records(records) == expected, f"trial {trial}"

    def test_decode_page_rows_match_decode_record(self):
        rng = random.Random(77)
        for trial in range(40):
            records = random_batch_records(rng, rng.randint(1, 80))
            payloads = [encode_record(record) for record in records]
            batch = decode_page(payloads)
            assert batch.count == len(records)
            # re-encoding is the NaN-safe value oracle
            assert [
                encode_record(batch.row(index)) for index in range(batch.count)
            ] == payloads, f"trial {trial}"
            scalar_rows = [decode_record(payload) for payload in payloads]
            for index, row in enumerate(scalar_rows):
                assert encode_record(batch.row(index)) == encode_record(row)

    def test_decode_page_empty(self):
        batch = decode_page([])
        assert batch.count == 0 and batch.rows() == []


def list_columns(batch):
    """``batch`` with every field a list of its rows' values (a scalar
    row's slot holding the first columnar row's), so its
    ``numeric_view`` takes the list path: ``np.fromiter`` over the
    decoded values."""
    rows = batch.rows()
    scalar = batch.scalar_rows
    filler = rows[next(i for i in range(batch.count) if i not in scalar)]
    return ColumnBatch(batch.count, batch.fields, {
        name: [(filler if index in scalar else rows[index])[name]
               for index in range(batch.count)]
        for name in batch.fields}, scalar)


def assert_same_numeric_views(batch, reference):
    """Same verdict per field; same kind, dtype and bits at the columnar
    rows wherever there is a view."""
    columnar = np.array([index not in batch.scalar_rows
                         for index in range(batch.count)])
    for name in FIELD_POOL + ["v", "absent"]:
        view, expected = batch.numeric_view(name), reference.numeric_view(name)
        assert (view is None) == (expected is None), name
        if view is not None:
            (kind, values), (expected_kind, expected_values) = view, expected
            assert kind == expected_kind and len(values) == batch.count
            assert values.dtype == expected_values.dtype
            assert (values[columnar].tobytes()
                    == expected_values[columnar].tobytes()), name


def decoded_chunk_cases(rng):
    """Payload chunks for every way decode_page groups a chunk."""
    small = [{"t": rng.randint(0, 100), "w": rng.uniform(-5, 5)}
             for _ in range(40)]
    yield "one group", small
    yield "several int lengths", [
        {"t": rng.choice([5, 300, 70_000, 2**40, -(2**50)]),
         "w": rng.uniform(-5, 5)} for _ in range(120)]
    yield "a group below the bar", small + [{"t": 2**40, "w": 1.0}] * 5
    yield "a skeleton mismatch", small + [{"x": 1, "w": 2.0}] * 20
    yield "an int over 8 bytes", small + [{"t": INT64_HI + 1, "w": 0.5}] * 20
    yield "int in one group, float in another", (
        [{"v": rng.randint(0, 100)} for _ in range(20)]
        + [{"v": rng.uniform(-5, 5)} for _ in range(20)])
    yield "int in one group, None in another", (
        [{"v": rng.randint(0, 100)} for _ in range(20)] + [{"v": None}] * 20)
    yield "bools", [{"v": rng.random() < 0.5, "t": 1} for _ in range(30)]
    yield "NaN and signed zeros", [
        {"w": rng.choice([float("nan"), 0.0, -0.0, float("inf")])}
        for _ in range(30)]
    for trial in range(60):
        yield f"random mix {trial}", random_batch_records(
            rng, rng.randint(COLUMNAR_MIN_BATCH, 120))


class TestDecodePageNumericViews:
    """A clean numeric field leaves decode_page as the array it decoded
    to; its view, its rows and the records the page cache keeps of
    them (its ``rows()``) are what the list path gives."""

    def test_views_and_rows_match_the_list_path(self):
        rng = random.Random(29)
        groupings = set()
        for case, records in decoded_chunk_cases(rng):
            payloads = [encode_record(record) for record in records]
            batch = decode_page(payloads)
            # re-encoding is the NaN- and bool-safe value oracle
            assert [encode_record(row) for row in batch.rows()] == [
                encode_record(decode_record(payload))
                for payload in payloads], case
            if not batch.fields or len(batch.scalar_rows) == batch.count:
                continue
            groupings.add((len(set(map(len, payloads))) > 1,
                           bool(batch.scalar_rows)))
            assert_same_numeric_views(
                decode_page(payloads), list_columns(batch))
        # one- and multi-group chunks, each with and without scalar rows
        assert groupings == {(False, False), (False, True),
                             (True, False), (True, True)}

    def test_chunk_payloads_decode_as_the_listed_payloads(self):
        """A chunk handed over as segments — runs of equal-length
        payloads as row arrays (strided views among them), the rest as
        payload lists — decodes to the rows, scalar rows and numeric
        views of the same payloads listed one by one."""
        rng = random.Random(31)
        for case, records in decoded_chunk_cases(rng):
            payloads = [encode_record(record) for record in records]
            segments, at = [], 0
            while at < len(payloads):
                end = min(len(payloads), at + rng.randint(1, 40))
                part = payloads[at:end]
                if rng.random() < 0.6 and len(set(map(len, part))) == 1:
                    rows = np.frombuffer(b"".join(part), dtype=np.uint8)
                    rows = rows.reshape(len(part), len(part[0]))
                    if rng.random() < 0.5:  # a strided view of wider rows
                        wide = np.zeros((len(part), len(part[0]) + 3),
                                        dtype=np.uint8)
                        wide[:, 3:] = rows
                        rows = wide[:, 3:]
                    part = rows
                segments.append(part)
                at = end
            chunk = ChunkPayloads(segments)
            assert len(chunk) == len(payloads)
            batch, reference = decode_page(chunk), decode_page(payloads)
            assert [encode_record(row) for row in batch.rows()] == [
                encode_record(row) for row in reference.rows()], case
            assert batch.scalar_rows.keys() == reference.scalar_rows.keys()
            if batch.fields and len(batch.scalar_rows) < batch.count:
                assert_same_numeric_views(
                    decode_page(chunk), decode_page(payloads))

    def test_clean_numeric_fields_stay_arrays_until_rows_are_asked(self):
        payloads = [encode_record({"t": index, "w": index / 4, "unit": "W"})
                    for index in range(40)]
        batch = decode_page(payloads)
        assert set(batch.columns) == {"unit"}
        assert batch.numeric_view("t")[0] == "i"
        assert batch.row(3) == {"t": 3, "unit": "W", "w": 0.75}
        assert set(batch.columns) == {"unit"}
        assert batch.rows() == [decode_record(p) for p in payloads]
        assert set(batch.columns) == {"t", "unit", "w"}

    def test_a_warm_read_gathers_what_a_lazy_batch_kept(self):
        store = LogStructuredStore(
            make_flash(), page_cache_bytes=128 * TIMINGS.page_size)
        rng = random.Random(5)
        store.insert_many(
            (f"r{index:03d}", {"t": index * 7, "w": rng.uniform(-3, 3)})
            for index in range(200))
        store.flush()

        def scanned():
            return [(record_id, row)
                    for chunk_ids, batch in store.scan_batches()
                    for record_id, row in zip(chunk_ids, batch.rows())]

        before = counter_labels("store.decode.rows").get("kept", 0)
        cold = scanned()
        assert counter_labels("store.decode.rows").get("kept", 0) == before
        warm = scanned()
        assert counter_labels("store.decode.rows")["kept"] == before + 200
        assert cold == warm == list(store.scan())


# -- the row builder ----------------------------------------------------------

#: Field names that would break a builder whose compiled text held them:
#: its own argument and variable names, keywords, quotes, braces,
#: backslashes, whitespace, the empty name and non-ASCII.
ADVERSARIAL_NAMES = [
    "v0", "v1", "n0", "n1", "rows", "names", "build", "lambda", "for", "in",
    "'", '"', "}", "{", "{n0: v0}", ")", "\\", "a b", "x\ny", "", "é",
    "名前", "#",
]
WIDE = 300

row_field_names = st.one_of(
    st.sampled_from(ADVERSARIAL_NAMES),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4))


@st.composite
def row_batches(draw):
    """``(batch, reference)``: a lazy ``from_arrays`` batch or a
    ``decode_page`` one (numeric fields as views once the chunk clears
    the vector lane's bar) of ``width`` fields, and the rows
    ``dict(zip(fields, values))`` builds from the values it was made
    of."""
    width = draw(st.sampled_from([*range(13), WIDE]))
    if width == WIDE:
        names = [f"field {at}" for at in range(WIDE)]
    else:
        names = draw(st.lists(row_field_names, min_size=width,
                              max_size=width, unique=True))
    kinds = {name: draw(st.sampled_from("ifc")) for name in names}
    count = draw(st.integers(0, 2 * COLUMNAR_MIN_BATCH + 8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for name, kind in kinds.items():
        if kind == "i":
            columns[name] = [rng.choice([rng.randint(-300, 300), INT64_HI,
                                         INT64_LO]) for _ in range(count)]
        elif kind == "f":
            columns[name] = [rng.choice([rng.uniform(-5, 5), -0.0, 1e300])
                             for _ in range(count)]
        else:
            columns[name] = [rng.choice([None, True, "W", b"\x00", ""])] * count
    fields = tuple(sorted(names))
    reference = [dict(zip(fields, values))
                 for values in zip(*(columns[name] for name in fields))]
    if not fields:
        reference = [{} for _ in range(count)]
    if draw(st.booleans()):
        order = draw(st.sampled_from("=><"))  # the producer's byte order
        batch = ColumnBatch.from_arrays(
            {name: np.array(columns[name], dtype=np.dtype(
                np.int64 if kind == "i" else np.float64).newbyteorder(order))
             for name, kind in kinds.items() if kind != "c"},
            consts={name: columns[name][0] if count else None
                    for name, kind in kinds.items() if kind == "c"},
            count=count)
    else:
        batch = decode_page([encode_record(row) for row in reference])
    return batch, reference


def assert_rows_are(rows, reference):
    """Same keys in the same order, same values of the same Python types
    (never a numpy scalar), and a distinct object per row."""
    assert [list(row) for row in rows] == [list(row) for row in reference]
    assert [list(map(type, row.values())) for row in rows] == [
        list(map(type, row.values())) for row in reference]
    # re-encoding tells 0.0 from -0.0
    assert list(map(encode_record, rows)) == list(
        map(encode_record, reference))
    assert len(set(map(id, rows))) == len(rows)


class TestRowBuilder:
    """``rows()`` and ``rows_at()`` build what ``dict(zip(fields,
    values))`` builds, whatever the width and the field names."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(case=row_batches(), picks=st.sampled_from(
        ["empty", "single", "all", "some"]), data=st.data())
    def test_rows_and_rows_at_equal_dict_zip(self, case, picks, data):
        batch, reference = case
        rows = batch.rows()
        assert_rows_are(rows, reference)
        count = len(reference)
        if picks == "empty" or not count:
            indexes = []
        elif picks == "single":
            indexes = [data.draw(st.integers(0, count - 1))]
        elif picks == "all":
            indexes = list(range(count))
        else:
            indexes = sorted(data.draw(st.sets(
                st.integers(0, count - 1), max_size=count)))
        picked = batch.rows_at(indexes)
        assert_rows_are(picked, [reference[at] for at in indexes])
        if not batch.scalar_rows:  # built afresh on every call
            assert not {*map(id, rows)} & {*map(id, picked)}
            assert not {*map(id, rows)} & {*map(id, batch.rows())}

    def test_one_builder_per_width_whatever_the_names(self):
        build_rows(("a", "b"), [[1], [2]], [0])
        before = _row_builder.cache_info()
        rows = build_rows(("}", "v0"), [[1, 3], [2.5, None]], [1, 0])
        assert _row_builder.cache_info().misses == before.misses
        assert rows == [{"}": 3, "v0": None}, {"}": 1, "v0": 2.5}]


# -- vectorized predicates ----------------------------------------------------


def random_predicate(rng, depth=0):
    field = rng.choice(FIELD_POOL + ["absent"])
    kind = rng.randrange(8 if depth >= 2 else 11)
    if kind == 0:
        return Eq(field, rng.choice(SPECIAL_VALUES))
    if kind == 1:
        return Ne(field, rng.choice(SPECIAL_VALUES))
    if kind in (2, 3, 4):
        low = rng.choice(SPECIAL_VALUES + [None])
        high = rng.choice(SPECIAL_VALUES + [None])
        return Between(field, low, high)
    if kind == 5:
        return Contains(field, rng.choice(["a", "beach", "z", ""]))
    if kind == 6:
        return HasKeyword(field, ("beach", "family"))
    if kind == 7:
        return MATCH_ALL
    if kind == 8:
        return Not(random_predicate(rng, depth + 1))
    children = [random_predicate(rng, depth + 1) for _ in range(rng.randint(1, 3))]
    return (And if kind == 9 else Or)(*children)


class TestMatchesBatch:
    def test_mask_equals_scalar_matches(self):
        rng = random.Random(4096)
        masked = 0
        for trial in range(120):
            records = random_batch_records(rng, rng.randint(1, 60))
            batch = decode_page([encode_record(record) for record in records])
            predicate = random_predicate(rng)
            mask = predicate.matches_batch(batch)
            if mask is None:
                continue  # per-record fallback: always allowed
            masked += 1
            assert len(mask) == batch.count
            scalar = batch.scalar_rows
            for index in range(batch.count):
                if index in scalar:
                    continue  # mask is not meaningful at scalar rows
                assert bool(mask[index]) == predicate.matches(
                    batch.row(index)
                ), f"trial {trial} row {index} {predicate!r}"
        assert masked >= 10  # the vector path must actually engage

    def test_nan_between_matches_scalar_shortcircuit(self):
        w = np.array([float("nan"), 1.0, -2.0, 0.0, -0.0, 5.5])
        batch = ColumnBatch.from_arrays({"w": w})
        for low, high in [(-5.0, 5.0), (None, 0.0), (0.0, None), (None, None)]:
            predicate = Between("w", low, high)
            mask = predicate.matches_batch(batch)
            assert mask is not None
            for index in range(batch.count):
                assert bool(mask[index]) == predicate.matches(batch.row(index))

    def test_absent_field_masks(self):
        batch = ColumnBatch.from_arrays({"t": np.arange(8, dtype=np.int64)})
        assert list(Eq("missing", None).matches_batch(batch)) == [True] * 8
        assert list(Eq("missing", 3).matches_batch(batch)) == [False] * 8
        assert list(Between("missing", 0, 9).matches_batch(batch)) == [False] * 8
        assert list(Contains("missing", "a").matches_batch(batch)) == [False] * 8

    def test_out_of_range_bounds_fall_back(self):
        batch = decode_page([encode_record({"t": index}) for index in range(20)])
        assert Eq("t", INT64_HI + 1).matches_batch(batch) is None
        assert Between("t", None, INT64_HI + 1).matches_batch(batch) is None
        # float compare against ints beyond 2**53 cannot be proven exact
        assert Between("t", 0.5, float(2**53 + 2)).matches_batch(batch) is None


# -- from_arrays and insert_batch --------------------------------------------


class TestFromArrays:
    def test_rows_match_dict_rows(self):
        count = 40
        t = np.arange(count, dtype=np.int64)
        w = np.linspace(-2.0, 2.0, count)
        batch = ColumnBatch.from_arrays(
            {"t": t, "w": w}, consts={"unit": "W", "ok": True, "pad": None}
        )
        assert batch.count == count
        assert batch.fields == ("ok", "pad", "t", "unit", "w")
        for index in range(count):
            assert batch.row(index) == {
                "t": int(t[index]), "w": float(w[index]),
                "unit": "W", "ok": True, "pad": None,
            }
        assert batch.rows()[3] == batch.row(3)

    def test_int32_and_float32_upcast(self):
        batch = ColumnBatch.from_arrays({
            "a": np.arange(20, dtype=np.int32),
            "b": np.arange(20, dtype=np.float32),
        })
        assert type(batch.row(0)["a"]) is int
        assert type(batch.row(0)["b"]) is float

    def test_validation_errors(self):
        good = np.arange(8, dtype=np.int64)
        with pytest.raises(StorageError):
            ColumnBatch.from_arrays({"m": good.reshape(2, 4)})
        with pytest.raises(StorageError):
            ColumnBatch.from_arrays({"a": good, "b": np.arange(9)})
        with pytest.raises(StorageError):
            ColumnBatch.from_arrays({"u": np.array([2**64 - 1], dtype=np.uint64)})
        with pytest.raises(StorageError):
            ColumnBatch.from_arrays({"s": np.array(["x", "y"])})
        with pytest.raises(StorageError):
            ColumnBatch.from_arrays({"t": good}, consts={"t": "dup"})
        with pytest.raises(StorageError):
            ColumnBatch.from_arrays({"t": good}, consts={"n": 7})


def put_all(store, ids, records):
    """The reference ingest: one ``put`` per record."""
    for record_id, record in zip(ids, records):
        store.put(record_id, record)


class TestInsertBatchEquivalence:
    def _ab_stores(self):
        flash_scalar, flash_columnar = make_flash(), make_flash()
        return (
            LogStructuredStore(flash_scalar), flash_scalar,
            LogStructuredStore(flash_columnar), flash_columnar,
        )

    def _assert_equivalent(self, scalar, flash_scalar, columnar,
                           flash_columnar):
        scalar.flush()
        columnar.flush()
        assert flash_image(flash_scalar) == flash_image(flash_columnar)
        assert scalar.record_ids() == columnar.record_ids()
        assert scalar._directory == columnar._directory
        assert scalar._live_per_block == columnar._live_per_block
        assert summaries_snapshot(scalar) == summaries_snapshot(columnar)

    def test_bit_for_bit_vs_scalar_insert_many(self):
        count = 500
        rng = random.Random(5)
        t = np.arange(count, dtype=np.int64) * 7
        w = np.array([rng.uniform(-10, 10) for _ in range(count)])
        ids = [f"r{index:05d}" for index in range(count)]
        batch = ColumnBatch.from_arrays({"t": t, "w": w}, consts={"unit": "W"})
        scalar, flash_scalar, columnar, flash_columnar = self._ab_stores()
        put_all(scalar, ids, batch.rows())
        assert columnar.insert_batch(ids, batch) == count
        assert columnar.inserts == scalar.inserts == count
        self._assert_equivalent(scalar, flash_scalar, columnar, flash_columnar)

    @pytest.mark.parametrize("side", ["last_of_page", "first_of_page"])
    def test_nan_on_a_page_boundary_widens_the_same_block(self, side):
        count = 400
        t = np.arange(count, dtype=np.int64)
        w = np.linspace(1.0, 2.0, count)
        ids = [f"n{index:04d}" for index in range(count)]
        probe = LogStructuredStore(make_flash())
        probe.insert_batch(ids, ColumnBatch.from_arrays({"t": t, "w": w}))
        pages = [probe._directory[record_id][0] for record_id in ids[:300]]
        boundary = next(index for index in range(100, 300)
                        if pages[index] != pages[index - 1])
        w[boundary - (side == "last_of_page")] = float("nan")
        batch = ColumnBatch.from_arrays({"t": t, "w": w})
        scalar, flash_scalar, columnar, flash_columnar = self._ab_stores()
        put_all(scalar, ids, batch.rows())
        columnar.insert_batch(ids, batch)
        self._assert_equivalent(scalar, flash_scalar, columnar, flash_columnar)
        nan_id = ids[boundary - (side == "last_of_page")]
        block = (columnar._directory[nan_id][0]
                 // flash_columnar.timings.pages_per_block)
        assert summaries_snapshot(columnar)[block][3]["w"] == ("-inf", "inf")
        for store in (scalar, columnar):
            assert nan_id in dict(store.scan_range("w", 50.0, 60.0))

    def test_nan_and_signed_zero_columns(self):
        count = 200
        rng = random.Random(17)
        w = np.array([
            rng.choice([float("nan"), 0.0, -0.0, float("inf"),
                        float("-inf"), rng.uniform(-1, 1)])
            for _ in range(count)
        ])
        t = np.array([rng.randint(-50, 50) for _ in range(count)],
                     dtype=np.int64)
        ids = [f"n{index:04d}" for index in range(count)]
        batch = ColumnBatch.from_arrays({"t": t, "w": w})
        scalar, flash_scalar, columnar, flash_columnar = self._ab_stores()
        put_all(scalar, ids, batch.rows())
        columnar.insert_batch(ids, batch)
        self._assert_equivalent(scalar, flash_scalar, columnar, flash_columnar)

    def test_replacements_and_duplicate_ids(self):
        count = 120
        t = np.arange(count, dtype=np.int64)
        ids = [f"d{index % 40:03d}" for index in range(count)]  # heavy dups
        batch = ColumnBatch.from_arrays({"t": t})
        scalar, flash_scalar, columnar, flash_columnar = self._ab_stores()
        put_all(scalar, ids, batch.rows())
        columnar.insert_batch(ids, batch)
        self._assert_equivalent(scalar, flash_scalar, columnar, flash_columnar)

    def test_small_batch_falls_back_to_insert_many(self):
        count = COLUMNAR_MIN_BATCH - 1
        batch = ColumnBatch.from_arrays({"t": np.arange(count, dtype=np.int64)})
        scalar, flash_scalar, columnar, flash_columnar = self._ab_stores()
        ids = [f"s{index}" for index in range(count)]
        put_all(scalar, ids, batch.rows())
        columnar.insert_batch(ids, batch)
        self._assert_equivalent(scalar, flash_scalar, columnar, flash_columnar)

    def test_insert_many_below_min_batch_equals_put_loop(self):
        ids = [f"s{index:02d}" for index in range(COLUMNAR_MIN_BATCH - 1)]
        records = [{"t": index, "w": index / 4} for index in range(len(ids))]
        scalar, flash_scalar, columnar, flash_columnar = self._ab_stores()
        put_all(scalar, ids, records)
        assert columnar.insert_many(zip(ids, records)) == len(ids)
        assert columnar.inserts == scalar.inserts
        self._assert_equivalent(scalar, flash_scalar, columnar, flash_columnar)

    def test_insert_many_mixed_schema_equals_put_loop(self):
        # ragged schema: the lane has no plan, every record goes via put
        rng = random.Random(40)
        ids = [f"x{index:02d}" for index in range(40)]
        records = [
            {"t": index} if index % 3 else {"t": index, "note": "beach"}
            for index in range(40)
        ]
        rng.shuffle(records)
        scalar, flash_scalar, columnar, flash_columnar = self._ab_stores()
        put_all(scalar, ids, records)
        assert columnar.insert_many(zip(ids, records)) == len(ids)
        assert columnar.inserts == scalar.inserts
        self._assert_equivalent(scalar, flash_scalar, columnar, flash_columnar)

    def test_id_count_mismatch_raises(self):
        batch = ColumnBatch.from_arrays({"t": np.arange(20, dtype=np.int64)})
        store = LogStructuredStore(make_flash())
        with pytest.raises(StorageError):
            store.insert_batch(["only-one"], batch)

    def test_checkpoint_mid_batch_matches_scalar(self):
        """Mid-chunk checkpoints must serialize fully-folded zone maps
        — the deferred block fold flushes before every checkpoint."""
        count = 300
        t = np.arange(count, dtype=np.int64)
        w = np.linspace(0.5, 5.0, count)
        ids = [f"c{index:04d}" for index in range(count)]
        batch = ColumnBatch.from_arrays({"t": t, "w": w})

        def store_with_checkpoints():
            flash = make_flash(1024)
            return LogStructuredStore(
                flash, checkpoint_blocks=32, checkpoint_interval_pages=8,
            ), flash

        scalar, flash_scalar = store_with_checkpoints()
        columnar, flash_columnar = store_with_checkpoints()
        put_all(scalar, ids, batch.rows())
        columnar.insert_batch(ids, batch)
        scalar.flush()
        columnar.flush()
        assert flash_image(flash_scalar) == flash_image(flash_columnar)
        recovered = LogStructuredStore.recover(
            flash_columnar, checkpoint_blocks=32
        )
        assert recovered.last_recovery.mode == "checkpoint"
        assert recovered.record_ids() == scalar.record_ids()
        assert summaries_snapshot(recovered) == summaries_snapshot(scalar)


# -- scan and query equivalence ----------------------------------------------


class TestScanEquivalence:
    def _loaded_store(self):
        store = LogStructuredStore(make_flash())
        rng = random.Random(23)
        items = [
            (f"r{index:04d}",
             {"t": index, "w": rng.uniform(-3, 3), "unit": "W"})
            for index in range(400)
        ]
        store.insert_many(items)
        store.delete("r0007")
        store.put("r0008", {"t": 8, "w": 99.0, "unit": "W"})
        store.flush()
        return store

    def test_scan_batches_equals_scan(self):
        store = self._loaded_store()
        flattened = [
            (chunk_ids[index], batch.row(index))
            for chunk_ids, batch in store.scan_batches()
            for index in range(batch.count)
        ]
        assert flattened == list(store.scan())

    def test_scan_batches_range_equals_scan_range(self):
        store = self._loaded_store()
        flattened = [
            (chunk_ids[index], batch.row(index))
            for chunk_ids, batch in store.scan_batches("t", 100, 180)
            for index in range(batch.count)
        ]
        assert flattened == list(store.scan_range("t", 100, 180))


class TestCatalogColumnarEquivalence:
    METER = 300

    def _catalog(self):
        """A loaded catalog plus the dicts that went into "meter"."""
        catalog = Catalog(make_flash(1024))
        meter = catalog.collection("meter")
        other = catalog.collection("other")
        rng = random.Random(99)
        inserted = [
            {"t": index, "w": rng.uniform(-5, 5),
             "note": rng.choice(["beach day", "family trip", "work"])}
            for index in range(self.METER)
        ]
        meter.insert_many(
            (f"m{index:04d}", record) for index, record in enumerate(inserted)
        )
        other.insert_many(
            (f"o{index:03d}", {"t": index * 2, "w": 0.5}) for index in range(50)
        )
        catalog.store.flush()
        return catalog, inserted

    @staticmethod
    def _oracle(inserted, query):
        """What the query means, computed without the store."""
        rows = [dict(record) for record in inserted
                if query.where.matches(record)]
        if query.order_by is not None:
            rows.sort(key=lambda row: row[query.order_by],
                      reverse=query.descending)
        if query.limit is not None:
            rows = rows[: query.limit]
        if query.project is not None:
            rows = [{name: row.get(name) for name in query.project}
                    for row in rows]
        return rows

    def test_query_shapes_identical(self):
        catalog, inserted = self._catalog()
        queries = [
            (Query("meter", where=Between("t", 40, 90)), "zonemap:t"),
            (Query("meter", where=Between("w", -1.0, 1.0), order_by="t"),
             "zonemap:w"),
            (Query("meter", where=Eq("t", 7)), "zonemap:t"),
            (Query("meter", where=Ne("note", "work")), "scan"),
            (Query("meter", where=And(Between("t", 0, 200),
                                      Between("w", 0.0, 5.0))), "zonemap:t"),
            (Query("meter", where=Or(Eq("t", 3), Eq("t", 250))), "scan"),
            (Query("meter", where=Not(Between("t", 10, 290))), "scan"),
            (Query("meter", where=Contains("note", "beach")), "scan"),
            (Query("meter", where=HasKeyword("note", ("family",))), "scan"),
            (Query("meter"), "scan"),
            (Query("meter", where=Between("t", 100, 120), project=["w"]),
             "zonemap:t"),
            (Query("meter", where=Between("t", 0, 50), limit=7, order_by="t"),
             "zonemap:t"),
        ]
        store = catalog.store
        for query, plan in queries:
            result = catalog.query(query)
            assert result.rows == self._oracle(inserted, query), query
            assert result.plan == plan, query
            if plan == "scan":
                assert result.records_examined == self.METER, query
            else:
                hint = catalog.collection("meter")._range_hint(query.where)
                assert f"zonemap:{hint[0]}" == plan
                assert result.records_examined == sum(
                    full_id.startswith("meter/")
                    for full_id, _ in store.scan_range(*hint)
                ), query
        narrow = catalog.query(queries[0][0])
        assert len(narrow.rows) <= narrow.records_examined < self.METER


# -- every plan is the same pipeline with a different page set ------------------

PLAN_T_VALUES = [
    0, 1, 7, 40, 41, 99, -3, True, 2.5, -0.0, float("inf"),
    2**53 + 1, INT64_HI, INT64_LO, INT64_HI + 1,
]
PLAN_W_VALUES = [
    0.0, -0.0, 1.5, -2.25, 1e300, -1e300, float("nan"), float("inf"),
    float("-inf"), 3, -4, 2**53 + 1, INT64_HI, INT64_LO, INT64_LO - 1,
    True, False, None, "w", b"\x01",
]
PLAN_K_VALUES = [0, 1, 2, "a", "b", True, None]


PLAN_W_FLOATS = [0.0, -0.0, 1e300, -1e300, float("nan"), float("inf")]


def plan_records(rng, count, ragged):
    """``(record_id, record)`` in log order: uniform meter rows (the
    vector lane) and, when ``ragged``, a second schema interleaved with
    them (scalar rows inside the same chunks). Ids are fixed-width but
    may step through the log out of id order."""
    step = rng.choice([1, 37])
    items = []
    for number in range(count):
        record_id = f"r{number * step % 101:03d}"
        if not ragged or rng.random() < 0.7:
            record = {"id": record_id, "t": rng.randint(0, 99),
                      "w": rng.uniform(-50, 50), "k": rng.randint(0, 2)}
            if rng.random() < 0.15:
                record["w"] = rng.choice(
                    PLAN_W_VALUES if ragged else PLAN_W_FLOATS)
        else:
            record = {"id": record_id, "note": rng.choice(["beach", "work"])}
            for name, pool in (("t", PLAN_T_VALUES), ("w", PLAN_W_VALUES),
                               ("k", PLAN_K_VALUES)):
                if rng.random() < 0.8:
                    record[name] = rng.choice(pool)
        items.append((record_id, record))
    return items


def plan_bound(rng):
    return rng.choice([None, rng.randint(-5, 105), rng.uniform(-5, 105),
                       rng.choice(PLAN_T_VALUES)])


def plan_predicate(rng, depth=0):
    roll = rng.random()
    if depth < 2 and roll < 0.35:
        children = [plan_predicate(rng, depth + 1)
                    for _ in range(rng.randint(1, 3))]
        return rng.choice([And, Or])(*children)
    if depth < 2 and roll < 0.45:
        return Not(plan_predicate(rng, depth + 1))
    if rng.random() < 0.5:
        # ``w`` holds NaN, which passes every Between: a zonemap:w plan
        # must still find those rows
        return Between(
            rng.choice(["t", "w"]), plan_bound(rng), plan_bound(rng))
    field = rng.choice(["t", "w", "k"])
    pool = {"t": PLAN_T_VALUES, "w": PLAN_W_VALUES, "k": PLAN_K_VALUES}
    return Eq(field, rng.choice(pool[field]))


def same_float(left, right):
    """Bit-for-bit: NaN equals NaN, 0.0 does not equal -0.0."""
    if left != left or right != right:
        return left != left and right != right
    return left == right and math.copysign(1, left) == math.copysign(1, right)


def canonical(rows):
    return sorted(encode_record(row) for row in rows)


def reference_aggregates(rows, aggregates, group_by):
    """``Aggregate.compute`` over materialised rows, grouped the way the
    engine documents it; a ``QueryError`` class instead of rows when
    one of them raises."""
    if group_by is None:
        groups, keys = {None: rows}, [None]
    else:
        groups = {}
        for row in rows:
            groups.setdefault(row.get(group_by), []).append(row)
        keys = sorted(groups, key=lambda value: (value is None, str(value)))
    try:
        return [
            {**({} if group_by is None else {group_by: key}),
             **{f"{a.function}({a.field})": a.compute(groups[key])
                for a in aggregates}}
            for key in keys
        ]
    except QueryError:
        return QueryError


def assert_same_aggregates(result_rows, expected):
    assert len(result_rows) == len(expected)
    for got, want in zip(result_rows, expected):
        assert list(got) == list(want)
        for name, value in want.items():
            if isinstance(value, float):
                assert same_float(got[name], value), (name, got, want)
            else:
                assert got[name] == value and type(got[name]) is type(value)


class TestEveryPlanSamePipeline:
    """The index plan, the zone-map plan, the scan plan and a Python
    filter over ``scan()`` agree on rows, aggregates and counters."""

    # one multi-aggregate query for the folds that never raise, one
    # query each for those that do over an empty/non-numeric field
    AGGREGATES = [
        [Aggregate(function, field) for function in ("sum", "avg", "count")
         for field in ("w", "t")] + [Aggregate("sum", "id")],
        [Aggregate("min", "w")], [Aggregate("max", "w")],
        [Aggregate("min", "t")], [Aggregate("max", "t")],
    ]

    @staticmethod
    def _catalogs(items, rng, buffered):
        catalogs = {
            "index": Catalog(make_flash(1024)),
            "zonemap": Catalog(make_flash(1024)),
            "scan": Catalog(make_flash(1024), zone_maps=False),
        }
        live = dict(items)
        extra = [(f"x{number}", {"id": f"x{number}", "t": number, "w": 0.5})
                 for number in range(3)]
        replaced = rng.choice(items)[0]
        deleted = rng.choice([key for key, _ in items if key != replaced])
        for name, catalog in catalogs.items():
            meter = catalog.collection("meter")
            if name == "index":
                meter.create_ordered_index("t")
                meter.create_hash_index("k")
            catalog.collection("other").insert_many(
                (f"o{number}", {"t": number, "w": 1.0}) for number in range(5))
            meter.insert_many(items)
            catalog.store.flush()
            if buffered:
                meter.insert_many(extra)
                meter.insert(replaced, {"id": replaced, "t": 41, "w": -0.0})
                meter.delete(deleted)
        if buffered:
            live.update(extra)
            live[replaced] = {"id": replaced, "t": 41, "w": -0.0}
            del live[deleted]
        return catalogs, live

    @staticmethod
    def _expected_cost(catalog, query):
        """``(records_examined, flash_reads)`` by the parent's formulas:
        an index plan examines its candidate ids and reads the distinct
        pages the flushed ones live on; a scan plan examines what
        ``scan_range`` yields of the collection and reads the pages its
        zone maps admit."""
        meter, store = catalog.collection("meter"), catalog.store
        ids, _ = meter._candidate_ids(query.where)
        if ids is not None:
            return len(ids), len({
                store._directory[full_id][0] for full_id in ids
                if full_id not in store._buffered})
        hint = (meter._range_hint(query.where)
                if store.zone_maps_enabled else None) or (None,)
        return (
            sum(full_id.startswith("meter/")
                for full_id, _ in store.scan_range(*hint)),
            len(store._locations_by_page(*hint)),
        )

    @staticmethod
    def _buffered_rows(catalog):
        """The collection's live rows a scan takes from the write buffer."""
        store = catalog.store
        return sum(full_id.startswith("meter/") and store.contains(full_id)
                   for full_id in store._buffered)

    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(rng=st.randoms(use_true_random=False), ragged=st.booleans(),
           buffered=st.booleans())
    def test_rows_aggregates_and_counters_agree(self, rng, ragged, buffered):
        items = plan_records(rng, rng.randint(20, 90), ragged)
        catalogs, live = self._catalogs(items, rng, buffered)
        predicates = [
            Between("t", 10, 60),                       # range:t
            And(plan_predicate(rng), Between("t", plan_bound(rng), 70)),
            Eq("k", rng.choice(PLAN_K_VALUES[:-1])),    # index:k
            Eq("k", None),    # matches records without k: never an index
            plan_predicate(rng), plan_predicate(rng),
        ]
        for where in predicates:
            python_rows = [
                record for full_id, record in catalogs["scan"].store.scan()
                if full_id.startswith("meter/") and where.matches(record)]
            assert canonical(python_rows) == canonical(
                record for record in live.values() if where.matches(record))
            for name, catalog in catalogs.items():
                query = Query("meter", where=where)
                cost = self._expected_cost(catalog, query)
                before = decoded_rows()
                result = catalog.query(query)
                assert canonical(result.rows) == canonical(python_rows), (
                    name, where)
                assert (result.records_examined, result.flash_reads) == cost
                if result.plan.split(":")[0] in ("zonemap", "scan"):
                    # no ``other`` row is decoded: every row the store
                    # decoded was examined (buffered rows are not decoded)
                    assert decoded_rows() - before == (
                        result.records_examined
                        - self._buffered_rows(catalog)), (name, where)
                if result.plan.split(":")[0] in ("range", "index"):
                    ids = [row["id"] for row in result.rows]
                    assert ids == sorted(ids), (name, where)
                for group_by in (None, "k"):
                    for aggregates in self.AGGREGATES:
                        expected = reference_aggregates(
                            result.rows, aggregates, group_by)
                        folded = Query("meter", where=where, group_by=group_by,
                                       aggregates=aggregates)
                        if expected is QueryError:
                            with pytest.raises(QueryError):
                                catalog.query(folded)
                            continue
                        answer = catalog.query(folded)
                        assert_same_aggregates(answer.rows, expected)
                        assert answer.plan == result.plan
                        assert (answer.records_examined,
                                answer.flash_reads) == cost
        assert catalogs["index"].query(
            Query("meter", where=predicates[0])).plan == "range:t"
        assert catalogs["index"].query(
            Query("meter", where=predicates[2])).plan == "index:k"


class TestIndexBackfill:
    """An index declared over existing rows reads the collection's own
    rows only, and ends as it would had it been declared first."""

    @staticmethod
    def _catalog(declare_first):
        catalog = Catalog(make_flash(1024))
        meter = catalog.collection("meter")
        if declare_first:
            TestIndexBackfill._declare(meter)
        other = catalog.collection("other")
        for part in range(3):  # the collections interleave on pages
            other.insert_many((f"o{part}-{number}", {
                "t": number, "k": "a", "note": "other row"})
                for number in range(20))
            meter.insert_many((f"m{part}-{number}", {
                "t": 20 * part + number, "k": "abc"[number % 3],
                "note": ("beach", "dune walk", "tide")[number % 3]})
                for number in range(20))
        catalog.store.flush()
        meter.insert("m0-5", {"t": 99, "k": "z", "note": "new"})
        meter.delete("m1-7")
        meter.insert_many((f"m9-{number}", {"t": -number, "k": "b"})
                          for number in range(2))
        return catalog, meter

    @staticmethod
    def _declare(meter):
        meter.create_hash_index("k")
        meter.create_ordered_index("t")
        meter.create_keyword_index("note")

    def test_backfill_equals_incremental_and_decodes_own_rows_only(self):
        catalog, meter = self._catalog(declare_first=False)
        store = catalog.store
        assert {"meter/m0-5", "meter/m1-7", "meter/m9-0"} <= set(store._buffered)
        assert list(meter._rows()) == [
            (full_id, record) for full_id, record in store.scan()
            if full_id.startswith("meter/")]
        flushed = 3 * 20 - 2  # the replaced and deleted rows are buffered
        for create, field in ((meter.create_hash_index, "k"),
                              (meter.create_ordered_index, "t"),
                              (meter.create_keyword_index, "note")):
            before = decoded_rows()
            create(field)
            assert decoded_rows() - before == flushed, field
        _, reference = self._catalog(declare_first=True)
        assert meter._hash_indexes["k"]._buckets \
            == reference._hash_indexes["k"]._buckets
        assert meter._ordered_indexes["t"]._entries \
            == reference._ordered_indexes["t"]._entries
        assert meter._keyword_indexes["note"]._postings \
            == reference._keyword_indexes["note"]._postings
        for value in ("a", "b", "c", "z"):
            assert meter._hash_indexes["k"].lookup(value) \
                == reference._hash_indexes["k"].lookup(value)
        for low, high in ((None, None), (-1, 10), (15, 45), (90, 100)):
            assert meter._ordered_indexes["t"].range(low, high) \
                == reference._ordered_indexes["t"].range(low, high)
        for term in ("beach", "dune", "walk", "new", "other"):
            assert meter._keyword_indexes["note"].lookup(term) \
                == reference._keyword_indexes["note"].lookup(term)


# -- failures: located corruption, consistent partial ingest -------------------


class TestCorruptionLocated:
    def test_scan_and_query_name_the_same_record(self):
        """One bad byte in one flushed page: every read path names the
        record, page, block and offset — not a 64-page chunk."""
        flash = make_flash(1024)
        catalog = Catalog(flash)
        notes = catalog.collection("notes")
        notes.insert_many(
            (f"n{index:04d}", {"t": index, "note": "beach"})
            for index in range(600)
        )
        catalog.store.flush()
        store = catalog.store
        victim = "notes/n0333"
        page, offset, length = store._directory[victim]
        image = bytearray(flash._pages[page])
        at = image.index(b"beach", offset, offset + length)
        image[at] = 0xFF  # not UTF-8
        flash._pages[page] = bytes(image)
        block = page // TIMINGS.pages_per_block
        where = f"[record {victim!r} page {page} block {block} offset {offset}]"
        reads = {
            "scan": lambda: list(store.scan()),
            "scan_range": lambda: list(store.scan_range("t", 300, 400)),
            "scan_batches": lambda: list(store.scan_batches()),
            "get": lambda: store.get(victim),
            "get_many": lambda: store.get_many([victim, "notes/n0001"]),
            "query": lambda: catalog.query(
                Query("notes", where=Contains("note", "bea"))),
            "query zonemap": lambda: catalog.query(
                Query("notes", where=Between("t", 300, 400))),
        }
        for name, read in reads.items():
            with pytest.raises(StorageError) as caught:
                read()
            assert str(caught.value).endswith(where), (name, caught.value)


class TestGetManyOverTheChunkDecoder:
    def _store(self, **options):
        store = LogStructuredStore(make_flash(), **options)
        store.insert_many(
            (f"r{index:03d}", {"t": index, "w": index / 4})
            for index in range(120))
        store.flush()
        return store

    def test_request_order_duplicates_and_the_write_buffer(self):
        store = self._store()
        store.put("r005", {"t": 5, "w": -1.0})      # buffered replace
        store.put("new", {"t": 999})                # buffered insert
        ids = ["r100", "new", "r003", "r100", "r005", "r004"]
        reads = store.flash.reads
        records = store.get_many(ids)
        # r003/r004 share a page, r100 sits on another: one read each
        pages = {store._directory[record_id][0]
                 for record_id in ("r100", "r003", "r004")}
        assert store.flash.reads - reads == len(pages) == 2
        assert records == [store.get(record_id) for record_id in ids]
        assert records[4] == {"t": 5, "w": -1.0}

    @pytest.mark.parametrize("missing", ["nope", "r007"])
    def test_unknown_or_deleted_id_raises_before_any_page_is_read(
            self, missing):
        store = self._store()
        store.delete("r007")                        # deleted in the buffer
        reads = store.flash.reads
        with pytest.raises(NotFoundError, match=missing):
            store.get_many(["r001", "r119", missing])
        with pytest.raises(NotFoundError, match=missing):
            store.fetch_batches(["r001", "r119", missing])
        assert store.flash.reads == reads

    def test_a_tight_ram_budget_shrinks_chunks_to_one_page(self, monkeypatch):
        from repro.store import log_store

        sizes = []
        real = log_store.decode_page

        def counting(payloads, **kwargs):
            sizes.append(len(payloads))
            return real(payloads, **kwargs)

        monkeypatch.setattr(log_store, "decode_page", counting)
        roomy, tight = self._store(), self._store(ram_budget_bytes=8000)
        assert tight._ram_headroom() < 8 * TIMINGS.page_size
        ids = [f"r{index:03d}" for index in range(0, 120, 2)]
        pages = len({tight._directory[record_id][0] for record_id in ids})
        assert roomy.get_many(ids) == tight.get_many(ids)
        assert len(sizes) == 1 + pages and sizes[0] == sum(sizes[1:])
        assert tight.batch_scratch_bytes == 0
        assert [chunk_ids for chunk_ids, _ in tight.fetch_batches(ids)] == [
            [record_id for record_id in ids
             if tight._directory[record_id][0] == page]
            for page in sorted({tight._directory[i][0] for i in ids})]

    def test_ids_out_of_page_order_duplicates_and_a_buffered_id(self):
        store = self._store()
        store.put("r050", {"t": 50, "w": -2.0})     # buffered replace
        ids = ["r110", "r002", "r050", "r061", "r002", "r001", "r110", "r060"]
        located = sorted(
            (store._directory[record_id], record_id)
            for record_id in ids if record_id != "r050")
        reads = store.flash.reads
        chunks = store.fetch_batches(ids)
        assert store.flash.reads - reads == len(
            {location[0] for location, _ in located})
        # flash-resident ids in log order, repeats kept, each chunk page
        # by page; the buffered id last, as one scalar batch
        *flushed, (tail_ids, tail) = chunks
        assert [record_id for chunk_ids, _ in flushed
                for record_id in chunk_ids] == [
            record_id for _, record_id in located]
        assert tail_ids == ["r050"] and tail.rows() == [{"t": 50, "w": -2.0}]
        assert store.get_many(ids) == [store.get(record_id) for record_id in ids]


class TestPrefixPageWalk:
    """A collection prefix is tested once per page (its least and
    greatest id) and per id only when a page mixes collections."""

    NEIGHBOURS = ["meter/", "meter/a", "meter0/x", "metes/y", "meter.z",
                  "meter", "mete", "meter/zz", "m"]

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(rng=st.randoms(use_true_random=False))
    def test_scan_batches_under_a_prefix_is_the_filtered_scan(self, rng):
        store = LogStructuredStore(make_flash())
        ids = [rng.choice(self.NEIGHBOURS) + rng.choice(["", "1", "/2", "0"])
               for _ in range(rng.randint(1, 60))]
        store.insert_many(
            (record_id, {"t": at, "w": at / 8}) for at, record_id in
            enumerate(dict.fromkeys(ids)))
        if rng.random() < 0.5:
            store.flush()
        for prefix in ("meter/", "meter", "metes/", "q"):
            before = decoded_rows()
            rows = [(chunk_ids[at], batch.row(at))
                    for chunk_ids, batch in store.scan_batches(prefix=prefix)
                    for at in range(batch.count)]
            expected = [(record_id, record)
                        for record_id, record in store.scan()
                        if record_id.startswith(prefix)]
            assert rows == expected, prefix
            # no foreign row is decoded (buffered rows are not decoded)
            assert decoded_rows() - before == sum(
                record_id not in store._buffered for record_id, _ in expected)


def rows_of(chunks):
    """``(record_id, record)`` per row of ``(record_ids, batch)`` chunks."""
    return [(chunk_ids[at], batch.row(at))
            for chunk_ids, batch in chunks for at in range(batch.count)]


def page_gathers():
    """``store.decode.pages`` counts so far, by ``gather|reason``."""
    return counter_labels("store.decode.pages")


class TestStridedPageGather:
    """A page of like frames is decoded off one strided view of the
    page images; a page that does not prove it is sliced record by
    record, with its reason. Rows are the same either way."""

    @staticmethod
    def _uniform(store, prefix, count, width=4):
        """``count`` records of one payload length, flushed."""
        store.insert_many(
            (f"{prefix}{at:0{width}d}",
             {"t": 1000 + at, "s": b"\x01\x00\x05"})
            for at in range(count))
        store.flush()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(rng=st.randoms(use_true_random=False))
    def test_any_history_reads_as_scan_and_get(self, rng):
        flash = make_flash(2048)
        cache = rng.choice([None, 6 * TIMINGS.page_size])
        store = LogStructuredStore(flash, page_cache_bytes=cache)
        self._uniform(store, "bulk/", 160)
        strided = page_gathers().get("strided|ok", 0)
        assert rows_of(store.scan_batches()) == list(store.scan())
        assert page_gathers()["strided|ok"] > strided  # the lane is taken
        for step in range(rng.randint(4, 14)):
            live = store.record_ids()
            action = rng.random()
            if action < 0.3:
                width = rng.randint(1, 6)
                store.insert_many(
                    (f"b{step}/{at:0{width}d}",
                     {"t": rng.randint(-300, 300), "w": at / 3}
                     if rng.random() < 0.8 else {"note": "x" * (at % 3)})
                    for at in range(rng.randint(1, 40)))
            elif action < 0.5 and live:                 # supersede
                record_id = rng.choice(live)
                store.put(record_id, {"t": step, "w": -1.0})
            elif action < 0.65 and live:
                store.delete(rng.choice(live))
            elif action < 0.75:
                store.put(f"p{step}", {"t": step})
            elif action < 0.85:
                store.flush()
                store.compact_incremental()
            elif action < 0.95:
                store.flush()
                store = LogStructuredStore.recover(
                    flash, page_cache_bytes=cache)
            else:
                store.flush()
        # a fresh run of like pages beside whatever the history left
        self._uniform(store, "last/", 120)
        strided = page_gathers()["strided|ok"]
        reference = list(store.scan())
        assert rows_of(store.scan_batches()) == reference
        assert page_gathers()["strided|ok"] > strided
        assert rows_of(store.scan_batches("t", -50, 50)) == list(
            store.scan_range("t", -50, 50))
        live = store.record_ids()
        ids = rng.sample(live, min(len(live), 30)) + live[:3]
        assert store.get_many(ids) == [store.get(record_id) for record_id in ids]
        in_log_order = [record_id for _, record_id in sorted(
            (store._directory[record_id], record_id) for record_id in ids
            if record_id not in store._buffered)]
        assert rows_of(store.fetch_batches(ids)) == [
            (record_id, store.get(record_id)) for record_id in in_log_order
            + [record_id for record_id in ids if record_id in store._buffered]]

    def _planted(self, ids):
        """A store whose one page holds exactly ``ids``' frames, all of
        one payload length (each carries bytes that read like a frame
        header: kind 1, id length 2), after 100 uniform frames of the
        same first offset and payload length: one run of like pages."""
        store = LogStructuredStore(make_flash())
        self._uniform(store, "", 100, width=2)
        for at, record_id in enumerate(ids):
            store.put(record_id, {"t": 1000 + at, "s": b"\x01\x00\x02"})
        store.flush()
        pages = {store._directory[record_id][0] for record_id in ids}
        assert len(pages) == 1
        return store

    def test_a_page_off_its_stride_between_first_and_last_is_sliced(self):
        # ids of 2, 1 and 3 bytes: the last payload sits whole strides
        # after the first, the middle ones do not
        store = self._planted(["aa", "b", "ccc", "dd", "ee", "ff"])
        reference = list(store.scan())
        assert rows_of(store.scan_batches()) == reference
        gathers = page_gathers()
        assert gathers["sliced|partial_page"] == 1
        assert gathers["strided|ok"] >= 1
        assert "sliced|header_mismatch" not in gathers

    def test_a_page_with_a_superseded_middle_entry_is_sliced(self):
        store = LogStructuredStore(make_flash())
        self._uniform(store, "u", 150)
        page, members = next(
            (page, members) for page, members
            in sorted(store._page_members.items()) if len(members) >= 6)
        middle = members[1]
        store.put(middle, store.get(middle))        # superseded in place
        store.flush()
        assert rows_of(store.scan_batches()) == list(store.scan())
        assert page_gathers()["sliced|partial_page"] == 1
        assert page_gathers()["strided|ok"] >= 1

    def test_a_frame_header_that_does_not_match_is_sliced(self):
        store = LogStructuredStore(make_flash())
        self._uniform(store, "u", 150)
        reference = list(store.scan())
        page = min(store._page_members)
        image = bytearray(store.flash._pages[page])
        _, offset, _ = store._directory[store._page_members[page][1]]
        image[offset - 1] ^= 0x40    # the second frame's payload length
        store.flash._pages[page] = bytes(image)
        assert rows_of(store.scan_batches()) == reference
        assert page_gathers()["sliced|header_mismatch"] == 1

    def test_every_page_gather_is_counted_with_its_reason(self):
        store = LogStructuredStore(make_flash())
        self._uniform(store, "u", 40)
        list(store.scan_batches())
        assert page_gathers() == {"sliced|small_chunk": 7}
        store = LogStructuredStore(make_flash())
        self._uniform(store, "u", 150)
        pages = len(store._page_members)
        get_default().reset()
        list(store.scan_batches())
        assert page_gathers() == {"strided|ok": pages}
        store.put("v0", {"t": 1, "s": b"\x01"})     # a shorter payload
        store.put("v1", {"t": 1, "s": b"\x01\x00\x05\x00"})
        store.flush()
        self._uniform(store, "w", 20, width=2)      # a run of 4 pages
        get_default().reset()
        list(store.scan_batches())
        assert page_gathers() == {
            "strided|ok": pages, "sliced|mixed_lengths": 1,
            "sliced|small_run": 4}

class TestIndexPlanFailures:
    """One flipped byte in a page an index query touches."""

    @staticmethod
    def _catalog(**store_options):
        flash = make_flash(1024)
        catalog = Catalog(flash)
        catalog.store = LogStructuredStore(flash, **store_options)
        notes = catalog.collection("notes")
        notes.create_ordered_index("t")
        notes.insert_many(
            (f"n{index:04d}", {"t": index, "note": "beach"})
            for index in range(600))
        catalog.store.flush()
        victim = "notes/n0333"
        page, offset, length = catalog.store._directory[victim]
        image = bytearray(flash._pages[page])
        image[image.index(b"beach", offset, offset + length)] = 0xFF
        flash._pages[page] = bytes(image)
        return catalog, victim, page, offset

    QUERIES = [
        Query("notes", where=Between("t", 300, 400)),
        Query("notes", where=Between("t", 300, 400),
              aggregates=[Aggregate("sum", "t")]),
        Query("notes", where=Between("t", 333, 333)),
    ]

    def test_with_the_integrity_key_the_page_tag_catches_it(self):
        catalog, _, page, _ = self._catalog(integrity_key=KEY)
        block = page // TIMINGS.pages_per_block
        for query in self.QUERIES:
            with pytest.raises(StorageError) as caught:
                catalog.query(query)
            assert str(caught.value) == (
                f"page integrity check failed [page {page} block {block}]")

    def test_without_it_the_decode_error_names_the_record(self):
        catalog, victim, page, offset = self._catalog()
        with pytest.raises(StorageError) as reference:
            list(catalog.store.scan_range("t", 300, 400))
        assert str(reference.value).endswith(
            f"[record {victim!r} page {page} block "
            f"{page // TIMINGS.pages_per_block} offset {offset}]")
        for query in self.QUERIES:
            with pytest.raises(StorageError) as caught:
                catalog.query(query)
            assert str(caught.value) == str(reference.value)
        assert catalog.store.batch_scratch_bytes == 0


def counter_labels(name):
    """Non-zero children of a labelled counter on the default scope."""
    snapshot = get_default().metrics.get(name).snapshot()
    return {key: value for key, value in snapshot.get("labels", {}).items()
            if value}


def decoded_rows():
    """Rows the chunk decoder has handed out, whatever the lane."""
    return sum(counter_labels("store.decode.rows").values())


def agreement(collection, field="t"):
    """Ids the store holds, ids the ordered index returns, the counter."""
    store = collection._store
    held = sorted(store.record_ids())
    indexed = sorted(collection._ordered_indexes[field].range(None, None))
    return held, indexed, store.inserts


class TestFailedInsertManyStaysConsistent:
    """When insert_many raises, every record the store holds is counted
    and indexed, and nothing it does not hold is."""

    @pytest.mark.parametrize("count", [5, 40])
    def test_oversize_record_mid_batch(self, count):
        catalog = Catalog(make_flash())
        rows = catalog.collection("rows")
        rows.create_ordered_index("t")
        items = [(f"r{index:03d}", {"t": index}) for index in range(count)]
        middle = count // 2
        items[middle] = (items[middle][0], {"t": middle, "blob": "x" * 300})
        with pytest.raises(StorageError):
            rows.insert_many(items)
        held, indexed, inserts = agreement(rows)
        assert held == indexed == [f"rows/r{index:03d}" for index in range(middle)]
        assert inserts == middle
        result = catalog.query(Query("rows", where=Between("t", 0, count)))
        assert result.plan == "range:t" and len(result.rows) == middle
        assert len(list(catalog.store.scan())) == middle

    def test_store_counter_without_a_catalog(self):
        store = LogStructuredStore(make_flash())
        items = [(f"r{index}", {"t": index}) for index in range(40)]
        items[20] = ("r20", {"blob": "x" * 300})
        with pytest.raises(StorageError):
            store.insert_many(items)
        assert store.inserts == len(store) == 20

    def test_device_full_mid_batch_on_the_columnar_lane(self):
        catalog = Catalog(make_flash(pages=16))
        rows = catalog.collection("rows")
        rows.create_ordered_index("t")
        rows.insert("old", {"t": -1, "w": 0.5})
        items = [(f"r{index:04d}", {"t": index, "w": 0.5})
                 for index in range(2000)]
        items.append(("old", {"t": 5000, "w": 0.5}))  # never reached
        with pytest.raises(CapacityError):
            rows.insert_many(items)
        assert counter_labels("store.ingest.chunks") == {"columnar|ok": 1}
        held, indexed, inserts = agreement(rows)
        assert held == indexed
        assert 1 < len(held) < len(items) and inserts == len(held)
        assert "rows/old" in held
        assert catalog.query(
            Query("rows", where=Between("t", -1, -1), project=["t"])
        ).rows == [{"t": -1}]
        # the held records are the leading ones, intact
        taken = dict(items[: len(held) - 1])
        for full_id, record in catalog.store.scan():
            if full_id != "rows/old":
                assert record == taken[full_id.removeprefix("rows/")]


class TestLaneCounters:
    def test_every_chunk_is_counted_with_its_reason(self):
        uniform = [(f"u{index:03d}", {"t": index}) for index in range(64)]
        store = LogStructuredStore(make_flash())
        store.insert_many(uniform)                                   # ok
        store.insert_many(uniform[:5])                               # small
        store.insert_many(
            [(f"m{index}", {"t": index} if index % 2 else {"w": 1.0})
             for index in range(32)])                                # no plan
        with pytest.raises(StorageError):
            store.insert_many(
                [(f"b{index}", {"blob": "x" * 300}) for index in range(16)])
        tight = LogStructuredStore(make_flash(), ram_budget_bytes=6000)
        tight.insert_many(uniform[:20])                              # headroom
        assert counter_labels("store.ingest.chunks") == {
            "columnar|ok": 1, "scalar|small_batch": 1, "scalar|no_plan": 1,
            "scalar|oversize_frame": 1, "scalar|ram_headroom": 1,
        }
        store.flush()
        rows = sum(batch.count for _, batch in store.scan_batches())
        decoded = counter_labels("store.decode.rows")
        assert sum(decoded.values()) == rows == len(store)
        assert decoded["columnar"] >= 64 and decoded["scalar"] >= 1


# -- zone-map fold properties -------------------------------------------------


class TestNoteValuesEquivalence:
    def test_note_values_equals_note_record_fold(self):
        rng = random.Random(31)
        for trial in range(60):
            values = [rng.choice(SPECIAL_VALUES) for _ in range(rng.randint(0, 30))]
            by_list = BlockSummary()
            by_list.note_values("f", list(values))
            by_record = BlockSummary()
            for value in values:
                by_record.note_record({"f": value})
            assert {
                name: tuple(map(repr, bounds)) if bounds else bounds
                for name, bounds in by_list.fields.items()
            } == {
                name: tuple(map(repr, bounds)) if bounds else bounds
                for name, bounds in by_record.fields.items()
            }, f"trial {trial}: {values}"

    def test_clean_fold_matches_unclean_for_clean_slices(self):
        rng = random.Random(41)
        for _ in range(30):
            if rng.random() < 0.5:
                values = [rng.randint(-10**6, 10**6) for _ in range(20)]
            else:
                values = [rng.uniform(-1e6, 1e6) for _ in range(20)]
            clean, unclean = BlockSummary(), BlockSummary()
            clean.note_values("f", values, clean=True)
            unclean.note_values("f", values)
            assert clean.fields == unclean.fields


# -- page-bundled AEAD --------------------------------------------------------


class TestFrameBundles:
    def test_pack_unpack_roundtrip(self):
        rng = random.Random(3)
        for _ in range(20):
            frames = [
                bytes(rng.randrange(256) for _ in range(rng.randint(0, 40)))
                for _ in range(rng.randint(0, 12))
            ]
            assert unpack_frames(pack_frames(frames)) == frames

    def test_unpack_rejects_corruption(self):
        packed = pack_frames([b"abc", b"defg"])
        with pytest.raises(IntegrityError):
            unpack_frames(packed[:3])
        with pytest.raises(IntegrityError):
            unpack_frames(packed[:-1])
        with pytest.raises(IntegrityError):
            unpack_frames(packed + b"\x00")
        with pytest.raises(IntegrityError):
            unpack_frames((99).to_bytes(4, "big") + packed[4:])

    def test_seal_frames_is_one_aead_pass(self):
        frames = [b"frame-%d" % index for index in range(45)]
        before = hmac_invocations()
        for index, frame in enumerate(frames):
            seal(KEY, frame, nonce_seed=str(index).encode())
        per_frame = hmac_invocations() - before
        before = hmac_invocations()
        blob = seal_frames(KEY, frames, header=b"page", nonce_seed=b"p0")
        bundled = hmac_invocations() - before
        assert per_frame == 4 * len(frames)
        assert bundled == 4
        assert open_frames(KEY, blob) == frames

    def test_seal_frames_tamper_detected(self):
        blob = seal_frames(KEY, [b"a", b"bb"], header=b"page", nonce_seed=b"x")
        tampered = type(blob)(
            header=blob.header, nonce=blob.nonce,
            ciphertext=blob.ciphertext[:-1] +
            bytes([blob.ciphertext[-1] ^ 1]),
            tag=blob.tag,
        )
        with pytest.raises(IntegrityError):
            open_frames(KEY, tampered)

    def test_envelope_bundle_roundtrip_and_hmac_count(self):
        policy = private_policy("alice")
        frames = [b"r1", b"r2" * 30, b""]
        before = hmac_invocations()
        envelope = DataEnvelope.create_bundle(KEY, "day-0", 1, frames, policy)
        assert hmac_invocations() - before == 4
        opened_frames, opened_policy = envelope.open_bundle(KEY)
        assert opened_frames == frames
        assert opened_policy.owner == policy.owner
        # the plain payload is the packed bundle: one object to the vault
        payload, _ = envelope.open(KEY)
        assert unpack_frames(payload) == frames

    def test_cell_store_frames_roundtrip(self):
        from repro.core import TrustedCell
        from repro.hardware import SMARTPHONE
        from repro.sim import World

        world = World(seed=8)
        cell = TrustedCell(world, "meter-cell", SMARTPHONE)
        cell.register_user("alice", "0000")
        session = cell.login("alice", "0000")
        frames = [encode_record({"t": index, "w": 1.5 * index})
                  for index in range(45)]
        before = hmac_invocations()
        metadata = cell.store_frames(session, "day-0", frames)
        seal_cost = hmac_invocations() - before
        assert metadata.size == sum(len(frame) for frame in frames)
        assert seal_cost < 4 * len(frames)  # one bundle, not one per frame
        assert unpack_frames(cell.read_object(session, "day-0")) == frames
