"""Tests for indexes, the catalog, and the query engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    NotFoundError,
    QueryError,
    StorageError,
)
from repro.hardware import FlashTimings, NandFlash
from repro.obs import get_default
from repro.store import (
    Aggregate,
    And,
    Between,
    Catalog,
    Contains,
    Eq,
    HashIndex,
    Ne,
    Not,
    Or,
    OrderedIndex,
    Query,
)

TIMINGS = FlashTimings(
    page_size=2048, pages_per_block=64,
    read_page_us=25.0, write_page_us=250.0, erase_block_us=1500.0,
)


def make_catalog(pages=512, **options):
    flash = NandFlash(TIMINGS, capacity_bytes=pages * TIMINGS.page_size)
    return Catalog(flash, **options)


def seeded_catalog():
    catalog = make_catalog()
    documents = catalog.collection("documents")
    documents.create_hash_index("kind")
    documents.create_ordered_index("timestamp")
    rows = [
        ("d1", {"kind": "photo", "timestamp": 100, "size": 2000, "title": "beach day"}),
        ("d2", {"kind": "photo", "timestamp": 250, "size": 3000, "title": "mountain"}),
        ("d3", {"kind": "mail", "timestamp": 300, "size": 10, "title": "re: beach"}),
        ("d4", {"kind": "bill", "timestamp": 400, "size": 50, "title": "power bill"}),
        ("d5", {"kind": "photo", "timestamp": 500, "size": 1500, "title": "family"}),
    ]
    for record_id, record in rows:
        documents.insert(record_id, record)
    return catalog


class TestHashIndex:
    def test_lookup(self):
        index = HashIndex("kind")
        index.add("r1", "photo")
        index.add("r2", "photo")
        index.add("r3", "mail")
        assert index.lookup("photo") == {"r1", "r2"}
        assert index.lookup("absent") == set()

    def test_remove(self):
        index = HashIndex("kind")
        index.add("r1", "photo")
        index.remove("r1", "photo")
        assert index.lookup("photo") == set()
        assert index.distinct_values() == []

    def test_ram_accounting(self):
        index = HashIndex("kind")
        assert index.ram_bytes == 0
        index.add("r1", "a")
        assert index.ram_bytes > 0


class TestOrderedIndex:
    def test_range_inclusive(self):
        index = OrderedIndex("t")
        for record_id, value in (("a", 10), ("b", 20), ("c", 30)):
            index.add(record_id, value)
        assert index.range(10, 20) == ["a", "b"]
        assert index.range(low=25) == ["c"]
        assert index.range(high=15) == ["a"]
        assert index.range() == ["a", "b", "c"]

    def test_range_exclusive_bounds(self):
        index = OrderedIndex("t")
        for record_id, value in (("a", 10), ("b", 20), ("c", 30)):
            index.add(record_id, value)
        assert index.range(10, 30, include_low=False, include_high=False) == ["b"]

    @pytest.mark.parametrize("include_low", [True, False])
    @pytest.mark.parametrize("include_high", [True, False])
    def test_bounds_hold_for_ids_sorting_after_any_string_sentinel(
        self, include_low, include_high
    ):
        # Ids that sort after a run of U+FFFF: nine of them, and a
        # collection name starting in the astral plane.
        exact = ["m/b", "\uffff" * 9, "\U0001d52aeter/a"]
        index = OrderedIndex("t")
        for record_id, value in [("a", 4), ("z", 6)] + [(i, 5) for i in exact]:
            index.add(record_id, value)
        both = include_low and include_high
        assert index.range(
            5, 5, include_low=include_low, include_high=include_high
        ) == (exact if both else [])
        assert index.range(None, 5, include_high=include_high) == (
            ["a"] + (exact if include_high else [])
        )
        assert index.range(5, None, include_low=include_low) == (
            (exact if include_low else []) + ["z"]
        )

    def test_min_max(self):
        index = OrderedIndex("t")
        index.add("a", 5)
        index.add("b", 50)
        assert index.minimum() == 5
        assert index.maximum() == 50

    def test_empty_min_raises(self):
        with pytest.raises(QueryError):
            OrderedIndex("t").minimum()

    def test_none_rejected(self):
        with pytest.raises(QueryError):
            OrderedIndex("t").add("a", None)

    def test_mixed_types_rejected(self):
        index = OrderedIndex("t")
        index.add("a", 10)
        with pytest.raises(QueryError):
            index.add("b", "string")

    def test_remove(self):
        index = OrderedIndex("t")
        index.add("a", 10)
        index.add("b", 10)
        index.remove("a", 10)
        assert index.range(10, 10) == ["b"]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=30),
           st.integers(min_value=0, max_value=100),
           st.integers(min_value=0, max_value=100))
    def test_range_matches_filter(self, values, low, high):
        index = OrderedIndex("v")
        for position, value in enumerate(values):
            index.add(f"r{position:03d}", value)
        expected = sorted(
            f"r{position:03d}"
            for position, value in enumerate(values)
            if low <= value <= high
        )
        assert sorted(index.range(low, high)) == expected


class TestCollectionCrud:
    def test_insert_get(self):
        catalog = make_catalog()
        items = catalog.collection("items")
        items.insert("a", {"v": 1})
        assert items.get("a") == {"v": 1}

    def test_collections_are_namespaced(self):
        catalog = make_catalog()
        catalog.collection("a").insert("x", {"from": "a"})
        catalog.collection("b").insert("x", {"from": "b"})
        assert catalog.collection("a").get("x") == {"from": "a"}
        assert catalog.collection("b").get("x") == {"from": "b"}
        assert len(catalog.collection("a")) == 1

    def test_slash_in_collection_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_catalog().collection("bad/name")

    def test_delete_maintains_indexes(self):
        catalog = seeded_catalog()
        documents = catalog.collection("documents")
        documents.delete("d1")
        result = catalog.query(Query("documents", where=Eq("kind", "photo")))
        assert {row["title"] for row in result} == {"mountain", "family"}

    def test_delete_missing_raises(self):
        with pytest.raises(NotFoundError):
            seeded_catalog().collection("documents").delete("nope")

    def test_replace_maintains_indexes(self):
        catalog = seeded_catalog()
        documents = catalog.collection("documents")
        documents.insert("d1", {"kind": "mail", "timestamp": 100})
        photos = catalog.query(Query("documents", where=Eq("kind", "photo")))
        assert len(photos) == 2
        mails = catalog.query(Query("documents", where=Eq("kind", "mail")))
        assert len(mails) == 2

    def test_index_backfill(self):
        catalog = make_catalog()
        items = catalog.collection("items")
        for i in range(5):
            items.insert(f"i{i}", {"parity": i % 2, "v": i})
        items.create_hash_index("parity")
        result = catalog.query(Query("items", where=Eq("parity", 0)))
        assert result.plan == "index:parity"
        assert len(result) == 3

    def test_duplicate_index_rejected(self):
        catalog = seeded_catalog()
        with pytest.raises(ConfigurationError):
            catalog.collection("documents").create_hash_index("kind")


class _RecordingFeed:
    def __init__(self):
        self.seen = []

    def written(self, record_id, record):
        self.seen.append(("written", record_id, dict(record)))

    def deleted(self, record_id):
        self.seen.append(("deleted", record_id))


class TestWriteFeeds:
    def test_every_write_through_the_collection_reaches_its_feeds(self):
        catalog = seeded_catalog()
        documents = catalog.collection("documents")
        feed = _RecordingFeed()
        documents.add_feed(feed)
        catalog.collection("other").insert("x", {"kind": "photo"})
        documents.insert("d9", {"kind": "mail"})
        documents.insert_many([("d1", {"kind": "bill"}), ("d8", {"v": 1}),
                               ("d8", {"v": 2})])
        documents.delete("d3")
        assert feed.seen == [
            ("written", "d9", {"kind": "mail"}),
            ("written", "d1", {"kind": "bill"}),
            ("written", "d8", {"v": 1}),
            ("written", "d8", {"v": 2}),
            ("deleted", "d3"),
        ]
        documents.remove_feed(feed)
        documents.insert("d10", {"kind": "mail"})
        assert len(feed.seen) == 5

    def test_a_refused_write_reaches_no_feed(self):
        catalog = make_catalog()
        items = catalog.collection("items")
        feed = _RecordingFeed()
        items.add_feed(feed)
        oversize = {"blob": "x" * 4 * TIMINGS.page_size}
        with pytest.raises(StorageError):
            items.insert("big", oversize)
        with pytest.raises(StorageError):
            items.insert_many([("a", {"v": 1}), ("big", oversize)])
        # the batch's leading record was taken, so it was told
        assert feed.seen == [("written", "a", {"v": 1})]
        assert items.contains("a") and not items.contains("big")


class TestQueryIds:
    @pytest.mark.parametrize("where, plan", [
        (Eq("kind", "photo"), "index:kind"),
        (Between("timestamp", 200, 450), "range:timestamp"),
        (Between("size", 0, 2500), "zonemap:size"),
        (Contains("title", "beach"), "scan"),
    ])
    def test_ids_align_with_rows_on_every_plan(self, where, plan):
        catalog = seeded_catalog()
        documents = catalog.collection("documents")
        documents.insert("d2", {"kind": "photo", "timestamp": 260,
                                "size": 900, "title": "beach again"})
        result = catalog.query(Query("documents", where=where, with_ids=True))
        plain = catalog.query(Query("documents", where=where))
        assert result.plan == plain.plan == plan
        assert result.rows == plain.rows and result.rows
        assert result.ids is not None and len(result.ids) == len(result.rows)
        assert [documents.get(record_id) for record_id in result.ids] \
            == result.rows
        assert plain.ids is None

    def test_ids_refuse_what_reorders_or_folds(self):
        catalog = seeded_catalog()
        for query in (
            Query("documents", with_ids=True, limit=2),
            Query("documents", with_ids=True, order_by="size"),
            Query("documents", with_ids=True,
                  aggregates=[Aggregate("sum", "size")]),
        ):
            with pytest.raises(QueryError):
                catalog.query(query)


class TestQueryExecution:
    def test_eq_uses_hash_index(self):
        result = seeded_catalog().query(Query("documents", where=Eq("kind", "photo")))
        assert result.plan == "index:kind"
        assert {row["title"] for row in result} == {"beach day", "mountain", "family"}

    def test_between_uses_ordered_index(self):
        result = seeded_catalog().query(
            Query("documents", where=Between("timestamp", 200, 400))
        )
        assert result.plan == "range:timestamp"
        assert {row["title"] for row in result} == {"mountain", "re: beach", "power bill"}

    def test_unindexed_predicate_uses_zonemap_pruning(self):
        # No index on "size", but the store keeps per-block zone maps,
        # so the planner reports the pruned-scan plan.
        result = seeded_catalog().query(Query("documents", where=Eq("size", 10)))
        assert result.plan == "zonemap:size"
        assert len(result) == 1

    def test_unindexed_predicate_scans_without_zone_maps(self):
        flash = NandFlash(TIMINGS, capacity_bytes=512 * TIMINGS.page_size)
        catalog = Catalog(flash, zone_maps=False)
        documents = catalog.collection("documents")
        documents.insert("d1", {"size": 10})
        documents.insert("d2", {"size": 20})
        result = catalog.query(Query("documents", where=Eq("size", 10)))
        assert result.plan == "scan"
        assert len(result) == 1

    def test_zonemap_plan_keeps_the_nan_rows_a_scan_returns(self):
        """A NaN fails every comparison, so it passes every ``Between``
        and moves no min/max: its block must admit every range."""
        small = FlashTimings(
            page_size=512, pages_per_block=16,
            read_page_us=25.0, write_page_us=200.0, erase_block_us=1500.0,
        )
        rows = [(f"r{i:04d}", {"w": 1000.0 + i}) for i in range(4000)]
        rows[2500] = ("r2500", {"w": float("nan")})
        results = {}
        for zone_maps in (True, False):
            catalog = Catalog(
                NandFlash(small, capacity_bytes=1024 * 1024),
                zone_maps=zone_maps)
            catalog.collection("m").insert_many(rows)
            catalog.store.flush()
            results[zone_maps] = catalog.query(
                Query("m", where=Between("w", 0.0, 10.0)))
        assert results[True].plan == "zonemap:w"
        assert results[False].plan == "scan"
        assert len(results[True]) == len(results[False]) == 1
        assert results[True].rows[0]["w"] != results[True].rows[0]["w"]
        # only the NaN's block was read, not the whole collection
        assert results[True].flash_reads < results[False].flash_reads / 10

    def test_and_picks_selective_index_and_refilters(self):
        result = seeded_catalog().query(
            Query(
                "documents",
                where=And(Eq("kind", "photo"), Between("timestamp", 200, 600)),
            )
        )
        assert result.plan in ("index:kind", "range:timestamp")
        assert {row["title"] for row in result} == {"mountain", "family"}

    def test_and_prunes_on_the_most_selective_zonemap_hint(self):
        """Either child of an ``And`` is a valid zone-map hint; the
        planner must take the one that admits the fewest blocks, not
        the first. ``approved`` is 0/1 in every block (admits all),
        ``t`` is append-ordered (admits one or two)."""
        small = FlashTimings(
            page_size=512, pages_per_block=16,
            read_page_us=25.0, write_page_us=200.0, erase_block_us=1500.0,
        )
        catalog = Catalog(NandFlash(small, capacity_bytes=128 * 1024))
        rows = catalog.collection("rows")
        rows.insert_many(
            (f"r{t}", {"t": t, "approved": t % 2, "hours": 30.0 + t % 7})
            for t in range(1200)
        )
        catalog.store.flush()
        flag, span = Eq("approved", 1), Between("t", 600, 629)
        by_flag = catalog.query(Query("rows", where=flag))
        assert by_flag.plan == "zonemap:approved"
        results = [
            catalog.query(Query("rows", where=And(*children)))
            for children in ((flag, span), (span, flag))
        ]
        for result in results:
            assert result.plan == "zonemap:t"
            assert len(result) == 15
            assert result.records_examined == results[0].records_examined
            assert result.flash_reads == results[0].flash_reads
        assert results[0].records_examined < by_flag.records_examined / 4
        # a lone hint plans exactly as before
        assert catalog.query(Query("rows", where=span)).records_examined \
            == results[0].records_examined

    def test_or_falls_back_to_scan(self):
        result = seeded_catalog().query(
            Query("documents", where=Or(Eq("kind", "mail"), Eq("kind", "bill")))
        )
        assert result.plan == "scan"
        assert len(result) == 2

    def test_not_and_ne(self):
        catalog = seeded_catalog()
        via_not = catalog.query(Query("documents", where=Not(Eq("kind", "photo"))))
        via_ne = catalog.query(Query("documents", where=Ne("kind", "photo")))
        assert len(via_not) == len(via_ne) == 2

    def test_contains(self):
        result = seeded_catalog().query(
            Query("documents", where=Contains("title", "beach"))
        )
        assert {row["title"] for row in result} == {"beach day", "re: beach"}

    def test_projection(self):
        result = seeded_catalog().query(
            Query("documents", where=Eq("kind", "bill"), project=["title", "size"])
        )
        assert result.rows == [{"title": "power bill", "size": 50}]

    def test_projection_missing_field_is_none(self):
        result = seeded_catalog().query(
            Query("documents", where=Eq("kind", "bill"), project=["absent"])
        )
        assert result.rows == [{"absent": None}]

    def test_order_by_and_limit(self):
        result = seeded_catalog().query(
            Query("documents", order_by="size", descending=True, limit=2,
                  project=["title"])
        )
        assert [row["title"] for row in result] == ["mountain", "beach day"]

    def test_match_all_default(self):
        assert len(seeded_catalog().query(Query("documents"))) == 5

    def test_unknown_collection_raises(self):
        with pytest.raises(QueryError):
            seeded_catalog().query(Query("nope"))

    def test_index_reads_fewer_pages_than_scan(self):
        catalog = make_catalog()
        items = catalog.collection("items")
        items.create_hash_index("owner")
        for i in range(2000):
            items.insert(f"i{i}", {"owner": f"user-{i % 200}", "value": i})
        catalog.store.flush()
        indexed = catalog.query(Query("items", where=Eq("owner", "user-3")))
        # Ne has no zone-map range hint, so this is a true full scan.
        scanned = catalog.query(Query("items", where=Ne("owner", "user-3")))
        assert indexed.plan == "index:owner"
        assert scanned.plan == "scan"
        assert indexed.flash_reads < scanned.flash_reads
        assert indexed.records_examined < scanned.records_examined


class TestAggregation:
    def test_count(self):
        result = seeded_catalog().query(
            Query("documents", aggregates=[Aggregate("count")])
        )
        assert result.scalar() == 5.0

    def test_sum_avg_min_max(self):
        result = seeded_catalog().query(
            Query(
                "documents",
                where=Eq("kind", "photo"),
                aggregates=[
                    Aggregate("sum", "size"),
                    Aggregate("avg", "size"),
                    Aggregate("min", "size"),
                    Aggregate("max", "size"),
                ],
            )
        )
        row = result.rows[0]
        assert row["sum(size)"] == 6500.0
        assert row["avg(size)"] == pytest.approx(6500 / 3)
        assert row["min(size)"] == 1500.0
        assert row["max(size)"] == 3000.0

    def test_group_by(self):
        result = seeded_catalog().query(
            Query(
                "documents",
                aggregates=[Aggregate("count"), Aggregate("sum", "size")],
                group_by="kind",
            )
        )
        by_kind = {row["kind"]: row for row in result}
        assert by_kind["photo"]["count(*)"] == 3.0
        assert by_kind["bill"]["sum(size)"] == 50.0
        assert set(by_kind) == {"photo", "mail", "bill"}

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(QueryError):
            Aggregate("median", "size")

    def test_min_over_empty_raises(self):
        with pytest.raises(QueryError):
            seeded_catalog().query(
                Query(
                    "documents",
                    where=Eq("kind", "nothing"),
                    aggregates=[Aggregate("min", "size")],
                )
            )

    def test_scalar_requires_single_cell(self):
        result = seeded_catalog().query(Query("documents"))
        with pytest.raises(QueryError):
            result.scalar()

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1,
                    max_size=50))
    def test_aggregates_match_python(self, values):
        catalog = make_catalog()
        numbers = catalog.collection("numbers")
        for position, value in enumerate(values):
            numbers.insert(f"n{position}", {"v": value})
        result = catalog.query(
            Query(
                "numbers",
                aggregates=[
                    Aggregate("count"),
                    Aggregate("sum", "v"),
                    Aggregate("avg", "v"),
                ],
            )
        )
        row = result.rows[0]
        assert row["count(*)"] == len(values)
        assert row["sum(v)"] == sum(values)
        assert row["avg(v)"] == pytest.approx(sum(values) / len(values))


def meter_catalog(indexed, rows=120, **options):
    """A flushed single-collection catalog of uniform meter rows."""
    catalog = make_catalog(**options)
    meter = catalog.collection("m")
    if indexed:
        meter.create_ordered_index("t")
    meter.insert_many(
        (f"{index:04d}", {"t": index * 60, "w": index / 8, "on": True})
        for index in range(rows))
    catalog.store.flush()
    return catalog


class TestIndexDeclinesWhatItCannotOrder:
    """A bound the index cannot compare against its entries is the
    zone-map/scan plan's to answer (with no rows), never a TypeError."""

    @pytest.mark.parametrize("where", [
        Between("t", "a", "b"), Between("t", "a"), Between("t", high="b"),
        And(Between("t", "a", "b"), Eq("w", 1.0)),
    ])
    def test_mistyped_bound_matches_nothing_on_both_catalogs(self, where):
        for indexed in (True, False):
            result = meter_catalog(indexed).query(Query("m", where=where))
            assert (result.plan, result.rows) == ("zonemap:t", []), indexed

    def test_float_bounds_on_an_int_index_still_use_it(self):
        where = Between("t", 0.5, 120.5)
        indexed = meter_catalog(True).query(Query("m", where=where))
        scanned = meter_catalog(False).query(Query("m", where=where))
        assert (indexed.plan, scanned.plan) == ("range:t", "zonemap:t")
        assert indexed.rows == scanned.rows
        assert [row["t"] for row in indexed.rows] == [60, 120]

    def test_eq_none_also_matches_records_without_the_field(self):
        catalog = make_catalog()
        notes = catalog.collection("notes")
        notes.create_hash_index("tag")
        notes.insert("a", {"tag": None})
        notes.insert("b", {"body": "untagged"})
        notes.insert("c", {"tag": "x"})
        result = catalog.query(Query("notes", where=Eq("tag", None)))
        assert result.plan == "scan"
        assert result.rows == [{"tag": None}, {"body": "untagged"}]
        assert catalog.query(
            Query("notes", where=Eq("tag", "x"))).plan == "index:tag"


def counter_labels(name):
    snapshot = get_default().metrics.get(name).snapshot()
    return {key: value for key, value in snapshot.get("labels", {}).items()
            if value}


class TestAggregateLaneIsCounted:
    def test_one_labelled_increment_per_aggregate_query(self):
        catalog = meter_catalog(True)
        window = Between("t", 600, 3600)  # 51 rows: the vector lane
        runs = [
            ("folded|ok", Query("m", where=window, aggregates=[
                Aggregate("sum", "w"), Aggregate("count"),
                Aggregate("max", "t")])),
            ("materialised|group_by", Query(
                "m", where=window, aggregates=[Aggregate("sum", "w")],
                group_by="on")),
            ("materialised|predicate", Query(
                "m", where=And(window, Contains("w", "x")),
                aggregates=[Aggregate("sum", "w")])),
            ("materialised|non_numeric", Query(
                "m", where=window, aggregates=[Aggregate("sum", "on")])),
            ("materialised|scalar_rows", Query(  # 3 rows: decoded scalar
                "m", where=Between("t", 60, 180),
                aggregates=[Aggregate("sum", "w")])),
        ]
        expected = {}
        for label, query in runs:
            result = catalog.query(query)
            assert result.plan == "range:t"
            rows = catalog.query(Query("m", where=query.where)).rows
            if query.group_by is None:
                assert result.rows == [{
                    f"{a.function}({a.field})": a.compute(rows)
                    for a in query.aggregates}]
            expected[label] = expected.get(label, 0) + 1
            assert counter_labels("store.query.aggregate") == expected
        # the index fetches went through the one chunk decoder
        decoded = counter_labels("store.decode.rows")
        assert decoded == {"columnar": 8 * 51, "scalar": 2 * 3}
        catalog.query(Query("m", where=window))  # no aggregate: no count
        assert counter_labels("store.query.aggregate") == expected

    def test_a_warm_cache_serves_kept_rows_in_the_same_lanes(self):
        """Flushed pages are resident: the first read of an entry
        decodes it and the cache keeps the row, every later read
        gathers a copy of it (the kept lane). A gathered batch is
        scalar rows whatever its size, so every aggregate over the
        resident pages materialises, the first included, where a read
        from flash folds off decode_page's columns."""
        catalog = meter_catalog(True, page_cache_bytes=64 * TIMINGS.page_size)
        total = [Aggregate("sum", "w")]
        window, few = Between("t", 600, 3600), Between("t", 60, 180)
        results = [catalog.query(Query("m", where=where, aggregates=total))
                   for where in (window, window, few, few)]
        assert counter_labels("store.decode.rows") == {
            "columnar": 51, "scalar": 3, "kept": 51 + 3}
        assert counter_labels("store.query.aggregate") == {
            "materialised|scalar_rows": 4}
        assert results[0].rows == results[1].rows
        assert results[2].rows == results[3].rows


class TestZoneMapsFoldWhatWasWritten:
    """The store holds a snapshot of every record it buffers: changing
    the caller's dict afterwards reaches neither a read nor the zone
    map the flush folds."""

    def test_put(self):
        catalog = make_catalog()
        meter = catalog.collection("m")
        record = {"t": 5}
        meter.insert("a", record)
        record["t"] = 1000
        catalog.store.flush()
        assert meter.get("a") == {"t": 5}
        result = catalog.query(Query("m", where=Between("t", 0, 10)))
        assert (result.plan, result.rows) == ("zonemap:t", [{"t": 5}])

    def test_insert_many_buffered_tail(self):
        catalog = make_catalog()
        meter = catalog.collection("m")
        rows = [(f"{index:02d}", {"t": index}) for index in range(20)]
        meter.insert_many(rows)  # one columnar chunk, all in the buffer
        for _, record in rows:
            record["t"] += 1000
        catalog.store.flush()
        result = catalog.query(Query("m", where=Between("t", 0, 19)))
        assert result.plan == "zonemap:t"
        assert result.rows == [{"t": index} for index in range(20)]


def cache_contents(cache):
    """What a page cache holds, by value: images and kept rows."""
    return {page: (image, dict(cache._rows.get(page, {})))
            for page, image in cache._pages.items()}


class TestResultRowsArePrivate:
    """Rows are built once, from a batch nothing else holds: mutating
    one result reaches neither a later run nor the page cache — not
    the run whose rows the cache kept, nor the runs served from them —
    and a record read out of the write buffer is a copy. Every plan,
    over a store that decodes each run afresh and over one that serves
    later runs from the rows its cache kept."""

    PLANS = [
        (Between("t", 600, 3600), "range:t"),       # columnar chunk
        (Between("t", 60, 180), "range:t"),         # scalar rows
        (Between("w", 1.0, 9.0), "zonemap:w"),      # part of a chunk
        (Ne("w", -1.0), "scan"),                    # every row of a chunk
    ]
    INDEX_PLAN = (Eq("tags", "a"), "index:tags")

    @pytest.mark.parametrize("where, plan", PLANS)
    def test_mutating_a_result_changes_nothing_else(self, where, plan):
        self.mutate_and_rerun(where, plan, cached=True)

    @pytest.mark.parametrize("where, plan", PLANS + [INDEX_PLAN])
    def test_a_cold_store_hands_out_fresh_rows_too(self, where, plan):
        self.mutate_and_rerun(where, plan, cached=False)

    def test_an_index_plan_served_from_kept_rows(self):
        self.mutate_and_rerun(*self.INDEX_PLAN, cached=True)

    @staticmethod
    def mutate_and_rerun(where, plan, cached):
        flash = NandFlash(TIMINGS, capacity_bytes=512 * TIMINGS.page_size)
        catalog = Catalog(flash, page_cache_bytes=(
            64 * TIMINGS.page_size if cached else None))
        meter = catalog.collection("m")
        meter.create_ordered_index("t")
        meter.create_hash_index("tags")
        meter.insert_many(
            (f"{index:04d}", {"t": index * 60, "w": index / 8, "tags": "a"})
            for index in range(120))
        meter.insert("9999", {"t": 720, "w": 2.0, "tags": "buffered"})
        query = Query("m", where=where)
        cache = catalog.store.page_cache

        def cached_rows():
            return None if cache is None else cache_contents(cache)

        pristine = None
        for _ in range(3):  # decode and keep, then gather twice
            result = catalog.query(query)
            assert result.plan == plan and result.rows
            if pristine is None:
                pristine = [dict(row) for row in result.rows]
            assert result.rows == pristine
            held = cached_rows()
            for row in result.rows:
                row["w"] = "mutated"
                row["extra"] = 1
                del row["t"]
            assert cached_rows() == held
        assert catalog.query(query).rows == pristine
        assert (counter_labels("store.decode.rows").get("kept", 0) > 0) \
            == cached
        buffered = meter.get("9999")
        buffered["w"] = "mutated"
        assert meter.get("9999") == {"t": 720, "w": 2.0, "tags": "buffered"}
        assert all(a is not b for a, b in
                   zip(catalog.query(query).rows, catalog.query(query).rows))


SMALL_PAGES = FlashTimings(
    page_size=512, pages_per_block=8,
    read_page_us=25.0, write_page_us=250.0, erase_block_us=1500.0,
)
METER_ROWS = st.fixed_dictionaries(
    {"t": st.integers(0, 400), "w": st.floats(-50, 50, allow_nan=False),
     "tags": st.sampled_from(["a", "b"])},
    optional={"on": st.booleans()})  # a second schema: scalar rows
CACHE_OPS = st.one_of(
    st.tuples(st.just("insert"), st.lists(METER_ROWS, min_size=1,
                                          max_size=30)),
    st.just(("flush",)),
    st.tuples(st.just("t"), st.integers(0, 400), st.integers(0, 400)),
    st.tuples(st.just("w"), st.floats(-50, 50), st.floats(-50, 50)),
    st.tuples(st.just("tags"), st.sampled_from(["a", "b"])),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ops=st.lists(CACHE_OPS, min_size=5, max_size=40))
def test_half_kept_chunks_hand_out_private_rows_in_twin_order(ops):
    """A cached catalog against an uncached twin under random inserts,
    flushes and ranged or indexed queries. A narrow query keeps part of
    a resident page's rows, so a wider one later gathers a chunk whose
    entries are partly kept and partly decoded now: every result equals
    the twin's, in the same order, and no row object is shared between
    two results or with the cache (mutating one reaches neither)."""
    catalogs = []
    for cache_bytes in (6 * SMALL_PAGES.page_size, None):
        catalog = Catalog(NandFlash(
            SMALL_PAGES, capacity_bytes=256 * SMALL_PAGES.page_size),
            page_cache_bytes=cache_bytes)
        meter = catalog.collection("m")
        meter.create_ordered_index("t")
        meter.create_hash_index("tags")
        catalogs.append(catalog)
    cached, twin = catalogs
    cache = cached.store.page_cache
    inserted, previous = 0, []
    for kind, *args in ops:
        if kind == "insert":
            items = [(f"{inserted + at:04d}", row)
                     for at, row in enumerate(args[0])]
            inserted += len(items)
            for catalog in catalogs:
                catalog.collection("m").insert_many(
                    (record_id, dict(row)) for record_id, row in items)
            continue
        if kind == "flush":
            for catalog in catalogs:
                catalog.store.flush()
            continue
        where = Eq("tags", args[0]) if kind == "tags" \
            else Between(kind, min(args), max(args))
        result, expected = (catalog.query(Query("m", where=where))
                            for catalog in catalogs)
        assert result.plan == expected.plan
        assert result.rows == expected.rows
        kept = {id(record) for records in cache._rows.values()
                for record in records.values()}
        handed = set(map(id, result.rows))
        assert len(handed) == len(result.rows)
        assert handed.isdisjoint(kept)
        assert handed.isdisjoint(map(id, previous))
        held = cache_contents(cache)
        for row in result.rows:
            row.clear()
            row["mutated"] = True
        assert cache_contents(cache) == held
        previous = result.rows  # alive, so no id is reused


class TestBufferedTailInLogOrder:
    """The rows still in the write buffer come back in log order, after
    the flushed ones, on every scan — ids ``s8`` … ``s11`` sort as 10,
    11, 8, 9 but were written 8, 9, 10, 11 — so a float sum over a
    window still in the buffer folds in the order a standing close
    folds it (the log's), bit for bit."""

    # floats whose sum depends on the order they are folded in
    W = {8: 1e16, 9: 1.0, 10: 1.0, 11: -1e16}

    def catalog(self):
        catalog = make_catalog()
        meter = catalog.collection("m")
        for t, w in self.W.items():
            meter.insert(f"s{t}", {"t": t, "w": w})
        return catalog

    def assert_log_order(self, catalog):
        window, every = Between("t", 8, 11), Ne("w", -1.0)
        for where, plan in ((window, "zonemap:t"), (every, "scan")):
            result = catalog.query(Query("m", where=where, with_ids=True))
            assert result.plan == plan
            assert [row["t"] for row in result.rows] == [8, 9, 10, 11]
            assert result.ids == ["s8", "s9", "s10", "s11"]
        assert [record["t"] for _, record in catalog.store.scan_range(
            "t", 8, 11)] == [8, 9, 10, 11]

    def test_before_and_after_a_flush(self):
        catalog = self.catalog()
        assert catalog.store.record_ids() == [
            "m/s10", "m/s11", "m/s8", "m/s9"]
        self.assert_log_order(catalog)
        catalog.store.flush()
        self.assert_log_order(catalog)

    def test_a_rewritten_id_moves_to_the_end(self):
        catalog = self.catalog()
        catalog.collection("m").insert("s9", {"t": 9, "w": 1.0})
        result = catalog.query(Query("m", where=Ne("w", -1.0)))
        assert [row["t"] for row in result.rows] == [8, 10, 11, 9]

    def test_a_buffered_float_sum_folds_in_log_order(self):
        catalog = self.catalog()
        result = catalog.query(Query("m", where=Between("t", 8, 11),
                                     aggregates=[Aggregate("sum", "w")]))
        assert result.plan == "zonemap:t"
        in_log_order = float(sum(self.W[t] for t in (8, 9, 10, 11)))
        by_id = float(sum(self.W[t] for t in (10, 11, 8, 9)))
        assert in_log_order != by_id  # the order shows in the bits
        assert result.scalar() == in_log_order


class TestCopiesGoOutAtTheBoundary:
    """A batch lends its scalar rows — the page cache's kept records,
    the write buffer's snapshots — and whoever returns rows copies
    them: a predicate or an aggregate reads them in place and changes
    nothing, and mutating what ``get_many``, a ``with_ids`` query or a
    projected query returned reaches neither the cache nor the buffer,
    nor a second run's rows."""

    BUFFERED = {"t": 720, "w": 2.0, "tags": "buffered"}

    def catalog(self):
        flash = NandFlash(TIMINGS, capacity_bytes=512 * TIMINGS.page_size)
        catalog = Catalog(flash, page_cache_bytes=64 * TIMINGS.page_size)
        meter = catalog.collection("m")
        meter.create_ordered_index("t")
        meter.insert_many(
            (f"{index:04d}", {"t": index * 60, "w": index / 8, "tags": "a"})
            for index in range(120))
        meter.insert("9999", dict(self.BUFFERED))
        for _ in range(2):  # decode and keep, then gather
            catalog.query(Query("m", where=Ne("w", -1.0)))
        assert counter_labels("store.decode.rows").get("kept", 0) > 0
        return catalog

    def assert_untouched(self, catalog, held):
        assert cache_contents(catalog.store.page_cache) == held
        assert catalog.collection("m").get("9999") == self.BUFFERED

    @staticmethod
    def mutate(rows):
        for row in rows:
            row.clear()
            row["mutated"] = True

    def test_an_aggregate_reads_kept_and_buffered_rows_in_place(self):
        catalog = self.catalog()
        held = cache_contents(catalog.store.page_cache)
        rows = catalog.query(Query("m", where=Ne("w", -1.0))).rows
        for where in (Between("t", 0, 7200), Ne("w", -1.0)):
            result = catalog.query(Query("m", where=where, aggregates=[
                Aggregate("sum", "w"), Aggregate("max", "t")]))
            matched = [row for row in rows if where.matches(row)]
            assert result.rows == [{
                "sum(w)": Aggregate("sum", "w").compute(matched),
                "max(t)": Aggregate("max", "t").compute(matched)}]
        self.assert_untouched(catalog, held)

    def test_a_mutated_get_many_result(self):
        catalog = self.catalog()
        meter = catalog.collection("m")
        held = cache_contents(catalog.store.page_cache)
        ids = ["0003", "9999", "0100", "0003"]
        expected = [meter.get(record_id) for record_id in ids]
        first, second = meter.get_many(ids), meter.get_many(ids)
        assert first == second == expected
        assert all(a is not b for a, b in zip(first, second))
        self.mutate(first)
        self.assert_untouched(catalog, held)
        assert meter.get_many(ids) == expected

    @pytest.mark.parametrize("query", [
        Query("m", where=Ne("w", -1.0), with_ids=True),
        Query("m", where=Between("t", 600, 3600), with_ids=True),
        Query("m", where=Ne("w", -1.0), project=["t", "tags"]),
        Query("m", where=Eq("tags", "buffered")),  # one row: the kanon shape
    ])
    def test_a_mutated_result(self, query):
        catalog = self.catalog()
        held = cache_contents(catalog.store.page_cache)
        first, second = catalog.query(query), catalog.query(query)
        assert first.rows == second.rows and first.ids == second.ids
        assert all(a is not b for a, b in zip(first.rows, second.rows))
        expected = [dict(row) for row in first.rows]
        self.mutate(first.rows)
        self.assert_untouched(catalog, held)
        assert catalog.query(query).rows == expected

    def test_only_the_cache_and_the_buffer_lend_rows(self):
        """A resident chunk and the buffered tail are lent (copied where
        returned); a chunk decoded off flash is the reader's own, so no
        one copies its rows a second time."""
        store = self.catalog().store
        ids = ["m/0003", "m/0100", "m/9999"]
        for reads in (lambda: store.fetch_batches(ids),
                      lambda: store.scan_batches(prefix="m/")):
            list(reads())  # resident again: the next read gathers
            assert [batch.lent for _, batch in reads()] == [True, True]
            store.page_cache.clear()
            assert [batch.lent for _, batch in reads()] == [False, True]
