"""Tests for batch ingest, zone-map pruning, and RAM accounting."""

import hashlib

import pytest

from repro.errors import CapacityError, StorageError
from repro.hardware import FlashTimings, NandFlash
from repro.store import Between, Catalog, LogStructuredStore, Query

TIMINGS = FlashTimings(
    page_size=256, pages_per_block=4,
    read_page_us=25.0, write_page_us=250.0, erase_block_us=1500.0,
)


def make_flash(pages=256):
    return NandFlash(TIMINGS, capacity_bytes=pages * TIMINGS.page_size)


def flash_image(flash):
    """Digest of every programmed page (positions + contents)."""
    digest = hashlib.sha256()
    for page in flash.written_pages():
        digest.update(page.to_bytes(4, "big"))
        digest.update(flash.read_page(page))
    return digest.hexdigest()


def sample_items(count, offset=0):
    return [
        (f"r{index:05d}", {"t": index, "w": float(index % 7)})
        for index in range(offset, offset + count)
    ]


class TestInsertManyEquivalence:
    def test_bit_for_bit_identical_to_sequential_puts(self):
        items = sample_items(300)
        flash_single, flash_batch = make_flash(), make_flash()
        single = LogStructuredStore(flash_single)
        batch = LogStructuredStore(flash_batch)
        for record_id, record in items:
            single.put(record_id, record)
        assert batch.insert_many(items) == len(items)
        single.flush()
        batch.flush()
        assert flash_image(flash_single) == flash_image(flash_batch)
        assert single.record_ids() == batch.record_ids()

    def test_fewer_flash_writes_than_records(self):
        flash = make_flash()
        store = LogStructuredStore(flash)
        store.insert_many(sample_items(200))
        store.flush()
        assert flash.writes < 200  # page-granular, not record-granular

    def test_mixes_with_put_and_replacements(self):
        store = LogStructuredStore(make_flash())
        store.put("a", {"v": 1})
        store.insert_many([("a", {"v": 2}), ("b", {"v": 3})])
        store.insert_many([("b", {"v": 4})])
        assert store.get("a") == {"v": 2}
        assert store.get("b") == {"v": 4}
        assert len(store) == 2
        store.flush()
        assert store.get("a") == {"v": 2}
        assert store.get("b") == {"v": 4}

    def test_oversized_record_rejected(self):
        store = LogStructuredStore(make_flash())
        with pytest.raises(StorageError):
            store.insert_many([("big", {"blob": "x" * 300})])

    def test_live_counts_match_sequential_path(self):
        items = sample_items(60)
        single = LogStructuredStore(make_flash())
        batch = LogStructuredStore(make_flash())
        for record_id, record in items:
            single.put(record_id, record)
        batch.insert_many(items)
        single.flush()
        batch.flush()
        assert single._live_per_block == batch._live_per_block


class TestCatalogInsertMany:
    def _seeded(self, use_batch):
        catalog = Catalog(make_flash())
        items = catalog.collection("items")
        items.create_hash_index("kind")
        items.create_ordered_index("t")
        rows = [
            (f"i{index}", {"kind": f"k{index % 3}", "t": index, "w": index * 2})
            for index in range(120)
        ]
        # replacement of an existing row plus an intra-batch duplicate
        items.insert("i5", {"kind": "old", "t": -1, "w": 0})
        rows.append(("i7", {"kind": "k9", "t": 777, "w": 1}))
        if use_batch:
            items.insert_many(rows)
        else:
            for record_id, record in rows:
                items.insert(record_id, record)
        return catalog

    def test_same_flash_image_and_query_results_as_sequential(self):
        sequential = self._seeded(use_batch=False)
        batched = self._seeded(use_batch=True)
        assert flash_image(sequential.store.flash) == flash_image(
            batched.store.flash
        )
        for query in (
            Query("items", where=Between("t", 10, 40), order_by="t"),
            Query("items", order_by="t"),
        ):
            assert sequential.query(query).rows == batched.query(query).rows

    @pytest.mark.parametrize("history", [
        "fresh", "replaces_flushed", "replaces_buffered",
        "deleted_in_buffer", "repeats_in_batch",
    ])
    def test_index_state_equals_the_insert_loops(self, history):
        """Every index holds exactly what an ``insert`` loop leaves,
        whether the batch takes the ``dict(items)`` shortcut (nothing
        replaced, no id repeated) or the per-record loop."""
        batch = [(f"i{index:03d}", {"kind": f"k{index % 3}", "t": index,
                                    "note": "alpha beta"})
                 for index in range(40)]
        before = [("i005", {"kind": "old", "t": -5, "note": "gamma"}),
                  ("i006", {"kind": "old", "t": -6})]
        if history == "repeats_in_batch":
            batch += [("i007", {"kind": "k9", "t": 777, "note": "delta"}),
                      ("i007", {"kind": "k8", "t": 778})]

        def seeded(use_batch):
            catalog = Catalog(make_flash())
            items = catalog.collection("items")
            items.create_hash_index("kind")
            items.create_ordered_index("t")
            items.create_keyword_index("note")
            if history != "fresh" and history != "repeats_in_batch":
                for record_id, record in before:
                    items.insert(record_id, record)
                if history != "replaces_buffered":
                    catalog.store.flush()
                if history == "deleted_in_buffer":
                    items.delete("i005")
            if use_batch:
                items.insert_many(batch)
            else:
                for record_id, record in batch:
                    items.insert(record_id, record)
            return items

        def state(items):
            return (
                {value: sorted(ids) for value, ids in
                 items._hash_indexes["kind"]._buckets.items()},
                items._ordered_indexes["t"]._entries,
                {term: sorted(ids) for term, ids in
                 items._keyword_indexes["note"]._postings.items()},
            )

        assert state(seeded(True)) == state(seeded(False))

    def test_indexes_updated_for_latest_batch_version(self):
        catalog = self._seeded(use_batch=True)
        result = catalog.query(
            Query("items", where=Between("t", 777, 777), project=["kind"])
        )
        assert result.plan == "range:t"
        assert result.rows == [{"kind": "k9"}]
        # the superseded i7 posting (t=7) must be gone
        stale = catalog.query(Query("items", where=Between("t", 7, 7)))
        assert stale.rows == []


class TestRamAccounting:
    def test_unflushed_buffer_counts_against_budget(self):
        # Regression: the budget used to see only flushed directory
        # entries, so a caller who never flushed could buffer without
        # bound. Now buffered bytes + entry bookkeeping count too.
        store = LogStructuredStore(make_flash(), ram_budget_bytes=150)
        with pytest.raises(CapacityError):
            for index in range(10):
                store.put(f"r{index}", {"v": index})
        assert store.pages_used == 0  # blew the budget before any flush

    def test_buffer_ram_released_after_flush(self):
        store = LogStructuredStore(make_flash())
        store.put("r", {"v": "x" * 60})
        buffered = store.directory_ram_bytes
        store.flush()
        flushed = store.directory_ram_bytes
        entry = (LogStructuredStore._DIRECTORY_ENTRY_BYTES
                 + LogStructuredStore._MEMBER_ENTRY_BYTES)
        assert buffered > entry
        assert flushed == entry

    def test_batch_ingest_respects_budget(self):
        store = LogStructuredStore(make_flash(), ram_budget_bytes=400)
        with pytest.raises(CapacityError):
            store.insert_many(sample_items(500))


class TestZoneMaps:
    def test_scan_range_reads_fewer_pages_than_scan(self):
        flash = make_flash()
        store = LogStructuredStore(flash)
        store.insert_many(sample_items(400))
        store.flush()
        before = flash.reads
        full = dict(store.scan())
        scan_reads = flash.reads - before
        before = flash.reads
        narrow = dict(store.scan_range("t", 10, 20))
        range_reads = flash.reads - before
        assert range_reads < scan_reads
        expected = {
            record_id: record
            for record_id, record in full.items()
            if 10 <= record["t"] <= 20
        }
        # block-granular superset, never a miss
        assert expected.items() <= narrow.items()

    def test_absent_field_prunes_everything(self):
        flash = make_flash()
        store = LogStructuredStore(flash)
        store.insert_many(sample_items(100))
        store.flush()
        before = flash.reads
        assert dict(store.scan_range("no_such_field", 0, 10)) == {}
        assert flash.reads == before

    def test_mixed_type_field_never_mispruned(self):
        store = LogStructuredStore(make_flash())
        store.insert_many([
            ("a", {"k": 5}),
            ("b", {"k": "text"}),
            ("c", {"k": 7}),
        ])
        store.flush()
        got = dict(store.scan_range("k", 6, 8))
        assert got["c"] == {"k": 7}

    def test_zone_maps_survive_full_compaction(self):
        flash = make_flash()
        store = LogStructuredStore(flash)
        store.insert_many(sample_items(300))
        for index in range(0, 300, 2):
            store.delete(f"r{index:05d}")
        store.compact()
        full = dict(store.scan())
        before = flash.reads
        narrow = dict(store.scan_range("t", 101, 121))
        range_reads = flash.reads - before
        before = flash.reads
        dict(store.scan())
        scan_reads = flash.reads - before
        assert range_reads < scan_reads
        expected = {
            record_id: record
            for record_id, record in full.items()
            if 101 <= record["t"] <= 121
        }
        assert expected.items() <= narrow.items()

    def test_zone_maps_survive_incremental_compaction(self):
        flash = make_flash(64)
        store = LogStructuredStore(flash)
        store.insert_many(sample_items(120))
        store.flush()
        for index in range(60):
            store.delete(f"r{index:05d}")
        store.flush()
        store.compact_incremental(max_victims=4)
        narrow = dict(store.scan_range("t", 60, 80))
        for index in range(60, 81):
            assert narrow[f"r{index:05d}"]["t"] == index

    def test_disabled_zone_maps_fall_back_to_full_scan(self):
        store = LogStructuredStore(make_flash(), zone_maps=False)
        store.insert_many(sample_items(50))
        store.flush()
        assert dict(store.scan_range("t", 0, 10)) == dict(store.scan())
        assert store.summaries_ram_bytes >= 0


class TestWearUnderBatchIngest:
    def test_sustained_batch_churn_keeps_wear_balanced(self):
        flash = make_flash(64)  # 16 blocks
        store = LogStructuredStore(flash)
        for round_index in range(60):
            store.insert_many(
                (f"hot{index % 40:03d}", {"t": round_index, "w": index})
                for index in range(40)
            )
            store.flush()
            while store.pages_used > 40:
                if not store.compact_incremental(max_victims=2):
                    break
        assert flash.erases > 0
        # every erased block should wear at a similar rate: no hot-spot
        assert flash.wear_skew() < 3.0
        # churn keeps working and data stays correct
        for index in range(40):
            assert store.get(f"hot{index:03d}")["t"] == 59
