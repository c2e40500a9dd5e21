"""Tests for the log-structured store on flash."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, NotFoundError, StorageError
from repro.hardware import FlashTimings, NandFlash
from repro.store import LogStructuredStore

TIMINGS = FlashTimings(
    page_size=256, pages_per_block=4,
    read_page_us=25.0, write_page_us=250.0, erase_block_us=1500.0,
)


def make_store(pages=64, ram_budget=None):
    flash = NandFlash(TIMINGS, capacity_bytes=pages * TIMINGS.page_size)
    return LogStructuredStore(flash, ram_budget_bytes=ram_budget)


class TestBasicOperations:
    def test_put_get_roundtrip(self):
        store = make_store()
        store.put("r1", {"name": "alice", "age": 34})
        assert store.get("r1") == {"name": "alice", "age": 34}

    def test_get_missing_raises(self):
        with pytest.raises(NotFoundError):
            make_store().get("absent")

    def test_put_replaces(self):
        store = make_store()
        store.put("r1", {"v": 1})
        store.put("r1", {"v": 2})
        assert store.get("r1") == {"v": 2}
        assert len(store) == 1

    def test_delete(self):
        store = make_store()
        store.put("r1", {"v": 1})
        store.delete("r1")
        assert not store.contains("r1")
        with pytest.raises(NotFoundError):
            store.get("r1")

    def test_delete_missing_raises(self):
        with pytest.raises(NotFoundError):
            make_store().delete("absent")

    def test_contains(self):
        store = make_store()
        assert not store.contains("r1")
        store.put("r1", {})
        assert store.contains("r1")

    def test_record_ids_sorted(self):
        store = make_store()
        for record_id in ("c", "a", "b"):
            store.put(record_id, {})
        assert store.record_ids() == ["a", "b", "c"]

    def test_counters(self):
        store = make_store()
        store.put("a", {})
        store.put("b", {})
        store.delete("a")
        assert store.inserts == 2
        assert store.deletes == 1

    def test_oversized_record_rejected(self):
        store = make_store()
        with pytest.raises(StorageError):
            store.put("big", {"data": b"\x00" * 300})


class TestPersistenceAcrossFlush:
    def test_get_before_flush_reads_buffer(self):
        store = make_store()
        store.put("r1", {"v": 1})
        reads_before = store.flash.reads
        assert store.get("r1") == {"v": 1}
        assert store.flash.reads == reads_before  # served from RAM buffer

    def test_get_after_flush_reads_flash(self):
        store = make_store()
        store.put("r1", {"v": 1})
        store.flush()
        reads_before = store.flash.reads
        assert store.get("r1") == {"v": 1}
        assert store.flash.reads == reads_before + 1

    def test_buffered_delete_hides_flushed_record(self):
        store = make_store()
        store.put("r1", {"v": 1})
        store.flush()
        store.delete("r1")
        assert not store.contains("r1")

    def test_replace_after_flush(self):
        store = make_store()
        store.put("r1", {"v": 1})
        store.flush()
        store.put("r1", {"v": 2})
        assert store.get("r1") == {"v": 2}
        store.flush()
        assert store.get("r1") == {"v": 2}

    def test_records_pack_multiple_per_page(self):
        store = make_store()
        for i in range(8):
            store.put(f"r{i}", {"v": i})
        store.flush()
        # 8 tiny records should need far fewer than 8 pages
        assert store.pages_used <= 2


class TestScan:
    def test_scan_returns_all_live_records(self):
        store = make_store()
        for i in range(10):
            store.put(f"r{i}", {"v": i})
        store.delete("r3")
        scanned = dict(store.scan())
        assert len(scanned) == 9
        assert "r3" not in scanned
        assert scanned["r5"] == {"v": 5}

    def test_scan_mixes_flushed_and_buffered(self):
        store = make_store()
        store.put("flushed", {"v": 1})
        store.flush()
        store.put("buffered", {"v": 2})
        scanned = dict(store.scan())
        assert scanned == {"flushed": {"v": 1}, "buffered": {"v": 2}}

    def test_scan_sees_latest_version(self):
        store = make_store()
        store.put("r", {"v": 1})
        store.flush()
        store.put("r", {"v": 2})
        assert dict(store.scan()) == {"r": {"v": 2}}

    def test_scan_reads_each_page_once(self):
        store = make_store()
        for i in range(20):
            store.put(f"r{i:02d}", {"v": i})
        store.flush()
        pages = store.pages_used
        store.flash.reset_counters()
        list(store.scan())
        assert store.flash.reads == pages


class TestCapacityAndCompaction:
    def test_flash_fills_up(self):
        store = make_store(pages=4)
        with pytest.raises(CapacityError):
            for i in range(200):
                store.put(f"r{i}", {"data": b"\x00" * 200})

    def test_compaction_reclaims_space(self):
        store = make_store(pages=16)
        # Churn: overwrite the same records, compacting between rounds.
        for round_number in range(3):
            for i in range(4):
                store.put(f"r{i}", {"round": round_number, "pad": b"\x00" * 150})
        store.flush()
        pages_before = store.pages_used
        erased = store.compact()
        assert erased > 0
        assert store.pages_used < pages_before
        # All records still readable with latest values
        for i in range(4):
            assert store.get(f"r{i}")["round"] == 2

    def test_compaction_enables_unbounded_churn(self):
        store = make_store(pages=16)
        # 40 page-sized writes into a 16-page device only works if
        # compaction actually reclaims stale versions.
        for round_number in range(10):
            for i in range(4):
                store.put(f"r{i}", {"round": round_number, "pad": b"\x00" * 150})
            store.compact()
        for i in range(4):
            assert store.get(f"r{i}")["round"] == 9

    def test_compaction_then_more_writes(self):
        store = make_store(pages=16)
        for round_number in range(3):
            for i in range(4):
                store.put(f"r{i}", {"round": round_number, "pad": b"\x00" * 150})
        store.compact()
        for i in range(4):
            store.put(f"r{i}", {"round": 99})
        store.flush()
        for i in range(4):
            assert store.get(f"r{i}")["round"] == 99

    def test_sustained_churn_with_periodic_compaction(self):
        store = make_store(pages=32)
        for round_number in range(100):
            store.put("hot", {"round": round_number, "pad": b"\x00" * 180})
            if round_number % 10 == 9:
                store.compact()
        assert store.get("hot")["round"] == 99

    def test_ram_budget_enforced(self):
        store = make_store(pages=64, ram_budget=200)
        with pytest.raises(CapacityError):
            for i in range(100):
                store.put(f"record-{i}", {"v": i})


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d", "e"]),
                st.one_of(
                    st.none(),  # None = delete
                    st.integers(min_value=0, max_value=1000),
                ),
            ),
            max_size=40,
        )
    )
    def test_store_matches_dict_model(self, operations):
        """The store behaves like a plain dict under put/delete."""
        store = make_store(pages=256)
        model: dict[str, dict] = {}
        for key, value in operations:
            if value is None:
                if key in model:
                    store.delete(key)
                    del model[key]
            else:
                record = {"value": value}
                store.put(key, record)
                model[key] = record
        assert dict(store.scan()) == model
        assert store.record_ids() == sorted(model)
        for key, record in model.items():
            assert store.get(key) == record

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(
        st.sampled_from(["a", "b", "c", "d", "e"]),
        st.sampled_from(["put", "delete", "flush"])), max_size=40))
    def test_live_ids_answers_contains(self, operations):
        """``live_ids`` is the ``contains`` probe per id, whether the
        latest word on an id is on flash or in the write buffer — a
        buffered delete of a flushed record included."""
        store = make_store(pages=256)
        probe = ["a", "b", "c", "d", "e", "absent"]
        for step, (key, action) in enumerate(operations):
            if action == "put":
                store.put(key, {"step": step})
            elif action == "delete" and store.contains(key):
                store.delete(key)
            elif action == "flush":
                store.flush()
            assert store.live_ids(probe) == {
                key for key in probe if store.contains(key)}
            assert store.live_ids(iter(probe)) == set(store.record_ids())

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.one_of(
                    st.none(),  # None = delete
                    st.just("compact"),
                    st.integers(min_value=0, max_value=1000),
                ),
            ),
            max_size=30,
        )
    )
    def test_compaction_preserves_dict_semantics(self, operations):
        """Interleaving compaction anywhere never changes visible state."""
        store = make_store(pages=256)
        model: dict[str, dict] = {}
        for key, value in operations:
            if value == "compact":
                store.compact()
            elif value is None:
                if key in model:
                    store.delete(key)
                    del model[key]
            else:
                record = {"value": value, "pad": b"\x00" * 40}
                store.put(key, record)
                model[key] = record
        store.compact()
        assert dict(store.scan()) == model
        for key, record in model.items():
            assert store.get(key) == record
