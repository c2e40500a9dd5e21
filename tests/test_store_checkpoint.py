"""Tests for directory checkpoints and incremental reboot recovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, ConfigurationError
from repro.hardware import FlashTimings, NandFlash
from repro.obs import get_default
from repro.store import LogStructuredStore, RecoveryStats
from repro.store.encoding import ColumnBatch, encode_record

TIMINGS = FlashTimings(
    page_size=256, pages_per_block=4,
    read_page_us=25.0, write_page_us=250.0, erase_block_us=1500.0,
)

CKPT_BLOCKS = 12  # 6-block halves: room for the biggest test checkpoints


def make_flash(pages=128):
    return NandFlash(TIMINGS, capacity_bytes=pages * TIMINGS.page_size)


def make_store(flash, **kwargs):
    kwargs.setdefault("checkpoint_blocks", CKPT_BLOCKS)
    return LogStructuredStore(flash, **kwargs)


def assert_same_state(left, right):
    assert left.record_ids() == right.record_ids()
    for record_id in left.record_ids():
        assert left.get(record_id) == right.get(record_id)
    assert left._directory == right._directory
    assert left._live_per_block == right._live_per_block


class TestCheckpointBasics:
    def test_region_must_be_even(self):
        with pytest.raises(ConfigurationError):
            make_store(make_flash(), checkpoint_blocks=3)

    def test_checkpoint_requires_region(self):
        store = LogStructuredStore(make_flash())
        with pytest.raises(ConfigurationError):
            store.checkpoint()

    def test_checkpoint_pages_stay_out_of_data_region(self):
        flash = make_flash()
        store = make_store(flash)
        store.put("r", {"v": 1})
        store.checkpoint()
        region_start = (flash.block_count - CKPT_BLOCKS) * 4
        checkpoint_pages = [
            page for page in flash.written_pages() if page >= region_start
        ]
        assert checkpoint_pages  # the checkpoint really lives in the region
        assert store.pages_used == 1  # and does not count as data


class TestIncrementalRecovery:
    def _seed(self, flash):
        store = make_store(flash)
        for index in range(60):
            store.put(f"r{index:03d}", {"t": index, "w": index * 2})
        store.checkpoint()
        # post-checkpoint tail: new records, replacements, a delete
        for index in range(60, 75):
            store.put(f"r{index:03d}", {"t": index, "w": index * 2})
        store.put("r000", {"t": 0, "w": 999})
        store.delete("r001")
        store.flush()
        return store

    def test_checkpointed_recovery_matches_full_replay(self):
        flash = make_flash()
        self._seed(flash)
        incremental = LogStructuredStore.recover(
            flash, checkpoint_blocks=CKPT_BLOCKS
        )
        full = LogStructuredStore.recover(
            flash, checkpoint_blocks=CKPT_BLOCKS, use_checkpoint=False
        )
        assert incremental.last_recovery.mode == "checkpoint"
        assert full.last_recovery.mode == "full"
        assert_same_state(incremental, full)

    def test_replays_strictly_fewer_pages(self):
        flash = make_flash()
        self._seed(flash)
        incremental = LogStructuredStore.recover(
            flash, checkpoint_blocks=CKPT_BLOCKS
        )
        full = LogStructuredStore.recover(
            flash, checkpoint_blocks=CKPT_BLOCKS, use_checkpoint=False
        )
        assert (
            incremental.last_recovery.pages_replayed
            < full.last_recovery.pages_replayed
        )

    def test_writes_continue_after_incremental_recovery(self):
        flash = make_flash()
        self._seed(flash)
        store = LogStructuredStore.recover(flash, checkpoint_blocks=CKPT_BLOCKS)
        store.put("new", {"v": 1})
        store.flush()
        again = LogStructuredStore.recover(flash, checkpoint_blocks=CKPT_BLOCKS)
        assert again.get("new") == {"v": 1}
        assert again.get("r000") == {"t": 0, "w": 999}

    def test_latest_of_two_checkpoints_wins(self):
        flash = make_flash()
        store = make_store(flash)
        store.put("a", {"v": 1})
        store.checkpoint()
        store.put("a", {"v": 2})
        store.checkpoint()  # lands in the other half (A/B)
        rebooted = LogStructuredStore.recover(
            flash, checkpoint_blocks=CKPT_BLOCKS
        )
        assert rebooted.last_recovery.checkpoint_seq == store._page_sequence
        assert rebooted.get("a") == {"v": 2}
        assert rebooted.last_recovery.pages_replayed == 0

    def test_recovery_after_gc_recycled_a_checkpointed_block(self):
        flash = make_flash(64)
        store = make_store(flash)
        for index in range(40):
            store.put(f"r{index % 10}", {"round": index})
        store.flush()
        store.checkpoint()
        # GC after the checkpoint: victims are erased and recycled, so
        # their fingerprints no longer match the checkpointed summaries
        store.compact_incremental(max_victims=3)
        for index in range(10):
            store.put(f"post{index}", {"v": index})
        store.flush()
        erases_before_recovery = flash.erases
        incremental = LogStructuredStore.recover(
            flash, checkpoint_blocks=CKPT_BLOCKS
        )
        full = LogStructuredStore.recover(
            flash, checkpoint_blocks=CKPT_BLOCKS, use_checkpoint=False
        )
        assert flash.erases == erases_before_recovery  # recovery only reads
        assert_same_state(incremental, full)

    def test_full_compaction_after_checkpoint_recovers_correctly(self):
        flash = make_flash(64)
        store = make_store(flash)
        for index in range(30):
            store.put(f"r{index}", {"v": index})
        store.checkpoint()
        for index in range(0, 30, 2):
            store.delete(f"r{index}")
        store.compact()
        incremental = LogStructuredStore.recover(
            flash, checkpoint_blocks=CKPT_BLOCKS
        )
        full = LogStructuredStore.recover(
            flash, checkpoint_blocks=CKPT_BLOCKS, use_checkpoint=False
        )
        assert_same_state(incremental, full)

    def test_no_checkpoint_written_falls_back_to_full_replay(self):
        flash = make_flash()
        store = make_store(flash)
        store.put("a", {"v": 1})
        store.flush()
        rebooted = LogStructuredStore.recover(
            flash, checkpoint_blocks=CKPT_BLOCKS
        )
        assert rebooted.last_recovery.mode == "full"
        assert rebooted.get("a") == {"v": 1}

    def test_zone_maps_usable_after_incremental_recovery(self):
        flash = make_flash()
        store = make_store(flash)
        store.insert_many(
            (f"r{index:03d}", {"t": index}) for index in range(120)
        )
        store.checkpoint()
        store.insert_many(
            (f"r{index:03d}", {"t": index}) for index in range(120, 160)
        )
        store.flush()
        rebooted = LogStructuredStore.recover(
            flash, checkpoint_blocks=CKPT_BLOCKS
        )
        narrow = dict(rebooted.scan_range("t", 130, 140))
        for index in range(130, 141):
            assert narrow[f"r{index:03d}"] == {"t": index}
        before = flash.reads
        dict(rebooted.scan_range("t", 0, 5))
        pruned_reads = flash.reads - before
        before = flash.reads
        dict(rebooted.scan())
        scan_reads = flash.reads - before
        assert pruned_reads < scan_reads


class TestAutoCheckpoint:
    def test_interval_triggers_checkpoints(self):
        flash = make_flash()
        store = make_store(flash, checkpoint_interval_pages=4)
        for index in range(100):
            store.put(f"r{index:03d}", {"t": index, "pad": "x" * 20})
        store.flush()
        assert store.checkpoints_written >= 2
        rebooted = LogStructuredStore.recover(
            flash, checkpoint_blocks=CKPT_BLOCKS
        )
        assert rebooted.last_recovery.mode == "checkpoint"
        assert_same_state(rebooted, store)


class TestRecoveryObservability:
    def test_recovery_pages_counter_recorded(self):
        obs = get_default()
        flash = make_flash()
        store = make_store(flash)
        for index in range(20):
            store.put(f"r{index}", {"v": index})
        store.flush()
        obs.reset()
        rebooted = LogStructuredStore.recover(
            flash, checkpoint_blocks=CKPT_BLOCKS
        )
        metrics = obs.export()["metrics"]
        assert (
            metrics["store.recovery_pages"]["value"]
            == rebooted.last_recovery.pages_replayed
            > 0
        )

    def test_flush_and_compaction_counters_recorded(self):
        obs = get_default()
        obs.reset()
        store = LogStructuredStore(make_flash())
        for index in range(30):
            store.put(f"r{index}", {"v": index, "pad": "y" * 30})
        store.flush()
        store.compact()
        metrics = obs.export()["metrics"]
        assert metrics["store.flush"]["value"] > 0
        assert metrics["store.compaction"]["value"] == 1

    def test_disabled_obs_records_nothing_but_recovery_still_works(self):
        obs = get_default()
        flash = make_flash()
        store = make_store(flash)
        for index in range(10):
            store.put(f"r{index}", {"v": index})
        store.checkpoint()
        obs.reset()
        obs.disable()
        try:
            rebooted = LogStructuredStore.recover(
                flash, checkpoint_blocks=CKPT_BLOCKS
            )
            assert rebooted.get("r3") == {"v": 3}
            counter = obs.metrics.get("store.recovery_pages")
            assert (counter.value if counter else 0) == 0
        finally:
            obs.enable()


# -- checkpoint segments: one base, then deltas ---------------------------------


def state_of(store):
    """Everything a recovery must rebuild, zone bounds by repr (so
    ``0.0`` vs ``-0.0`` and int vs float count as different)."""
    return (
        store._directory,
        store._live_per_block,
        {
            block: (summary.min_seq, summary.max_seq, summary.pages,
                    summary.tombstones,
                    {name: tuple(map(repr, bounds)) if bounds else bounds
                     for name, bounds in summary.fields.items()})
            for block, summary in sorted(store._summaries.items())
        },
    )


def page_members_of(directory):
    """A fresh grouping of a directory by page, one flat tuple a page:
    its stride shape — ``first offset << 16 | length`` when its payloads
    sit one frame apart from the page's first frame on, else why not —
    its least and greatest id, then its ids, payload offsets and payload
    lengths in offset (log) order."""
    grouped = {}
    for record_id, (page, offset, length) in sorted(
            directory.items(), key=lambda item: item[1]):
        grouped.setdefault(page, []).append((record_id, offset, length))
    header = LogStructuredStore._PAGE_HEADER_BYTES
    members = {}
    for page, entries in grouped.items():
        ids, offsets, lengths = map(tuple, zip(*entries))
        first, length = offsets[0], lengths[0]
        stride = first - header + length
        like = (first - header >= 5 and lengths[-1] == length
                and all(offset == first + at * stride
                        for at, offset in enumerate(offsets)))
        shape = (first << 16 | length if like
                 else "mixed_lengths" if len(set(lengths)) > 1
                 else "partial_page")
        members[page] = (shape, min(ids), max(ids), *ids, *offsets,
                         *lengths)
    return members


def region_pages(flash, checkpoint_blocks=CKPT_BLOCKS):
    first = (flash.block_count - checkpoint_blocks) * TIMINGS.pages_per_block
    return [page for page in flash.written_pages() if page >= first]


def segments_on_flash(flash, checkpoint_blocks=CKPT_BLOCKS):
    """``{segment id: (payload magic, [pages in chunk order])}``."""
    found = {}
    for page in region_pages(flash, checkpoint_blocks):
        data = flash._pages[page]
        segment = int.from_bytes(data[2:10], "big")
        found.setdefault(segment, {})[int.from_bytes(data[10:12], "big")] = page
    return {
        segment: (bytes(flash._pages[pages[0]][16:20]),
                  [pages[index] for index in sorted(pages)])
        for segment, pages in found.items()
    }


def reference_checkpoint_pages(store):
    """The region image the full-directory checkpoint of PR 18 wrote
    for this state: its serializer and page chunking, kept verbatim."""
    directory_blob = bytearray()
    for record_id, (page, offset, length) in store._directory.items():
        id_bytes = record_id.encode()
        directory_blob += len(id_bytes).to_bytes(2, "big") + id_bytes
        directory_blob += page.to_bytes(4, "big")
        directory_blob += offset.to_bytes(2, "big")
        directory_blob += length.to_bytes(2, "big")
    live_blob = bytearray()
    for block, count in sorted(store._live_per_block.items()):
        live_blob += block.to_bytes(4, "big") + count.to_bytes(4, "big")
    zone_blob = bytearray()
    for block, summary in sorted(store._summaries.items()):
        encoded = encode_record(summary.to_record())
        zone_blob += block.to_bytes(4, "big")
        zone_blob += len(encoded).to_bytes(4, "big")
        zone_blob += encoded
    parts = [b"CKP1", store._page_sequence.to_bytes(8, "big")]
    for blob in (directory_blob, live_blob, zone_blob):
        parts.append(len(blob).to_bytes(8, "big"))
        parts.append(bytes(blob))
    payload = b"".join(parts)
    capacity = TIMINGS.page_size - 16
    chunks = [
        payload[position : position + capacity]
        for position in range(0, len(payload), capacity)
    ] or [b""]
    return [
        (b"\xc4\x4b" + (1).to_bytes(8, "big") + index.to_bytes(2, "big")
         + len(chunks).to_bytes(2, "big") + len(chunk).to_bytes(2, "big")
         + chunk).ljust(TIMINGS.page_size, b"\xff")
        for index, chunk in enumerate(chunks)
    ]


def churn(store, rounds=3, keys=30):
    for round_number in range(rounds):
        store.insert_many(
            (f"r{index:03d}", {"t": index, "w": round_number + index / 7})
            for index in range(keys)
        )
        store.delete(f"r{round_number:03d}")
    store.flush()


class TestSegmentFormat:
    def test_single_checkpoint_image_is_the_full_directory_image(self):
        flash = make_flash()
        store = make_store(flash)
        churn(store)
        written = store.checkpoint()
        pages = region_pages(flash)
        assert len(pages) == written > 1
        first = (flash.block_count - CKPT_BLOCKS) * TIMINGS.pages_per_block
        assert pages == list(range(first, first + written))
        assert [flash._pages[page] for page in pages] == (
            reference_checkpoint_pages(store))

    def test_deltas_follow_the_base_in_the_same_half(self):
        flash = make_flash()
        store = make_store(flash)
        churn(store)
        store.checkpoint()
        for round_number in range(3):
            store.put(f"new{round_number}", {"t": round_number})
            store.delete(f"r{10 + round_number:03d}")
            store.checkpoint()
        segments = segments_on_flash(flash)
        assert [magic for magic, _ in segments.values()] == (
            [b"CKP1", b"CKD1", b"CKD1", b"CKD1"])
        pages = [page for _, chunk_pages in segments.values()
                 for page in chunk_pages]
        assert pages == list(range(pages[0], pages[0] + len(pages)))
        assert flash.erases == 0
        rebooted = LogStructuredStore.recover(
            flash, checkpoint_blocks=CKPT_BLOCKS)
        assert rebooted.last_recovery.checkpoint_segments == 4
        assert rebooted.last_recovery.pages_replayed == 0
        assert state_of(rebooted) == state_of(store)
        assert "r010" not in rebooted._directory  # the tombstone folded

    def test_delta_costs_what_changed(self):
        flash = make_flash(1024)
        store = make_store(flash, checkpoint_blocks=128)
        store.insert_many(
            (f"r{index:05d}", {"t": index}) for index in range(3000))
        base_pages = store.checkpoint()
        fresh = [f"n{index:05d}" for index in range(40)]
        store.insert_many((record_id, {"t": 7}) for record_id in fresh)
        usable = TIMINGS.page_size - 16
        entry_bytes = sum(10 + len(record_id) for record_id in fresh)
        delta_pages = store.checkpoint()
        assert delta_pages <= -(-entry_bytes // usable) + 2
        assert delta_pages * 20 < base_pages

    def test_a_full_half_rebases_into_the_other_one(self):
        flash = make_flash()
        store = make_store(flash, checkpoint_blocks=4)  # 8-page halves
        churn(store, rounds=1)
        kinds = []
        obs = get_default()
        for round_number in range(12):
            store.put(f"r{round_number:03d}", {"t": -round_number})
            store.checkpoint()
            kinds.append(obs.events.events("store.checkpoint")[-1]["reason"])
            rebooted = LogStructuredStore.recover(flash, checkpoint_blocks=4)
            replayed = LogStructuredStore.recover(
                flash, checkpoint_blocks=4, use_checkpoint=False)
            assert state_of(rebooted) == state_of(replayed) == state_of(store)
            assert rebooted.last_recovery.pages_replayed == 0
        assert kinds[0] == "first"
        assert kinds.count("half_full") >= 2
        assert set(kinds) == {"first", "ok", "half_full"}
        region_first = flash.block_count - 4
        assert all(
            flash.erase_counts.get(block, 0) >= 1
            for block in range(region_first, flash.block_count))

    def test_compaction_forces_a_base(self):
        flash = make_flash()
        store = make_store(flash)
        churn(store)
        store.checkpoint()
        store.compact()
        store.checkpoint()
        store.put("after", {"t": 1})
        store.checkpoint()
        events = get_default().events.events("store.checkpoint")
        assert [(event["segment"], event["reason"]) for event in events] == [
            ("base", "first"), ("base", "compacted"), ("delta", "ok")]
        rebooted = LogStructuredStore.recover(
            flash, checkpoint_blocks=CKPT_BLOCKS)
        assert state_of(rebooted) == state_of(store)
        assert rebooted.last_recovery.checkpoint_segments == 2


class TestBrokenChain:
    def _chain(self, flash, deltas=5):
        store = make_store(flash)
        churn(store)
        store.checkpoint()
        for round_number in range(deltas):
            store.insert_many(
                (f"d{round_number}_{index:02d}", {"t": index, "w": 0.5})
                for index in range(25))
            store.put(f"r{20 + round_number:03d}", {"t": -1})
            store.delete(f"r{10 + round_number:03d}")
            store.checkpoint()
        return store

    @pytest.mark.parametrize("broken", [2, 4, 6])
    def test_chain_folds_up_to_the_missing_segment(self, broken):
        flash = make_flash(256)
        store = self._chain(flash)
        segments = segments_on_flash(flash)
        assert len(segments) == 6
        _, pages = segments[broken]
        assert len(pages) >= 3
        flash._pages[pages[len(pages) // 2]] = b"\x00" * TIMINGS.page_size
        clean_reads = len(region_pages(flash))
        rebooted = LogStructuredStore.recover(
            flash, checkpoint_blocks=CKPT_BLOCKS)
        replayed = LogStructuredStore.recover(
            flash, checkpoint_blocks=CKPT_BLOCKS, use_checkpoint=False)
        stats = rebooted.last_recovery
        assert stats.checkpoint_segments == broken - 1
        assert stats.checkpoint_pages_read == clean_reads
        assert 0 < stats.pages_replayed < replayed.last_recovery.pages_replayed
        assert state_of(rebooted) == state_of(replayed) == state_of(store)
        # the chain was cut short: the next checkpoint is a base, in
        # the other half, and recovery then needs no replay at all
        rebooted.put("later", {"t": 5})
        rebooted.checkpoint()
        event = get_default().events.events("store.checkpoint")[-1]
        assert (event["segment"], event["reason"]) == ("base", "reboot")
        again = LogStructuredStore.recover(
            flash, checkpoint_blocks=CKPT_BLOCKS)
        assert again.last_recovery.checkpoint_segments == 1
        assert again.last_recovery.pages_replayed == 0
        assert state_of(again) == state_of(rebooted)

    def test_clean_chain_is_extended_after_reboot(self):
        flash = make_flash(256)
        store = self._chain(flash, deltas=2)
        store.put("tail", {"t": 9})
        store.delete("r000")
        store.flush()
        rebooted = LogStructuredStore.recover(
            flash, checkpoint_blocks=CKPT_BLOCKS)
        assert rebooted.last_recovery.pages_replayed > 0
        rebooted.delete("r005")
        rebooted.checkpoint()
        event = get_default().events.events("store.checkpoint")[-1]
        assert (event["segment"], event["reason"]) == ("delta", "ok")
        again = LogStructuredStore.recover(
            flash, checkpoint_blocks=CKPT_BLOCKS)
        assert again.last_recovery.checkpoint_segments == 4
        assert again.last_recovery.pages_replayed == 0
        assert state_of(again) == state_of(rebooted)
        assert not {"r000", "r005"} & set(again.record_ids())
        assert again.get("tail") == {"t": 9}


class TestCheckpointAccounting:
    def test_every_checkpoint_is_a_labelled_counter(self):
        obs = get_default()
        flash = make_flash()
        store = make_store(flash, checkpoint_blocks=4)
        churn(store, rounds=1)
        pages = 0
        for round_number in range(8):
            store.put(f"x{round_number}", {"t": round_number})
            pages += store.checkpoint()
        store.compact()
        pages += store.checkpoint()
        counter = {  # the registry resets in place: old labels read 0
            label: count for label, count in obs.metrics.get(
                "store.checkpoints").snapshot()["labels"].items() if count}
        events = obs.events.events("store.checkpoint")
        by_label = {}
        for event in events:
            label = f"{event['segment']}|{event['reason']}"
            by_label[label] = by_label.get(label, 0) + 1
        assert counter == by_label
        assert set(counter) == {
            "base|first", "delta|ok", "base|half_full", "base|compacted"}
        assert sum(counter.values()) == store.checkpoints_written == 9
        assert obs.metrics.get("store.checkpoint_pages").value == pages == sum(
            event["pages"] for event in events)
        # a delta reports the entries it wrote, not the directory's size
        assert events[0]["records"] == 30
        assert events[1]["records"] == 1
        rebooted = LogStructuredStore.recover(flash, checkpoint_blocks=4)
        assert rebooted.last_recovery.checkpoint_segments == 1
        assert RecoveryStats(mode="full").checkpoint_segments == 0

    def test_tracking_is_charged_and_released_at_every_segment(self):
        rows = [(f"r{index:03d}", {"t": index}) for index in range(200)]
        directory_bytes = 200 * (LogStructuredStore._DIRECTORY_ENTRY_BYTES
                                 + LogStructuredStore._MEMBER_ENTRY_BYTES)
        # fits the directory, its zone maps and a page of buffer, but
        # not 200 tracked ids on top
        budget = directory_bytes + 2400

        def replace_everything(store):
            store.insert_many(rows)
            store.flush()
            if store._checkpoint_blocks:
                store.checkpoint()
            for record_id, record in rows:
                store.put(record_id, {"t": -record["t"]})
            store.flush()

        unbounded = make_store(make_flash(1024), ram_budget_bytes=budget)
        with pytest.raises(CapacityError):
            replace_everything(unbounded)
        bounded = make_store(
            make_flash(1024), ram_budget_bytes=budget,
            checkpoint_interval_pages=4)
        replace_everything(bounded)
        assert bounded.checkpoints_written > 5
        no_region = LogStructuredStore(
            make_flash(1024), ram_budget_bytes=budget)
        replace_everything(no_region)
        assert no_region.directory_ram_bytes == directory_bytes

    def test_ram_after_a_checkpoint_is_a_fresh_recoverys(self):
        flash = make_flash()
        store = make_store(flash)
        churn(store)
        store.checkpoint()
        for index in range(30):
            store.put(f"r{index:03d}", {"t": -index})
        store.flush()
        tracked = store.directory_ram_bytes
        scratch = []
        original = flash.write_page

        def spy(page, data):
            scratch.append(store.batch_scratch_bytes)
            original(page, data)

        flash.write_page = spy
        store.checkpoint()
        flash.write_page = original
        assert min(scratch) > 0 and store.batch_scratch_bytes == 0
        assert store.directory_ram_bytes < tracked
        rebooted = LogStructuredStore.recover(
            flash, checkpoint_blocks=CKPT_BLOCKS)
        assert rebooted.ram_bytes == store.ram_bytes


# -- the model-based property -----------------------------------------------------

PROPERTY_TIMINGS = FlashTimings(
    page_size=512, pages_per_block=8,
    read_page_us=25.0, write_page_us=250.0, erase_block_us=1500.0,
)
IDS = [f"k{index:02d}" for index in range(60)]
RECORDS = st.fixed_dictionaries({
    "t": st.integers(-1000, 1000),
    "w": st.floats(-1e3, 1e3, allow_nan=False),
})
ROWS = st.lists(st.tuples(st.sampled_from(IDS), RECORDS),
                min_size=1, max_size=40)
CONTROL = st.sampled_from(
    [("flush",)] * 4 + [("checkpoint",)] * 8 + [("reboot",)] * 3
    + [("compact_incremental",)] * 2 + [("compact",)])
OPS = st.one_of(
    # a history is mostly about its checkpoints and reboots
    CONTROL, CONTROL, CONTROL,
    st.tuples(st.just("put"), st.sampled_from(IDS), RECORDS),
    st.tuples(st.just("replace"), st.integers(0, 10**6), RECORDS),
    st.tuples(st.just("delete"), st.integers(0, 10**6)),
    st.tuples(st.just("insert_many"), ROWS),
    st.tuples(st.just("insert_batch"), ROWS),
    st.tuples(st.just("read"), st.integers(0, 10**6)),
)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    ops=st.lists(OPS, min_size=20, max_size=70),
    checkpoint_blocks=st.sampled_from([2, 4]),
    interval=st.sampled_from([None, 3]),
    zone_maps=st.booleans(),
    integrity_key=st.sampled_from([None, b"k" * 32]),
    page_cache_bytes=st.sampled_from([None, 4 * PROPERTY_TIMINGS.page_size]),
)
def test_any_history_recovers_to_the_model(ops, checkpoint_blocks, interval,
                                           zone_maps, integrity_key,
                                           page_cache_bytes):
    """Random histories against a dict: every read (a ``get``, a
    columnar scan — with a page cache, rows kept across flushes,
    compactions and reboots — and a zone-map-hinted one) and, after
    every reboot, a scan match the model, the chain recovery is the
    full replay's, and after every op the page members are a fresh
    grouping of the directory (pages are reused after an erase)."""
    options = dict(
        checkpoint_blocks=checkpoint_blocks, zone_maps=zone_maps,
        checkpoint_interval_pages=interval, integrity_key=integrity_key,
        page_cache_bytes=page_cache_bytes,
    )
    flash = NandFlash(
        PROPERTY_TIMINGS, capacity_bytes=1024 * PROPERTY_TIMINGS.page_size)
    store = LogStructuredStore(flash, **options)
    model = {}

    def reboot():
        store.flush()
        rebooted = LogStructuredStore.recover(flash, **options)
        replayed = LogStructuredStore.recover(
            flash, use_checkpoint=False, **options)
        assert dict(rebooted.scan()) == model
        assert state_of(rebooted) == state_of(replayed)
        return rebooted

    for op in ops + [("reboot",)]:
        kind = op[0]
        if kind == "put":
            store.put(op[1], op[2])
            model[op[1]] = op[2]
        elif kind in ("replace", "delete") and model:
            record_id = sorted(model)[op[1] % len(model)]
            if kind == "replace":
                store.put(record_id, op[2])
                model[record_id] = op[2]
            else:
                store.delete(record_id)
                del model[record_id]
        elif kind == "insert_many":
            store.insert_many(op[1])
            model.update(op[1])
        elif kind == "insert_batch":
            rows = list(dict(op[1]).items())
            store.insert_batch(
                [record_id for record_id, _ in rows],
                ColumnBatch.from_arrays({
                    "t": np.array([r["t"] for _, r in rows], dtype=np.int64),
                    "w": np.array([r["w"] for _, r in rows]),
                }))
            model.update(rows)
        elif kind == "flush":
            store.flush()
        elif kind == "checkpoint":
            store.checkpoint()
        elif kind == "compact_incremental":
            store.compact_incremental(max_victims=2)
        elif kind == "compact":
            store.compact()
        elif kind == "read":
            if model:
                record_id = sorted(model)[op[1] % len(model)]
                assert store.get(record_id) == model[record_id]
            scanned = {}
            for chunk_ids, batch in store.scan_batches():
                scanned.update(zip(chunk_ids, batch.rows()))
            assert scanned == model
            low = op[1] % 2001 - 1000
            high = low + 400
            hinted, returned = {}, 0
            for chunk_ids, batch in store.scan_batches("t", low, high):
                hinted.update(zip(chunk_ids, batch.rows()))
                returned += len(chunk_ids)
            assert returned == len(hinted)  # each id once
            assert hinted.items() <= model.items()  # live rows only
            assert {record_id: record for record_id, record in model.items()
                    if low <= record["t"] <= high}.items() <= hinted.items()
        elif kind == "reboot":
            store = reboot()
        assert store._page_members == page_members_of(store._directory)


def _tombstone_block(flash):
    """A store whose block 1 holds nothing but the deletes of a0..a3,
    whose inserts sit in block 0 beside eight live records — so block 1
    is the lighter victim."""
    store = LogStructuredStore(flash)
    for index in range(12):
        store.put(f"a{index}", {"v": index, "pad": "x" * 30})
    store.flush()
    while store._active_offset % TIMINGS.pages_per_block:
        store.put(f"fill{store._page_sequence}", {"pad": "y" * 200})
        store.flush()
    for index in range(4):
        store.delete(f"a{index}")
        store.flush()
    return store


def test_gc_of_tombstones_does_not_resurrect_at_replay():
    """Collecting a block of delete entries carries them forward, so a
    full replay still finds the older inserts deleted."""
    flash = make_flash(64)
    store = _tombstone_block(flash)
    store.put("z", {"v": 1})
    store.flush()
    assert store.compact_incremental(max_victims=1) == 1
    assert store._free_blocks == [1]
    rebooted = LogStructuredStore.recover(flash)
    assert rebooted.record_ids() == store.record_ids()


def test_gc_leaves_a_delete_behind_a_reinsert():
    """A delete entry whose id was put again is not carried forward:
    the relocated copy would outrank the re-insert at replay."""
    flash = make_flash(64)
    store = _tombstone_block(flash)
    store.put("a0", {"v": 100})
    store.flush()
    assert store.compact_incremental(max_victims=1) == 1
    assert store._free_blocks == [1]
    rebooted = LogStructuredStore.recover(flash)
    assert rebooted.record_ids() == store.record_ids()
    assert store.get("a0") == rebooted.get("a0") == {"v": 100}
