"""Tests for the bounded LRU page cache and its observability."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware import FlashTimings, NandFlash
from repro.obs import get_default
from repro.store import LogStructuredStore, PageCache

TIMINGS = FlashTimings(
    page_size=256, pages_per_block=4,
    read_page_us=25.0, write_page_us=250.0, erase_block_us=1500.0,
)


def make_flash(pages=64):
    return NandFlash(TIMINGS, capacity_bytes=pages * TIMINGS.page_size)


def seeded_flash(pages=64, written=16):
    flash = make_flash(pages)
    for page in range(written):
        flash.write_page(page, bytes([page % 251]) * 32)
    flash.reset_counters()
    return flash


class TestPageCacheCore:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            PageCache(make_flash(), 0)

    def test_hit_skips_device_read(self):
        flash = seeded_flash()
        cache = PageCache(flash, 8 * TIMINGS.page_size)
        first = cache.read(3, flash.read_page)[0]
        reads_after_miss = flash.reads
        second = cache.read(3, flash.read_page)[0]
        assert first == second == flash._pages[3].ljust(256, b"\xff")
        assert flash.reads == reads_after_miss  # hit: no device cost
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_bound_and_eviction_order(self):
        flash = seeded_flash()
        cache = PageCache(flash, 4 * TIMINGS.page_size)
        for page in range(6):
            cache.read(page, flash.read_page)
        assert len(cache) == 4
        assert cache.ram_bytes <= 4 * TIMINGS.page_size
        # 0 and 1 were least recently used: re-reading them misses
        before = flash.reads
        cache.read(0, flash.read_page)
        assert flash.reads == before + 1
        # 5 is resident: hit
        before = flash.reads
        cache.read(5, flash.read_page)
        assert flash.reads == before

    def test_erase_invalidates_cached_block(self):
        flash = seeded_flash()
        cache = PageCache(flash, 16 * TIMINGS.page_size)
        stale = cache.read(0, flash.read_page)[0]
        assert stale != b"\xff" * 256
        flash.erase_block(0)
        assert cache.invalidations > 0
        # fresh, not stale
        assert cache.read(0, flash.read_page)[0] == b"\xff" * 256

    def test_note_write_matches_device_padding(self):
        flash = make_flash()
        cache = PageCache(flash, 4 * TIMINGS.page_size)
        flash.write_page(0, b"abc")
        cache.note_write(0, b"abc")
        assert cache.read(0, flash.read_page)[0] == flash._pages[0]
        assert cache.hits == 1  # write-allocate made the read warm


class TestStoreWithCache:
    def test_results_identical_with_and_without_cache(self):
        def build(page_cache_bytes):
            store = LogStructuredStore(
                make_flash(), page_cache_bytes=page_cache_bytes
            )
            for index in range(50):
                store.put(f"r{index}", {"v": index})
            store.flush()
            store.put("r7", {"v": "updated"})
            store.flush()
            return store

        cached, uncached = build(4 * TIMINGS.page_size), build(None)
        assert dict(cached.scan()) == dict(uncached.scan())
        for index in range(50):
            assert cached.get(f"r{index}") == uncached.get(f"r{index}")

    def test_repeated_gets_stop_paying_device_reads(self):
        store = LogStructuredStore(
            make_flash(), page_cache_bytes=8 * TIMINGS.page_size
        )
        for index in range(20):
            store.put(f"r{index}", {"v": index})
        store.flush()
        flash = store.flash
        store.get("r3")
        before = flash.reads
        for _ in range(10):
            store.get("r3")
        assert flash.reads == before

    def test_compaction_keeps_cache_coherent(self):
        store = LogStructuredStore(
            make_flash(), page_cache_bytes=16 * TIMINGS.page_size
        )
        for index in range(30):
            store.put(f"r{index}", {"v": index})
        store.flush()
        for index in range(30):
            store.get(f"r{index}")  # warm the cache
        for index in range(0, 30, 2):
            store.delete(f"r{index}")
        store.compact()  # erases every old block under the cache
        for index in range(1, 30, 2):
            assert store.get(f"r{index}") == {"v": index}
        assert not store.contains("r0")


class TestCacheObservability:
    def test_hit_miss_counters_in_export(self):
        obs = get_default()
        store = LogStructuredStore(
            make_flash(), page_cache_bytes=8 * TIMINGS.page_size
        )
        for index in range(10):
            store.put(f"r{index}", {"v": index})
        store.flush()
        store.page_cache.clear()
        store.get("r1")
        store.get("r1")
        metrics = obs.export()["metrics"]
        assert metrics["store.cache.miss"]["value"] >= 1
        assert metrics["store.cache.hit"]["value"] >= 1

    def test_disabled_obs_changes_no_counters_and_no_results(self):
        obs = get_default()
        obs.disable()
        try:
            store = LogStructuredStore(
                make_flash(), page_cache_bytes=8 * TIMINGS.page_size
            )
            for index in range(10):
                store.put(f"r{index}", {"v": index})
            store.flush()
            store.page_cache.clear()
            store.get("r1")
            store.get("r1")
            # pay-as-you-go: the obs instruments recorded nothing...
            hit = obs.metrics.get("store.cache.hit")
            miss = obs.metrics.get("store.cache.miss")
            assert (hit.value if hit else 0) == 0
            assert (miss.value if miss else 0) == 0
            # ...but the plain cost oracles and the data are unaffected
            assert store.page_cache.hits >= 1
            assert store.get("r1") == {"v": 1}
        finally:
            obs.enable()
