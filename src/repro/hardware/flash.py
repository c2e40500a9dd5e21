"""NAND-flash storage simulation with a cost model.

The embedded store (:mod:`repro.store`) persists records through this
layer so that experiment E8 can compare query costs across hardware
profiles. The model captures the NAND constraints that dominate
embedded database design:

* reads and writes happen in whole pages;
* pages must be written sequentially within a block;
* a page cannot be rewritten without erasing its whole block;
* erase is an order of magnitude slower than a write.

The device keeps byte-accurate page contents plus cumulative counters
(`reads`, `writes`, `erases`, `elapsed_us`) that the benchmarks report.
"""

from __future__ import annotations

from ..errors import CapacityError, ConfigurationError, StorageError
from .profiles import FlashTimings


class NandFlash:
    """A simulated NAND flash device.

    Addressing is by page number. The device enforces erase-before-
    rewrite and sequential-in-block programming; violating either raises
    :class:`StorageError`, which is how tests assert the embedded store
    respects flash discipline.
    """

    def __init__(self, timings: FlashTimings, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError("flash capacity must be positive")
        self.timings = timings
        self.page_count = capacity_bytes // timings.page_size
        if self.page_count < timings.pages_per_block:
            raise ConfigurationError("flash smaller than one block")
        self._pages: dict[int, bytes] = {}
        self._written: set[int] = set()
        # Erase observers: caches layered above the device must drop
        # their copies of a block's pages the moment it is erased, or a
        # read could return pre-erase bytes. Callbacks take the block
        # index and must not touch the device.
        self._erase_listeners: list = []
        # Per-block erase counts: NAND blocks wear out after ~1e4-1e5
        # program/erase cycles, so skewed erase distributions are a
        # lifetime problem the store's compaction strategy can cause.
        self.erase_counts: dict[int, int] = {}
        self.reads = 0
        self.writes = 0
        self.erases = 0
        self.elapsed_us = 0.0
        self.energy_uj = 0.0

    @property
    def block_count(self) -> int:
        return self.page_count // self.timings.pages_per_block

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self.page_count:
            raise CapacityError(
                f"page {page} out of range (device has {self.page_count} pages)"
            )

    def block_of(self, page: int) -> int:
        """Block index containing ``page``."""
        return page // self.timings.pages_per_block

    def read_page(self, page: int) -> bytes:
        """Read one page (returns all-0xFF for never-written pages)."""
        self._check_page(page)
        self.reads += 1
        self.elapsed_us += self.timings.read_page_us
        self.energy_uj += self.timings.read_page_uj
        return self._pages.get(page, b"\xff" * self.timings.page_size)

    def write_page(self, page: int, data: bytes) -> None:
        """Program one page. ``data`` is padded with 0xFF to page size."""
        self._check_page(page)
        if len(data) > self.timings.page_size:
            raise StorageError(
                f"data ({len(data)} bytes) exceeds page size "
                f"({self.timings.page_size})"
            )
        if page in self._written:
            raise StorageError(f"page {page} already programmed; erase block first")
        block_start = self.block_of(page) * self.timings.pages_per_block
        for earlier in range(page + 1, block_start + self.timings.pages_per_block):
            if earlier in self._written:
                raise StorageError(
                    f"non-sequential program: page {earlier} in block already written"
                )
        self._pages[page] = data.ljust(self.timings.page_size, b"\xff")
        self._written.add(page)
        self.writes += 1
        self.elapsed_us += self.timings.write_page_us
        self.energy_uj += self.timings.write_page_uj

    def add_erase_listener(self, callback) -> None:
        """Register ``callback(block)`` to run on every block erase."""
        self._erase_listeners.append(callback)

    def erase_block(self, block: int) -> None:
        """Erase a whole block, freeing its pages for rewriting."""
        if not 0 <= block < self.block_count:
            raise CapacityError(f"block {block} out of range")
        start = block * self.timings.pages_per_block
        for page in range(start, start + self.timings.pages_per_block):
            self._pages.pop(page, None)
            self._written.discard(page)
        self.erases += 1
        self.erase_counts[block] = self.erase_counts.get(block, 0) + 1
        self.elapsed_us += self.timings.erase_block_us
        self.energy_uj += self.timings.erase_block_uj
        for callback in self._erase_listeners:
            callback(block)

    @property
    def max_wear(self) -> int:
        """Highest per-block erase count (the lifetime-limiting block)."""
        return max(self.erase_counts.values(), default=0)

    def wear_skew(self) -> float:
        """Max/mean erase ratio over erased blocks; 1.0 = perfectly even."""
        if not self.erase_counts:
            return 1.0
        mean = sum(self.erase_counts.values()) / len(self.erase_counts)
        return self.max_wear / mean if mean else 1.0

    def is_written(self, page: int) -> bool:
        """True iff the page has been programmed since its last erase."""
        self._check_page(page)
        return page in self._written

    def written_pages(self) -> list[int]:
        """All programmed pages (what a boot-time scan would find)."""
        return sorted(self._written)

    def reset_counters(self) -> None:
        """Zero the cost counters (content is preserved)."""
        self.reads = 0
        self.writes = 0
        self.erases = 0
        self.elapsed_us = 0.0
        self.energy_uj = 0.0

    def snapshot_counters(self) -> dict[str, float]:
        """Current cost counters as a dict (for benchmark rows)."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "erases": self.erases,
            "elapsed_us": self.elapsed_us,
            "energy_uj": self.energy_uj,
        }
