"""Bounded LRU page cache over simulated NAND flash reads.

Every :meth:`NandFlash.read_page` costs device time and energy, and the
store's hot paths (repeated range queries, compaction relocation,
index-driven fetches) re-read the same pages constantly. The cache
keeps the most recently used pages in RAM under a configurable byte
budget, so repeated access stops paying device cost — the MILo-DB move
the 1 Hz Linky vertical needs.

An entry is a page's image plus the rows already decoded from it while
it was resident (payload offset -> :data:`KeptRow`, immutable), so the
next query of those entries gathers rows instead of decoding bytes.
Rows are kept on the second touch only — the page must already be
resident when it is read: the write-allocated page of a flush, or a
page read again (the store's chunk decoder asks it of every page of a
chunk) — so a one-pass scan keeps nothing and pays nothing for it.
Kept rows are charged :data:`KEPT_VALUE_BYTES` per value beside the
page images, and the one byte bound covers both: the LRU evicts an
image and its rows together.

Trust: a page is verified (against the store's integrity tag, when it
has one) as its image enters the cache from flash. Resident images and
kept rows then sit in the cell's trusted RAM, as its write buffer does;
flash stays untrusted.

Correctness hinges on one invariant: NAND pages are immutable between
erases (the device enforces erase-before-rewrite), so an entry can only
go stale when its block is erased. The cache subscribes to the device's
erase notifications and drops the block's entries — images and rows —
right there, which is what the invalidation tests pin down.

Hit/miss counters go to the process-default observability scope
(pay-as-you-go: a disabled scope records nothing); the plain ``hits``
/ ``misses`` attributes are cost oracles that always count, like the
flash device's own counters.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Mapping

from ..errors import ConfigurationError
from ..hardware.flash import NandFlash
from ..obs import get_default as _obs_default
from .encoding import Value

_OBS = _obs_default()
_CACHE_HITS = _OBS.metrics.counter(
    "store.cache.hit", help="page reads served from the LRU page cache")
_CACHE_MISSES = _OBS.metrics.counter(
    "store.cache.miss", help="page reads that went to the flash device")

#: RAM charged per kept value: one 64-bit slot, as a decoded column
#: holds it. A ``str``/``bytes`` value is a slot referencing its bytes
#: in the page image, which is resident and charged beside it.
KEPT_VALUE_BYTES = 8

#: A kept row: its sorted field names and their values, both immutable
#: (rows decoded together share one names tuple).
KeptRow = tuple[tuple[str, ...], tuple[Value, ...]]

# what a hit on a page with nothing kept yet brings
_NONE_KEPT: Mapping[int, KeptRow] = MappingProxyType({})


def _rows_bytes(rows) -> int:
    return KEPT_VALUE_BYTES * sum(map(len, map(itemgetter(1), rows)))


class PageCache:
    """LRU cache of page images and their kept rows, bounded by
    ``capacity_bytes``.

    Reads route through :meth:`read` (:meth:`read_page` for the image
    alone); the store write-allocates freshly flushed pages via
    :meth:`note_write`, so a query right after a flush is warm, and
    hands the rows it decoded off a resident page to :meth:`keep`.
    Block erases invalidate eagerly via the device's erase listener.
    """

    def __init__(self, flash: NandFlash, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError("page cache capacity must be positive")
        self.flash = flash
        self.capacity_bytes = capacity_bytes
        self._page_size = flash.timings.page_size
        # The LRU runs over the images; a page's kept rows (by payload
        # offset) live beside them, and only once there are some.
        self._pages: OrderedDict[int, bytes] = OrderedDict()
        self._rows: dict[int, dict[int, KeptRow]] = {}
        self._row_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        flash.add_erase_listener(self.invalidate_block)

    # -- read path ----------------------------------------------------------

    def read(self, page: int, load: Callable[[int], bytes],
             ) -> tuple[bytes, Mapping[int, KeptRow] | None]:
        """``(image, kept rows)``. A hit costs no device read and brings
        the rows kept from the page (read-only: add to them through
        :meth:`keep`); a miss takes the image from ``load(page)`` — the
        device read, verified by the caller — makes it resident, and
        brings ``None``: nothing decoded off this read may be kept."""
        image = self._pages.get(page)
        if image is not None:
            self._pages.move_to_end(page)
            self.hits += 1
            _CACHE_HITS.inc()
            return image, self._rows.get(page, _NONE_KEPT)
        self.misses += 1
        _CACHE_MISSES.inc()
        image = load(page)
        self._insert(page, image)
        return image, None

    def read_page(self, page: int) -> bytes:
        """The page image, from cache if resident (no device cost)."""
        return self.read(page, self.flash.read_page)[0]

    def note_write(self, page: int, data: bytes) -> None:
        """Write-allocate a freshly programmed page (padded image)."""
        self._insert(page, data.ljust(self._page_size, b"\xff"))

    def keep(self, page: int, rows: dict[int, KeptRow]) -> None:
        """Keep rows decoded off resident ``page``, by payload offset.
        Less recently used entries are evicted to make room; rows that
        cannot fit beside their own page's image are not kept, nor are
        the rows of a page evicted since it was read."""
        if page not in self._pages:
            return
        kept = self._rows.get(page)
        fresh = rows if not kept else {
            offset: row for offset, row in rows.items() if offset not in kept}
        cost = _rows_bytes(fresh.values())
        while (self.ram_bytes + cost > self.capacity_bytes
               and (oldest := next(iter(self._pages))) != page):
            self._drop(oldest)
            self.evictions += 1
        if self.ram_bytes + cost > self.capacity_bytes:
            return
        self._rows.setdefault(page, {}).update(fresh)
        self._row_bytes += cost

    def _insert(self, page: int, image: bytes) -> None:
        # The miss path of every read, so the byte bound is applied as
        # the count of images that fit beside the kept rows (at least
        # one), recounted only when an eviction frees rows.
        pages = self._pages
        pages[page] = image
        rows = self._rows
        if rows:
            self._drop_rows(page)
        limit = max(1, (self.capacity_bytes - self._row_bytes)
                    // self._page_size)
        while len(pages) > limit:
            evicted, _ = pages.popitem(last=False)
            self.evictions += 1
            if rows and self._drop_rows(evicted):
                limit = max(1, (self.capacity_bytes - self._row_bytes)
                            // self._page_size)

    def _drop(self, page: int) -> bool:
        if self._pages.pop(page, None) is None:
            return False
        self._drop_rows(page)
        return True

    def _drop_rows(self, page: int) -> bool:
        kept = self._rows.pop(page, None)
        if not kept:
            return False
        self._row_bytes -= _rows_bytes(kept.values())
        return True

    # -- invalidation -------------------------------------------------------

    def invalidate_block(self, block: int) -> None:
        """Drop every entry (image and rows) of an erased block."""
        pages_per_block = self.flash.timings.pages_per_block
        start = block * pages_per_block
        for page in range(start, start + pages_per_block):
            if self._drop(page):
                self.invalidations += 1

    def clear(self) -> None:
        self._pages.clear()
        self._rows.clear()
        self._row_bytes = 0

    # -- accounting ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def ram_bytes(self) -> int:
        """Bytes of resident page images plus their kept rows."""
        return len(self._pages) * self._page_size + self._row_bytes

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict[str, float]:
        """Counter snapshot for benchmark rows."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "resident_pages": len(self._pages),
            "hit_ratio": round(self.hit_ratio, 4),
        }
