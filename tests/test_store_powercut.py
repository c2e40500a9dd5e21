"""Cut power inside the one page commit, at every page program.

Every data page reaches flash through ``LogStructuredStore._commit_page``
and every checkpoint page through ``checkpoint``; both program with
``flash.write_page``. A flash that dies after its N-th program therefore
cuts the store before, between and inside page commits and mid-chunk
checkpoints — including while the fused batch path still holds zone
folds it has not applied. Whatever N, a reboot must land on a prefix of
what was acknowledged, with zone maps no weaker than a full replay's.
"""

import numpy as np
import pytest

from repro.hardware import FlashTimings, NandFlash
from repro.store import LogStructuredStore
from repro.store.encoding import ColumnBatch

TIMINGS = FlashTimings(
    page_size=2048, pages_per_block=16,
    read_page_us=25.0, write_page_us=250.0, erase_block_us=1500.0,
)
STORE_OPTIONS = dict(checkpoint_blocks=8)
ROWS = 1500


class PowerCut(Exception):
    pass


class CuttableFlash(NandFlash):
    """Programs ``budget`` pages, then loses power on the next one."""

    budget: int | None = None

    def write_page(self, page, data):
        if self.budget is not None and self.writes >= self.budget:
            raise PowerCut(f"power lost before program {self.writes + 1}")
        super().write_page(page, data)


def rows():
    ids = [f"r{index:05d}" for index in range(ROWS)]
    t = np.arange(ROWS, dtype=np.int64) * 3
    w = np.linspace(-40.0, 40.0, ROWS)
    return ids, ColumnBatch.from_arrays({"t": t, "w": w}, consts={"unit": "W"})


def drive_puts(store, ids, batch):
    for index, record_id in enumerate(ids):
        store.put(record_id, batch.row(index))


def drive_insert_many(store, ids, batch):
    store.insert_many(zip(ids, batch.rows()))


def drive_insert_batch(store, ids, batch):
    store.insert_batch(ids, batch)


def zone_maps(store):
    return {
        block: (summary.min_seq, summary.max_seq, summary.pages,
                {name: tuple(map(repr, bounds)) if bounds else bounds
                 for name, bounds in summary.fields.items()})
        for block, summary in sorted(store._summaries.items())
    }


@pytest.mark.parametrize(
    "drive", [drive_puts, drive_insert_many, drive_insert_batch])
def test_every_cut_point_recovers_a_consistent_prefix(drive):
    ids, batch = rows()
    expected = dict(zip(ids, batch.rows()))
    cut = 0
    checkpoint_cuts = 0
    while True:
        flash = CuttableFlash(TIMINGS, capacity_bytes=256 * TIMINGS.page_size)
        flash.budget = cut
        store = LogStructuredStore(
            flash, checkpoint_interval_pages=7, **STORE_OPTIONS)
        try:
            drive(store, ids, batch)
            store.flush()
            completed = True
        except PowerCut:
            completed = False
        flash.budget = None
        rebooted = LogStructuredStore.recover(flash, **STORE_OPTIONS)
        replayed = LogStructuredStore.recover(
            flash, use_checkpoint=False, **STORE_OPTIONS)
        checkpoint_cuts += rebooted.last_recovery.mode == "checkpoint"

        held = rebooted.record_ids()
        assert held == ids[: len(held)], f"cut {cut}: not a prefix"
        assert store.inserts >= len(held), f"cut {cut}: unacknowledged rows"
        assert dict(rebooted.scan()) == {
            record_id: expected[record_id] for record_id in held
        }, f"cut {cut}"
        assert rebooted._directory == replayed._directory, f"cut {cut}"
        assert rebooted._live_per_block == replayed._live_per_block
        assert zone_maps(rebooted) == zone_maps(replayed), f"cut {cut}"
        for low, high in ((0, 90), (ROWS, ROWS + 600), (3 * ROWS - 300, None)):
            pruned = {record_id for record_id, _
                      in rebooted.scan_range("t", low, high)}
            wanted = {
                record_id for record_id in held
                if low <= expected[record_id]["t"]
                and (high is None or expected[record_id]["t"] <= high)
            }
            assert wanted <= pruned, f"cut {cut}: zone map lost a row"
        if completed:
            assert held == ids
            break
        cut += 1
    # the sweep really did land inside and after mid-ingest checkpoints
    assert cut > 50 and checkpoint_cuts > cut // 2
