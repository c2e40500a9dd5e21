"""Cut power inside the one page commit, at every page program.

Every data page reaches flash through ``LogStructuredStore._commit_page``
and every checkpoint page through ``checkpoint``; both program with
``flash.write_page``. A flash that dies after its N-th program therefore
cuts the store before, between and inside page commits and mid-chunk
checkpoints — including while the fused batch path still holds zone
folds it has not applied. Whatever N, a reboot must land on a prefix of
what was acknowledged, with zone maps no weaker than a full replay's.

The second half sweeps the checkpoint *chain* the same way (erases of
the region count as cut points too): inside a base, inside a delta,
while the other half is being wiped, and across two generations of
cut, recover, write on, checkpoint, cut again.
"""

import numpy as np
import pytest

from repro.hardware import FlashTimings, NandFlash
from repro.obs import get_default
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


# -- the checkpoint chain under power cuts ---------------------------------------

CHAIN_TIMINGS = FlashTimings(
    page_size=512, pages_per_block=8,
    read_page_us=25.0, write_page_us=250.0, erase_block_us=1500.0,
)


class ChainFlash(CuttableFlash):
    """Counts block erases against the budget too (a half is wiped
    block by block before a base goes in) and remembers what the cut
    refused: ``("program", page, data)`` or ``("erase", block)``."""

    refused = None

    def _spend(self, *refused):
        if self.budget is not None and self.writes + self.erases >= self.budget:
            self.refused = refused
            raise PowerCut(f"power lost before {refused[0]} {refused[1]}")

    def write_page(self, page, data):
        self._spend("program", page, data)
        NandFlash.write_page(self, page, data)

    def erase_block(self, block):
        self._spend("erase", block)
        super().erase_block(block)


def chain_flash():
    return ChainFlash(
        CHAIN_TIMINGS, capacity_bytes=512 * CHAIN_TIMINGS.page_size)


def run_script(store, script, log):
    """Drive ``script`` and append to ``log`` every ``(record_id,
    record or None)`` entry of each step *before* it starts: after a
    cut the flash holds a prefix of the log, never more."""
    for step in script:
        kind, *args = step
        if kind == "insert_many":
            log.extend(args[0])
            store.insert_many(args[0])
        elif kind == "insert_batch":
            log.extend(args[0])
            store.insert_batch(
                [record_id for record_id, _ in args[0]],
                ColumnBatch.from_arrays({
                    "t": np.array([r["t"] for _, r in args[0]], dtype=np.int64),
                    "w": np.array([r["w"] for _, r in args[0]]),
                }))
        elif kind == "put":
            log.extend(args[0])
            for record_id, record in args[0]:
                store.put(record_id, record)
        elif kind == "delete":
            log.extend((record_id, None) for record_id in args[0])
            for record_id in args[0]:
                store.delete(record_id)
        elif kind == "compact":
            log.append("compact")
            store.compact()
            log.pop()
        else:
            getattr(store, kind)(*args)


def states_of(start, log):
    """The model after each prefix of ``log``, newest last."""
    state = dict(start)
    states = [dict(state)]
    for record_id, record in log:
        if record is None:
            state.pop(record_id, None)
        else:
            state[record_id] = record
        states.append(dict(state))
    return states


def recovered_pair(flash, options):
    rebooted = LogStructuredStore.recover(flash, **options)
    replayed = LogStructuredStore.recover(
        flash, use_checkpoint=False, **options)
    assert rebooted._directory == replayed._directory
    assert rebooted._live_per_block == replayed._live_per_block
    assert zone_maps(rebooted) == zone_maps(replayed)
    return rebooted


def assert_acknowledged_prefix(rebooted, start, log, completed, label):
    held = dict(rebooted.scan())
    in_compact = bool(log) and log[-1] == "compact"
    states = states_of(start, log[:-1] if in_compact else log)
    if completed:
        assert held == states[-1], label
    elif in_compact:
        # stop-the-world compaction erases before it rewrites: a cut
        # inside it keeps a part of the live set, nothing else
        assert held.items() <= states[-1].items(), label
    else:
        assert held in states, f"{label}: not a prefix of the log"
    return held


def rows_of(prefix, indexes, scale=1.0):
    return [(f"{prefix}{index:03d}", {"t": index, "w": index * scale})
            for index in indexes]


def chain_script():
    """Replaces, deletes, a GC that recycles checkpointed blocks, a
    full compaction, and enough checkpoints to fill a half twice."""
    return [
        ("insert_many", rows_of("r", range(120), 1 / 3)),
        ("checkpoint",),                                  # base: first
        ("put", rows_of("r", range(60), -1.0)),
        ("flush",),
        ("checkpoint",),                                  # delta: replaced ids
        ("compact_incremental", 2),                       # recycles old blocks
        ("insert_batch", rows_of("n", range(40), 0.5)),
        ("checkpoint",),                                  # delta: erased blocks
        ("delete", [f"r{index:03d}" for index in range(60, 80)]),
        ("flush",),
        ("checkpoint",),                                  # delta: tombstones
        ("put", rows_of("p", range(10), 2.0)),
        ("checkpoint",),
        ("put", rows_of("r", range(60, 70), 9.0)),        # back from the dead
        ("checkpoint",),
        ("compact",),
        ("checkpoint",),                                  # base: compacted
        ("insert_many", rows_of("m", range(50), 0.25)),
        ("checkpoint",),
        ("delete", [f"m{index:03d}" for index in range(0, 50, 5)]),
        ("checkpoint",),
        ("put", rows_of("m", range(20), 4.0)),
        ("checkpoint",),
        ("insert_many", rows_of("q", range(30), 0.125)),
        ("flush",),
    ] + [
        step for round_number in range(14) for step in (
            ("put", rows_of("q", range(round_number, round_number + 3), -3.0)),
            ("checkpoint",),
        )
    ]


def refused_segment(flash, region_first):
    """Which checkpoint segment kind a refused region program belonged
    to (its chunk 0 holds the payload magic), or None."""
    if flash.refused is None or flash.refused[0] != "program":
        return None
    _, page, data = flash.refused
    if page < region_first:
        return None
    index = int.from_bytes(data[10:12], "big")
    first = data if index == 0 else flash.read_page(page - index)
    return {b"CKP1": "base", b"CKD1": "delta"}[bytes(first[16:20])]


@pytest.mark.parametrize("checkpoint_blocks", [2, 4])
def test_chain_recovers_at_every_cut_point(checkpoint_blocks):
    options = dict(checkpoint_blocks=checkpoint_blocks)
    script = chain_script()
    landed = {"base": 0, "delta": 0, "recycled_base": 0, "erase": 0,
              "chain": 0}
    segments_seen = set()
    cut = 0
    while True:
        flash = chain_flash()
        region_first_block = flash.block_count - checkpoint_blocks
        region_first = region_first_block * CHAIN_TIMINGS.pages_per_block
        flash.budget = cut
        store = LogStructuredStore(flash, **options)
        log = []
        try:
            run_script(store, script, log)
            completed = True
        except PowerCut:
            completed = False
        flash.budget = None
        rebooted = recovered_pair(flash, options)
        assert_acknowledged_prefix(rebooted, {}, log, completed, f"cut {cut}")
        segments_seen.add(rebooted.last_recovery.checkpoint_segments)
        landed["chain"] += rebooted.last_recovery.checkpoint_segments > 1
        segment = refused_segment(flash, region_first)
        if segment is not None:
            landed[segment] += 1
            block = flash.refused[1] // CHAIN_TIMINGS.pages_per_block
            if segment == "base" and flash.erase_counts.get(block):
                landed["recycled_base"] += 1
        elif (flash.refused is not None and flash.refused[0] == "erase"
              and flash.refused[1] >= region_first_block):
            landed["erase"] += 1
        if completed:
            break
        cut += 1
    # the sweep cut inside base writes (first and rebasing ones), delta
    # writes and the wipe of the other half, and folded real chains
    assert landed["base"] > 5 and landed["delta"] > 5, landed
    assert landed["recycled_base"] > 0 and landed["erase"] > 0, landed
    assert landed["chain"] > 40, landed
    # one-block halves rebase at almost every checkpoint; two-block
    # halves grow longer chains
    assert max(segments_seen) >= (2 if checkpoint_blocks == 2 else 4)


def test_two_generations_of_cuts():
    """Cut, recover, keep writing, checkpoint, cut again, recover: the
    second chain extends or replaces the first without programming a
    page twice (the device would raise) or resurrecting a deleted id."""
    options = dict(checkpoint_blocks=2)
    first = [
        ("insert_many", rows_of("r", range(60), 1 / 3)),
        ("checkpoint",),
        ("delete", [f"r{index:03d}" for index in range(10)]),
        ("put", rows_of("r", range(20, 30), -1.0)),
        ("checkpoint",),
        ("insert_many", rows_of("n", range(30), 0.5)),
        ("checkpoint",),
        ("delete", [f"n{index:03d}" for index in range(5)]),
        ("flush",),
    ]
    second = [
        ("put", rows_of("s", range(8), 2.0)),
        ("delete", [f"r{index:03d}" for index in range(40, 45)]),
        ("checkpoint",),
        ("put", rows_of("r", range(20, 25), 7.0)),
        ("checkpoint",),
        ("insert_many", rows_of("t", range(20), 0.75)),
        ("flush",),
    ]
    kinds = set()
    first_cut = 0
    first_done = False
    while not first_done:
        second_cut = 0
        second_done = False
        while not second_done:
            flash = chain_flash()
            flash.budget = first_cut
            store = LogStructuredStore(flash, **options)
            log = []
            try:
                run_script(store, first, log)
                first_done = True
            except PowerCut:
                pass
            flash.budget = None
            rebooted = recovered_pair(flash, options)
            held = assert_acknowledged_prefix(
                rebooted, {}, log, first_done, f"cut {first_cut}")
            # the second script deletes ids the first cut may have lost
            second_script = [
                ("delete", [r for r in step[1] if r in held])
                if step[0] == "delete" else step for step in second
            ]
            flash.budget = flash.writes + flash.erases + second_cut
            log = []
            try:
                run_script(rebooted, second_script, log)
                second_done = True
            except PowerCut:
                pass
            flash.budget = None
            label = f"cuts {first_cut}+{second_cut}"
            again = recovered_pair(flash, options)
            final = assert_acknowledged_prefix(
                again, held, log, second_done, label)
            for event in rebooted.last_recovery, again.last_recovery:
                kinds.add(event.checkpoint_segments)
            if second_done:
                deleted = {record_id for record_id, record in log
                           if record is None}
                assert not deleted & set(final), label
            second_cut += 1
        first_cut += 1
    assert {0, 1, 2, 3} <= kinds
    # second generations both extended a clean chain and rebased a cut one
    written = get_default().metrics.get("store.checkpoints").snapshot()["labels"]
    assert written["delta|ok"] > 0 and written["base|reboot"] > 0
