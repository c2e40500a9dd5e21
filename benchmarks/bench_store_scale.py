"""Tracked store-scale benchmark: the 1 Hz Linky ingest/query path.

Measures the embedded store on the paper's hardest target (the
smart-token flash geometry) at utility-meter volumes: batch vs
single-record ingest throughput at one day (86,400 records) and one
month of 1 Hz samples, query cost for scan vs zone-map skip-scan vs
ordered index, page-cache hit ratios, and checkpointed vs full reboot
recovery. Emits ``BENCH_store.json`` at the repo root so later PRs can
track the trajectory.

Throughput is reported against two clocks: wall time (host Python) and
device time (the flash cost model's ``elapsed_us`` — reads, writes and
erases at datasheet latencies). The headline speedup uses device time
because it is deterministic and is what a real meter pays; wall time
rides along for the host-side picture.

Two entry points:

* ``pytest -q benchmarks/bench_store_scale.py --benchmark-disable`` —
  the tier-1 smoke run: coarser sampling (``smoke_report()``), held
  with the tracked JSON to the ``CLAIMS`` rows, writes nothing.
* ``PYTHONPATH=src python benchmarks/bench_store_scale.py`` — the full
  run (1 Hz, 30 days); rewrites ``BENCH_store.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import random
import time

import numpy as np

from repro.hardware import SMART_TOKEN, SMARTPHONE, NandFlash
from repro.obs import get_default
from repro.store import (
    Aggregate,
    Between,
    Catalog,
    LogStructuredStore,
    OrderedIndex,
    Query,
    encode_record,
)
from repro.store.encoding import ColumnBatch
from repro.workloads.energy import HouseholdSimulator

try:
    from benchmarks import bench_micro_ops as _micro_ops
    from benchmarks.claims import Claim, assert_claims
except ImportError:  # run as a script: benchmarks/ itself is on sys.path
    import bench_micro_ops as _micro_ops
    from claims import Claim, assert_claims

OBS = get_default()

REPORT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_store.json"

TIMINGS = SMART_TOKEN.flash  # 2048-byte pages, 64 pages/block
PAGE = TIMINGS.page_size
SECONDS_PER_DAY = 86_400

FULL_SAMPLE_PERIOD = 1  # 1 Hz: 86,400 records/day, the Linky rate
FULL_MONTH_DAYS = 30
FULL_QUERY_WINDOW_S = 3600
FULL_CACHE_PAGES = 128  # must cover the ~80-page query window to pay off
FULL_CKPT_BLOCKS = 32

SMOKE_SAMPLE_PERIOD = 5  # 17,280 records/day: still several blocks deep
SMOKE_MONTH_DAYS = 2
SMOKE_QUERY_WINDOW_S = 3600
SMOKE_CACHE_PAGES = 48
SMOKE_CKPT_BLOCKS = 8


def _day_trace(day: int, sample_period: int, seed: int = 2013):
    simulator = HouseholdSimulator(
        random.Random(seed + day), sample_period=sample_period
    )
    return simulator.simulate_day(day)


def _flash_for(frame_bytes: int, *, checkpoint_blocks: int = 0,
               margin: float = 1.35) -> NandFlash:
    """A device sized for ``frame_bytes`` of log frames plus GC headroom."""
    pages = math.ceil(frame_bytes * margin / (PAGE - 8)) + TIMINGS.pages_per_block
    blocks = math.ceil(pages / TIMINGS.pages_per_block) + 2 + checkpoint_blocks
    return NandFlash(
        TIMINGS, capacity_bytes=blocks * TIMINGS.pages_per_block * PAGE
    )


def _frame_estimate(records, id_extra: int = 0) -> int:
    # conservative: 15-byte frame header + id + encoded payload bound
    return sum(15 + len(record_id) + id_extra + 48 for record_id, _ in records)


def _flash_image(flash: NandFlash) -> str:
    digest = hashlib.sha256()
    for page in flash.written_pages():
        digest.update(page.to_bytes(4, "big"))
        digest.update(flash.read_page(page))
    return digest.hexdigest()


def _device_seconds(flash: NandFlash) -> float:
    return flash.elapsed_us / 1e6


# -- ingest ------------------------------------------------------------------


def measure_ingest(day_trace, month_days: int, sample_period: int) -> dict:
    """Batch vs single-record ingest at 1-day and N-day volumes.

    The single-record baseline is the durable path a naive meter pays:
    one ``put`` + ``flush`` per sample, i.e. one page program per
    record. The batch path coalesces encoded records through the page
    buffer, so a page program covers dozens of records. A third,
    unmeasured run replays the same day through buffered single ``put``
    calls (no intermediate flush) to prove the batch path is bit-for-bit
    identical on flash — same frames, same page boundaries, same
    sequence headers.
    """
    records = day_trace.records()
    day_n = len(records)

    # single-record durable baseline (1 day only: one page per record)
    flash_single = _flash_for(day_n * (PAGE - 8), margin=1.05)
    store = LogStructuredStore(flash_single)
    started = time.perf_counter()
    for record_id, record in records:
        store.put(record_id, record)
        store.flush()
    single_wall = time.perf_counter() - started
    single_device = _device_seconds(flash_single)
    single_writes = flash_single.writes
    del store, flash_single  # one page per record: release the big image

    # batch path, same day
    flash_batch = _flash_for(_frame_estimate(records))
    batch = LogStructuredStore(flash_batch)
    started = time.perf_counter()
    batch.insert_many(records)
    batch.flush()
    batch_wall = time.perf_counter() - started
    batch_device = _device_seconds(flash_batch)

    # equivalence: buffered puts produce the identical flash image
    flash_puts = _flash_for(_frame_estimate(records))
    buffered = LogStructuredStore(flash_puts)
    for record_id, record in records:
        buffered.put(record_id, record)
    buffered.flush()
    bit_for_bit = (
        _flash_image(flash_puts) == _flash_image(flash_batch)
        and buffered.record_ids() == batch.record_ids()
    )
    del buffered, flash_puts

    # month volume, batch only (the baseline would need one page/record)
    month_records = month_days * day_n
    flash_month = _flash_for(
        month_records * (15 + 10 + 48), margin=1.2
    )
    month = LogStructuredStore(flash_month)
    month_wall = 0.0
    for day in range(month_days):
        day_records = (
            records if day == 0 else _day_trace(day, sample_period).records()
        )
        started = time.perf_counter()
        month.insert_many(day_records)
        month.flush()  # daily durability point
        month_wall += time.perf_counter() - started
    month_device = _device_seconds(flash_month)
    month_pages = month.pages_used
    month_ram = month.ram_bytes
    del month, flash_month

    speedup_device = round(
        (single_device / day_n) / (batch_device / day_n), 1
    )
    speedup_wall = round((single_wall / day_n) / (batch_wall / day_n), 1)
    return {
        "records_per_day": day_n,
        "single_record_durable": {
            "days": 1,
            "records": day_n,
            "wall_seconds": round(single_wall, 3),
            "device_seconds": round(single_device, 3),
            "records_per_sec_wall": round(day_n / single_wall, 1),
            "records_per_sec_device": round(day_n / single_device, 1),
            "page_writes": single_writes,
        },
        "batch": {
            "days": 1,
            "records": day_n,
            "wall_seconds": round(batch_wall, 3),
            "device_seconds": round(batch_device, 3),
            "records_per_sec_wall": round(day_n / batch_wall, 1),
            "records_per_sec_device": round(day_n / batch_device, 1),
            "page_writes": flash_batch.writes,
            "records_per_page": round(day_n / flash_batch.writes, 1),
        },
        "batch_month": {
            "days": month_days,
            "records": month_records,
            "wall_seconds": round(month_wall, 3),
            "device_seconds": round(month_device, 3),
            "records_per_sec_wall": round(month_records / month_wall, 1),
            "records_per_sec_device": round(month_records / month_device, 1),
            "pages_used": month_pages,
            "store_ram_bytes": month_ram,
        },
        "batch_speedup_device": speedup_device,
        "batch_speedup_wall": speedup_wall,
        "meets_5x": speedup_device >= 5,
        "bit_for_bit_batch_equals_buffered_puts": bit_for_bit,
    }


# -- columnar batch path -----------------------------------------------------


def measure_columnar(day_trace, window_s: int, reps: int = 5) -> dict:
    """The vectorized record path vs the single-record reference, same data.

    Four A/B rows, every timing interleaved per repetition with best-of
    kept (the only stable protocol on a loaded host, and fair to both
    sides). The scalar side is always the store's surviving reference
    API: a buffered ``put`` loop vs ``insert_batch`` over producer
    arrays; ``scan`` vs full ``scan_batches``; ``scan_range`` +
    per-record ``matches`` vs the vectorized ``Between`` mask; and, for
    the catalog queries, ``scan_range`` + ``matches`` with the query's
    order and projection vs ``Catalog.query`` (zone-map plans), and an
    ordered index's ``range`` + ``get_many`` + ``matches`` +
    ``Aggregate.compute`` vs ``Catalog.query`` (index plans).
    Device time cannot distinguish the two sides — the flash images are
    bit-for-bit identical (asserted here) — so these rows are
    wall-clock, unlike the ingest headline.
    """
    records = day_trace.records()
    day_n = len(records)
    record_ids = [record_id for record_id, _ in records]
    t_arr = np.fromiter(
        (record["t"] for _, record in records), dtype=np.int64, count=day_n
    )
    w_arr = np.fromiter(
        (record["w"] for _, record in records), dtype=np.float64, count=day_n
    )

    # ingest: buffered put loop vs insert_batch
    scalar_wall = columnar_wall = math.inf
    flash_scalar = flash_columnar = None
    store_scalar = store_columnar = None
    for _ in range(reps):
        flash_s = _flash_for(_frame_estimate(records))
        store_s = LogStructuredStore(flash_s)
        started = time.perf_counter()
        for record_id, record in records:
            store_s.put(record_id, record)
        store_s.flush()
        scalar_wall = min(scalar_wall, time.perf_counter() - started)

        flash_c = _flash_for(_frame_estimate(records))
        store_c = LogStructuredStore(flash_c)
        started = time.perf_counter()
        batch = ColumnBatch.from_arrays({"t": t_arr, "w": w_arr})
        store_c.insert_batch(record_ids, batch)
        store_c.flush()
        columnar_wall = min(columnar_wall, time.perf_counter() - started)

        flash_scalar, store_scalar = flash_s, store_s
        flash_columnar, store_columnar = flash_c, store_c

    bit_for_bit = (
        _flash_image(flash_scalar) == _flash_image(flash_columnar)
        and store_scalar.record_ids() == store_columnar.record_ids()
    )
    ingest_speedup = round(scalar_wall / columnar_wall, 2)

    # full scan: materialized per-record rows vs column batches
    store = store_columnar
    scan_wall = batches_wall = math.inf
    batch_rows = 0
    for _ in range(reps):
        started = time.perf_counter()
        scan_rows = sum(1 for _ in store.scan())
        scan_wall = min(scan_wall, time.perf_counter() - started)

        started = time.perf_counter()
        batch_rows = sum(
            batch.count for _, batch in store.scan_batches()
        )
        batches_wall = min(batches_wall, time.perf_counter() - started)
    rows_identical = [
        (chunk_ids[index], batch.row(index))
        for chunk_ids, batch in store.scan_batches()
        for index in range(batch.count)
    ] == list(store.scan())
    scan_speedup = round(scan_wall / batches_wall, 2)

    # filtered scan: vectorized Between mask vs per-record matches
    low = day_trace.day * SECONDS_PER_DAY + SECONDS_PER_DAY // 2
    high = low + window_s - 1
    where = Between("t", low, high)
    filtered_scalar = filtered_columnar = math.inf
    scalar_hits = columnar_hits = None
    for _ in range(reps):
        started = time.perf_counter()
        scalar_hits = [
            (record_id, record)
            for record_id, record in store.scan_range("t", low, high)
            if where.matches(record)
        ]
        filtered_scalar = min(filtered_scalar, time.perf_counter() - started)

        started = time.perf_counter()
        columnar_hits = []
        for chunk_ids, batch in store.scan_batches("t", low, high):
            mask = where.matches_batch(batch)
            if mask is None:
                columnar_hits.extend(
                    (chunk_ids[index], batch.row(index))
                    for index in range(batch.count)
                    if where.matches(batch.row(index))
                )
            else:
                columnar_hits.extend(
                    (chunk_ids[index], batch.row(index))
                    for index in np.flatnonzero(mask).tolist()
                )
        filtered_columnar = min(
            filtered_columnar, time.perf_counter() - started
        )
    filtered_speedup = round(filtered_scalar / filtered_columnar, 2)

    # catalog queries: zonemap window + wide unindexed filter, no index
    catalog = Catalog(
        _flash_for(_frame_estimate(records, id_extra=len("meter/"))))
    catalog.collection("meter").insert_many(records)

    def reference_query(query):
        """``(rows, examined)`` the single-record way: the pruned scan
        the planner's zone-map hint allows, per-record ``matches``,
        then the query's order, limit and projection."""
        examined = 0
        rows = []
        for full_id, record in catalog.store.scan_range(
            query.where.field, query.where.low, query.where.high
        ):
            if full_id.startswith("meter/"):
                examined += 1
                if query.where.matches(record):
                    rows.append(record)
        if query.order_by is not None:
            rows.sort(key=lambda row: row[query.order_by],
                      reverse=query.descending)
        if query.project is not None:
            rows = [{name: row.get(name) for name in query.project}
                    for row in rows]
        return rows[: query.limit], examined

    # index plans: the same day behind an ordered index on ``t``; the
    # reference is the row-at-a-time index fetch (range() -> get_many
    # -> per-record matches -> Aggregate.compute's Python sum)
    indexed, _ = _meter_catalog(day_trace)
    by_time = OrderedIndex("t")
    by_time.add_many(
        (f"meter/{record_id}", record["t"]) for record_id, record in records)

    def reference_index_query(query):
        fetched = indexed.store.get_many(
            sorted(by_time.range(query.where.low, query.where.high)))
        rows = [dict(record) for record in fetched
                if query.where.matches(record)]
        if query.aggregates:
            rows = [{f"{aggregate.function}({aggregate.field})":
                     aggregate.compute(rows)
                     for aggregate in query.aggregates}]
        return rows, len(fetched)

    window_query = Query("meter", where=Between("t", low, high))
    cases = (
        ("window", window_query, catalog, reference_query, "zonemap:t"),
        ("wide", Query("meter", where=Between("w", 100.0, 1500.0)),
         catalog, reference_query, "zonemap:w"),
        ("index_window", window_query, indexed, reference_index_query,
         "range:t"),
        ("index_sum", Query(
            "meter", where=Between("t", low, low + 6 * window_s - 1),
            aggregates=[Aggregate("sum", "w")]),
         indexed, reference_index_query, "range:t"),
    )
    query_rows = {}
    for name, query, queried, reference, plan in cases:
        # (names of their own: the ingest row above still reads its walls)
        reference_wall = query_wall = math.inf
        for _ in range(reps):
            started = time.perf_counter()
            reference_rows, examined = reference(query)
            reference_wall = min(reference_wall, time.perf_counter() - started)
            started = time.perf_counter()
            result = queried.query(query)
            query_wall = min(query_wall, time.perf_counter() - started)
        query_rows[name] = {
            "rows": len(result.rows),
            "records_examined": examined,
            "plan": result.plan,
            "scalar_wall_ms": round(reference_wall * 1e3, 3),
            "columnar_wall_ms": round(query_wall * 1e3, 3),
            "speedup_wall": round(reference_wall / query_wall, 2),
            "results_identical": (
                result.rows == reference_rows  # in order; sums bit-equal
                and result.plan == plan
                and result.records_examined == examined
            ),
        }

    return {
        "ingest": {
            "records": day_n,
            "scalar_wall_seconds": round(scalar_wall, 3),
            "columnar_wall_seconds": round(columnar_wall, 3),
            "us_per_record_scalar": round(scalar_wall / day_n * 1e6, 2),
            "us_per_record_columnar": round(
                columnar_wall / day_n * 1e6, 2
            ),
            "records_per_sec_wall": round(day_n / columnar_wall, 1),
            "speedup_wall": ingest_speedup,
            "bit_for_bit_columnar_equals_scalar": bit_for_bit,
        },
        "scan": {
            "records": batch_rows,
            "scalar_wall_ms": round(scan_wall * 1e3, 3),
            "columnar_wall_ms": round(batches_wall * 1e3, 3),
            "records_per_sec_wall": round(batch_rows / batches_wall, 1),
            "speedup_wall": scan_speedup,
            "rows_identical": rows_identical,
        },
        "filtered_scan": {
            "window_s": window_s,
            "rows": len(columnar_hits),
            "scalar_wall_ms": round(filtered_scalar * 1e3, 3),
            "columnar_wall_ms": round(filtered_columnar * 1e3, 3),
            "speedup_wall": filtered_speedup,
            "rows_identical": columnar_hits == scalar_hits,
        },
        "catalog_queries": query_rows,
        "micro_ops": _micro_ops.measure_encode_decode(),
        "hmac_per_page": _micro_ops.measure_hmac_per_page(),
    }


# -- queries -----------------------------------------------------------------


def _timed_reads(flash: NandFlash, thunk) -> tuple[object, dict]:
    reads_before = flash.reads
    device_before = flash.elapsed_us
    started = time.perf_counter()
    value = thunk()
    wall = time.perf_counter() - started
    return value, {
        "pages_read": flash.reads - reads_before,
        "device_ms": round((flash.elapsed_us - device_before) / 1e3, 3),
        "wall_ms": round(wall * 1e3, 3),
    }


def _meter_catalog(day_trace, **catalog_kwargs):
    records = day_trace.records()
    flash = _flash_for(_frame_estimate(records, id_extra=len("meter/")))
    catalog = Catalog(flash, **catalog_kwargs)
    meter = catalog.collection("meter")
    meter.create_ordered_index("t")
    meter.insert_many(records)
    return catalog, flash


def measure_queries(day_trace, window_s: int) -> dict:
    """One-hour range query: full scan vs zone-map skip vs ordered index.

    All three paths must return the same rows; the interesting numbers
    are the pages each one reads to get there.
    """
    catalog, flash = _meter_catalog(day_trace)
    store = catalog.store
    low = day_trace.day * SECONDS_PER_DAY + SECONDS_PER_DAY // 2
    high = low + window_s - 1

    def in_window(record):
        return low <= record["t"] <= high

    scan_rows, scan_cost = _timed_reads(
        flash,
        lambda: sorted(
            (record["t"], record["w"])
            for _, record in store.scan() if in_window(record)
        ),
    )
    zone_rows, zone_cost = _timed_reads(
        flash,
        lambda: sorted(
            (record["t"], record["w"])
            for _, record in store.scan_range("t", low, high)
            if in_window(record)
        ),
    )
    query = Query("meter", where=Between("t", low, high), order_by="t")
    index_result, index_cost = _timed_reads(
        flash, lambda: catalog.query(query)
    )
    index_rows = [(record["t"], record["w"]) for record in index_result.rows]
    return {
        "window_s": window_s,
        "rows": len(index_rows),
        "scan": scan_cost,
        "zonemap_skip": zone_cost,
        "index": {**index_cost, "plan": index_result.plan},
        "zonemap_reads_fewer_than_scan": (
            zone_cost["pages_read"] < scan_cost["pages_read"]
        ),
        "results_identical": scan_rows == zone_rows == index_rows,
    }


def measure_cache(day_trace, window_s: int, cache_pages: int) -> dict:
    """Repeated range reads against a bounded LRU page cache."""
    catalog, flash = _meter_catalog(
        day_trace, page_cache_bytes=cache_pages * PAGE
    )
    store = catalog.store
    store.page_cache.clear()  # drop write-allocated pages: measure reads
    low = day_trace.day * SECONDS_PER_DAY + SECONDS_PER_DAY // 2
    query = Query(
        "meter", where=Between("t", low, low + window_s - 1), order_by="t"
    )
    _, cold = _timed_reads(flash, lambda: catalog.query(query))
    warm_costs = []
    for _ in range(3):  # the first keeps the rows it decodes
        decoded_before = _rows_decoded()
        _, warm = _timed_reads(flash, lambda: catalog.query(query))
        warm_costs.append(warm)
    snapshot = store.page_cache.snapshot()
    total = snapshot["hits"] + snapshot["misses"]
    return {
        "cache_pages": cache_pages,
        "cold": cold,
        "warm": warm_costs[-1],
        "hit_ratio": round(snapshot["hits"] / total, 3) if total else 0.0,
        "resident_pages": len(store.page_cache),
        "evictions": snapshot["evictions"],
        "warm_cheaper_than_cold": (
            warm_costs[-1]["pages_read"] < cold["pages_read"]
        ),
        "warm_rows_decoded": _rows_decoded() - decoded_before,
    }


def _rows_decoded() -> int:
    """Rows the chunk decoder decoded so far (``store.decode.rows``
    columnar + scalar; rows gathered from the page cache are not)."""
    labels = OBS.metrics.get("store.decode.rows").snapshot().get("labels", {})
    return labels.get("columnar", 0) + labels.get("scalar", 0)


# -- recovery ----------------------------------------------------------------


def measure_recovery(day_trace, checkpoint_blocks: int,
                     sample_period: int) -> dict:
    """Reboot after one day of ingest: checkpointed vs full log replay.

    The checkpoint lands before the final half hour, so the incremental
    path replays only that tail. A maintenance pass (expire the first
    hour, incremental GC) then runs on the recovered store so the
    compaction counters in the observability section reflect real work.
    """
    records = day_trace.records()
    tail_n = max(1, (SECONDS_PER_DAY // 48) // sample_period)  # ~30 min
    flash = _flash_for(
        _frame_estimate(records), checkpoint_blocks=checkpoint_blocks
    )
    store = LogStructuredStore(flash, checkpoint_blocks=checkpoint_blocks)
    store.insert_many(records[:-tail_n])
    store.checkpoint()
    store.insert_many(records[-tail_n:])
    store.flush()

    def recover(use_checkpoint: bool):
        device_before = flash.elapsed_us
        started = time.perf_counter()
        recovered = LogStructuredStore.recover(
            flash, checkpoint_blocks=checkpoint_blocks,
            use_checkpoint=use_checkpoint,
        )
        wall = time.perf_counter() - started
        stats = recovered.last_recovery
        return recovered, {
            "mode": stats.mode,
            "pages_replayed": stats.pages_replayed,
            "checkpoint_pages_read": stats.checkpoint_pages_read,
            "total_pages_read": stats.total_pages_read,
            "wall_seconds": round(wall, 3),
            "device_ms": round((flash.elapsed_us - device_before) / 1e3, 3),
        }

    incremental, incremental_row = recover(True)
    full, full_row = recover(False)
    equivalent = (
        incremental.record_ids() == full.record_ids() == store.record_ids()
        and all(
            incremental.get(record_id) == full.get(record_id)
            for record_id in records[0][0:1]
        )
    )

    # maintenance on the recovered store: expire the first hour, GC
    expired = 0
    for record_id, record in records[: 3600 // sample_period]:
        incremental.delete(record_id)
        expired += 1
    incremental.flush()
    pages_before = incremental.pages_used
    rounds = 0
    while rounds < 8 and incremental.compact_incremental(max_victims=4):
        rounds += 1
    return {
        "records": len(records),
        "tail_records_after_checkpoint": tail_n,
        "checkpoint_blocks": checkpoint_blocks,
        "incremental": incremental_row,
        "full_replay": full_row,
        "replay_reduction": round(
            full_row["pages_replayed"]
            / max(1, incremental_row["pages_replayed"]), 1
        ),
        "incremental_replays_fewer_pages": (
            incremental_row["pages_replayed"] < full_row["pages_replayed"]
        ),
        "recovered_state_identical": equivalent,
        "maintenance": {
            "expired_records": expired,
            "gc_rounds": rounds,
            "pages_reclaimed": pages_before - incremental.pages_used,
        },
    }


# -- checkpoint cadence --------------------------------------------------------


def _scan_digest(store: LogStructuredStore) -> str:
    digest = hashlib.sha256()
    for record_id, record in store.scan():
        digest.update(repr((record_id, sorted(record.items()))).encode())
    return digest.hexdigest()


def _checkpoints_written() -> dict[str, int]:
    """``store.checkpoints`` so far, by ``kind|reason`` label."""
    return dict(
        OBS.metrics.get("store.checkpoints").snapshot().get("labels", {}))


def measure_checkpoint_cadence(day_trace, sample_period: int) -> dict:
    """What checkpointing one day of ingest costs, at two cadences.

    ``six_hourly`` calls ``checkpoint()`` at 03:00, 09:00, 15:00 and
    21:00 (so the reboot replays three hours of log); ``interval_64``
    lets ``checkpoint_interval_pages=64`` do it. A checkpoint after
    the first is a delta that costs what changed, so the pages of all
    of them together stay near one full image of the final directory —
    the bound a row of ``CLAIMS`` holds them to. Everything but
    the wall time is deterministic.
    """
    records = day_trace.records()
    per_hour = 3600 // sample_period
    user_bytes = sum(len(encode_record(record)) for _, record in records)
    # either half holds a full image (32 bytes a record bounds an
    # entry) and a day of deltas beside it
    half_blocks = math.ceil(
        2.5 * len(records) * 32 / PAGE / TIMINGS.pages_per_block) + 1
    checkpoint_blocks = 2 * half_blocks
    rows = {}
    for name, interval in (("six_hourly", None), ("interval_64", 64)):
        flash = _flash_for(
            _frame_estimate(records), checkpoint_blocks=checkpoint_blocks)
        store = LogStructuredStore(
            flash, checkpoint_blocks=checkpoint_blocks,
            checkpoint_interval_pages=interval)
        written_before = _checkpoints_written()
        pages: list[int] = []
        walls: list[float] = []
        checkpoint = store.checkpoint

        def timed_checkpoint() -> int:
            started = time.perf_counter()
            programmed = checkpoint()
            walls.append(time.perf_counter() - started)
            pages.append(programmed)
            return programmed

        store.checkpoint = timed_checkpoint  # the interval trigger calls it too
        for hour in range(24):
            store.insert_many(records[hour * per_hour:(hour + 1) * per_hour])
            store.flush()
            if interval is None and hour % 6 == 2:
                store.checkpoint()
        written = {
            label: count - written_before.get(label, 0)
            for label, count in _checkpoints_written().items()
            if count > written_before.get(label, 0)
        }
        region = range(flash.block_count - checkpoint_blocks, flash.block_count)
        flash_bytes = flash.writes * PAGE
        rebooted = LogStructuredStore.recover(
            flash, checkpoint_blocks=checkpoint_blocks)
        replayed = LogStructuredStore.recover(
            flash, checkpoint_blocks=checkpoint_blocks, use_checkpoint=False)
        stats = rebooted.last_recovery
        identical = (
            rebooted.record_ids() == replayed.record_ids()
            == store.record_ids()
            and _scan_digest(rebooted) == _scan_digest(replayed)
        )
        # one full image of the final directory: what every checkpoint
        # cost before deltas (the full-replay store must write a base)
        full_image_pages = replayed.checkpoint()
        rows[name] = {
            "checkpoint_interval_pages": interval,
            "checkpoints": sum(written.values()),
            "checkpoints_by_kind": dict(sorted(written.items())),
            "checkpoint_pages_total": sum(pages),
            "checkpoint_pages_max": max(pages),
            "full_image_pages": full_image_pages,
            "pages_over_one_full_image": round(
                sum(pages) / full_image_pages, 3),
            "flash_bytes_per_user_byte": round(flash_bytes / user_bytes, 3),
            "region_block_erases": sum(
                flash.erase_counts.get(block, 0) for block in region),
            "region_max_wear": max(
                flash.erase_counts.get(block, 0) for block in region),
            "reboot": {
                "checkpoint_segments": stats.checkpoint_segments,
                "checkpoint_pages_read": stats.checkpoint_pages_read,
                "pages_replayed": stats.pages_replayed,
            },
            "recovered_identical": identical,
            "wall_ms_per_checkpoint": round(
                1000.0 * sum(walls) / len(walls), 3),
        }
    return {
        "records": len(records),
        "checkpoint_blocks": checkpoint_blocks,
        "rows": rows,
        "total_pages_within_1_25x_full_image": all(
            row["checkpoint_pages_total"] <= 1.25 * row["full_image_pages"]
            for row in rows.values()
        ),
        "recovered_identical": all(
            row["recovered_identical"] for row in rows.values()),
    }


# -- observability + fault control -------------------------------------------


def _observability_section() -> dict:
    """The default scope's ``export()`` snapshot, store counters only.

    Keeps the exact per-metric snapshot shape of the schema-1 export so
    downstream tooling can read this section and a live ``export()``
    with the same code.
    """
    export = OBS.export()
    return {
        "schema": export["schema"],
        "metrics": {
            name: snapshot
            for name, snapshot in export["metrics"].items()
            if name.startswith("store.")
        },
    }


def _counter_total(metrics, name: str) -> int:
    metric = metrics.get(name)
    if metric is None:
        return 0
    snapshot = metric.snapshot()
    labels = snapshot.get("labels")
    if labels:
        return sum(labels.values())
    return snapshot["value"]


def _fault_control_section(n_objects: int = 6, seed: int = 11) -> dict:
    """Batch vault push under quiet and flaky cloud fault profiles.

    The quiet row is the guarded no-fault-path control: with the
    injector attached but the plan inactive, the fault and retry
    counters must stay at zero. The flaky row shows the same counters
    actually move when faults are live.
    """
    from repro.core import TrustedCell
    from repro.faults import FaultInjector, FaultPlan, RetryPolicy
    from repro.infrastructure import CloudProvider
    from repro.sim import World
    from repro.sync import VaultClient

    rows = []
    for profile in ("quiet", "flaky"):
        world = World(seed=seed)
        cloud = CloudProvider(world)
        plan = (
            FaultPlan.quiet(seed=seed)
            if profile == "quiet"
            else FaultPlan.flaky_cloud(seed=seed, failure_rate=0.3)
        )
        FaultInjector(world, plan).attach_cloud(cloud)
        cell = TrustedCell(world, "bench-meter", SMARTPHONE)
        cell.register_user("meter", "0000")
        session = cell.login("meter", "0000")
        object_ids = [f"day-{index}" for index in range(n_objects)]
        for object_id in object_ids:
            cell.store_object(session, object_id, b"x" * 64)
        vault = VaultClient(
            cell, cloud,
            retry_policy=RetryPolicy(max_attempts=6, base_delay_s=0.5),
        )
        report = vault.push_many(object_ids, raise_on_failure=False)
        metrics = world.obs.metrics
        rows.append({
            "profile": profile,
            "pushed": len(report.pushed),
            "failed": len(report.failed),
            "manifest_writes": vault.manifest_seq,
            "faults_injected": _counter_total(metrics, "faults.injected"),
            "retry_attempts": _counter_total(metrics, "retry.attempts"),
        })
    quiet_row = rows[0]
    return {
        "rows": rows,
        "no_fault_path_clean": (
            quiet_row["faults_injected"] == 0
            and quiet_row["retry_attempts"] == 0
            and quiet_row["failed"] == 0
        ),
    }


# -- report ------------------------------------------------------------------


def build_report(sample_period: int = FULL_SAMPLE_PERIOD,
                 month_days: int = FULL_MONTH_DAYS,
                 query_window_s: int = FULL_QUERY_WINDOW_S,
                 cache_pages: int = FULL_CACHE_PAGES,
                 checkpoint_blocks: int = FULL_CKPT_BLOCKS) -> dict:
    OBS.reset()
    OBS.enable()
    day = _day_trace(0, sample_period)
    report = {
        "benchmark": "store_scale",
        "command": "PYTHONPATH=src python benchmarks/bench_store_scale.py",
        "flash_geometry": {
            "profile": SMART_TOKEN.name,
            "page_size": PAGE,
            "pages_per_block": TIMINGS.pages_per_block,
            "write_page_us": TIMINGS.write_page_us,
        },
        "sample_period_s": sample_period,
        "ingest": measure_ingest(day, month_days, sample_period),
        "columnar": measure_columnar(day, query_window_s),
        "queries": measure_queries(day, query_window_s),
        "page_cache": measure_cache(day, query_window_s, cache_pages),
        "recovery": measure_recovery(day, checkpoint_blocks, sample_period),
        "checkpoint_cadence": measure_checkpoint_cadence(day, sample_period),
        "fault_control": _fault_control_section(),
    }
    report["observability"] = _observability_section()
    return report


def smoke_report() -> dict:
    return build_report(
        sample_period=SMOKE_SAMPLE_PERIOD,
        month_days=SMOKE_MONTH_DAYS,
        query_window_s=SMOKE_QUERY_WINDOW_S,
        cache_pages=SMOKE_CACHE_PAGES,
        checkpoint_blocks=SMOKE_CKPT_BLOCKS,
    )


def write_report(path: pathlib.Path = REPORT_PATH) -> dict:
    report = build_report()
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


# -- claims ------------------------------------------------------------------


def _cadence(report: dict) -> list[dict]:
    return list(report["checkpoint_cadence"]["rows"].values())


CLAIMS = (
    # ingest: the batch path against the durable single-record one
    Claim("batch ingest equals buffered puts on flash, bit for bit",
          "log store/page codec", "count",
          lambda r: r["ingest"]["bit_for_bit_batch_equals_buffered_puts"],
          "=="),
    Claim("batch ingest at least 5x single-record", "log store/page codec",
          "device", lambda r: r["ingest"]["batch_speedup_device"], ">=", 5),
    Claim("batch ingest records/sec", "log store/page codec", "device",
          lambda r: r["ingest"]["batch"]["records_per_sec_device"], "band",
          1.5),
    Claim("a page program carries many records", "log store/page codec",
          "count", lambda r: (r["ingest"]["records_per_day"]
                              / r["ingest"]["batch"]["page_writes"]), ">", 1),
    Claim("month ingest holds every day's records", "log store/page codec",
          "count", lambda r: (r["ingest"]["batch_month"]["records"]
                              == r["ingest"]["batch_month"]["days"]
                              * r["ingest"]["records_per_day"]), "=="),
    Claim("tracked day is one 1 Hz day", "log store/page codec", "count",
          lambda r: r["ingest"]["records_per_day"], "==", SECONDS_PER_DAY,
          sides="tracked"),
    # the columnar lanes against the single-record reference
    Claim("columnar ingest equals scalar on flash, bit for bit",
          "log store/page codec", "count",
          lambda r: r["columnar"]["ingest"][
              "bit_for_bit_columnar_equals_scalar"], "=="),
    Claim("columnar scan rows identical", "log store/page codec", "count",
          lambda r: r["columnar"]["scan"]["rows_identical"], "=="),
    Claim("columnar filtered scan rows identical", "log store/page codec",
          "count", lambda r: r["columnar"]["filtered_scan"]["rows_identical"],
          "=="),
    Claim("catalog results identical on both lanes", "catalog/plan", "count",
          lambda r: all(row["results_identical"] for row in
                        r["columnar"]["catalog_queries"].values()), "=="),
    Claim("columnar ingest speedup", "log store/page codec", "host",
          lambda r: r["columnar"]["ingest"]["speedup_wall"], ">=", 2.5,
          sides="live"),
    Claim("columnar scan speedup", "log store/page codec", "host",
          lambda r: r["columnar"]["scan"]["speedup_wall"], ">=", 2.5,
          sides="live"),
    Claim("columnar ingest speedup at full scale", "log store/page codec",
          "host", lambda r: r["columnar"]["ingest"]["speedup_wall"], ">=", 5,
          sides="tracked"),
    Claim("columnar scan speedup at full scale", "log store/page codec",
          "host", lambda r: r["columnar"]["scan"]["speedup_wall"], ">=", 5,
          sides="tracked"),
    Claim("codec bit for bit both ways", "log store/page codec", "count",
          lambda r: (r["columnar"]["micro_ops"]["encode_bit_for_bit"]
                     and r["columnar"]["micro_ops"]["decode_rows_identical"]),
          "=="),
    Claim("columnar encode ns per record", "log store/page codec", "host",
          lambda r: r["columnar"]["micro_ops"]["encode_ns_columnar"],
          "ratio", 10),
    Claim("columnar decode ns per record", "log store/page codec", "host",
          lambda r: r["columnar"]["micro_ops"]["decode_ns_columnar"],
          "ratio", 10),
    Claim("a page bundle costs 4 HMACs", "crypto primitives", "count",
          lambda r: r["columnar"]["hmac_per_page"]["bundle_hmacs"], "==", 4),
    Claim("per-frame sealing costs 4 HMACs a frame", "crypto primitives",
          "count", lambda r: (r["columnar"]["hmac_per_page"]["per_frame_hmacs"]
                              / r["columnar"]["hmac_per_page"][
                                  "frames_per_page"]), "==", 4),
    Claim("HMAC collapse equals frames per page", "crypto primitives",
          "count", lambda r: (r["columnar"]["hmac_per_page"]["collapse_factor"]
                              / r["columnar"]["hmac_per_page"][
                                  "frames_per_page"]), "==", 1),
    Claim("page bundle round-trips", "crypto primitives", "count",
          lambda r: r["columnar"]["hmac_per_page"]["roundtrip_identical"],
          "=="),
    # one-hour range query: scan vs zone map vs ordered index
    Claim("scan, zone map and index return the same rows", "catalog/plan",
          "count", lambda r: r["queries"]["results_identical"], "=="),
    Claim("zone map reads fewer pages than a scan", "catalog/plan", "count",
          lambda r: r["queries"]["zonemap_reads_fewer_than_scan"], "=="),
    Claim("index reads no more pages than the zone map", "catalog/plan",
          "count", lambda r: (r["queries"]["index"]["pages_read"]
                              / r["queries"]["zonemap_skip"]["pages_read"]),
          "<=", 1),
    Claim("window query takes the index plan", "catalog/plan", "count",
          lambda r: r["queries"]["index"]["plan"], "==", "range:t"),
    Claim("index pages read per row", "catalog/plan", "count",
          lambda r: r["queries"]["index"]["pages_read"] / r["queries"]["rows"],
          "ratio", 2, why="pages per row drift with sampling density"),
    Claim("index pages read per scan page", "catalog/plan", "count",
          lambda r: (r["queries"]["index"]["pages_read"]
                     / r["queries"]["scan"]["pages_read"]), "ratio", 2,
          why="pages per row drift with sampling density"),
    # page cache and recovery
    Claim("warm cache reads fewer pages than cold", "log store/page codec",
          "count", lambda r: r["page_cache"]["warm_cheaper_than_cold"], "=="),
    Claim("page cache hits", "log store/page codec", "count",
          lambda r: r["page_cache"]["hit_ratio"], ">", 0),
    Claim("a warm query decodes no rows", "log store/page codec", "count",
          lambda r: r["page_cache"]["warm_rows_decoded"], "==", 0),
    Claim("page cache stays within its pages", "log store/page codec",
          "count", lambda r: (r["page_cache"]["resident_pages"]
                              / r["page_cache"]["cache_pages"]), "<=", 1),
    Claim("checkpointed reboot replays fewer pages", "log store/page codec",
          "count", lambda r: r["recovery"]["incremental_replays_fewer_pages"],
          "=="),
    Claim("checkpointed reboot recovers the full replay's state",
          "log store/page codec", "count",
          lambda r: r["recovery"]["recovered_state_identical"], "=="),
    Claim("reboot modes", "log store/page codec", "count",
          lambda r: [r["recovery"]["incremental"]["mode"],
                     r["recovery"]["full_replay"]["mode"]], "==",
          ["checkpoint", "full"]),
    Claim("incremental GC reclaims pages", "log store/page codec", "count",
          lambda r: r["recovery"]["maintenance"]["pages_reclaimed"], ">", 0),
    # a day of checkpoints at two cadences
    Claim("checkpoint chain recovers to the full replay",
          "log store/page codec", "count",
          lambda r: r["checkpoint_cadence"]["recovered_identical"], "=="),
    Claim("a day of checkpoints within 1.25x one full image",
          "log store/page codec", "count",
          lambda r: max(row["checkpoint_pages_total"] / row["full_image_pages"]
                        for row in _cadence(r)), "<=", 1.25),
    Claim("largest checkpoint below one full image", "log store/page codec",
          "count", lambda r: max(row["checkpoint_pages_max"]
                                 / row["full_image_pages"]
                                 for row in _cadence(r)), "<", 1),
    Claim("one base checkpoint, then only deltas", "log store/page codec",
          "count", lambda r: all(
              row["checkpoints_by_kind"] == {
                  "base|first": 1, "delta|ok": row["checkpoints"] - 1}
              for row in _cadence(r)), "=="),
    Claim("three deltas a day at least", "log store/page codec", "count",
          lambda r: min(row["checkpoints"] - 1 for row in _cadence(r)),
          ">=", 3),
    Claim("no checkpoint-region erase", "log store/page codec", "count",
          lambda r: max(row["region_block_erases"] for row in _cadence(r)),
          "==", 0),
    Claim("reboot folds every checkpoint segment", "log store/page codec",
          "count", lambda r: all(row["reboot"]["checkpoint_segments"]
                                 == row["checkpoints"]
                                 for row in _cadence(r)), "=="),
    # observability and the fault-free control
    Claim("store observability schema", "log store/page codec", "count",
          lambda r: r["observability"]["schema"], "==", 1),
    Claim("store counters move", "log store/page codec", "count",
          lambda r: min(r["observability"]["metrics"][name]["value"]
                        for name in ("store.flush", "store.compaction",
                                     "store.cache.hit", "store.cache.miss",
                                     "store.recovery_pages")), ">", 0),
    Claim("quiet vault-push control clean", "sim loop/network", "count",
          lambda r: r["fault_control"]["no_fault_path_clean"], "=="),
    Claim("flaky cloud injects faults", "sim loop/network", "count",
          lambda r: next(row for row in r["fault_control"]["rows"]
                         if row["profile"] == "flaky")["faults_injected"],
          ">", 0),
)


# -- tier-1 smoke ------------------------------------------------------------


def test_store_scale_smoke():
    """Coarse-sampling run of the full pipeline, held to ``CLAIMS``;
    keeps the bench alive under ``pytest -q
    benchmarks/bench_store_scale.py --benchmark-disable`` without
    rewriting the tracked JSON."""
    report = smoke_report()
    json.dumps(report)  # must stay serializable
    assert_claims(CLAIMS, report, REPORT_PATH)


if __name__ == "__main__":
    outcome = write_report()
    print(json.dumps(outcome, indent=2))
