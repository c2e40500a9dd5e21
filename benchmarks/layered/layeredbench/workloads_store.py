"""The two embedded-store workloads: ``store_ingest`` and ``store_query``.

Both drive the public store surface only (``repro.store``,
``repro.hardware``, ``repro.workloads``) on the smart-token flash
geometry. No fedquery layer runs, so a coordinator change must leave
them flat.
"""

from __future__ import annotations

import hashlib
import math
import operator
import random
import time
from dataclasses import dataclass

import numpy as np

from repro.hardware import SMART_TOKEN, NandFlash
from repro.store import (
    Aggregate,
    Between,
    Catalog,
    LogStructuredStore,
    Ne,
    Query,
    encode_record,
)
from repro.workloads import HouseholdSimulator

from .harness import Outcome, Run, settle_heap

TIMINGS = SMART_TOKEN.flash  # 2048-byte pages, 64 pages per block
PAGE = TIMINGS.page_size
DAY_S = 86_400
HOUR_S = 3_600
OP_S = 900  # one op ingests 15 simulated minutes

#: Durable single inserts per ingest op (one page program each).
EVENTS_PER_OP = 15
#: Sizing only: a lower bound on {"t", "w"} sample frames per page.
ROWS_PER_PAGE = 34


def _household_days(run: Run, household: int, days: int,
                    sample_period: int) -> list[list[tuple[str, dict]]]:
    simulator = HouseholdSimulator(
        run.rng(f"household-{household}"), sample_period=sample_period)
    return [simulator.simulate_day(day).records() for day in range(days)]


def _flash_for(pages: int, checkpoint_blocks: int) -> NandFlash:
    blocks = math.ceil(pages / TIMINGS.pages_per_block) + 2 + checkpoint_blocks
    return NandFlash(TIMINGS, blocks * TIMINGS.pages_per_block * PAGE)


class _FlashMeter:
    """Deltas of one or more devices' cost counters."""

    def __init__(self) -> None:
        self.reads = self.writes = self.erases = 0
        self.device_us = 0.0
        self.max_wear = 0

    def charge(self, flash: NandFlash, before: dict[str, float]) -> None:
        self.reads += flash.reads - before["reads"]
        self.writes += flash.writes - before["writes"]
        self.erases += flash.erases - before["erases"]
        self.device_us += flash.elapsed_us - before["elapsed_us"]
        self.max_wear = max(self.max_wear, flash.max_wear)

    def values(self, ops: int) -> dict[str, float]:
        return {
            "flash.page_reads": self.reads / ops,
            "flash.page_writes": self.writes / ops,
            "flash.block_erases": self.erases / ops,
            "flash.device_ms": self.device_us / 1000.0 / ops,
            "flash.max_wear": self.max_wear,
        }


def _cache_values(snapshots: list[dict[str, float]],
                  baseline: dict[str, float] | None = None) -> dict[str, float]:
    """Page-cache counters summed over ``snapshots``, less ``baseline``."""
    def total(key: str) -> float:
        return sum(s[key] for s in snapshots) \
            - (baseline[key] if baseline else 0)

    reads = total("hits") + total("misses")
    return {
        "page_cache.hit_ratio": total("hits") / reads if reads else 0.0,
        "page_cache.evictions": total("evictions"),
        "page_cache.resident_pages": max(
            s["resident_pages"] for s in snapshots),
    }


# -- store_ingest ---------------------------------------------------------------


#: Acknowledged records whose content the reboot check re-reads, per
#: household, besides the first and last op's (decoding all ~350,000
#: would cost more than the measured ops; the id set is checked whole).
DURABILITY_SAMPLE = 4096


def _encoded_bytes(chunk: list[tuple[str, dict]]) -> int:
    """Sum of ``encode_record`` sizes of one op's sample records. ``t``
    rises through the chunk and the encoding only grows with it, so
    equal first and last sizes fix every size in between."""
    first = len(encode_record(chunk[0][1]))
    if first == len(encode_record(chunk[-1][1])):
        return first * len(chunk)
    return sum(len(encode_record(record)) for _, record in chunk)


def _ticks(day: int, slot: int) -> list[tuple[str, dict]]:
    """The durable single-insert events of one ingest op."""
    stamp = day * DAY_S + slot * OP_S
    return [
        (f"{stamp + 60 * j:010d}",
         {"t": stamp + 60 * j, "kind": "tick", "seq": j})
        for j in range(EVENTS_PER_OP)
    ]


def _durable(rebooted: LogStructuredStore, acknowledged: list[str],
             written: dict[str, dict], edge_ids: list[str],
             rng: random.Random) -> bool:
    """Does the rebooted store serve exactly the acknowledged records?
    Ids: the whole set. Content: a seeded sample plus the first and
    last op's records, by sha256 of the sorted rows."""
    if sorted(rebooted.record_ids()) != sorted(acknowledged):
        return False
    ids = sorted(set(edge_ids).union(rng.sample(
        acknowledged, min(DURABILITY_SAMPLE, len(acknowledged)))))

    def digest(rows) -> str:
        return hashlib.sha256(repr(
            [(record_id, sorted(record.items()))
             for record_id, record in rows]).encode()).hexdigest()

    return digest(zip(ids, rebooted.get_many(ids))) == digest(
        (record_id, written[record_id]) for record_id in ids)


def store_ingest(run: Run) -> Outcome:
    """Households one at a time; op = 15 simulated minutes of 1 Hz
    samples (``insert_many`` + ``flush``), 15 durable single inserts
    into ``events``, and a ``checkpoint()`` every six hours.

    Checkpoints fall at 03:00, 09:00, 15:00 and 21:00, never midnight,
    so the reboot at the end must both load a checkpoint and replay
    the three hours after it. Four a day put 48 in a run: the p99
    sample then sits among checkpoints a few percent apart in cost,
    not on the edge of a sparse group (measured: twice the spread).
    """
    households = run.count(3, toy=1)
    days = run.pick(4, toy=1)
    sample_period = run.pick(1, toy=30)
    per_op = OP_S // sample_period
    ops_per_day = DAY_S // OP_S
    checkpoint_slots = range(ops_per_day // 8 - 1, ops_per_day, ops_per_day // 4)
    day_rows = DAY_S // sample_period
    # Data pages: ~39 sample records per page plus one page per durable
    # event insert; checkpoint halves hold one directory entry (~27 B)
    # per live record. Both with headroom.
    data_pages = math.ceil(
        days * (day_rows / ROWS_PER_PAGE + ops_per_day * (EVENTS_PER_OP + 2)))
    checkpoint_pages = math.ceil(
        days * (day_rows + ops_per_day * EVENTS_PER_OP) * 32 / PAGE) + 8
    checkpoint_blocks = 2 * math.ceil(
        checkpoint_pages / TIMINGS.pages_per_block)
    cache_pages = run.pick(128, toy=16)

    # Warm the interpreter and numpy lanes on a scratch store.
    scratch = Catalog(_flash_for(64, 0))
    scratch.collection("meter").insert_many(
        (f"{t:010d}", {"t": t, "w": float(t)}) for t in range(2 * per_op))
    scratch.store.flush()
    del scratch

    meter = _FlashMeter()
    caches: list[dict[str, float]] = []
    attempted = failed = checkpoints = 0
    user_bytes = 0
    recover_s = 0.0
    ram_bytes = pages_used = 0
    for household in range(households):
        if run.over_budget():
            break

        def build():
            traces = _household_days(run, household, days, sample_period)
            flash = _flash_for(data_pages, checkpoint_blocks)
            catalog = Catalog(
                flash, page_cache_bytes=cache_pages * PAGE,
                checkpoint_blocks=checkpoint_blocks,
            )
            catalog.collection("meter").create_ordered_index("t")
            catalog.collection("events")
            return traces, flash, catalog

        traces, flash, catalog = run.timed_setup(build)
        samples = catalog.collection("meter")
        events = catalog.collection("events")
        store = catalog.store
        # Freeze the inputs too: a day of 1 Hz records is 86,400 dicts
        # the collector would otherwise walk during the measured ops.
        settle_heap()
        acknowledged: list[str] = []
        before = flash.snapshot_counters()
        for day, records in enumerate(traces):
            for slot in range(ops_per_day):
                chunk = records[slot * per_op:(slot + 1) * per_op]
                ticks = _ticks(day, slot)
                checkpoint = slot in checkpoint_slots

                def op():
                    samples.insert_many(chunk)
                    store.flush()
                    for event_id, event in ticks:
                        events.insert(event_id, event)
                        store.flush()
                    if checkpoint:
                        store.checkpoint()

                # The rare heavy op alternates sides on its own count,
                # or a day-periodic slot would put every checkpoint on
                # one side of a traced run.
                run.sampler.sample(
                    op, kind="checkpoint" if checkpoint else "ingest",
                    group=checkpoints if checkpoint else attempted,
                )
                attempted += 1
                checkpoints += checkpoint
                user_bytes += _encoded_bytes(chunk) + _encoded_bytes(ticks)
                acknowledged += [f"meter/{key}" for key, _ in chunk]
                acknowledged += [f"events/{key}" for key, _ in ticks]
        meter.charge(flash, before)
        caches.append(store.page_cache.snapshot())
        ram_bytes = max(ram_bytes, store.ram_bytes)
        pages_used = max(pages_used, store.pages_used)

        # Durability: reboot from the programmed pages alone. The old
        # store object (its RAM directory, its write buffer) is gone.
        del catalog, samples, events, store
        started = time.perf_counter()
        rebooted = LogStructuredStore.recover(
            flash, checkpoint_blocks=checkpoint_blocks)
        recover_s += time.perf_counter() - started
        written = {f"meter/{key}": record
                   for records in traces for key, record in records}
        written.update(
            (f"events/{key}", event)
            for day in range(days) for slot in range(ops_per_day)
            for key, event in _ticks(day, slot))
        last_op = per_op + EVENTS_PER_OP
        if not _durable(rebooted, acknowledged, written,
                        acknowledged[:last_op] + acknowledged[-last_op:],
                        run.rng(f"durability-{household}")):
            failed += len(traces) * ops_per_day
        del rebooted, flash, traces, acknowledged, written

    values = {
        "harness.flash_bytes_per_user_byte": meter.writes * PAGE / user_bytes,
        "log_store.recover_ms": recover_s * 1000.0 / max(1, households),
        "log_store.ram_bytes": ram_bytes,
        "log_store.pages_used": pages_used,
    }
    values.update(meter.values(attempted))
    values.update(_cache_values(caches))
    return Outcome(attempted, failed, values)


# -- store_query ----------------------------------------------------------------

#: One cycle of the query mix: 25 % last hour (fits the cache), 25 %
#: uniform 1 h window, 20 % 6 h sum, 15 % tariff-slot band (no index:
#: zone maps), 10 % 64-id point fetch, 5 % unindexed full scan.
QUERY_CYCLE = (
    ["last_hour"] * 5 + ["hour"] * 5 + ["sum_6h"] * 4 + ["slots"] * 3
    + ["get_many"] * 2 + ["full_scan"]
)
SLOT_S = 1800  # half-hour tariff slots, 48 a day
#: Sizing only: a lower bound on {"slot", "t", "w"} frames per page.
QUERY_ROWS_PER_PAGE = 26
SLOTS_PER_QUERY = 3


@dataclass
class _Dataset:
    """The generator's view of the store's content: the oracle's side."""

    records: list[tuple[str, dict]]
    by_id: dict[str, dict]
    t_values: np.ndarray
    w_values: np.ndarray


def store_query(run: Run) -> Outcome:
    """One two-day 1 Hz store behind a 128-page cache (2 % of the
    data); op = one ``Catalog.query`` or ``Collection.get_many``."""
    days = 2
    sample_period = run.pick(1, toy=30)
    cache_pages = run.pick(128, toy=8)
    cycles = run.count(5, toy=1)
    rng = run.rng("store_query")

    def build():
        # Each sample also carries its tariff slot: the unindexed
        # field the zone-map queries select on. A band on ``w`` would
        # prune by where this seed's household ran its oven, and cost
        # 3x more on one seed than the next.
        traces = [
            [(key, {**record, "slot": record["t"] % DAY_S // SLOT_S})
             for key, record in trace]
            for trace in _household_days(run, 0, days, sample_period)
        ]
        records = [item for trace in traces for item in trace]
        flash = _flash_for(
            math.ceil(len(records) / QUERY_ROWS_PER_PAGE) + 64, 0)
        catalog = Catalog(flash, page_cache_bytes=cache_pages * PAGE)
        collection = catalog.collection("meter")
        collection.create_ordered_index("t")
        for trace in traces:
            collection.insert_many(trace)
            catalog.store.flush()
        data = _Dataset(
            records, dict(records),
            np.fromiter((record["t"] for _, record in records),
                        dtype=np.int64, count=len(records)),
            np.fromiter((record["w"] for _, record in records),
                        dtype=np.float64, count=len(records)),
        )
        for kind in ("hour", "slots"):  # warm-up
            _issue(catalog, collection,
                   *_query_for(kind, random.Random(0), data))
        return data, flash, catalog, collection

    data, flash, catalog, collection = run.setup(build)
    settle_heap()
    store = catalog.store
    store.page_cache.clear()
    cache_before = store.page_cache.snapshot()

    meter = _FlashMeter()
    attempted = failed = 0
    for cycle in range(cycles):
        if run.over_budget():
            break
        for kind in rng.sample(QUERY_CYCLE, len(QUERY_CYCLE)):
            label, query = _query_for(kind, rng, data)
            before = flash.snapshot_counters()
            result = run.sampler.sample(
                lambda: _issue(catalog, collection, label, query),
                kind=kind, group=cycle,
            )
            meter.charge(flash, before)
            failed += not _query_correct(
                label, query, result, data, full=attempted % 10 == 0)
            attempted += 1

    values = {
        "log_store.ram_bytes": store.ram_bytes,
        "log_store.pages_used": store.pages_used,
    }
    values.update(meter.values(attempted))
    values.update(_cache_values([store.page_cache.snapshot()], cache_before))
    return Outcome(attempted, failed, values)


def _query_for(kind: str, rng: random.Random, data: _Dataset):
    """``(label, query)``: a ``Query``, or an id list for ``get_many``."""
    first, last = int(data.t_values[0]), int(data.t_values[-1])
    if kind == "last_hour":
        return kind, Query("meter", where=Between("t", last - HOUR_S + 1, last))
    if kind == "hour":
        low = rng.randrange(first, last - HOUR_S)
        return kind, Query("meter", where=Between("t", low, low + HOUR_S - 1))
    if kind == "sum_6h":
        low = rng.randrange(first, last - 6 * HOUR_S)
        return kind, Query(
            "meter", where=Between("t", low, low + 6 * HOUR_S - 1),
            aggregates=[Aggregate("sum", "w")])
    if kind == "slots":
        low = rng.randrange(0, DAY_S // SLOT_S - SLOTS_PER_QUERY + 1)
        return kind, Query("meter", where=Between(
            "slot", low, low + SLOTS_PER_QUERY - 1))
    if kind == "get_many":
        return kind, [rng.choice(data.records)[0] for _ in range(64)]
    return kind, Query("meter", where=Ne("w", -1.0))


def _issue(catalog, collection, label, query):
    if label == "get_many":
        return collection.get_many(query)
    return catalog.query(query)


def _query_correct(label, query, result, data: _Dataset, *,
                   full: bool) -> bool:
    """Cardinality (and the sum) for every query from the generator's
    arrays; with ``full`` the rows themselves against a pure-Python
    filter over the generator's records."""
    if label == "get_many":
        return result == [data.by_id[record_id] for record_id in query]
    where = query.where
    if isinstance(where, Between):
        column = data.t_values if where.field == "t" \
            else data.t_values % DAY_S // SLOT_S
        mask = (column >= where.low) & (column <= where.high)
    else:
        mask = data.w_values != -1.0
    if query.aggregates:
        expected = math.fsum(data.w_values[mask].tolist())
        return math.isclose(
            result.scalar(), expected, rel_tol=1e-9, abs_tol=1e-6)
    if len(result.rows) != int(mask.sum()):
        return False
    if not full:
        return True
    if isinstance(where, Between):
        expected_rows = [
            record for _, record in data.records
            if where.low <= record[where.field] <= where.high]
    else:
        expected_rows = [record for _, record in data.records]
    by_time = operator.itemgetter("t")
    return sorted(result.rows, key=by_time) == sorted(
        expected_rows, key=by_time)
