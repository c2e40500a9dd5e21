"""Every metric and workload the benchmark declares, in one place.

``BENCHMARK.json`` at the repo root is the driver-facing subset of
these tables (the smoke test holds the two together); ``run.py
--describe`` prints all of it — clocks, meanings, bounds, inputs and
the predicted interactions — as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 2013

FEDQUERY = ("flat_quiet", "tree_mixed", "standing_tenants")
STORE = ("store_ingest", "store_query")


@dataclass(frozen=True)
class EndToEnd:
    """A number a user of the system would see."""

    name: str
    unit: str
    clock: str  # host | sim | device | none
    better: str
    bound: float  # worsening, as a share, that counts as a regression
    meaning: str
    #: Workloads the metric applies to; elsewhere it is omitted, never
    #: printed as 0. None: all of them.
    workloads: tuple[str, ...] | None = None
    #: Where a workload's Outcome carries it (deterministic extras only).
    source: str | None = None


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "host", "lower", 0.25,
             "build world/fleet/store, seed data, warm-up ops, with the "
             "cyclic collector paused; speed-normalised; median of the "
             "run's set-up repetitions"),
    EndToEnd("ops_per_s", "op/s", "host", "higher", 0.15,
             "correct ops / sum of speed-normalised sample wall"),
    EndToEnd("op_p50_ms", "ms", "host", "lower", 0.20,
             "median speed-normalised latency sample"),
    EndToEnd("op_tail_ms", "ms", "host", "lower", 0.25,
             "highest ladder percentile with >= 10 samples beyond it "
             "(percentile and sample count are printed)"),
    EndToEnd("peak_rss_mb", "MB", "none", "lower", 0.10,
             "ru_maxrss at the end of the workload's own process"),
    EndToEnd("failed_share", "ratio", "none", "lower", 0.0,
             "ops failed, refused, abandoned or failing their oracle / "
             "ops attempted (the result line's failed / attempted)"),
    EndToEnd("wire_bytes_per_op", "B", "none", "lower", 0.0,
             "FedQueryResult.bytes (+ subscribe bytes amortised) per op",
             FEDQUERY, "harness.wire_bytes_per_op"),
    EndToEnd("sim_latency_s", "sim_s", "sim", "lower", 0.0,
             "median completed_at - issued_at (standing: settle lag "
             "after the window closes)",
             FEDQUERY, "harness.sim_latency_s"),
    EndToEnd("device_ms_per_op", "dev_ms", "device", "lower", 0.001,
             "delta of NandFlash.elapsed_us per op",
             STORE, "flash.device_ms"),
    EndToEnd("flash_bytes_per_user_byte", "ratio", "none", "lower", 0.001,
             "page programs x page size (checkpoints included) / encoded "
             "bytes of acknowledged records",
             ("store_ingest",), "harness.flash_bytes_per_user_byte"),
)

#: The end-to-end metrics that exist on every workload and are never 0:
#: what BENCHMARK.json can declare and ``--trace 0`` prints as JSON.
DRIVER_END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms",
                     "peak_rss_mb")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # one line, <= 200 characters (BENCHMARK.json)
    inputs: str
    op: str
    oracle: str


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "flat_quiet",
        "Mask derivation and the wire codec do most of the work, the "
        "24-row stores almost none: where pairwise-key memoisation and "
        "structural byte accounting must show.",
        "build_fleet 400 cells, Coordinator(neighbors=32), no faults; "
        "40 one-shot queries cycling exact, dp, exact, kanon over a "
        "seeded 4-hour window",
        "one Coordinator.run = one latency sample",
        "exact == fleet.ground_truth (< 1e-6); dp within 15 Laplace "
        "scales; kanon release k-anonymous with one record per cell",
    ),
    Workload(
        "tree_mixed",
        "Same cells under the coordinator tree: hierarchy, journal and "
        "recovery/demotion carry the difference and the degraded "
        "quarter sits in the tail; guards the one-coordinator refactor.",
        "build_fleet_sharded 500 cells / 22 regions, "
        "HierarchicalCoordinator(neighbors=32); 40 exact queries, every "
        "4th with 3 seeded cells offline for that op",
        "one HierarchicalCoordinator.run = one latency sample",
        "quiet == flat ground truth; degraded == partial, demoted == "
        "the offline set, survivor-exact",
    ),
    Workload(
        "standing_tenants",
        "Reads beside writes on the fedquery path: rows arrive while "
        "every subscription re-scans the store per close, so store "
        "decode dominates and masks are secondary.",
        "build_fleet 16 cells + seed_stream_data, "
        "StandingCoordinator(neighbors=8), tenant_specs(16), 2 warm-up "
        "+ 40 tumbling windows (900 s over 300 s units), stepped with "
        "loop.run_until one window close at a time",
        "op = one settled tenant-window (640); sample = wall to drain "
        "one window close (40)",
        "4 sampled exact tenants x all windows == clear-text windowed "
        "totals; every window complete",
    ),
    Workload(
        "store_ingest",
        "Write path only (log-store insert, encode, flash programs); "
        "no fedquery layer runs, so a coordinator change must leave it "
        "flat; checkpoints put background work in the tail.",
        "3 households x 4 days of 1 Hz HouseholdSimulator trace, one "
        "at a time, Catalog on SMART_TOKEN flash, ordered index on t, "
        "zone maps, 128-page cache, checkpoint region",
        "one simulated 15 min: insert_many of 900 records + flush, 15 "
        "durable single insert+flush into events, checkpoint() every six "
        "hours (1,152 ops)",
        "LogStructuredStore.recover(flash) from programmed pages only "
        "serves exactly the acknowledged ids; sha256 of sorted rows "
        "over 4,096 sampled + first/last op's records per household",
    ),
    Workload(
        "store_query",
        "The same layers used the other way (reads): a layout or codec "
        "change that buys ingest by taxing scans shows here; hot and "
        "cold halves separate the page cache from decode cost.",
        "one 2-day store (172,800 rows, ~5,700 pages) behind a 128-page "
        "cache (2 % of the data); 100 seeded queries in shuffled cycles "
        "of 20: 25 % last hour, 25 % uniform 1 h, 20 % 6 h sum(w), 15 % "
        "3-slot tariff band (zone maps), 10 % get_many of 64 ids, 5 % "
        "unindexed full scan",
        "one Catalog.query / Collection.get_many = one latency sample",
        "every query's cardinality (or sum) == the generator's arrays; "
        "every 10th query's rows == a pure-Python filter",
    ),
)

WORKLOAD_NAMES = tuple(workload.name for workload in WORKLOADS)


# -- per-layer metrics (the ``--trace 1`` run) ----------------------------------
#
# (name, unit, better, the end-to-end metric and workload it should move)
# ``*_ms``: speed-normalised self time per traced op; ``*_calls``: spans
# per traced op; the rest are deterministic counters per op (or totals
# where the name says so).

_LOWER = "lower"

PER_LAYER: tuple[tuple[str, str, str, str], ...] = (
    # sim
    ("sim.loop_self_ms", "ms", _LOWER,
     "ops_per_s on all three fedquery workloads equally"),
    ("sim.events_per_op", "count", _LOWER, "ops_per_s on fedquery workloads"),
    # infrastructure.network
    ("network.send_calls", "count", _LOWER, "wire_bytes_per_op"),
    ("network.send_self_ms", "ms", _LOWER, "op_p50_ms on flat_quiet"),
    ("network.messages_per_op", "count", _LOWER, "wire_bytes_per_op"),
    ("network.bytes_per_op", "B", _LOWER, "wire_bytes_per_op"),
    ("network.lost", "count", _LOWER, "sim_latency_s; 0 on quiet paths"),
    ("network.queued", "count", _LOWER, "sim_latency_s; 0 on quiet paths"),
    # fedquery.spec
    ("spec.wire_size_calls", "count", _LOWER, "op_p50_ms on flat_quiet"),
    ("spec.wire_size_ms", "ms", _LOWER,
     "op_p50_ms on flat_quiet/tree_mixed; wire_bytes_per_op must not move"),
    ("spec.message_build_ms", "ms", _LOWER,
     "op_p50_ms on flat_quiet/tree_mixed (message build, to_wire, from_wire)"),
    ("spec.from_wire_calls", "count", _LOWER, "op_p50_ms on flat_quiet"),
    # fedquery.coordinator
    ("coordinator.handler_calls", "count", _LOWER, "op_p50_ms on flat_quiet"),
    ("coordinator.handler_self_ms", "ms", _LOWER, "op_p50_ms on flat_quiet"),
    ("coordinator.run_self_ms", "ms", _LOWER, "op_p50_ms on flat_quiet"),
    ("coordinator.deadline_self_ms", "ms", _LOWER,
     "op_tail_ms on tree_mixed (re-ask and demotion run from deadlines)"),
    ("coordinator.reasks", "count", _LOWER, "op_tail_ms on tree_mixed"),
    ("coordinator.recovery_rounds", "count", _LOWER,
     "op_tail_ms on tree_mixed"),
    ("coordinator.demoted", "count", _LOWER, "failed_share on tree_mixed"),
    ("coordinator.query_ms.exact", "ms", _LOWER, "op_p50_ms on flat_quiet"),
    ("coordinator.query_ms.dp", "ms", _LOWER, "op_p50_ms on flat_quiet"),
    ("coordinator.query_ms.kanon", "ms", _LOWER, "op_tail_ms on flat_quiet"),
    # fedquery.hierarchy
    ("hierarchy.run_self_ms", "ms", _LOWER, "op_p50_ms on tree_mixed"),
    ("hierarchy.root_handler_self_ms", "ms", _LOWER,
     "op_p50_ms on tree_mixed"),
    ("hierarchy.region_handler_self_ms", "ms", _LOWER,
     "op_p50_ms and op_tail_ms on tree_mixed"),
    ("hierarchy.root_messages_per_op", "count", _LOWER,
     "sim_latency_s on tree_mixed"),
    ("hierarchy.degraded_op_ms", "ms", _LOWER, "op_tail_ms on tree_mixed"),
    ("hierarchy.quiet_op_ms", "ms", _LOWER, "op_p50_ms on tree_mixed"),
    ("hierarchy.respawns", "count", _LOWER, "0 without crashes"),
    # fedquery.journal
    ("journal.append_calls", "count", _LOWER,
     "ops_per_s on tree_mixed/standing_tenants"),
    ("journal.append_ms", "ms", _LOWER,
     "ops_per_s on tree_mixed/standing_tenants"),
    ("journal.records_at_end", "count", _LOWER, "peak_rss_mb everywhere"),
    # fedquery.cell
    ("cell.handler_calls", "count", _LOWER, "op_p50_ms on flat_quiet"),
    ("cell.handler_self_ms", "ms", _LOWER, "op_p50_ms on flat_quiet"),
    # fedquery.gate
    ("gate.masked_contribution_calls", "count", _LOWER,
     "op_p50_ms on flat_quiet"),
    ("gate.masked_contribution_ms", "ms", _LOWER,
     "op_p50_ms on flat_quiet (with kernels and hmac the largest share)"),
    ("gate.net_recovery_mask_calls", "count", _LOWER,
     "op_tail_ms on tree_mixed"),
    ("gate.net_recovery_mask_ms", "ms", _LOWER, "op_tail_ms on tree_mixed"),
    ("gate.seal_records_calls", "count", _LOWER, "op_tail_ms on flat_quiet"),
    ("gate.seal_records_ms", "ms", _LOWER,
     "the kanon quarter of flat_quiet (op_tail_ms)"),
    ("gate.dp_noise_share_calls", "count", _LOWER, "op_p50_ms on flat_quiet"),
    # commons.kernels
    ("kernels.expand_streams_calls", "count", _LOWER,
     "op_p50_ms on flat_quiet"),
    ("kernels.expand_streams_ms", "ms", _LOWER, "op_p50_ms on flat_quiet"),
    ("kernels.accumulate_ms", "ms", _LOWER, "op_p50_ms on flat_quiet"),
    # crypto
    ("crypto.hmac_calls", "count", _LOWER,
     "op_p50_ms on flat_quiet; exact count, 0 on store workloads"),
    ("crypto.seal_calls", "count", _LOWER, "op_tail_ms on flat_quiet"),
    ("crypto.seal_ms", "ms", _LOWER, "op_tail_ms on flat_quiet"),
    ("crypto.open_ms", "ms", _LOWER, "0 inside ops (recipient side)"),
    # fedquery.standing
    ("standing.subscribe_ms", "ms", _LOWER, "setup_s on standing_tenants"),
    ("standing.close_tick_ms", "ms", _LOWER, "ops_per_s on standing_tenants"),
    ("standing.open_tick_ms", "ms", _LOWER, "ops_per_s on standing_tenants"),
    ("standing.windows_settled", "count", "higher",
     "failed_share on standing_tenants"),
    ("standing.messages_per_window", "count", _LOWER,
     "wire_bytes_per_op on standing_tenants"),
    ("standing.examined_per_window_per_cell", "count", _LOWER,
     "ops_per_s on standing_tenants (shared incremental windows)"),
    # store.catalog
    ("catalog.query_calls", "count", _LOWER, "op_p50_ms on store_query"),
    ("catalog.query_self_ms", "ms", _LOWER,
     "op_p50_ms on store_query; ops_per_s on standing_tenants"),
    ("catalog.insert_self_ms", "ms", _LOWER, "ops_per_s on store_ingest"),
    ("catalog.records_examined", "count", _LOWER,
     "op_p50_ms on store_query"),
    ("catalog.rows_returned", "count", _LOWER, "fixed by the inputs"),
    ("catalog.examined_per_row", "ratio", _LOWER,
     "op_p50_ms on store_query (wasted scan work)"),
    ("catalog.plan_share.index", "ratio", "higher",
     "op_p50_ms on store_query"),
    ("catalog.plan_share.zonemap", "ratio", _LOWER,
     "op_p50_ms on store_query"),
    ("catalog.plan_share.scan", "ratio", _LOWER, "op_tail_ms on store_query"),
    # store.log_store
    ("log_store.insert_ms", "ms", _LOWER, "ops_per_s on store_ingest"),
    ("log_store.scan_ms", "ms", _LOWER,
     "ops_per_s on store_query/standing_tenants"),
    ("log_store.get_ms", "ms", _LOWER, "op_p50_ms on store_query"),
    ("log_store.flush_calls", "count", _LOWER,
     "flash_bytes_per_user_byte on store_ingest"),
    ("log_store.flush_ms", "ms", _LOWER, "ops_per_s on store_ingest"),
    ("log_store.checkpoint_ms", "ms", _LOWER, "op_tail_ms on store_ingest"),
    ("log_store.recover_ms", "ms", _LOWER,
     "host wall of one reboot (outside ops; not normalised)"),
    ("log_store.ram_bytes", "B", _LOWER, "peak_rss_mb on store workloads"),
    ("log_store.pages_used", "count", _LOWER,
     "flash_bytes_per_user_byte on store_ingest"),
    # store.encoding
    ("encoding.encode_ms", "ms", _LOWER, "ops_per_s on store_ingest"),
    ("encoding.decode_page_calls", "count", _LOWER,
     "ops_per_s on store_query"),
    ("encoding.decode_page_ms", "ms", _LOWER,
     "ops_per_s on standing_tenants; op_p50_ms on store_query"),
    ("encoding.decode_record_calls", "count", _LOWER,
     "ops_per_s on standing_tenants (the scalar lane)"),
    ("encoding.scalar_fallback_share", "ratio", _LOWER,
     "ops_per_s on standing_tenants: rows decode_page handed to the "
     "scalar decoder / rows it was given"),
    # store.page_cache
    ("page_cache.hit_ratio", "ratio", "higher",
     "device_ms_per_op on store_query; barely wall"),
    ("page_cache.evictions", "count", _LOWER,
     "device_ms_per_op on store_query"),
    ("page_cache.resident_pages", "count", _LOWER, "peak_rss_mb"),
    # hardware.flash
    ("flash.page_reads", "count", _LOWER, "device_ms_per_op"),
    ("flash.page_writes", "count", _LOWER,
     "device_ms_per_op, flash_bytes_per_user_byte"),
    ("flash.block_erases", "count", _LOWER, "device_ms_per_op"),
    ("flash.device_ms", "dev_ms", _LOWER,
     "is device_ms_per_op (device clock, deterministic)"),
    ("flash.max_wear", "count", _LOWER, "device lifetime"),
    # harness
    ("harness.wire_bytes_per_op", "B", _LOWER,
     "is wire_bytes_per_op (fedquery workloads; deterministic)"),
    ("harness.sim_latency_s", "sim_s", _LOWER,
     "is sim_latency_s (sim clock, whole seconds; deterministic)"),
    ("harness.flash_bytes_per_user_byte", "ratio", _LOWER,
     "is flash_bytes_per_user_byte (store_ingest; deterministic)"),
    ("harness.raw_wall_s", "s", _LOWER, "un-normalised sum of sample wall"),
    ("harness.calib_ms_p50", "ms", _LOWER, "host speed during the run"),
    ("harness.speed_min", "ratio", "higher", "slowest host phase seen"),
    ("harness.speed_max", "ratio", "higher", "fastest host phase seen"),
    ("harness.samples", "count", "higher", "latency samples taken"),
    ("harness.op_wall_ms", "ms", _LOWER,
     "normalised wall per traced op: layers + untraced add up to it"),
    ("harness.untraced_ms", "ms", _LOWER,
     "op wall not covered by any layer span"),
    ("harness.ingest_tick_ms", "ms", _LOWER,
     "standing_tenants: the benchmark's own row-arrival callbacks"),
    ("harness.gc_collections", "count", _LOWER, "op_tail_ms anywhere"),
    ("trace.overhead_ratio", "ratio", "higher",
     "traced / untraced throughput inside the traced run"),
    ("trace.spans_per_op", "count", _LOWER, "what tracing costs"),
    ("trace.targets_missing", "count", _LOWER,
     "wrap targets that no longer resolve; 0 at this commit"),
)

PER_LAYER_NAMES = tuple(row[0] for row in PER_LAYER)
