#!/usr/bin/env python
"""Bench-regression gate: smoke re-measurements vs the tracked claims.

The tracked ``BENCH_*.json`` files at the repo root record full-scale
runs that are too slow for CI. This gate re-runs the *cheap* smoke
slices of the same benchmark code and compares scale-invariant key
metrics against the tracked claims within explicit tolerances:

* **records/sec** — the store's batch-ingest device throughput.
  Device time is simulated, so the rate is deterministic and nearly
  scale-invariant: a tight band catches anyone who quietly adds a
  page program per record.
* **pages read** — pages per matching row for the index plan and the
  index/scan advantage ratio; catches a broken zone map or index
  before the full bench would.
* **checkpoint pages** — a day of checkpoints (six-hourly and every 64
  pages) must program at most 1.25x the pages of one full image of
  the final directory and recover to the full replay's state; catches
  a delta that quietly carries the whole directory again.
* **coordinator wall-seconds per cell** — the flat federated-query
  per-cell wall (loose band: host-dependent) and the coordinator
  tree's root-side per-cell wall, which must stay below the tracked
  flat baseline (the sub-linearity claim, re-verified live).
* **columnar batch path** — the columnar ingest/scan lanes must stay
  bit-for-bit equal to the scalar reference (flash image, rows,
  catalog results), keep a healthy live wall speedup, keep the codec
  within a loose wall band of the tracked ns/record, and seal a page
  bundle with exactly 4 keyed HMACs where per-frame sealing costs 4·N.
* **heap residue** — GC-tracked containers one quiet flat query leaves
  behind per cell (the collector re-walks them on every later pass):
  O(1) per cell at any ring degree, within 1.25x of the tracked value;
  catches a per-(peer, round) or per-cell-per-roster structure coming
  back.
* **mask derivations** — HMAC count for a k-regular masked sum must
  equal ``n * k`` exactly; the vectorized kernels must not change how
  often key material is touched.
* **crash recovery** — the crash matrix re-runs live (it is small and
  scale-independent): every mid-query coordinator crash must recover
  from its write-ahead journal to the control's exact total, root
  failover must respawn a dead region, and the per-profile totals
  must match the tracked rows bit-for-bit.
* **standing queries** — the multi-tenant smoke mix must settle every
  window on the quiet path (zero faults, zero re-asks), keep the
  deterministic one-delta-per-cell-per-window message rate, make one
  store query per stream collection per cell per close whatever the
  tenant count, hold only gate-transformed deltas in the journal, and
  recover a window missed across a coordinator crash to the control's
  exact totals with the tracked recovery latency.

Exit status 0 means every gate passed; 1 means a regression (or a
missing/ill-formed tracked file). Run from anywhere:

    python tools/bench_gate.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

# Wall-clock comparisons run on arbitrarily loaded CI hosts; cost
# metrics only fail when they exceed tracked * WALL_FACTOR.
WALL_FACTOR = 10.0
# Deterministic (device-time / message-count) rates get a tight band.
RATE_BAND = 1.5
# Page counts per row drift slightly with sampling density.
PAGES_FACTOR = 2.0
# Tracked containers a query leaves per cell: deterministic, and equal
# at any scale but for the coordinator's O(1) share, which weighs more
# per cell on the 45-cell smoke than on the tracked 1,000.
HEAP_FACTOR = 1.25


class Gate:
    def __init__(self) -> None:
        self.rows: list[tuple[str, str, bool]] = []

    def check(self, name: str, detail: str, ok: bool) -> None:
        self.rows.append((name, detail, bool(ok)))

    def max_ratio(self, name: str, measured: float, tracked: float,
                  factor: float) -> None:
        self.check(
            name,
            f"measured {measured:.6g} vs tracked {tracked:.6g} "
            f"(allowed <= {factor:g}x)",
            measured <= tracked * factor,
        )

    def band(self, name: str, measured: float, tracked: float,
             factor: float) -> None:
        self.check(
            name,
            f"measured {measured:.6g} vs tracked {tracked:.6g} "
            f"(allowed within {factor:g}x)",
            tracked / factor <= measured <= tracked * factor,
        )

    def report(self) -> int:
        width = max(len(name) for name, _, _ in self.rows)
        failed = 0
        for name, detail, ok in self.rows:
            mark = "PASS" if ok else "FAIL"
            failed += not ok
            print(f"  {mark}  {name:<{width}}  {detail}")
        return failed


def gate_store(gate: Gate, tracked: dict) -> None:
    from benchmarks.bench_store_scale import (
        OBS,
        SMOKE_MONTH_DAYS,
        SMOKE_QUERY_WINDOW_S,
        SMOKE_SAMPLE_PERIOD,
        _day_trace,
        measure_checkpoint_cadence,
        measure_ingest,
        measure_queries,
    )
    OBS.reset()
    OBS.enable()
    day = _day_trace(0, SMOKE_SAMPLE_PERIOD)
    ingest = measure_ingest(day, SMOKE_MONTH_DAYS, SMOKE_SAMPLE_PERIOD)
    gate.band(
        "store records/sec (batch ingest, device)",
        ingest["batch"]["records_per_sec_device"],
        tracked["ingest"]["batch"]["records_per_sec_device"],
        RATE_BAND,
    )
    gate.check(
        "store batch >= 5x single-record (device)",
        f"speedup {ingest['batch_speedup_device']:g}x",
        ingest["meets_5x"],
    )
    queries = measure_queries(day, SMOKE_QUERY_WINDOW_S)
    gate.max_ratio(
        "store pages read per row (index plan)",
        queries["index"]["pages_read"] / queries["rows"],
        tracked["queries"]["index"]["pages_read"]
        / tracked["queries"]["rows"],
        PAGES_FACTOR,
    )
    tracked_advantage = (tracked["queries"]["scan"]["pages_read"]
                         / tracked["queries"]["index"]["pages_read"])
    advantage = (queries["scan"]["pages_read"]
                 / queries["index"]["pages_read"])
    gate.check(
        "store index/scan page advantage",
        f"measured {advantage:.1f}x vs tracked {tracked_advantage:.1f}x "
        f"(allowed >= half)",
        advantage >= tracked_advantage / 2,
    )
    cadence = measure_checkpoint_cadence(day, SMOKE_SAMPLE_PERIOD)
    for name, row in cadence["rows"].items():
        gate.check(
            f"store checkpoint pages vs one full image ({name})",
            f"{row['checkpoint_pages_total']} pages in "
            f"{row['checkpoints']} checkpoints vs a "
            f"{row['full_image_pages']}-page image (allowed <= 1.25x)",
            row["checkpoint_pages_total"] <= 1.25 * row["full_image_pages"],
        )
    tracked_cadence = tracked.get("checkpoint_cadence", {})
    gate.check(
        "store checkpoint chain recovers to the full replay",
        f"live {cadence['recovered_identical']}, tracked "
        f"{tracked_cadence.get('recovered_identical')} (pages within 1.25x: "
        f"{tracked_cadence.get('total_pages_within_1_25x_full_image')})",
        cadence["recovered_identical"]
        and tracked_cadence.get("recovered_identical", False)
        and tracked_cadence.get("total_pages_within_1_25x_full_image", False),
    )
    gate_store_columnar(gate, tracked, day)


def gate_store_columnar(gate: Gate, tracked: dict, day) -> None:
    from benchmarks.bench_store_scale import (
        SMOKE_QUERY_WINDOW_S,
        measure_columnar,
    )
    tracked_columnar = tracked.get("columnar")
    if tracked_columnar is None:
        gate.check("store columnar tracked rows present",
                   "BENCH_store.json has no columnar section", False)
        return
    gate.check(
        "store columnar tracked speedups (full scale)",
        f"ingest {tracked_columnar['ingest']['speedup_wall']:g}x "
        f"scan {tracked_columnar['scan']['speedup_wall']:g}x "
        f"(claimed >= 5x)",
        tracked_columnar["ingest"]["speedup_wall"] >= 5.0
        and tracked_columnar["scan"]["speedup_wall"] >= 5.0
        and tracked_columnar["ingest"]["bit_for_bit_columnar_equals_scalar"],
    )
    measured = measure_columnar(day, SMOKE_QUERY_WINDOW_S, reps=3)
    gate.check(
        "store columnar flash image bit-for-bit (live)",
        "insert_batch vs buffered put loop",
        measured["ingest"]["bit_for_bit_columnar_equals_scalar"],
    )
    # Wall speedups shrink on loaded CI hosts; demand half the claim.
    gate.check(
        "store columnar ingest speedup (live)",
        f"measured {measured['ingest']['speedup_wall']:g}x "
        f"(allowed >= 2.5x)",
        measured["ingest"]["speedup_wall"] >= 2.5,
    )
    gate.check(
        "store columnar scan speedup + rows identical (live)",
        f"measured {measured['scan']['speedup_wall']:g}x "
        f"(allowed >= 2.5x)",
        measured["scan"]["rows_identical"]
        and measured["scan"]["speedup_wall"] >= 2.5,
    )
    gate.check(
        "store columnar catalog results identical (live)",
        ", ".join(sorted(measured["catalog_queries"])),
        all(row["results_identical"]
            for row in measured["catalog_queries"].values()),
    )
    micro = measured["micro_ops"]
    tracked_micro = tracked_columnar["micro_ops"]
    gate.check(
        "store codec bit-for-bit (live)",
        f"encode {micro['encode_speedup']:g}x "
        f"decode {micro['decode_speedup']:g}x",
        micro["encode_bit_for_bit"] and micro["decode_rows_identical"],
    )
    gate.max_ratio(
        "store columnar encode ns/record",
        micro["encode_ns_columnar"], tracked_micro["encode_ns_columnar"],
        WALL_FACTOR,
    )
    gate.max_ratio(
        "store columnar decode ns/record",
        micro["decode_ns_columnar"], tracked_micro["decode_ns_columnar"],
        WALL_FACTOR,
    )
    hmac_row = measured["hmac_per_page"]
    gate.check(
        "store page-bundle HMAC collapse exact",
        f"per-frame {hmac_row['per_frame_hmacs']} vs bundle "
        f"{hmac_row['bundle_hmacs']} "
        f"({hmac_row['frames_per_page']} frames/page)",
        hmac_row["per_frame_hmacs"] == 4 * hmac_row["frames_per_page"]
        and hmac_row["bundle_hmacs"] == 4
        and hmac_row["roundtrip_identical"]
        and tracked_columnar["hmac_per_page"]["bundle_hmacs"] == 4,
    )


def gate_aggregation(gate: Gate, tracked: dict) -> None:
    from benchmarks.bench_aggregation_scale import measure_masked_sum
    size, neighbors = 150, 8
    row = measure_masked_sum(size, neighbors)
    gate.check(
        "aggregation masked sum exact",
        f"n={size} k={neighbors}",
        row["exact"],
    )
    gate.check(
        "aggregation HMAC derivations == n*k",
        f"measured {row['hmac_derivations']} vs {size * neighbors}",
        row["hmac_derivations"] == size * neighbors,
    )
    tracked_row = next(
        entry for entry in tracked["masked_sum"]
        if entry["graph"] != "complete"
        and entry["n"] == max(e["n"] for e in tracked["masked_sum"])
    )
    tracked_rate = tracked_row["hmac_derivations"] / tracked_row["seconds"]
    rate = row["hmac_derivations"] / row["seconds"] if row["seconds"] else 0.0
    gate.check(
        "aggregation mask derivations/sec (wall)",
        f"measured {rate:.6g} vs tracked {tracked_rate:.6g} "
        f"(allowed >= 1/{WALL_FACTOR:g})",
        rate >= tracked_rate / WALL_FACTOR,
    )


def gate_fedquery(gate: Gate, tracked: dict) -> None:
    from benchmarks.bench_fedquery_scale import (
        SMOKE_CELLS,
        SMOKE_NEIGHBORS,
        TREE_SMOKE_CELLS,
        TREE_SMOKE_NEIGHBORS,
        TREE_SMOKE_REGIONS,
        TRANSFORM_EXACT,
        measure_transforms,
        measure_tree,
    )
    transforms = measure_transforms(SMOKE_CELLS, SMOKE_NEIGHBORS)
    exact = next(
        row for row in transforms["rows"]
        if row["transform"] == TRANSFORM_EXACT
    )
    tracked_exact = next(
        row for row in tracked["transforms"]["rows"]
        if row["transform"] == TRANSFORM_EXACT
    )
    tracked_cells = tracked["fleet"]["cells"]
    gate.band(
        "fedquery messages per cell (flat exact)",
        exact["messages"] / SMOKE_CELLS,
        tracked_exact["messages"] / tracked_cells,
        RATE_BAND,
    )
    gate.max_ratio(
        "fedquery coordinator wall-seconds per cell (flat)",
        exact["wall_seconds"] / SMOKE_CELLS,
        tracked_exact["wall_seconds"] / tracked_cells,
        WALL_FACTOR,
    )
    gate.max_ratio(
        "fedquery heap containers per cell per query (flat exact)",
        exact["heap_containers_per_cell_query"],
        tracked_exact["heap_containers_per_cell_query"],
        HEAP_FACTOR,
    )
    gate.check(
        "fedquery flat exact vs oracle",
        f"error {exact['error_vs_oracle']:g}",
        exact["outcome"] == "complete" and exact["error_vs_oracle"] < 1e-6,
    )
    baseline = tracked["hierarchy"]["flat_baseline_per_cell"]
    tree = measure_tree(
        TREE_SMOKE_CELLS, TREE_SMOKE_REGIONS, TREE_SMOKE_NEIGHBORS,
        baseline,
    )
    quiet = tree["rows"][0]
    gate.check(
        "fedquery tree root messages per cell < flat baseline",
        f"measured {quiet['root_per_cell_messages']:g} vs baseline "
        f"{baseline['messages']:g}",
        quiet["root_per_cell_messages"] < baseline["messages"],
    )
    gate.check(
        "fedquery tree root wall per cell < flat baseline",
        f"measured {quiet['root_per_cell_wall_ms']:g} ms vs baseline "
        f"{baseline['wall_ms']:g} ms",
        quiet["root_per_cell_wall_ms"] < baseline["wall_ms"],
    )
    gate.check(
        "fedquery tree quiet control clean",
        f"faults {quiet['faults_injected']} reasks {quiet['reasks']}",
        tree["no_fault_path_clean"],
    )


def gate_crash(gate: Gate, tracked: dict) -> None:
    from benchmarks.bench_fedquery_scale import measure_crashes
    tracked_crash = tracked["crash_matrix"]
    gate.check(
        "crash tracked matrix invariants",
        f"{len(tracked_crash['rows'])} rows, "
        f"respawns {tracked_crash['failover_respawns']}",
        tracked_crash["no_crash_clean"]
        and tracked_crash["recovered_totals_pinned"]
        and tracked_crash["failover_respawns"] >= 1
        and tracked_crash["degraded_survivor_exact"]
        and not tracked_crash["raw_leaked"],
    )
    measured = measure_crashes()
    gate.check(
        "crash controls clean (live)",
        "flat + tree quiet rows: zero faults, zero re-asks, complete",
        measured["no_crash_clean"],
    )
    gate.check(
        "crash recovered totals pinned to control (live)",
        "every full-survivor crash row completes bit-for-bit",
        measured["recovered_totals_pinned"],
    )
    gate.check(
        "crash root failover respawns dead region (live)",
        f"respawns {measured['failover_respawns']}",
        measured["failover_respawns"] >= 1,
    )
    gate.check(
        "crash degraded run survivor-exact (live)",
        "crash + offline cells settles to exact partial",
        measured["degraded_survivor_exact"],
    )
    gate.check(
        "crash journals free of raw encodings (live)",
        f"{len(measured['rows'])} rows audited",
        not measured["raw_leaked"],
    )
    tracked_totals = {
        row["profile"]: row["field_total"] for row in tracked_crash["rows"]
    }
    measured_totals = {
        row["profile"]: row["field_total"] for row in measured["rows"]
    }
    gate.check(
        "crash totals match tracked bit-for-bit",
        f"{len(measured_totals)} profiles",
        measured_totals == tracked_totals,
    )


def gate_keymgmt(gate: Gate, tracked: dict) -> None:
    from benchmarks.bench_keymgmt_scale import (
        SMOKE_CELLS,
        SMOKE_EPOCHS,
        SMOKE_NEIGHBORS,
        SMOKE_OFFLINE,
        measure_equivalence,
        measure_lifecycle,
    )
    lifecycle = measure_lifecycle(
        SMOKE_CELLS, SMOKE_NEIGHBORS, SMOKE_OFFLINE, SMOKE_EPOCHS)
    agreement = lifecycle["agreement"]
    gate.check(
        "keymgmt ring agreement complete (smoke)",
        f"{agreement['agreements']} agreements over "
        f"{agreement['edges']} edges, "
        f"{agreement['async_completions']} async",
        agreement["all_edges_agreed"]
        and agreement["agreements"] == agreement["edges"]
        and agreement["async_completions"]
        == agreement["pending_before_wake"] > 0,
    )
    tracked_agreement = tracked["agreement"]
    gate.check(
        "keymgmt tracked roster is fleet-scale",
        f"{tracked_agreement['cells']} cells, "
        f"{tracked_agreement['edges']} edges",
        tracked_agreement["cells"] >= 10_000
        and tracked_agreement["all_edges_agreed"],
    )
    # X3DH cost is per-edge modexp, so the smoke rate is comparable to
    # the tracked full-roster rate up to host load.
    gate.check(
        "keymgmt agreements/sec (wall)",
        f"measured {agreement['agreements_per_sec']:.6g} vs tracked "
        f"{tracked_agreement['agreements_per_sec']:.6g} "
        f"(allowed >= 1/{WALL_FACTOR:g})",
        agreement["agreements_per_sec"]
        >= tracked_agreement["agreements_per_sec"] / WALL_FACTOR,
    )
    tracked_rotation = max(
        row["rotate_ms_per_cell"] for row in tracked["rotation"])
    measured_rotation = max(
        row["rotate_ms_per_cell"] for row in lifecycle["rotation"])
    gate.max_ratio(
        "keymgmt rotation ms per cell",
        measured_rotation, tracked_rotation, WALL_FACTOR,
    )
    gate.check(
        "keymgmt rotation really changes keys",
        f"{len(lifecycle['rotation'])} epochs",
        all(row["keys_changed"] for row in lifecycle["rotation"]),
    )
    tracked_quiet = next(
        row for row in tracked["revocation"]["rows"]
        if row["profile"] == "quiet"
    )
    tracked_churning = next(
        row for row in tracked["revocation"]["rows"]
        if row["profile"] == "churning"
    )
    gate.check(
        "keymgmt tracked quiet revocation clean",
        f"faults {tracked_quiet['faults_injected']} "
        f"retries {tracked_quiet['retry_attempts']} "
        f"latency {tracked_quiet['exclusion_latency_s']}",
        tracked["revocation"]["no_fault_path_clean"],
    )
    gate.check(
        "keymgmt tracked churning revocation converged",
        f"latency {tracked_churning['exclusion_latency_s']}s over "
        f"{tracked_churning['faults_injected']} faults",
        tracked_churning["completed"]
        and tracked_churning["survivors_excluding_revoked"]
        == tracked_churning["survivors"],
    )
    equivalence = measure_equivalence()
    gate.check(
        "keymgmt totals pinned to preshared (flat+tree, live)",
        f"flat {equivalence['flat_pinned']} "
        f"rotated {equivalence['flat_pinned_after_rotation']} "
        f"tree {equivalence['tree_pinned']}",
        equivalence["flat_pinned"]
        and equivalence["flat_pinned_after_rotation"]
        and equivalence["tree_pinned"],
    )


def gate_standing(gate: Gate, tracked: dict) -> None:
    from benchmarks.bench_standing import (
        SMOKE_CELLS,
        SMOKE_TENANTS,
        SMOKE_WINDOWS,
        measure_late_recovery,
        measure_multi_tenant,
    )
    tracked_tenants = tracked["multi_tenant"]
    gate.check(
        "standing tracked multi-tenant row",
        f"{tracked_tenants['subscriptions']} subscriptions x "
        f"{tracked_tenants['windows_each']} windows over "
        f"{tracked_tenants['cells']} cells",
        tracked_tenants["subscriptions"] >= 200
        and tracked_tenants["windows_settled"]
        == tracked_tenants["windows_expected"]
        and tracked_tenants["no_fault_path_clean"]
        and tracked_tenants["leakage_audit"]["only_gate_transformed_deltas"],
    )
    tenants = measure_multi_tenant(SMOKE_CELLS, SMOKE_TENANTS, SMOKE_WINDOWS)
    gate.check(
        "standing quiet control clean (live)",
        f"faults {tenants['fault_control']['faults_injected']} "
        f"reasks {tenants['fault_control']['reasks']} "
        f"settled {tenants['windows_settled']}"
        f"/{tenants['windows_expected']}",
        tenants["no_fault_path_clean"],
    )
    # The quiet path ships exactly one spontaneous delta per cell per
    # window and zero plan messages — a deterministic message rate.
    gate.band(
        "standing messages per window per cell",
        tenants["messages_per_window_per_subscription"] / SMOKE_CELLS,
        tracked_tenants["messages_per_window_per_subscription"]
        / tracked_tenants["cells"],
        RATE_BAND,
    )
    # One shared window-feed pull per stream collection per cell per
    # close — a count that must not depend on SMOKE_TENANTS.
    gate.check(
        "standing store queries per cell per close (live)",
        f"{tenants['store_queries_per_cell_per_close']:g} vs "
        f"{len(tenants['domain_mix'])} stream collections, "
        f"{SMOKE_TENANTS} tenants",
        tenants["store_queries_per_cell_per_close"]
        == len(tenants["domain_mix"]),
    )
    gate.check(
        "standing journal holds only gated deltas (live)",
        f"{tenants['leakage_audit']['gated_partials']} gated, "
        f"{tenants['leakage_audit']['ungated_partials']} ungated, "
        f"{tenants['leakage_audit']['raw_encodings_in_journal']} raw",
        tenants["leakage_audit"]["only_gate_transformed_deltas"],
    )
    gate.check(
        "standing windows/sec (wall)",
        f"measured {tenants['windows_per_sec']:.6g} vs tracked "
        f"{tracked_tenants['windows_per_sec']:.6g} "
        f"(allowed >= 1/{WALL_FACTOR:g})",
        tenants["windows_per_sec"]
        >= tracked_tenants["windows_per_sec"] / WALL_FACTOR,
    )
    recovery = measure_late_recovery()
    tracked_recovery = tracked["late_recovery"]
    gate.check(
        "standing late-window recovery pinned (live)",
        f"latency {recovery['recovery_latency_s']}s vs tracked "
        f"{tracked_recovery['recovery_latency_s']}s",
        recovery["control_clean"]
        and recovery["recovered_totals_pinned"]
        and recovery["recovery_latency_s"] > 0
        and recovery["recovery_latency_s"]
        == tracked_recovery["recovery_latency_s"],
    )


SECTIONS = (
    ("BENCH_store.json", gate_store),
    ("BENCH_aggregation.json", gate_aggregation),
    ("BENCH_fedquery.json", gate_fedquery),
    ("BENCH_fedquery.json", gate_crash),
    ("BENCH_keymgmt.json", gate_keymgmt),
    ("BENCH_standing.json", gate_standing),
)


def main() -> int:
    gate = Gate()
    for filename, runner in SECTIONS:
        path = ROOT / filename
        print(f"== {filename}")
        try:
            tracked = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            gate.check(filename, f"unreadable tracked file: {error}", False)
            continue
        started = time.perf_counter()
        try:
            runner(gate, tracked)
        except Exception as error:  # a crash in a bench IS a regression
            gate.check(filename, f"smoke re-run crashed: {error!r}", False)
        print(f"   ({time.perf_counter() - started:.1f}s)")
    print("== summary")
    failed = gate.report()
    if failed:
        print(f"bench gate: {failed} regression(s)")
        return 1
    print("bench gate: all metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
