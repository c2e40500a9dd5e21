"""Tracked aggregation-scale benchmark.

Measures masked-sum throughput (nodes/sec) and keyed-derivation counts
across population sizes and masking graphs, plus the histogram
keystream collapse, and emits ``BENCH_aggregation.json`` at the repo
root so later PRs can track the trajectory.

Two entry points:

* ``pytest -q benchmarks/bench_aggregation_scale.py --benchmark-disable``
  — the tier-1 smoke run: small populations (``smoke_report()``), held
  with the tracked JSON to the ``CLAIMS`` rows, writes nothing.
* ``PYTHONPATH=src python benchmarks/bench_aggregation_scale.py`` —
  the full run (N up to 2000); rewrites ``BENCH_aggregation.json``.

Key establishment (Diffie-Hellman) is out of scope — a deployment pays
it once per peer and reuses the key across every round — so the
populations use :meth:`AggregationNode.preshared` keys and the numbers
isolate per-round masking cost.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.commons.aggregation import (
    AggregationNode,
    MaskedSum,
    masked_histogram,
)
from repro.crypto import shamir
from repro.crypto.primitives import hmac_invocations, hmac_sha256
from repro.obs import get_default

try:
    from benchmarks.claims import Claim, assert_claims
except ImportError:  # run as a script: benchmarks/ itself is on sys.path
    from claims import Claim, assert_claims

OBS = get_default()

REPORT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_aggregation.json"

FULL_SIZES = (100, 500, 2000)
FULL_NEIGHBORS = 32
FULL_HISTOGRAM_N = 200
FULL_HISTOGRAM_BUCKETS = 24

SMOKE_SIZES = (60, 150)
SMOKE_NEIGHBORS = 8
SMOKE_HISTOGRAM_N = 80
SMOKE_HISTOGRAM_BUCKETS = 12


def _population(size: int, group: bytes, *, cache_masks: bool) -> tuple[list, dict]:
    nodes = [
        AggregationNode.preshared(f"n-{i}", group, cache_masks=cache_masks)
        for i in range(size)
    ]
    values = {node.name: (i * 37 + 11) % 5000 for i, node in enumerate(nodes)}
    return nodes, values


def measure_masked_sum(size: int, neighbors: int | None) -> dict:
    """One full-availability masked-sum round; returns a report row."""
    nodes, values = _population(size, b"bench-scale", cache_masks=False)
    expected = sum(values.values())
    before = hmac_invocations()
    started = time.perf_counter()
    result = MaskedSum(neighbors=neighbors).run(
        nodes, values, round_tag=f"bench-{size}-{neighbors}"
    )
    elapsed = time.perf_counter() - started
    # the protocol's own span (stamped by the default tracer) gives the
    # round time as the observability layer saw it
    round_span = OBS.tracer.last("agg.round")
    return {
        "n": size,
        "graph": "complete" if neighbors is None else f"k={neighbors}",
        "seconds": round(elapsed, 4),
        "nodes_per_sec": round(size / elapsed, 1),
        "span_seconds": (
            round(round_span.duration, 4) if round_span is not None else None
        ),
        "hmac_derivations": hmac_invocations() - before,
        "messages": result.messages,
        "exact": shamir.decode_signed(result.total) == expected,
    }


def _legacy_histogram_derivations(nodes, bucket_of, bucket_count, online,
                                  round_tag) -> dict:
    """The seed path: one HMAC per (pair, round, component), no cache.

    Kept as a measured baseline so the keystream collapse stays an
    observed number, not a formula.
    """
    order = {node.name: position for position, node in enumerate(nodes)}
    survivors = [node for node in nodes if node.name in online]
    dropped = [node for node in nodes if node.name not in online]
    sums = [0] * bucket_count
    before = hmac_invocations()
    started = time.perf_counter()
    for node in survivors:
        vector = [0] * bucket_count
        vector[bucket_of[node.name]] = 1
        for peer in nodes:
            if peer.name == node.name:
                continue
            key = node._pairwise_key_for(peer)
            sign = 1 if order[node.name] < order[peer.name] else -1
            for component in range(bucket_count):
                digest = hmac_sha256(
                    key, f"mask|{round_tag}|{component}".encode()
                )
                mask = int.from_bytes(digest, "big") % shamir.PRIME
                vector[component] = (vector[component] + sign * mask) % shamir.PRIME
        for component, masked in enumerate(vector):
            sums[component] = (sums[component] + masked) % shamir.PRIME
    for node in survivors:
        for gone in dropped:
            key = node._pairwise_key_for(gone)
            sign = -1 if order[node.name] < order[gone.name] else 1
            for component in range(bucket_count):
                digest = hmac_sha256(
                    key, f"mask|{round_tag}|{component}".encode()
                )
                mask = int.from_bytes(digest, "big") % shamir.PRIME
                sums[component] = (sums[component] + sign * mask) % shamir.PRIME
    elapsed = time.perf_counter() - started
    counts = [shamir.decode_signed(component) for component in sums]
    return {
        "seconds": round(elapsed, 4),
        "hmac_derivations": hmac_invocations() - before,
        "counts": counts,
    }


def measure_histogram(size: int, bucket_count: int, *,
                      include_legacy: bool) -> dict:
    """Keystream histogram vs the seed per-component path, with dropouts."""
    nodes, _ = _population(size, b"bench-hist", cache_masks=True)
    bucket_of = {node.name: i % bucket_count for i, node in enumerate(nodes)}
    online = {node.name for i, node in enumerate(nodes) if i % 20 != 0}
    dropped = size - len(online)
    before = hmac_invocations()
    started = time.perf_counter()
    counts, accounting = masked_histogram(
        nodes, bucket_of, bucket_count=bucket_count, online=online,
        round_tag="bench-hist",
    )
    elapsed = time.perf_counter() - started
    keystream_derivations = hmac_invocations() - before
    bound = size * size + size * dropped
    report = {
        "n": size,
        "buckets": bucket_count,
        "dropped": dropped,
        "keystream": {
            "seconds": round(elapsed, 4),
            "hmac_derivations": keystream_derivations,
        },
        "hmac_bound_n2_plus_nd": bound,
        "within_bound": keystream_derivations <= bound,
        "exact": sum(counts) == len(online),
    }
    if include_legacy:
        for node in nodes:
            node.flush_masks()
        legacy = _legacy_histogram_derivations(
            nodes, bucket_of, bucket_count, online, "bench-hist-legacy"
        )
        report["legacy_per_component"] = {
            "seconds": legacy["seconds"],
            "hmac_derivations": legacy["hmac_derivations"],
        }
        report["legacy_matches"] = legacy["counts"] == counts
        report["hmac_collapse_factor"] = round(
            legacy["hmac_derivations"] / keystream_derivations, 1
        )
    return report


def measure_obs_overhead(size: int, neighbors: int, rounds: int = 3) -> dict:
    """Same masked round with observability enabled vs disabled.

    The per-round instrumentation is one span + one event + three
    counter bumps (the HMAC oracle counts in both modes), so the two
    rates should be statistically indistinguishable; the acceptance bar
    is a < 5% penalty either way. Best-of-``rounds`` to damp scheduler
    noise.
    """
    def best_rate(enabled: bool) -> float:
        rates = []
        for attempt in range(rounds):
            nodes, values = _population(size, b"bench-ovh", cache_masks=False)
            if enabled:
                OBS.enable()
            else:
                OBS.disable()
            try:
                started = time.perf_counter()
                MaskedSum(neighbors=neighbors).run(
                    nodes, values, round_tag=f"ovh-{enabled}-{attempt}"
                )
                rates.append(size / (time.perf_counter() - started))
            finally:
                OBS.enable()
        return max(rates)

    enabled_rate = best_rate(True)
    disabled_rate = best_rate(False)
    return {
        "n": size,
        "graph": f"k={neighbors}",
        "enabled_nodes_per_sec": round(enabled_rate, 1),
        "disabled_nodes_per_sec": round(disabled_rate, 1),
        "disabled_over_enabled": round(disabled_rate / enabled_rate, 3),
    }


def _observability_section(overhead_n: int, neighbors: int) -> dict:
    """Counter/span export for the tracked JSON (stable schema)."""
    counters = {}
    for name in ("crypto.hmac.calls", "agg.messages", "agg.bytes"):
        metric = OBS.metrics.get(name)
        counters[name] = int(metric.value) if metric is not None else 0
    rounds_metric = OBS.metrics.get("agg.rounds")
    rounds_by_protocol = (
        rounds_metric.snapshot().get("labels", {})
        if rounds_metric is not None else {}
    )
    round_spans = OBS.tracer.spans("agg.round")
    recovery_spans = OBS.tracer.spans("agg.recovery")
    return {
        "schema": 1,
        "counters": counters,
        "rounds_by_protocol": rounds_by_protocol,
        "spans": {
            "agg.round": {
                "count": len(round_spans),
                "total_seconds": round(
                    sum(span.duration for span in round_spans), 4
                ),
            },
            "agg.recovery": {
                "count": len(recovery_spans),
                "total_seconds": round(
                    sum(span.duration for span in recovery_spans), 4
                ),
            },
        },
        "overhead": measure_obs_overhead(overhead_n, neighbors),
    }


FULL_RESILIENCE_SEEDS = (1, 2, 4)
FULL_RESILIENCE_HORIZON = 8 * 3600

SMOKE_RESILIENCE_SEEDS = (1, 2)
SMOKE_RESILIENCE_HORIZON = 4 * 3600


def _resilience_section(seeds, n_cells: int = 4,
                        horizon: int = FULL_RESILIENCE_HORIZON) -> dict:
    """Chaos rows for the tracked JSON: the full stack per fault
    profile, with the fault/retry counter totals each run recorded.

    Each run owns a fresh ``World`` (its own observability scope), so
    the totals are per-row, not cumulative across the matrix. The
    ``quiet`` rows are the control: with the injector idle they must
    record zero faults and zero retries — that is the guarded
    no-fault-path claim, the fault plane's analogue of the
    observability overhead ratio above.
    """
    from repro.faults import FaultPlan
    from repro.faults.scenario import cell_addresses, run_chaos_scenario

    def plan_for(profile: str, seed: int) -> "FaultPlan":
        if profile == "quiet":
            return FaultPlan.quiet(seed=seed)
        if profile == "lossy":
            return FaultPlan.lossy(seed=seed)
        return FaultPlan.stormy(seed=seed, addresses=cell_addresses(n_cells))

    rows = []
    for profile in ("quiet", "lossy", "stormy+churn"):
        for seed in seeds:
            report = run_chaos_scenario(
                seed, plan_for(profile, seed), n_cells=n_cells,
                horizon=horizon,
            )
            rows.append({
                "profile": profile,
                "seed": seed,
                "converged": report.converged,
                "aggregation": (
                    ("partial" if report.agg_partial else "complete")
                    if report.agg_complete
                    else ("abandoned" if report.agg_failure else "hung")
                ),
                "faults_injected": report.faults_injected,
                "fault_counts": report.fault_counts,
                "retry_attempts": report.retry_attempts,
                "retry_exhausted": report.retry_exhausted,
                "push_failures": report.push_failures,
                "max_staleness_s": report.max_staleness,
            })
    control = [row for row in rows if row["profile"] == "quiet"]
    return {
        "schema": 1,
        "n_cells": n_cells,
        "horizon_s": horizon,
        "rows": rows,
        "no_fault_path_clean": all(
            row["faults_injected"] == 0 and row["retry_attempts"] == 0
            and row["push_failures"] == 0 for row in control
        ),
    }


def build_report(sizes=FULL_SIZES, neighbors=FULL_NEIGHBORS,
                 histogram_n=FULL_HISTOGRAM_N,
                 histogram_buckets=FULL_HISTOGRAM_BUCKETS,
                 include_legacy: bool = True,
                 resilience_seeds=FULL_RESILIENCE_SEEDS,
                 resilience_horizon: int = FULL_RESILIENCE_HORIZON) -> dict:
    OBS.reset()
    OBS.enable()
    rows = []
    for size in sizes:
        rows.append(measure_masked_sum(size, None))
        rows.append(measure_masked_sum(size, neighbors))
    largest = max(sizes)
    by_key = {(row["n"], row["graph"]): row for row in rows}
    complete_rate = by_key[(largest, "complete")]["nodes_per_sec"]
    sparse_rate = by_key[(largest, f"k={neighbors}")]["nodes_per_sec"]
    return {
        "benchmark": "aggregation_scale",
        "command": "PYTHONPATH=src python benchmarks/bench_aggregation_scale.py",
        "field_bits": shamir.PRIME.bit_length(),
        "neighbors": neighbors,
        "masked_sum": rows,
        "speedup_at_max_n": round(sparse_rate / complete_rate, 1),
        "histogram": measure_histogram(
            histogram_n, histogram_buckets, include_legacy=include_legacy
        ),
        "observability": _observability_section(min(sizes), neighbors),
        "resilience": _resilience_section(
            resilience_seeds, horizon=resilience_horizon
        ),
    }


def smoke_report() -> dict:
    return build_report(
        sizes=SMOKE_SIZES,
        neighbors=SMOKE_NEIGHBORS,
        histogram_n=SMOKE_HISTOGRAM_N,
        histogram_buckets=SMOKE_HISTOGRAM_BUCKETS,
        include_legacy=True,
        resilience_seeds=SMOKE_RESILIENCE_SEEDS,
        resilience_horizon=SMOKE_RESILIENCE_HORIZON,
    )


def write_report(path: pathlib.Path = REPORT_PATH) -> dict:
    report = build_report()
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


# -- claims ------------------------------------------------------------------


def _largest_sparse(report: dict) -> dict:
    return max((row for row in report["masked_sum"]
                if row["graph"] != "complete"), key=lambda row: row["n"])


def _hmacs_per_node_per_neighbour(report: dict) -> list[float]:
    """Keyed derivations per node per masking-graph neighbour, every row
    — the vectorized kernels must touch key material exactly this often."""
    return sorted({
        row["hmac_derivations"] / row["n"] / (
            row["n"] - 1 if row["graph"] == "complete"
            else report["neighbors"])
        for row in report["masked_sum"]
    })


def _sparse_over_complete_rate(report: dict) -> float:
    rates = {(row["n"], row["graph"]): row["nodes_per_sec"]
             for row in report["masked_sum"]}
    return min(rates[n, f"k={report['neighbors']}"] / rates[n, "complete"]
               for n, _ in rates)


CLAIMS = (
    Claim("every masked sum is exact", "egress gate/mask kernels", "count",
          lambda r: all(row["exact"] for row in r["masked_sum"]), "=="),
    Claim("one HMAC per node per masking-graph neighbour",
          "egress gate/mask kernels", "count",
          _hmacs_per_node_per_neighbour, "==", [1.0]),
    Claim("wall per mask HMAC, largest k-regular row",
          "egress gate/mask kernels", "host",
          lambda r: (_largest_sparse(r)["seconds"]
                     / _largest_sparse(r)["hmac_derivations"]), "ratio", 10),
    Claim("k-regular round outpaces the complete graph at every n",
          "egress gate/mask kernels", "host",
          _sparse_over_complete_rate, ">", 1.0),
    Claim("k-regular speedup at the largest n", "egress gate/mask kernels",
          "host", lambda r: r["speedup_at_max_n"], ">=", 10, sides="tracked"),
    Claim("every round carries its span timing", "egress gate/mask kernels",
          "host", lambda r: all(row["span_seconds"] is not None
                                for row in r["masked_sum"]), "=="),
    Claim("histogram exact under dropouts", "egress gate/mask kernels",
          "count", lambda r: r["histogram"]["exact"], "=="),
    Claim("keystream HMACs within n^2 + n*d", "egress gate/mask kernels",
          "count", lambda r: r["histogram"]["within_bound"], "=="),
    Claim("keystream counts match the per-component path",
          "egress gate/mask kernels", "count",
          lambda r: r["histogram"]["legacy_matches"], "=="),
    Claim("keystream derives fewer HMACs than per-component",
          "egress gate/mask kernels", "count",
          lambda r: (r["histogram"]["legacy_per_component"]["hmac_derivations"]
                     / r["histogram"]["keystream"]["hmac_derivations"]),
          ">", 1),
    Claim("observability section schema", "egress gate/mask kernels",
          "count", lambda r: r["observability"]["schema"], "==", 1),
    Claim("exported counters", "egress gate/mask kernels", "count",
          lambda r: sorted(r["observability"]["counters"]), "==",
          ["agg.bytes", "agg.messages", "crypto.hmac.calls"]),
    Claim("HMAC ledger counts", "crypto primitives", "count",
          lambda r: r["observability"]["counters"]["crypto.hmac.calls"],
          ">", 0),
    Claim("an agg.round span per masked-sum row at least",
          "egress gate/mask kernels", "count",
          lambda r: (r["observability"]["spans"]["agg.round"]["count"]
                     / len(r["masked_sum"])), ">=", 1),
    Claim("histogram dropouts open a recovery span",
          "egress gate/mask kernels", "count",
          lambda r: r["observability"]["spans"]["agg.recovery"]["count"],
          ">=", 1),
    Claim("observability overhead rates measured", "egress gate/mask kernels",
          "host", lambda r: min(
              r["observability"]["overhead"][key] for key in (
                  "enabled_nodes_per_sec", "disabled_nodes_per_sec",
                  "disabled_over_enabled")), ">", 0, sides="live"),
    Claim("observability costs under 5 % (disabled over enabled rate)",
          "egress gate/mask kernels", "host",
          lambda r: r["observability"]["overhead"]["disabled_over_enabled"],
          ">", 0.95, sides="tracked"),
    Claim("resilience section schema", "sim loop/network", "count",
          lambda r: r["resilience"]["schema"], "==", 1),
    Claim("quiet chaos control clean", "sim loop/network", "count",
          lambda r: r["resilience"]["no_fault_path_clean"], "=="),
    Claim("every chaos run converges", "sim loop/network", "count",
          lambda r: all(row["converged"] for row in r["resilience"]["rows"]),
          "=="),
    Claim("no chaos aggregation hangs", "sim loop/network", "count",
          lambda r: all(row["aggregation"] in ("complete", "partial",
                                               "abandoned")
                        for row in r["resilience"]["rows"]), "=="),
    Claim("faulted chaos profiles inject faults", "sim loop/network", "count",
          lambda r: min(row["faults_injected"]
                        for row in r["resilience"]["rows"]
                        if row["profile"] != "quiet"), ">", 0),
)


# -- tier-1 smoke ------------------------------------------------------------


def test_aggregation_scale_smoke():
    """Small-population run of the full pipeline, held to ``CLAIMS``;
    keeps the bench alive under ``pytest -q
    benchmarks/bench_aggregation_scale.py --benchmark-disable`` without
    rewriting the tracked JSON."""
    report = smoke_report()
    json.dumps(report)  # must stay serializable
    assert_claims(CLAIMS, report, REPORT_PATH)


if __name__ == "__main__":
    outcome = write_report()
    print(json.dumps(outcome, indent=2))
