"""E13 — resilience under churn: the stack against seeded fault plans.

Operationalizes the paper's operational-unreliability premise: trusted
cells are "weakly connected" and the supporting infrastructure can fail
transiently without being malicious. The measured claim is *graceful
degradation*: under seeded message loss, duplication, latency spikes,
endpoint churn and transient cloud failures, replication still
converges once connectivity returns, and the asynchronous aggregation
reaches a terminal state (complete, partial, or flagged) instead of
hanging — while the fault-free control rows record zero faults and
zero retries, showing the fault plane is pay-as-you-go.

The first table renders :func:`measure_resilience`, the rows
``BENCH_aggregation.json`` tracks as ``resilience``: one
:func:`repro.faults.scenario.run_chaos_scenario` run per fault profile
and workload seed, at the tracked size (4 cells, 8 h, seeds 1, 2, 4).
Transient cloud failures ride in the ``stormy+churn`` profile (its
``cloud_put`` faults and their retries).

The second table renders :func:`measure_crashes`, the matrix
``BENCH_fedquery.json`` tracks as ``crash_matrix``: it kills a
federated-query coordinator mid-query (flat, a regional coordinator,
or the tree root) and restarts it — or, for the no-restart row, leaves
it dead so root failover must respawn it. The measured claim is that a
crash is *recoverable* state loss, not data loss: the restarted
coordinator replays its write-ahead journal and lands on a total
bit-for-bit equal to the crash-free control, and no journal ever holds
a raw per-cell encoding.
"""

from __future__ import annotations

from ..faults.plan import CrashSpec, FaultPlan
from ..faults.scenario import (
    cell_addresses,
    run_chaos_scenario,
    run_crash_scenario,
)
from .claims import Claim
from .tables import Table, cell, where


def measure_resilience(seeds, n_cells: int = 4,
                       horizon: int = 8 * 3600) -> dict:
    """Chaos rows: the full stack per fault profile, with the
    fault/retry counter totals each run recorded.

    Each run owns a fresh ``World`` (its own observability scope), so
    the totals are per-row, not cumulative across the matrix. The
    ``quiet`` rows are the control: with the injector idle they must
    record zero faults and zero retries — the fault plane's
    pay-as-you-go claim.
    """
    def plan_for(profile: str, seed: int) -> FaultPlan:
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


# The crash matrix is small and scale-independent: the recovery
# invariants (bit-for-bit pinned totals, clean controls, empty leakage
# audit) do not depend on fleet size, and the fully seeded sim makes
# every row deterministic — so the tracked section is held to byte
# equality by the fedquery bench's smoke.
CRASH_CELLS = 30
CRASH_NEIGHBORS = 4
CRASH_TREE_CELLS = 60
CRASH_TREE_REGIONS = 3
CRASH_SEED = 3
CRASH_RESTART_S = 30.0

FLAT_ADDRESS = "fq-coordinator"
ROOT_ADDRESS = "fq-root"


def measure_crashes(seed: int = CRASH_SEED) -> dict:
    """Coordinator crash/restart at each query phase, flat and tree.

    Every row is one :func:`run_crash_scenario` run: a quiet fleet, at
    most one injected coordinator crash, and a write-ahead journal on
    every coordinator. The controls (no crash) must stay clean — zero
    faults, zero re-asks, ``complete``. The crash rows must *recover*:
    the restarted coordinator replays its journal, resumes the query,
    and — because every cell's cached partial makes re-asks
    idempotent — lands on a total bit-for-bit equal to the control's.
    The respawn-less region row crashes a regional coordinator with no
    scheduled restart and leans on root failover (``_before_reask``)
    instead. The offline row combines a crash with permanently dark
    cells and must settle to a survivor-exact ``partial``. No journal
    and no coordinator view may ever contain a raw field encoding.
    """

    def flat(profile: str, crash: CrashSpec | None = None, **kwargs) -> dict:
        row = run_crash_scenario(
            seed, topology="flat", crash=crash,
            n_cells=CRASH_CELLS, neighbors=CRASH_NEIGHBORS, **kwargs,
        )
        return {"profile": profile, **row}

    def tree(profile: str, crash: CrashSpec | None = None, **kwargs) -> dict:
        row = run_crash_scenario(
            seed, topology="tree", crash=crash,
            n_cells=CRASH_TREE_CELLS, regions=CRASH_TREE_REGIONS,
            neighbors=CRASH_NEIGHBORS, **kwargs,
        )
        return {"profile": profile, **row}

    region = f"{ROOT_ADDRESS}.r1"
    rows = [flat("flat-quiet")]
    rows += [
        flat(f"flat-crash-{phase}", CrashSpec(
            FLAT_ADDRESS, at_phase=phase, restart_after_s=CRASH_RESTART_S,
        ))
        for phase in ("fanout", "collect", "recover")
    ]
    rows.append(tree("tree-quiet"))
    rows += [
        tree(f"tree-root-{phase}", CrashSpec(
            ROOT_ADDRESS, at_phase=phase, restart_after_s=CRASH_RESTART_S,
        ))
        for phase in ("fanout", "collect", "recover")
    ]
    rows.append(tree("tree-region-collect", CrashSpec(
        region, at_phase="collect", restart_after_s=CRASH_RESTART_S,
    )))
    rows.append(tree("tree-region-norestart", CrashSpec(
        region, at_phase="collect", restart_after_s=None,
    )))
    rows.append(tree("tree-crash-offline", CrashSpec(
        region, at_phase="collect", restart_after_s=CRASH_RESTART_S,
    ), offline_cells=2))

    by_profile = {row["profile"]: row for row in rows}
    flat_control = by_profile["flat-quiet"]
    tree_control = by_profile["tree-quiet"]
    crash_rows = [row for row in rows if row["crash_address"] is not None]
    full_survivor = [
        row for row in crash_rows if row["offline_cells"] == 0
    ]
    return {
        "flat_cells": CRASH_CELLS,
        "tree_cells": CRASH_TREE_CELLS,
        "regions": CRASH_TREE_REGIONS,
        "masking_neighbors": CRASH_NEIGHBORS,
        "rows": rows,
        "no_crash_clean": all(
            row["crashes"] == 0
            and row["faults_injected"] == 0
            and row["reasks"] == 0
            and row["outcome"] == "complete"
            for row in (flat_control, tree_control)
        ),
        "recovered_totals_pinned": all(
            row["outcome"] == "complete"
            and row["crashes"] >= 1
            and row["field_total"] == (
                flat_control if row["topology"] == "flat" else tree_control
            )["field_total"]
            for row in full_survivor
        ),
        "failover_respawns": by_profile["tree-region-norestart"]["respawns"],
        "degraded_survivor_exact": (
            by_profile["tree-crash-offline"]["outcome"] == "partial"
            and by_profile["tree-crash-offline"]["survivor_exact"]
        ),
        "raw_leaked": any(
            row["raw_in_journal"] or row["raw_in_view"] for row in rows
        ),
    }


def run(seeds: tuple[int, ...] = (1, 2, 4), n_cells: int = 4,
        horizon: int = 8 * 3600) -> list[Table]:
    chaos = measure_resilience(seeds, n_cells, horizon)
    table = Table(
        title=f"E13: resilience under churn ({n_cells} cells, "
              f"{horizon // 3600} h horizon, {len(seeds)} seeds/profile)",
        columns=["profile", "seed", "converged", "aggregation",
                 "faults injected", "cloud faults", "retries",
                 "retries exhausted", "push failures", "max staleness (s)"],
    )
    for row in chaos["rows"]:
        table.add_row(
            row["profile"], row["seed"], row["converged"], row["aggregation"],
            row["faults_injected"], row["fault_counts"].get("cloud_put", 0),
            row["retry_attempts"], row["retry_exhausted"],
            row["push_failures"], row["max_staleness_s"],
        )
    table.add_note("converged: every replicator drained once the faults "
                   "cleared; quiet rows must show zero faults and retries; "
                   "cloud faults: transient cloud-put failures, each retried")
    return [table, _crash_table(measure_crashes())]


def _crash_table(matrix: dict) -> Table:
    table = Table(
        title="E13b: coordinator crash recovery (write-ahead journal; "
              f"{matrix['flat_cells']} cells flat, "
              f"{matrix['tree_cells']} over {matrix['regions']} regions)",
        columns=["profile", "outcome", "total pinned", "crashes",
                 "respawns", "reasks", "journal records", "raw leaked"],
    )
    controls = {row["topology"]: row["field_total"]
                for row in matrix["rows"] if row["crash_address"] is None}
    for row in matrix["rows"]:
        pinned = (row["survivor_exact"] if row["offline_cells"]
                  else row["field_total"] == controls[row["topology"]])
        table.add_row(
            row["profile"], row["outcome"], pinned, row["crashes"],
            row["respawns"], row["reasks"], row["journal_records"],
            row["raw_in_journal"] or row["raw_in_view"],
        )
    table.add_note("total pinned: field total bit-for-bit equal to the "
                   "same topology's crash-free control (for the offline "
                   "row: exact over the survivors)")
    return table


def _recovered(row: dict) -> bool:
    return row["outcome"] == "complete" and row["total pinned"]


def _control(profile: str) -> bool:
    return profile.endswith("-quiet")


def _crashed(profile: str) -> bool:
    return not _control(profile) and "offline" not in profile


CLAIMS = (
    Claim("every replicator converges", "acquire/sync data", "count",
          where(0, lambda row: not row["converged"]), "==", []),
    Claim("every aggregation terminates", "distributed computation", "count",
          where(0, lambda row: row["aggregation"] not in (
              "complete", "partial", "abandoned")), "==", []),
    Claim("every fault profile injects faults", "distributed computation",
          "count", where(0, lambda row: row["profile"] != "quiet"
                         and not row["faults injected"] > 0), "==", []),
    Claim("quiet: no fault, no retry", "distributed computation", "count",
          where(0, lambda row: row["profile"] == "quiet" and not (
              row["faults injected"] == 0 and row["retries"] == 0)), "==", []),
    Claim("controls: no crash, complete", "distributed computation", "count",
          where(1, lambda row: _control(row["profile"]) and not (
              row["crashes"] == 0 and _recovered(row))), "==", []),
    Claim("a crash recovers its control", "distributed computation", "count",
          where(1, lambda row: _crashed(row["profile"]) and not (
              row["crashes"] >= 1 and _recovered(row))), "==", []),
    Claim("a dead region is respawned", "distributed computation", "count",
          cell(1, "tree-region-norestart", "respawns"), ">=", 1),
    Claim("offline cells: partial", "distributed computation", "count",
          cell(1, "tree-crash-offline", "outcome"), "==", "partial"),
    Claim("offline cells: survivor-exact", "distributed computation",
          "count", cell(1, "tree-crash-offline", "total pinned"), "=="),
    Claim("no journal holds a raw encoding", "threat model", "count",
          where(1, lambda row: row["raw leaked"]), "==", []),
)
