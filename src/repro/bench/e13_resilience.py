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

Each row is one :func:`repro.faults.scenario.run_chaos_scenario` run:
a fault profile crossed with a workload seed, reporting convergence,
the aggregation outcome, and the fault/retry counter totals from the
world's observability scope.

A second table extends the premise from links to the coordinators
themselves: :func:`repro.faults.scenario.run_crash_scenario` kills a
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

#: Fault profiles of the matrix; ``quiet`` is the control row.
def _profiles(seed: int, n_cells: int) -> dict[str, FaultPlan]:
    return {
        "quiet": FaultPlan.quiet(seed=seed),
        "lossy": FaultPlan.lossy(seed=seed),
        "flaky-cloud": FaultPlan.flaky_cloud(seed=seed),
        "stormy+churn": FaultPlan.stormy(
            seed=seed, addresses=cell_addresses(n_cells)),
    }


def _agg_outcome(report) -> str:
    if report.agg_complete:
        return "partial" if report.agg_partial else "complete"
    if report.agg_failure is not None:
        return "abandoned"
    return "hung"  # must never appear: a claim row rejects it


def run(seed: int = 0, seeds: tuple[int, ...] = (1, 2, 4),
        n_cells: int = 4, horizon: int = 8 * 3600) -> list[Table]:
    table = Table(
        title=f"E13: resilience under churn ({n_cells} cells, "
              f"{horizon // 3600} h horizon, {len(seeds)} seeds/profile)",
        columns=["profile", "seed", "converged", "aggregation",
                 "faults injected", "retries", "retries exhausted",
                 "push failures", "max staleness (s)"],
    )
    for profile_name in ("quiet", "lossy", "flaky-cloud", "stormy+churn"):
        for workload_seed in seeds:
            plan = _profiles(seed + workload_seed, n_cells)[profile_name]
            report = run_chaos_scenario(
                seed + workload_seed, plan,
                n_cells=n_cells, horizon=horizon,
            )
            table.add_row(
                profile_name, workload_seed, report.converged,
                _agg_outcome(report), report.faults_injected,
                report.retry_attempts, report.retry_exhausted,
                report.push_failures, report.max_staleness,
            )
    table.add_note("converged: every replicator drained once the faults "
                   "cleared; quiet rows must show zero faults and retries")
    return [table, _crash_table(seed)]


#: The crash scenarios: (label, topology, crash, offline cells). A
#: ``None`` crash is that topology's control; restart 30 s; the
#: no-restart row leans entirely on root failover.
def _crash_scenarios() -> list[tuple[str, str, CrashSpec | None, int]]:
    region = "fq-root.r1"
    return [
        ("flat control", "flat", None, 0),
        ("flat @collect", "flat",
         CrashSpec("fq-coordinator", at_phase="collect",
                   restart_after_s=30.0), 0),
        ("flat @recover", "flat",
         CrashSpec("fq-coordinator", at_phase="recover",
                   restart_after_s=30.0), 0),
        ("tree control", "tree", None, 0),
        ("tree root @collect", "tree",
         CrashSpec("fq-root", at_phase="collect", restart_after_s=30.0), 0),
        ("tree region @collect", "tree",
         CrashSpec(region, at_phase="collect", restart_after_s=30.0), 0),
        ("tree region, no restart", "tree",
         CrashSpec(region, at_phase="collect", restart_after_s=None), 0),
        ("tree region + 2 offline", "tree",
         CrashSpec(region, at_phase="collect", restart_after_s=30.0), 2),
    ]


def _crash_table(seed: int) -> Table:
    table = Table(
        title="E13b: coordinator crash recovery (write-ahead journal; "
              "30 cells; the tree runs them over 3 regions)",
        columns=["scenario", "outcome", "total pinned", "crashes",
                 "respawns", "reasks", "journal records", "raw leaked"],
    )
    controls: dict[str, int] = {}
    for label, topology, crash, offline in _crash_scenarios():
        row = run_crash_scenario(
            seed + 3, topology=topology, crash=crash,
            offline_cells=offline,
        )
        if crash is None:
            controls[topology] = row["field_total"]
        pinned = (row["survivor_exact"] if offline
                  else row["field_total"] == controls[topology])
        table.add_row(
            label, row["outcome"], pinned, row["crashes"],
            row["respawns"], row["reasks"], row["journal_records"],
            row["raw_in_journal"] or row["raw_in_view"],
        )
    table.add_note("total pinned: field total bit-for-bit equal to the "
                   "same topology's crash-free control (for the offline "
                   "row: exact over the survivors)")
    return table


def _recovered(row: dict) -> bool:
    return row["outcome"] == "complete" and row["total pinned"]


def _crashed(scenario: str) -> bool:
    return "control" not in scenario and "offline" not in scenario


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
          where(1, lambda row: "control" in row["scenario"] and not (
              row["crashes"] == 0 and _recovered(row))), "==", []),
    Claim("a crash recovers its control", "distributed computation", "count",
          where(1, lambda row: _crashed(row["scenario"]) and not (
              row["crashes"] >= 1 and _recovered(row))), "==", []),
    Claim("a dead region is respawned", "distributed computation", "count",
          cell(1, "tree region, no restart", "respawns"), ">=", 1),
    Claim("offline cells: partial", "distributed computation", "count",
          cell(1, "tree region + 2 offline", "outcome"), "==", "partial"),
    Claim("offline cells: survivor-exact", "distributed computation",
          "count", cell(1, "tree region + 2 offline", "total pinned"), "=="),
    Claim("no journal holds a raw encoding", "threat model", "count",
          where(1, lambda row: row["raw leaked"]), "==", []),
)
