#!/usr/bin/env python
"""Alternating-pair A/B of the layered benchmark: parent vs change.

The measurement ``choosing-metrics`` section 8 asks of every change
that touches performance, as one command instead of a hand-rolled
loop per PR:

    python tools/ab_layered.py /root/scratch/parent . \\
        --workloads flat_quiet,tree_mixed --pairs 10 --out ab.json

``PARENT`` and ``CHANGE`` are checkout directories, or git revisions
of the repository this file sits in (each is then checked out into a
temporary ``git worktree``, removed afterwards). Per workload it runs
``--pairs`` pairs of ``benchmarks/layered/run.py --trace 0`` — a fresh
seed per pair, the same seed on both sides of a pair, the order of the
two sides flipped every pair — each run a subprocess in its own
checkout, and prints one row per (workload, end-to-end metric) in the
``CHANGES.md`` table format:

    parent median (quartiles) | change median | ratio | better n/N | runs

followed by one line for every metric outside its ``BENCHMARK.json``
bound and every run with ``failed > 0`` or ``correct`` false. Exit
status 1 if there is any such line.

``--layers`` adds the "trace says why" table: after the pairs, one
``--trace 1`` run per side and workload at seed ``LAYERS_SEED``, every
per-layer metric whose value differs (parent, change, ratio) and,
apart, the host-clock-free counters among them — those must not move
unless the change meant them to. It never changes the exit status.

The benchmark is only ever *run*: nothing under ``benchmarks/layered``
is imported or edited, and the bounds are read from the change
checkout's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile
from collections.abc import Iterator
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: One run: the last stdout line of ``run.py`` in the driver's form.
Run = dict[str, Any]

#: The seed of the one traced run per side that ``--layers`` compares.
LAYERS_SEED = 2013
#: Per-layer metrics no host clock feeds: equal seeds give equal values
#: (two ``--trace 1`` runs of every workload at ``LAYERS_SEED`` repeat
#: each of them exactly; a pattern never covers an ``ms``/``s`` metric,
#: see :func:`layer_rows`). ``harness.samples`` and
#: ``harness.gc_collections`` repeat too but are left out: they count
#: ops, or the allocations of ops, that a run's time budget may cut.
CLOCK_FREE = (
    "flash.*", "page_cache.*", "network.*", "crypto.hmac_calls", "*_calls",
    "catalog.records_examined", "catalog.rows_returned",
    "catalog.examined_per_row", "catalog.plan_share.*",
    "log_store.ram_bytes", "log_store.pages_used",
    "encoding.scalar_fallback_share", "sim.events_per_op",
    "coordinator.reasks", "coordinator.recovery_rounds",
    "coordinator.demoted", "hierarchy.*", "journal.records_at_end",
    "standing.*", "trace.spans_per_op", "trace.targets_missing",
    "harness.wire_bytes_per_op", "harness.flash_bytes_per_user_byte",
    "harness.sim_latency_s",
)


# -- running -----------------------------------------------------------------


@contextlib.contextmanager
def checkout(target: str) -> Iterator[pathlib.Path]:
    """``target`` as a directory: itself, or a temporary worktree of
    the revision it names."""
    path = pathlib.Path(target)
    if path.is_dir():
        yield path.resolve()
        return
    with tempfile.TemporaryDirectory(prefix="ab_layered_") as scratch:
        tree = pathlib.Path(scratch) / "tree"
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach",
             str(tree), target],
            check=True, stdout=subprocess.DEVNULL,
        )
        try:
            yield tree
        finally:
            subprocess.run(
                ["git", "-C", str(ROOT), "worktree", "remove", "--force",
                 str(tree)],
                check=False, stdout=subprocess.DEVNULL,
            )


def run_once(tree: pathlib.Path, command: list[str], workload: str,
             seed: int, seconds: float, trace: int = 0) -> Run:
    """One benchmark run in ``tree``; its parsed result."""
    finished = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = finished.stdout.strip().splitlines()
    if finished.returncode != 0 or not lines:
        raise SystemExit(
            f"ab_layered: {workload} seed {seed} failed in {tree} "
            f"(exit {finished.returncode}):\n{finished.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["seed"] = seed
    return result


def run_pairs(parent: pathlib.Path, change: pathlib.Path,
              command: list[str], workloads: list[str], pairs: int,
              first_seed: int, seconds: float,
              ) -> dict[str, dict[str, list[Run]]]:
    """``{workload: {"parent": [...], "change": [...]}}``, runs in
    pair order."""
    results: dict[str, dict[str, list[Run]]] = {}
    sides = (("parent", parent), ("change", change))
    for workload in workloads:
        runs = results[workload] = {"parent": [], "change": []}
        for pair in range(pairs):
            seed = first_seed + pair
            for side, tree in sides if pair % 2 == 0 else sides[::-1]:
                result = run_once(tree, command, workload, seed, seconds)
                runs[side].append(result)
                print(f"# {workload} pair {pair + 1}/{pairs} seed {seed} "
                      f"{side}: ops_per_s "
                      f"{_value(result, 'ops_per_s'):.4g}",
                      file=sys.stderr, flush=True)
    return results


# -- summarising -------------------------------------------------------------


def _value(run: Run, metric: str) -> float:
    return float(run["metrics"][metric]["value"])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(
        values, n=4, method="inclusive")
    return first, median, third


def summarise(results: dict[str, dict[str, list[Run]]],
              benchmark: dict[str, Any]) -> list[dict[str, Any]]:
    """One row per (workload, end-to-end metric), plus its verdict.

    ``better`` counts the pairs the change won (ties count for neither
    side). ``worse_by`` is the share by which the change's median is
    worse than the parent's (negative: better). The verdict is
    ``gain`` (the change won at least nine tenths of the pairs and the
    medians differ by more than the parent's inter-quartile distance),
    ``unresolved`` (the parent's own quartile spread is wider than the
    metric's bound, so the medians cannot say "unchanged" — unless
    every run of the change reads better than every run of the parent),
    ``regressed`` (worse by more than the bound), else ``ok``.
    """
    rows = []
    for workload, sides in results.items():
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            before = [_value(run, name) for run in sides["parent"]]
            after = [_value(run, name) for run in sides["change"]]
            first, base, third = _quartiles(before)
            new = statistics.median(after)
            wins = sum(sign * (b - a) > 0 for b, a in zip(before, after))
            worse_by = sign * (new - base) / abs(base) if base else 0.0
            spread = third - first
            if wins * 10 >= 9 * len(before) and sign * (base - new) > spread:
                verdict = "gain"
            elif spread > metric["bound"] * abs(base) and not (
                    max(sign * a for a in after)
                    < min(sign * b for b in before)):
                verdict = "unresolved"
            elif worse_by <= metric["bound"]:
                verdict = "ok"
            else:
                verdict = "regressed"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "bound": metric["bound"], "parent_median": base,
                "parent_q1": first, "parent_q3": third,
                "change_median": new,
                "ratio": new / base if base else float("nan"),
                "better": wins, "pairs": len(before), "worse_by": worse_by,
                "verdict": verdict, "parent_runs": before,
                "change_runs": after,
            })
    return rows


def failures(results: dict[str, dict[str, list[Run]]]) -> list[str]:
    """A line for every run that failed an op or its oracle."""
    return [
        f"{workload} {side} seed {run['seed']}: failed {run['failed']}"
        f"/{run['attempted']}, correct {run['correct']}"
        for workload, sides in results.items()
        for side, runs in sides.items() for run in runs
        if run["failed"] or not run["correct"]
    ]


def _number(value: float) -> str:
    return f"{value:.3g}" if abs(value) < 100 else f"{value:.4g}"


def format_table(rows: list[dict[str, Any]]) -> str:
    lines = [
        "| workload | metric | parent | change | ratio | better "
        "| parent runs | change runs |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        lines.append(
            f"| {row['workload']} | {row['metric']} "
            f"| {_number(row['parent_median'])} "
            f"({_number(row['parent_q1'])}–{_number(row['parent_q3'])}) "
            f"| {_number(row['change_median'])} | {row['ratio']:.3f} "
            f"| {row['better']}/{row['pairs']} "
            f"| {' '.join(_number(v) for v in row['parent_runs'])} "
            f"| {' '.join(_number(v) for v in row['change_runs'])} |"
        )
    return "\n".join(lines)


def flags(rows: list[dict[str, Any]]) -> list[str]:
    """A line for every metric outside its bound."""
    return [
        f"{row['workload']} {row['metric']}: {row['verdict']} "
        f"({row['worse_by']:+.1%} vs bound {row['bound']:.0%})"
        for row in rows if row["verdict"] in ("regressed", "unresolved")
    ]


# -- the per-layer comparison -------------------------------------------------


def layer_rows(parent: Run, change: Run) -> list[dict[str, Any]]:
    """One row per per-layer metric whose value differs between two
    traced runs; ``clock_free`` marks the counters no host clock feeds
    (a wall-time metric that happens to match a pattern is not one)."""
    rows = []
    for name, before in parent["metrics"].items():
        after = change["metrics"].get(name)
        if after is None or after["value"] == before["value"]:
            continue
        unit = before.get("unit", "")
        rows.append({
            "metric": name, "unit": unit,
            "parent": before["value"], "change": after["value"],
            "ratio": after["value"] / before["value"]
            if before["value"] else float("nan"),
            "clock_free": unit not in ("ms", "s") and any(
                fnmatch.fnmatchcase(name, pattern) for pattern in CLOCK_FREE),
        })
    return rows


def format_layers(workload: str, rows: list[dict[str, Any]]) -> str:
    lines = [
        f"layers: {workload} --trace 1 --seed {LAYERS_SEED}",
        "| metric | unit | parent | change | ratio |",
        "|---|---|---|---|---|",
    ]
    lines += [
        f"| {row['metric']} | {row['unit']} | {_number(row['parent'])} "
        f"| {_number(row['change'])} | {row['ratio']:.3f} |"
        for row in rows
    ]
    moved = [row for row in rows if row["clock_free"]]
    lines += [
        f"MOVED {workload} {row['metric']}: {row['parent']!r} -> "
        f"{row['change']!r}" for row in moved
    ] or [f"host-clock-free counters: none moved ({workload})"]
    return "\n".join(lines)


# -- entry point -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("parent", help="checkout directory or git revision")
    parser.add_argument("change", help="checkout directory or git revision")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: every workload)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--out", default=None,
                        help="also write every run and row here as JSON")
    parser.add_argument("--layers", action="store_true",
                        help="then one traced run per side: the per-layer "
                             "metrics that differ")
    args = parser.parse_args(argv)
    with checkout(args.parent) as parent, checkout(args.change) as change:
        benchmark = json.loads((change / "BENCHMARK.json").read_text())
        workloads = args.workloads.split(",") if args.workloads else [
            entry["name"] for entry in benchmark["workloads"]]
        results = run_pairs(
            parent, change, benchmark["command"], workloads, args.pairs,
            args.seed, benchmark["run_seconds"],
        )
        layers = {}
        for workload in workloads if args.layers else []:
            traced = [
                run_once(tree, benchmark["command"], workload, LAYERS_SEED,
                         benchmark["run_seconds"], trace=1)
                for tree in (parent, change)
            ]
            layers[workload] = layer_rows(*traced)
    rows = summarise(results, benchmark)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(
            {"results": results, "rows": rows, "layers": layers}, indent=1))
    print(format_table(rows))
    for workload, differing in layers.items():
        print(format_layers(workload, differing))
    problems = flags(rows) + failures(results)
    for line in problems:
        print("FLAG", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
