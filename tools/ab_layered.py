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

``--heap`` adds a memory budget the way ``--layers`` explains wall
time: one more ``--trace 0`` run per side and workload at
``LAYERS_SEED``, with ``tracemalloc`` started before the benchmark
imports anything and one snapshot taken when the runner releases the
workload's heap (its ``gc.unfreeze()`` after the last op, while the
world built in set-up is still alive; at exit if it never does). It
prints the MB still allocated per source file, parent beside change,
largest first, and under it the same for the largest single source
lines (``file:line``, where each block was allocated). Under
``tracemalloc`` a run is slower and so completes fewer ops than a
timed one: the census says *where* the memory is, the timed pairs'
``peak_rss_mb`` says how much. It never changes the exit status
either.

``--lanes`` adds the "did the traffic take the lane we think" table:
one more ``--trace 0`` run per side and workload at ``LAYERS_SEED``
that, at exit, reads the process-default lane counters
(``LANE_COUNTERS``: decode lanes, page gathers and why, aggregate
lanes and why, ingest lanes and why, mask-row sources, page-cache hits
and misses) and prints every label's count, parent beside change. No host clock feeds
them: two runs of one side at one seed repeat each count. It never
changes the exit status.

``--opcodes`` adds the host-clock-free ruler for "did this add work
to a small op": one more ``--trace 0`` run per side and workload at
``LAYERS_SEED`` and ``--seconds`` ``OPCODE_SECONDS`` (one op group of
each workload), under a counter of the bytecodes each ``src/repro``
file executes inside the harness's timed calls (``Sampler.sample``:
set-up and the oracle checks between ops are not counted) —
``f_trace_opcodes`` under ``sys.settrace`` up to Python 3.11,
``sys.monitoring`` instruction events from 3.12 — with
``PYTHONHASHSEED=0``. It prints bytecodes per op (the run's
``attempted``) for each file, parent beside change. Counts repeat
exactly for one tree at one seed on one interpreter; they go to stdout
and ``--out`` only. It never changes the exit status.

The benchmark is only ever *run*: nothing under ``benchmarks/layered``
is imported or edited, and the bounds are read from the change
checkout's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import json
import os
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


#: Runs the benchmark's script (``argv[2:]``) under ``tracemalloc`` and
#: writes ``{"files": {source file: bytes allocated}, "lines":
#: {"file:line": bytes allocated}}`` at the snapshot to ``argv[1]``;
#: files under the checkout are named relative to it.
HEAP_PROBE = """
import gc, json, os, runpy, sys, tracemalloc
out, script = sys.argv[1], sys.argv[2]
sys.argv = sys.argv[2:]
sizes = {"files": {}, "lines": {}}

def census():
    if sizes["files"]:
        return
    here = os.getcwd() + os.sep
    snapshot = tracemalloc.take_snapshot()
    for group, key in (("files", "filename"), ("lines", "lineno")):
        for stat in snapshot.statistics(key):
            frame = stat.traceback[0]
            name = frame.filename
            if name.startswith(here):
                name = name[len(here):]
            if key == "lineno":
                name = f"{name}:{frame.lineno}"
            sizes[group][name] = stat.size

unfreeze = gc.unfreeze

def census_then_unfreeze():
    census()
    unfreeze()

gc.unfreeze = census_then_unfreeze
tracemalloc.start()
try:
    runpy.run_path(script, run_name="__main__")
finally:
    census()
    tracemalloc.stop()
    with open(out, "w") as handle:
        json.dump(sizes, handle)
"""


#: The process-default counters ``--lanes`` reads: which lane a store
#: read, aggregate, ingest chunk and mask row took, and why.
LANE_COUNTERS = (
    "store.decode.rows", "store.decode.pages", "store.query.aggregate",
    "store.ingest.chunks", "agg.mask_rows", "store.cache.hit",
    "store.cache.miss",
)

#: Runs the benchmark's script (``argv[3:]``) and at its exit writes
#: the process-default counters named in ``argv[2]`` (comma-separated)
#: to ``argv[1]``: ``{name: {label: count}}``, labels keyed as the
#: registry's snapshot keys them, an unlabelled counter's count under
#: ``""``.
LANES_PROBE = """
import json, runpy, sys
out, names, script = sys.argv[1], sys.argv[2].split(","), sys.argv[3]
sys.argv = sys.argv[3:]
try:
    runpy.run_path(script, run_name="__main__")
finally:
    from repro.obs import get_default
    counts = {}
    for name in names:
        counter = get_default().metrics.get(name)
        if counter is not None:
            snapshot = counter.snapshot()
            counts[name] = snapshot.get("labels") or {"": snapshot["value"]}
    with open(out, "w") as handle:
        json.dump(counts, handle)
"""


#: ``--seconds`` of the ``--opcodes`` run: every workload's op-group
#: count rounds to one, so the run is a fixed op sequence (a counted run
#: is tens of times slower than a timed one).
OPCODE_SECONDS = 1.2

#: Runs the benchmark's script (``argv[2:]``) and writes ``{file:
#: bytecodes}`` to ``argv[1]``: the bytecodes each file under
#: ``src/repro`` of the working directory executed while a
#: ``Sampler.sample`` call of the harness (a ``sample`` defined in a
#: ``harness.py``) was running, files named relative to the checkout.
OPCODES_PROBE = """
import json, os, runpy, sys
out, script = sys.argv[1], sys.argv[2]
sys.argv = sys.argv[2:]
here = os.getcwd() + os.sep
source = os.path.join(here, "src", "repro") + os.sep
counts = {}
inside = [0]  # Sampler.sample calls running

def is_sample(code):
    return (code.co_name == "sample"
            and os.path.basename(code.co_filename) == "harness.py")

if hasattr(sys, "monitoring"):
    monitoring = sys.monitoring
    events = monitoring.events
    tool = monitoring.PROFILER_ID
    monitoring.use_tool_id(tool, "ab_layered opcodes")
    counted = set()

    def started(code, offset):
        if is_sample(code):
            inside[0] += 1
            monitoring.set_local_events(tool, code, events.PY_RETURN)
            return None
        if not code.co_filename.startswith(source):
            return monitoring.DISABLE
        if not inside[0]:
            return None
        if code not in counted:
            counted.add(code)
            counts.setdefault(code.co_filename[len(here):], 0)
            monitoring.set_local_events(tool, code, events.INSTRUCTION)
        return monitoring.DISABLE

    def left(code, offset, value):  # a return, or any frame's unwind
        if is_sample(code):
            inside[0] -= 1

    def instruction(code, offset):
        if inside[0]:
            counts[code.co_filename[len(here):]] += 1

    monitoring.register_callback(tool, events.PY_START, started)
    monitoring.register_callback(tool, events.PY_RETURN, left)
    monitoring.register_callback(tool, events.PY_UNWIND, left)
    monitoring.register_callback(tool, events.INSTRUCTION, instruction)
    monitoring.set_events(tool, events.PY_START | events.PY_UNWIND)
    stop = lambda: monitoring.set_events(tool, 0)
else:
    counters = {}

    def counter(name):
        cell = counters.get(name)
        if cell is None:
            cell = counters[name] = [0]

            def count(frame, event, arg):
                if event == "opcode":
                    cell[0] += 1
                return count
            cell.append(count)
        return cell[1]

    def trace(frame, event, arg):
        code = frame.f_code
        if is_sample(code):
            inside[0] += 1

            def left(frame, event, arg):
                if event == "return":
                    inside[0] -= 1
                return left
            return left
        if not inside[0] or not code.co_filename.startswith(source):
            return None
        frame.f_trace_opcodes = True
        return counter(code.co_filename[len(here):])

    def stop():
        sys.settrace(None)
        for name, cell in counters.items():
            counts[name] = cell[0]
    sys.settrace(trace)
try:
    runpy.run_path(script, run_name="__main__")
finally:
    stop()
    with open(out, "w") as handle:
        json.dump(counts, handle)
"""


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
             seed: int, seconds: float, trace: int = 0,
             env: dict[str, str] | None = None) -> Run:
    """One benchmark run in ``tree`` (``env`` added to this process's
    environment); its parsed result."""
    finished = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=False,
        env=None if env is None else {**os.environ, **env},
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


def run_probe(tree: pathlib.Path, command: list[str], probe: str,
              probe_args: list[str], workload: str, seed: int,
              seconds: float, env: dict[str, str] | None = None) -> Any:
    """One benchmark run in ``tree`` under ``probe`` (a program that
    takes its output path, then ``probe_args``, then the benchmark's
    script and arguments); what the probe wrote, parsed, and the run's
    result."""
    with tempfile.TemporaryDirectory(prefix="ab_probe_") as scratch:
        out = pathlib.Path(scratch) / "probe.json"
        result = run_once(tree, [command[0], "-c", probe, str(out),
                                 *probe_args, *command[1:]],
                          workload, seed, seconds, env=env)
        return json.loads(out.read_text()), result


def run_heap(tree: pathlib.Path, command: list[str], workload: str,
             seed: int, seconds: float) -> dict[str, dict[str, int]]:
    """One benchmark run in ``tree`` under :data:`HEAP_PROBE`; the
    bytes still allocated at the workload's exit, per source file
    (``"files"``) and per source line (``"lines"``)."""
    return run_probe(
        tree, command, HEAP_PROBE, [], workload, seed, seconds)[0]


def run_lanes(tree: pathlib.Path, command: list[str], workload: str,
              seed: int, seconds: float) -> dict[str, dict[str, float]]:
    """One benchmark run in ``tree`` under :data:`LANES_PROBE`: each of
    :data:`LANE_COUNTERS` by label at the run's exit."""
    return run_probe(tree, command, LANES_PROBE, [",".join(LANE_COUNTERS)],
                     workload, seed, seconds)[0]


def run_opcodes(tree: pathlib.Path, command: list[str], workload: str,
                seed: int, seconds: float = OPCODE_SECONDS,
                ) -> dict[str, float]:
    """One benchmark run in ``tree`` under :data:`OPCODES_PROBE`, with
    ``PYTHONHASHSEED=0``: bytecodes per op (the run's ``attempted``)
    executed in each ``src/repro`` file inside the harness's timed
    calls."""
    counts, result = run_probe(tree, command, OPCODES_PROBE, [], workload,
                               seed, seconds, env={"PYTHONHASHSEED": "0"})
    ops = result["attempted"]
    return {name: count / ops for name, count in counts.items() if count}


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


def _largest(parent: dict[str, int], change: dict[str, int],
             top: int) -> list[tuple[str, int, int]]:
    """``(name, parent, change)`` for the ``top`` names holding the most
    on either side, largest first."""
    names = sorted(set(parent) | set(change), key=lambda name: -max(
        parent.get(name, 0), change.get(name, 0)))[:top]
    return [(name, parent.get(name, 0), change.get(name, 0))
            for name in names]


def format_heap(workload: str, parent: dict[str, dict[str, int]],
                change: dict[str, dict[str, int]], top: int = 12,
                top_lines: int = 10) -> str:
    """The ``top`` source files holding the most memory on either
    side, in MB, and every file's total; under them the ``top_lines``
    source lines holding the most, in the same columns."""
    mb = 1 << 20

    def table(rows: list[tuple[str, int, int]]) -> list[str]:
        return [f"| {name} | {before / mb:.1f} | {after / mb:.1f} "
                f"| {(after - before) / mb:+.1f} |"
                for name, before, after in rows]

    files = _largest(parent["files"], change["files"], top)
    files.append(("(all files)", sum(parent["files"].values()),
                  sum(change["files"].values())))
    return "\n".join([
        f"heap: {workload} --seed {LAYERS_SEED}, MB allocated at workload "
        "exit by source file (tracemalloc)",
        "| file | parent | change | change - parent |",
        "|---|---|---|---|",
        *table(files),
        "| line | parent | change | change - parent |",
        "|---|---|---|---|",
        *table(_largest(parent["lines"], change["lines"], top_lines)),
    ])


def format_opcodes(workload: str, parent: dict[str, float],
                   change: dict[str, float]) -> str:
    """Bytecodes per op by ``src/repro`` file, most on either side
    first, parent beside change, and their total."""
    rows = _largest(parent, change, len(set(parent) | set(change)))
    rows.append(("(all files)", sum(parent.values()), sum(change.values())))
    return "\n".join([
        f"opcodes: {workload} --trace 0 --seed {LAYERS_SEED} --seconds "
        f"{OPCODE_SECONDS:g}, bytecodes per op by source file",
        "| file | parent | change | change / parent |",
        "|---|---|---|---|",
        *(f"| {name} | {before:.0f} | {after:.0f} | "
          + (f"{after / before:.3f}" if before else "new") + " |"
          for name, before, after in rows),
    ])


def format_lanes(workload: str, parent: dict[str, dict[str, float]],
                 change: dict[str, dict[str, float]]) -> str:
    """Every label of :data:`LANE_COUNTERS` that counted on either
    side: parent beside change."""
    lines = [
        f"lanes: {workload} --trace 0 --seed {LAYERS_SEED}, process-default "
        "counters at exit",
        "| counter | label | parent | change | change - parent |",
        "|---|---|---|---|---|",
    ]
    for name in LANE_COUNTERS:
        before, after = parent.get(name, {}), change.get(name, {})
        for label in sorted(set(before) | set(after)):
            old, new = before.get(label, 0), after.get(label, 0)
            if old or new:
                cell = label.replace("|", "\\|")  # label keys join with |
                lines.append(f"| {name} | {cell} | {old:.15g} | {new:.15g} "
                             f"| {new - old:+.15g} |")
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
    parser.add_argument("--heap", action="store_true",
                        help="then one tracemalloc run per side: MB "
                             "allocated by source file at workload exit")
    parser.add_argument("--lanes", action="store_true",
                        help="then one more run per side: the store and "
                             "mask lane counters at exit")
    parser.add_argument("--opcodes", action="store_true",
                        help="then one short counted run per side: "
                             "bytecodes per op by src/repro file")
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
        heaps = {
            workload: [run_heap(tree, benchmark["command"], workload,
                                LAYERS_SEED, benchmark["run_seconds"])
                       for tree in (parent, change)]
            for workload in (workloads if args.heap else [])
        }
        lanes = {
            workload: [run_lanes(tree, benchmark["command"], workload,
                                 LAYERS_SEED, benchmark["run_seconds"])
                       for tree in (parent, change)]
            for workload in (workloads if args.lanes else [])
        }
        opcodes = {
            workload: [run_opcodes(tree, benchmark["command"], workload,
                                   LAYERS_SEED)
                       for tree in (parent, change)]
            for workload in (workloads if args.opcodes else [])
        }
    rows = summarise(results, benchmark)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(
            {"results": results, "rows": rows, "layers": layers,
             "heaps": heaps, "lanes": lanes, "opcodes": opcodes},
            indent=1))
    print(format_table(rows))
    for workload, differing in layers.items():
        print(format_layers(workload, differing))
    for workload, sides in heaps.items():
        print(format_heap(workload, *sides))
    for workload, sides in lanes.items():
        print(format_lanes(workload, *sides))
    for workload, sides in opcodes.items():
        print(format_opcodes(workload, *sides))
    problems = flags(rows) + failures(results)
    for line in problems:
        print("FLAG", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
