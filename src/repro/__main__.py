"""Command-line entry point: run the paper's experiments.

Usage::

    python -m repro list            # show the experiment catalog
    python -m repro run E2          # run one experiment, print its tables
    python -m repro run all         # run everything (several minutes)
    python -m repro obs E9          # run E9, dump the observability scope
    python -m repro obs --json o.json   # machine-readable export
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bench import ALL_EXPERIMENTS, check, print_tables

_DESCRIPTIONS = {
    "E1": "Figure 1 walkthrough: every arrow executed, invariants checked",
    "E2": "NILM attack vs externalization granularity (1s/15min/daily)",
    "E3": "energy butler bill saving (the 30% claim) + ablation",
    "E4": "social game consumption reduction (the 20% claim)",
    "E5": "neighborhood peak shaving via masked coordination",
    "E6": "breach economics: central database vs trusted cells",
    "E7": "class-breaking: per-cell keys vs shared master",
    "E8": "embedded metadata queries across hardware profiles",
    "E9": "secure aggregation vs population size and availability",
    "E10": "k-anonymity loss vs k; DP error vs epsilon",
    "E11": "weakly malicious cloud: detection and conviction",
    "E12": "usage-control correctness, overhead, binding ablation",
    "E13": "resilience under churn: fault matrix, retries, degradation",
    "E14": "federated queries: networked fan-out, plan mix, degradation",
    "E15": "standing queries: continuous multi-tenant windows over the fleet",
}


def _list_experiments() -> None:
    for name in ALL_EXPERIMENTS:
        print(f"{name:>4}  {_DESCRIPTIONS.get(name, '')}")


def _run(names: list[str]) -> int:
    failures = 0
    for name in names:
        module = ALL_EXPERIMENTS[name]
        print(f"--- {name}: {_DESCRIPTIONS.get(name, '')}")
        start = time.time()
        tables = module.run()
        elapsed = time.time() - start
        print_tables(tables)
        verdicts = check(module, tables)
        failed = [verdict for verdict in verdicts if not verdict.ok]
        for verdict in failed:
            print(verdict.line())
        print(f"{name}: {'FAILED' if failed else 'HOLDS'} — "
              f"{len(verdicts) - len(failed)}/{len(verdicts)} claim rows "
              f"({elapsed:.1f}s)")
        print()
        failures += bool(failed)
    return failures


def _obs_dump(experiment: str | None, json_path: str | None,
              events_tail: int) -> int:
    """Run an (optional) experiment, then dump the process-default
    observability scope: metric snapshot, span summary, recent events.

    Per-``World`` scopes created inside an experiment are separate by
    design (export them with ``world.obs.export()``); this dump covers
    the world-less instruments — crypto derivations, aggregation
    rounds, policy decisions, audit appends, store cache traffic.
    """
    from .obs import get_default

    obs = get_default()
    obs.reset()
    if experiment is not None:
        target = experiment.upper()
        if target not in ALL_EXPERIMENTS:
            print(f"unknown experiment {experiment!r}", file=sys.stderr)
            return 2
        ALL_EXPERIMENTS[target].run()  # tables discarded; we want the scope
    export = obs.export()
    if json_path is not None:
        with open(json_path, "w") as handle:
            json.dump(export, handle, indent=2)
        print(f"observability export written to {json_path}")
        return 0
    print(f"# observability dump (schema {export['schema']})")
    print("\n## metrics")
    for name, snapshot in export["metrics"].items():
        if snapshot["kind"] == "histogram":
            print(f"{name:<28} histogram count={snapshot['count']} "
                  f"mean={snapshot['mean']:.1f}")
        else:
            print(f"{name:<28} {snapshot['kind']} {snapshot['value']}")
            for labels, value in snapshot.get("labels", {}).items():
                print(f"    {labels:<24} {value}")
    spans = export["trace"]["spans"]
    print(f"\n## trace ({len(spans)} spans, {export['trace']['dropped']} dropped)")
    by_name: dict[str, list[float]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span["duration"])
    for name, durations in sorted(by_name.items()):
        print(f"{name:<28} n={len(durations)} total={sum(durations):.4f} "
              f"max={max(durations):.4f}")
    events = export["events"]["events"]
    print(f"\n## events ({export['events']['emitted']} emitted, "
          f"{export['events']['retained']} retained; last {events_tail})")
    for event in events[-events_tail:]:
        fields = {k: v for k, v in event.items() if k not in ("seq", "kind")}
        print(f"[{event['seq']}] {event['kind']} {fields}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Trusted Cells reproduction: experiment runner",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list experiments")
    run_parser = subparsers.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "experiment",
        help="experiment id (E1..E15) or 'all'",
    )
    report_parser = subparsers.add_parser(
        "report", help="run everything, write a consolidated markdown report"
    )
    report_parser.add_argument(
        "--output", default="EXPERIMENT-REPORT.md",
        help="output path (default: EXPERIMENT-REPORT.md)",
    )
    obs_parser = subparsers.add_parser(
        "obs",
        help="dump the observability scope (metrics, trace, events), "
             "optionally after running an experiment",
    )
    obs_parser.add_argument(
        "experiment", nargs="?", default=None,
        help="experiment id (E1..E15) to run first; omit to dump as-is",
    )
    obs_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the full JSON export instead of the text summary",
    )
    obs_parser.add_argument(
        "--events", type=int, default=20, metavar="N",
        help="how many trailing events to show in the text summary",
    )
    arguments = parser.parse_args(argv)
    if arguments.command == "list":
        _list_experiments()
        return 0
    if arguments.command == "obs":
        return _obs_dump(arguments.experiment, arguments.json, arguments.events)
    if arguments.command == "report":
        from .bench.report import generate_report

        verdicts = generate_report(arguments.output)
        for name, holds in verdicts.items():
            print(f"{name}: {'HOLDS' if holds else 'FAILED'}")
        print(f"report written to {arguments.output}")
        return 0 if all(verdicts.values()) else 1
    target = arguments.experiment.upper()
    if target == "ALL":
        return _run(list(ALL_EXPERIMENTS))
    if target not in ALL_EXPERIMENTS:
        parser.error(
            f"unknown experiment {arguments.experiment!r}; "
            f"known: {', '.join(ALL_EXPERIMENTS)} or 'all'"
        )
    return _run([target])


if __name__ == "__main__":
    sys.exit(main())
