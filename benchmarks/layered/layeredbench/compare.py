"""``--compare A.json B.json``: is B no worse than A, within the bounds?

Each file holds one set of runs (``run.py --workload all --out``). Per
workload x end-to-end metric the verdict is ``ok``, ``regressed`` (B's
median is worse than A's by more than the metric's bound) or
``unresolved`` (it is, but A's own quartile spread is wider than the
bound and B's runs do not all read better than A's, so the data cannot
tell).
"""

from __future__ import annotations

import json
import statistics

from . import metrics as declared


def _runs(path: str) -> dict[str, list[dict]]:
    with open(path) as handle:
        document = json.load(handle)
    by_workload: dict[str, list[dict]] = {}
    for report in document.get("runs", [document]):
        if not report["trace"]:
            by_workload.setdefault(report["workload"], []).append(report)
    return by_workload


def _spread(values: list[float]) -> float:
    """Quartile distance as a share of the median; 0 under 4 runs."""
    median = statistics.median(values)
    if len(values) < 4 or not median:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(median)


def verdict(metric: declared.EndToEnd, before: list[float],
            after: list[float]) -> tuple[str, float]:
    """``(verdict, worsening)``: worsening is the share by which the
    after-median is worse than the before-median (negative: better)."""
    base = statistics.median(before)
    new = statistics.median(after)
    sign = 1.0 if metric.better == "lower" else -1.0
    if base == 0:
        worse = 0.0 if new == base else sign * float("inf") * (new - base)
    else:
        worse = sign * (new - base) / abs(base)
    if worse <= metric.bound:
        return "ok", worse
    all_better = (max(after) < min(before) if metric.better == "lower"
                  else min(after) > max(before))
    if _spread(before) > metric.bound and not all_better:
        return "unresolved", worse
    return "regressed", worse


def compare_files(before_path: str, after_path: str) -> int:
    before, after = _runs(before_path), _runs(after_path)
    regressed = False
    for workload in declared.WORKLOAD_NAMES:
        if workload not in before or workload not in after:
            print(f"{workload:18s} missing from one side")
            regressed = True
            continue
        for metric in declared.END_TO_END:
            if metric.workloads is not None \
                    and workload not in metric.workloads:
                continue
            values = [
                [run["end_to_end"][metric.name]["value"] for run in side]
                for side in (before[workload], after[workload])
            ]
            outcome, worse = verdict(metric, *values)
            regressed |= outcome == "regressed"
            print(f"{workload:18s} {metric.name:26s} {outcome:10s} "
                  f"{statistics.median(values[0]):.6g} -> "
                  f"{statistics.median(values[1]):.6g} {metric.unit} "
                  f"({worse:+.2%}, bound {metric.bound:.1%})")
    return 1 if regressed else 0
