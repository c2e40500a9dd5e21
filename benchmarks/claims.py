"""The claim rows of the tracked benches, and the one evaluator.

Each tracked bench (the five ``benchmarks/bench_*`` modules that write a
``BENCH_*.json``) declares what it claims once, as a ``CLAIMS`` tuple of
:class:`Claim` rows beside the ``measure_*`` code they read, and builds
its smoke-size report with ``smoke_report()``. The bench's tier-1 smoke
and ``tools/bench_gate.py`` both hand that report and the tracked file
to :func:`evaluate`, so a threshold lives in exactly one place.

A row reads one value with ``read`` — from the smoke report (*live*),
from the tracked file (*tracked*), or from both, since they share a
schema — and its ``rule`` says what that value must satisfy:

* ``same`` / ``band`` / ``ratio`` hold the live value to the tracked one:
  equal, within ``tolerance``x either way, or at most ``tolerance``x;
* ``==`` / ``>=`` / ``>`` / ``<=`` / ``<`` hold the value of each side
  named by ``sides`` to ``tolerance`` itself.

Every row names the layer it speaks for and the clock its value was
read from, and the clock limits the rule. ``count`` (deterministic,
clock-free) and ``sim`` rows are exact unless ``why`` says otherwise;
``device`` rows are held to the tracked value by a band; ``host`` rows
hold per-unit costs (per record, per HMAC, per agreement, per cell, per
delta) to at most 10x the tracked cost, since CI hosts are loaded
arbitrarily.
"""

from __future__ import annotations

import json
import operator
import pathlib
from dataclasses import dataclass
from typing import Any, Callable

# The north star's layer taxonomy, top of the stack first.
LAYERS = (
    "sim loop/network", "wire codec", "coordinator + journal", "cell agent",
    "catalog/plan", "log store/page codec", "egress gate/mask kernels",
    "crypto primitives", "keymgmt",
)
CLOCKS = ("count", "sim", "device", "host")

PAIRED = {
    "same": lambda live, tracked, tolerance: live == tracked,
    "band": lambda live, tracked, tolerance:
        tracked / tolerance <= live <= tracked * tolerance,
    "ratio": lambda live, tracked, tolerance: live <= tracked * tolerance,
}
BOUNDED = {
    "==": operator.eq, ">=": operator.ge, ">": operator.gt,
    "<=": operator.le, "<": operator.lt,
}


@dataclass(frozen=True)
class Claim:
    """One row: what ``read`` returns must satisfy ``rule``."""

    name: str
    layer: str
    clock: str
    read: Callable[[dict], Any]
    rule: str
    tolerance: Any = True  # a bounded rule's bound, or a paired factor
    sides: str = "both"  # which reports a bounded rule reads
    why: str = ""  # required for an inexact count or sim row

    def __post_init__(self) -> None:
        problem = None
        if self.layer not in LAYERS:
            problem = f"unknown layer {self.layer!r}"
        elif self.clock not in CLOCKS:
            problem = f"unknown clock {self.clock!r}"
        elif self.rule not in PAIRED and self.rule not in BOUNDED:
            problem = f"unknown rule {self.rule!r}"
        elif self.sides not in ("both", "live", "tracked"):
            problem = f"unknown sides {self.sides!r}"
        elif self.rule in PAIRED and self.sides != "both":
            problem = f"rule {self.rule!r} reads both sides"
        elif (self.rule in ("band", "ratio") and self.clock in ("count", "sim")
              and not self.why):
            problem = f"an inexact {self.clock} row must say why"
        elif self.clock == "device" and self.rule in ("same", "ratio"):
            problem = "a device row is held to the tracked value by a band"
        elif self.clock == "host" and self.rule in PAIRED and (
                self.rule != "ratio" or self.tolerance > 10):
            problem = "a host row allows at most 10x the tracked cost"
        if problem:
            raise ValueError(f"claim {self.name!r}: {problem}")

    def check(self, live: dict, tracked: dict) -> tuple[bool, str]:
        if self.rule in PAIRED:
            got, want = self.read(live), self.read(tracked)
            ok = PAIRED[self.rule](got, want, self.tolerance)
            if self.rule == "same":
                return ok, _difference(got, want)
            return ok, (f"live {_show(got)} vs tracked {_show(want)} "
                        f"({self.rule} {self.tolerance:g}x)")
        values = [(side, self.read(report))
                  for side, report in (("live", live), ("tracked", tracked))
                  if self.sides in (side, "both")]
        ok = all(BOUNDED[self.rule](value, self.tolerance)
                 for _, value in values)
        shown = ", ".join(f"{side} {_show(value)}" for side, value in values)
        return ok, f"{shown} ({self.rule} {_show(self.tolerance)})"


@dataclass(frozen=True)
class Verdict:
    bench: str
    claim: Claim
    ok: bool
    detail: str

    def line(self) -> str:
        claim = self.claim
        return (f"{'PASS' if self.ok else 'FAIL'}  {self.bench:<11} "
                f"{claim.layer:<24} {claim.clock:<6} {claim.name}: "
                f"{self.detail}")


def evaluate(claims, report: dict,
             tracked_path: pathlib.Path) -> list[Verdict]:
    """Every row of ``claims`` against ``report`` and the tracked file."""
    bench = tracked_path.stem.removeprefix("BENCH_")
    tracked = json.loads(tracked_path.read_text())
    if tracked.get("benchmark") != report["benchmark"]:
        raise ValueError(f"{tracked_path.name} is not the tracked file of "
                         f"{report['benchmark']!r}")
    verdicts = []
    for claim in claims:
        try:
            ok, detail = claim.check(report, tracked)
        except Exception as error:  # a missing field fails its row
            ok, detail = False, f"unreadable: {error!r}"
        verdicts.append(Verdict(bench, claim, ok, detail))
    return verdicts


def assert_claims(claims, report: dict, tracked_path: pathlib.Path) -> None:
    failed = [verdict.line()
              for verdict in evaluate(claims, report, tracked_path)
              if not verdict.ok]
    assert not failed, "\n".join(failed)


def _show(value: Any) -> str:
    text = f"{value:.6g}" if isinstance(value, float) else repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _difference(live: Any, tracked: Any) -> str:
    if live == tracked:
        return f"live == tracked {_show(live)}"
    if isinstance(live, dict) and isinstance(tracked, dict):
        keys = sorted(key for key in live.keys() | tracked.keys()
                      if live.get(key) != tracked.get(key))
        return f"live and tracked differ at {keys}"
    return f"live {_show(live)} != tracked {_show(tracked)}"
