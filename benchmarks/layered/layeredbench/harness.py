"""Closed-loop sampler: host-clock samples normalised by adjacent
calibration-kernel runs, plus the percentile arithmetic.

One client, one thread: the next op is issued only after the previous
one returned. A *sample* is the wall time of one latency-bearing call;
it may complete several *ops* (a standing window close settles one op
per tenant).
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from .calibration import CALIB_REF_MS, run_kernel

#: A sample at least this long gets its own calibration run after it.
LONG_SAMPLE_S = 0.050
#: Shorter samples share one calibration per this much sampled wall.
GROUP_WALL_S = 0.250

#: Tail percentiles the issue's workload table uses, highest first.
TAIL_LADDER = (99, 95, 90, 80, 75)
#: The guide's rule: at least this many samples beyond the percentile.
MIN_BEYOND = 10


def traced_slot(group: int) -> bool:
    """ABBA assignment of op groups to the traced side of a traced run.

    Half the groups run with span recording on and half with it off,
    interleaved so a linear drift (a store that grows, a journal that
    lengthens) cancels between the two sides.
    """
    return group % 4 in (0, 3)


def tail_percentile(samples: int) -> int:
    """Highest ladder percentile with >= MIN_BEYOND samples beyond it."""
    for percentile in TAIL_LADDER:
        if samples * (100 - percentile) >= MIN_BEYOND * 100:
            return percentile
    return TAIL_LADDER[-1]


def nearest_rank(values: list[float], percentile: int) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * percentile / 100))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def settle_heap() -> None:
    """After set-up and warm-up: collect, then move every survivor out
    of the collector's reach so the fleet/store built in set-up is not
    re-traversed during the measured ops."""
    gc.collect()
    gc.freeze()


@dataclass
class Sample:
    raw_s: float
    ops: int
    kind: str
    traced: bool
    calib_before: int  # index into Sampler.calib_ms
    calib_after: int = -1
    layer_s: dict[str, float] = field(default_factory=dict)
    spans: int = 0

    def factor(self, calib_ms: list[float]) -> float:
        adjacent = (calib_ms[self.calib_before] + calib_ms[self.calib_after]) / 2
        return CALIB_REF_MS / adjacent


@dataclass
class LayerBudget:
    """Totals over the traced samples of a traced run."""

    self_ms: dict[str, float] = field(default_factory=dict)
    wall_ms: float = 0.0
    ops: int = 0
    spans: int = 0


class Sampler:
    """Times samples and interleaves calibration-kernel runs.

    The kernel runs before the first sample, after every sample of at
    least ``LONG_SAMPLE_S``, and after every group of shorter samples
    totalling ``GROUP_WALL_S``; :meth:`finish` closes the last group.
    Each sample is normalised by the mean of the kernel runs on either
    side of it.
    """

    def __init__(self, tracer: Any = None) -> None:
        self.tracer = tracer
        self.samples: list[Sample] = []
        self.calib_ms: list[float] = []
        self._open: list[Sample] = []  # samples awaiting their calib_after
        self._open_wall = 0.0
        self._gc_before = _gc_collections()
        self.gc_collections = 0

    def _calibrate(self) -> None:
        self.calib_ms.append(run_kernel())
        index = len(self.calib_ms) - 1
        for sample in self._open:
            sample.calib_after = index
        self._open = []
        self._open_wall = 0.0

    def sample(self, call: Callable[[], Any], *, ops: int = 1,
               kind: str = "op", group: int = 0) -> Any:
        """Time ``call()`` as one latency sample completing ``ops`` ops.

        In a traced run ``group`` picks the side: spans are recorded
        for the ABBA half, the other half runs through disarmed
        wrappers and is the baseline for ``trace.overhead_ratio``.
        """
        if not self.calib_ms:
            self._calibrate()
        tracer = self.tracer
        traced = tracer is not None and traced_slot(group)
        if traced:
            tracer.begin_op(len(self.samples))
        started = time.perf_counter()
        try:
            result = call()
        finally:
            raw = time.perf_counter() - started
            if traced:
                layer_s, spans = tracer.end_op()
            else:
                layer_s, spans = {}, 0
        sample = Sample(raw, ops, kind, traced, len(self.calib_ms) - 1,
                        layer_s=layer_s, spans=spans)
        self.samples.append(sample)
        self._open.append(sample)
        self._open_wall += raw
        if raw >= LONG_SAMPLE_S or self._open_wall >= GROUP_WALL_S:
            self._calibrate()
        return result

    def finish(self) -> None:
        if self._open:
            self._calibrate()
        self.gc_collections = _gc_collections() - self._gc_before

    # -- derived numbers ------------------------------------------------------

    def normalised_ms(self, *, traced: bool | None = None,
                      kind: str | None = None) -> list[float]:
        return [
            sample.raw_s * sample.factor(self.calib_ms) * 1000.0
            for sample in self.samples
            if (traced is None or sample.traced == traced)
            and (kind is None or sample.kind == kind)
        ]

    def host_metrics(self, failed_ops: int) -> dict[str, float]:
        """The three speed-normalised end-to-end numbers."""
        normalised = self.normalised_ms()
        ops = sum(sample.ops for sample in self.samples)
        tail = tail_percentile(len(normalised))
        return {
            "ops_per_s": (ops - failed_ops) / (sum(normalised) / 1000.0),
            "op_p50_ms": statistics.median(normalised),
            "op_tail_ms": nearest_rank(normalised, tail),
            "tail_percentile": tail,
            "samples": len(normalised),
        }

    def raw_wall_s(self) -> float:
        return sum(sample.raw_s for sample in self.samples)

    def harness_metrics(self) -> dict[str, float]:
        speeds = [CALIB_REF_MS / value for value in self.calib_ms]
        return {
            "harness.raw_wall_s": self.raw_wall_s(),
            "harness.calib_ms_p50": statistics.median(self.calib_ms),
            "harness.speed_min": min(speeds),
            "harness.speed_max": max(speeds),
            "harness.samples": len(self.samples),
            "harness.gc_collections": self.gc_collections,
        }

    def layer_budget(self) -> LayerBudget:
        """The traced samples' speed-normalised self time by metric."""
        budget = LayerBudget()
        for sample in self.samples:
            if not sample.traced:
                continue
            factor = sample.factor(self.calib_ms)
            budget.wall_ms += sample.raw_s * factor * 1000.0
            budget.ops += sample.ops
            budget.spans += sample.spans
            for metric, seconds in sample.layer_s.items():
                budget.self_ms[metric] = budget.self_ms.get(metric, 0.0) \
                    + seconds * factor * 1000.0
        return budget

    def overhead_ratio(self) -> float:
        """Traced over untraced throughput, from the two sides' median
        normalised samples (a median, so the rare heavy op that lands
        on one side only does not decide it)."""
        traced = self.normalised_ms(traced=True)
        plain = self.normalised_ms(traced=False)
        if not traced or not plain:
            return 1.0
        return statistics.median(plain) / statistics.median(traced)


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


# -- one run's context ----------------------------------------------------------

#: ``run_seconds`` in BENCHMARK.json; the workloads state their op
#: counts at this budget and scale them linearly with ``--seconds``.
REFERENCE_SECONDS = 12
#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Stop issuing new op groups once the samples add up to this many
#: times the budget: keeps a run inside the driver's cap on a crawling
#: host (op counts, normally a pure function of ``--seconds``, shrink).
OVER_BUDGET_FACTOR = 2.0


@dataclass
class Outcome:
    """What a workload hands back: op accounting plus the metrics only
    it can compute (per op, by their declared names)."""

    attempted: int
    failed: int
    values: dict[str, float]


class Run:
    """Seed, size and clocks for one workload run."""

    def __init__(self, seed: int, seconds: float, *, toy: bool = False,
                 tracer: Any = None) -> None:
        self.seed = seed
        self.seconds = seconds
        self.toy = toy
        self.sampler = Sampler(tracer)
        self.setup_times: list[float] = []

    def pick(self, full: Any, toy: Any) -> Any:
        return toy if self.toy else full

    def count(self, reference: int, toy: int) -> int:
        """An op-group count: ``reference`` at the reference budget."""
        if self.toy:
            return toy
        return max(1, round(reference * self.seconds / REFERENCE_SECONDS))

    def rng(self, stream: str) -> random.Random:
        """The only randomness a workload may use besides the world's
        own seed streams."""
        return random.Random(f"{self.seed}:{stream}")

    def setup(self, build: Callable[[], Any]) -> Any:
        """Run ``build`` SETUP_REPEATS times (once at toy size), time
        each, keep the last result."""
        result = None
        for _ in range(1 if self.toy else SETUP_REPEATS):
            result = None
            gc.collect()
            result = self.timed_setup(build)
        return result

    def timed_setup(self, build: Callable[[], Any]) -> Any:
        """One set-up repetition, speed-normalised like a sample (a
        0.3-2 s build is as exposed to the host's phases as an op) and
        with the cyclic collector paused: where its full passes fall
        while a fleet is built moved this number by a third between
        like runs, twice what the rest of the noise did."""
        before = run_kernel()
        gc.disable()
        try:
            started = time.perf_counter()
            result = build()
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        self.setup_times.append(
            elapsed * CALIB_REF_MS / ((before + run_kernel()) / 2))
        return result

    def over_budget(self) -> bool:
        return self.sampler.raw_wall_s() > OVER_BUDGET_FACTOR * self.seconds

    @property
    def setup_s(self) -> float:
        return statistics.median(self.setup_times)
