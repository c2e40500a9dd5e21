"""The fixed calibration kernel host-clock metrics are normalised by.

Imports nothing from ``repro``: it must cost the same whatever the
program under test does, so that ``sample / calibration`` cancels the
host's speed (frequency steps, a noisy neighbour on the shared cache)
and keeps only the program's own work. The mix mirrors what the
workloads execute — C-level hashing, JSON round trips, a pure-Python
integer loop, one numpy reduction, and a pointer chase through ~25 MB
of small Python objects. The chase matters most: the workloads walk
large heaps, and a kernel that stays in cache slows less than they do
when a neighbour thrashes the shared cache, which leaves host phases
in the "normalised" numbers (measured: README, "Three clocks").
"""

from __future__ import annotations

import hashlib
import hmac
import json
import random
import time

import numpy as np

#: What one kernel run costs on the reference host when it is quiet.
#: ``normalised = raw * CALIB_REF_MS / mean(adjacent kernel runs)``.
CALIB_REF_MS = 15.0

_KEY = b"layered-bench-calibration-key-00"
_DOC = {"roster": [f"cell-{i:04d}" for i in range(120)],
        "spec": {"where": {"op": "between", "field": "hour", "lo": 18,
                           "hi": 21}, "scale": 10, "epsilon": 2.0}}
_ARRAY = np.arange(400_000, dtype=np.float64)
_NODES = [(index, float(index)) for index in range(160_000)]
_ORDER = list(range(len(_NODES)))
random.Random(20130107).shuffle(_ORDER)
_CHASE_STEPS = 22_000
_chase_at = 0


def run_kernel() -> float:
    """Run the kernel once; returns its wall time in milliseconds."""
    global _chase_at
    started = time.perf_counter()
    digest = b"\x00" * 32
    for _ in range(2000):
        digest = hmac.new(_KEY, digest, hashlib.sha256).digest()
    for _ in range(55):
        json.loads(json.dumps(_DOC, separators=(",", ":")))
    accumulator = digest[0]
    for index in range(40_000):
        accumulator = (accumulator * 31 + index) & 0xFFFFFFFF
    total = float(np.add.reduce(_ARRAY)) + accumulator
    # Each run walks the next stretch of the shuffled order, so no run
    # finds the previous run's nodes still in cache.
    nodes = _NODES
    stretch = _ORDER[_chase_at:_chase_at + _CHASE_STEPS]
    _chase_at = (_chase_at + _CHASE_STEPS) % (len(_ORDER) - _CHASE_STEPS)
    for position in stretch:
        total += nodes[position][1]
    elapsed = time.perf_counter() - started
    if total < 0:  # consume the results inside the timed region
        raise AssertionError("calibration kernel arithmetic is broken")
    return elapsed * 1000.0
