"""Metrics registry: counters, gauges and histograms with label sets.

The accountability requirement (Req. 4) asks a cell to explain *what
ran and at what cost*. Instruments here are deliberately tiny — an
``inc()`` on a bound counter is one attribute increment — so protocol
hot paths (one HMAC per mask derivation, one record per network
message) can afford them unconditionally.

Design points:

* **Get-or-create registration.** ``registry.counter("net.messages")``
  returns the existing instrument if the name is taken (modules
  register at import time; re-imports and reloads must not fight).
  Re-registering a name as a different instrument type is an error.
* **Reset in place.** :meth:`MetricsRegistry.reset` zeroes every
  instrument *without replacing objects*, so counters bound at module
  import (e.g. the HMAC counter in :mod:`repro.crypto.primitives`)
  keep working after a test-fixture reset.
* **Cheap no-op mode.** A disabled registry keeps handing out the same
  instruments but their mutators return after one flag check. Counters
  created with ``always=True`` keep counting even then: they are
  protocol-cost oracles (tests assert exact HMAC deltas) and cost no
  more than the module globals they replaced.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any

from ..errors import ConfigurationError

DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, float("inf")
)


def _label_key(labelnames: tuple[str, ...], labels: dict[str, Any]) -> tuple:
    if set(labels) != set(labelnames):
        raise ConfigurationError(
            f"expected labels {labelnames}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class Counter:
    """A monotonically increasing count, optionally per label set."""

    kind = "counter"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = "",
                 labelnames: tuple[str, ...] = (), always: bool = False) -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.always = always
        self.value = 0
        self._children: dict[tuple, "Counter"] = {}

    def labels(self, **labels: Any) -> "Counter":
        """The child counter for one concrete label set (cached)."""
        key = _label_key(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            child = Counter(self._registry, self.name, self.help,
                            always=self.always)
            self._children[key] = child
        return child

    def inc(self, amount: int = 1) -> None:
        if self._registry.enabled or self.always:
            self.value += amount

    def reset(self) -> None:
        self.value = 0
        for child in self._children.values():
            child.reset()

    def snapshot(self) -> dict[str, Any]:
        data: dict[str, Any] = {"kind": self.kind, "value": self.value}
        if self._children:
            data["labels"] = {
                "|".join(key): child.value
                for key, child in sorted(self._children.items())
            }
        return data

    @staticmethod
    def total(metrics: "MetricsRegistry", name: str) -> int:
        """Counter ``name``'s own count plus every label set's; 0 when
        ``metrics`` has registered no such counter (nothing counted)."""
        counter = metrics.get(name)
        if counter is None:
            return 0
        return int(counter.value + sum(
            child.value for child in counter._children.values()))


class Gauge:
    """A value that can go up and down (queue depth, staleness, ...)."""

    kind = "gauge"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = "",
                 labelnames: tuple[str, ...] = ()) -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.value = 0.0
        self._children: dict[tuple, "Gauge"] = {}

    def labels(self, **labels: Any) -> "Gauge":
        key = _label_key(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            child = Gauge(self._registry, self.name, self.help)
            self._children[key] = child
        return child

    def set(self, value: float) -> None:
        if self._registry.enabled:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        if self._registry.enabled:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    def reset(self) -> None:
        self.value = 0.0
        for child in self._children.values():
            child.reset()

    def snapshot(self) -> dict[str, Any]:
        data: dict[str, Any] = {"kind": self.kind, "value": self.value}
        if self._children:
            data["labels"] = {
                "|".join(key): child.value
                for key, child in sorted(self._children.items())
            }
        return data


class Histogram:
    """A distribution: cumulative buckets plus count/sum/min/max."""

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = "",
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets:
            raise ConfigurationError("histogram needs at least one bucket")
        bounds = tuple(sorted(buckets))
        if bounds[-1] != float("inf"):
            bounds = bounds + (float("inf"),)
        self._registry = registry
        self.name = name
        self.help = help
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.count = 0
        self.sum = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        # first bound >= value; the trailing +Inf bound always matches
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def reset(self) -> None:
        self.counts = [0] * len(self.bounds)
        self.count = 0
        self.sum = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "buckets": {
                ("+Inf" if bound == float("inf") else repr(bound)): count
                for bound, count in zip(self.bounds, self.counts)
            },
        }


class MetricsRegistry:
    """Names instruments, owns the enabled flag, exports snapshots."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: dict[str, Any] = {}

    # -- registration (get-or-create) -----------------------------------------

    def _get_or_create(self, cls, name: str, factory):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigurationError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "",
                labelnames: tuple[str, ...] = (),
                always: bool = False) -> Counter:
        return self._get_or_create(
            Counter, name,
            lambda: Counter(self, name, help, tuple(labelnames), always),
        )

    def gauge(self, name: str, help: str = "",
              labelnames: tuple[str, ...] = ()) -> Gauge:
        return self._get_or_create(
            Gauge, name, lambda: Gauge(self, name, help, tuple(labelnames))
        )

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(
            Histogram, name, lambda: Histogram(self, name, help, buckets)
        )

    def get(self, name: str):
        """The instrument registered under ``name``, or ``None``."""
        return self._instruments.get(name)

    # -- lifecycle --------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero every instrument in place (bound references stay valid)."""
        for instrument in self._instruments.values():
            instrument.reset()

    # -- export -----------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Stable-schema export: ``{name: {kind, value | count/sum/...}}``."""
        return {
            name: instrument.snapshot()
            for name, instrument in sorted(self._instruments.items())
        }
