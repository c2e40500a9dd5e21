"""Bounded-memory stream operators for sensor-class trusted cells.

The controlled-collection challenge: trusted sources must be "capable
of securely filtering and aggregating stream-based spatio-temporal data
with tiny hardware resources". These operators process one sample at a
time with O(1) state per operator, so a pipeline's RAM footprint is
known statically and can be checked against a hardware profile before
deployment.

Operators are composed into a :class:`StreamPipeline`; each declares
its ``state_bytes`` so the pipeline can refuse to run on a profile it
does not fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..errors import CapacityError, ConfigurationError
from ..hardware.profiles import HardwareProfile
from ..obs import get_default as _obs_default

_OBS = _obs_default()
_SAMPLES = _OBS.metrics.counter(
    "streams.samples",
    help="samples through stream pipelines, by stage (in/out)",
    labelnames=("stage",),
)


@dataclass(frozen=True)
class Sample:
    """One stream element."""

    timestamp: int
    value: float


class StreamOperator:
    """Base operator: push one sample, emit zero or more samples."""

    state_bytes = 0

    def push(self, sample: Sample) -> list[Sample]:
        raise NotImplementedError

    def flush(self) -> list[Sample]:
        """Emit whatever a final partial window holds."""
        return []


class Downsample(StreamOperator):
    """Keep one sample every ``factor`` inputs (decimation)."""

    state_bytes = 16

    def __init__(self, factor: int) -> None:
        if factor < 1:
            raise ConfigurationError("downsample factor must be >= 1")
        self.factor = factor
        self._count = 0

    def push(self, sample: Sample) -> list[Sample]:
        emit = self._count % self.factor == 0
        self._count += 1
        return [sample] if emit else []


class WindowMean(StreamOperator):
    """Tumbling-window mean over ``width`` seconds of stream time."""

    state_bytes = 40

    def __init__(self, width: int) -> None:
        if width < 1:
            raise ConfigurationError("window width must be >= 1")
        self.width = width
        self._window_start: int | None = None
        self._sum = 0.0
        self._count = 0

    def _bucket(self, timestamp: int) -> int:
        return timestamp // self.width * self.width

    def push(self, sample: Sample) -> list[Sample]:
        bucket = self._bucket(sample.timestamp)
        emitted: list[Sample] = []
        if self._window_start is None:
            self._window_start = bucket
        elif bucket != self._window_start:
            emitted.append(
                Sample(self._window_start, self._sum / self._count)
            )
            self._window_start = bucket
            self._sum, self._count = 0.0, 0
        self._sum += sample.value
        self._count += 1
        return emitted

    def flush(self) -> list[Sample]:
        if self._count == 0:
            return []
        result = [Sample(self._window_start, self._sum / self._count)]
        self._window_start, self._sum, self._count = None, 0.0, 0
        return result


class Clip(StreamOperator):
    """Clamp values into a range (precision limiting before export)."""

    state_bytes = 16

    def __init__(self, low: float, high: float) -> None:
        if low > high:
            raise ConfigurationError("clip range inverted")
        self.low = low
        self.high = high

    def push(self, sample: Sample) -> list[Sample]:
        return [Sample(sample.timestamp, min(self.high, max(self.low, sample.value)))]


class Quantize(StreamOperator):
    """Round values to a step (the precision knob the paper mentions:
    a trusted source defines "the frequency and or precision of the
    data that should be externalized")."""

    state_bytes = 8

    def __init__(self, step: float) -> None:
        if step <= 0:
            raise ConfigurationError("quantization step must be positive")
        self.step = step

    def push(self, sample: Sample) -> list[Sample]:
        quantized = round(sample.value / self.step) * self.step
        return [Sample(sample.timestamp, quantized)]


class ThresholdEvents(StreamOperator):
    """Emit only crossings of a threshold (event-ized stream)."""

    state_bytes = 17

    def __init__(self, threshold: float) -> None:
        self.threshold = threshold
        self._above: bool | None = None

    def push(self, sample: Sample) -> list[Sample]:
        above = sample.value > self.threshold
        crossed = self._above is not None and above != self._above
        self._above = above
        if crossed:
            return [Sample(sample.timestamp, 1.0 if above else 0.0)]
        return []


class RateLimit(StreamOperator):
    """At most one output per ``min_interval`` seconds (frequency knob)."""

    state_bytes = 16

    def __init__(self, min_interval: int) -> None:
        if min_interval < 1:
            raise ConfigurationError("min interval must be >= 1")
        self.min_interval = min_interval
        self._last_emitted: int | None = None

    def push(self, sample: Sample) -> list[Sample]:
        if (
            self._last_emitted is None
            or sample.timestamp - self._last_emitted >= self.min_interval
        ):
            self._last_emitted = sample.timestamp
            return [sample]
        return []


class Transform(StreamOperator):
    """Apply a pure function to each value (unit conversion etc.)."""

    state_bytes = 8

    def __init__(self, function: Callable[[float], float]) -> None:
        self.function = function

    def push(self, sample: Sample) -> list[Sample]:
        return [Sample(sample.timestamp, self.function(sample.value))]


class StreamPipeline:
    """A chain of operators with a static RAM bound.

    ``fits(profile)`` checks the bound against a hardware profile;
    :meth:`process` streams an iterable through, and :meth:`push`
    supports on-line use by a sensor cell.
    """

    _PER_OPERATOR_OVERHEAD = 64

    def __init__(self, operators: list[StreamOperator]) -> None:
        if not operators:
            raise ConfigurationError("pipeline needs at least one operator")
        self.operators = list(operators)
        self.samples_in = 0
        self.samples_out = 0

    @property
    def state_bytes(self) -> int:
        return sum(
            operator.state_bytes + self._PER_OPERATOR_OVERHEAD
            for operator in self.operators
        )

    def fits(self, profile: HardwareProfile) -> bool:
        return self.state_bytes <= profile.ram_bytes

    def require_fits(self, profile: HardwareProfile) -> None:
        if not self.fits(profile):
            raise CapacityError(
                f"pipeline needs {self.state_bytes} bytes of state; "
                f"profile {profile.name!r} has {profile.ram_bytes}"
            )

    def push(self, sample: Sample) -> list[Sample]:
        self.samples_in += 1
        _SAMPLES.labels(stage="in").inc()
        batch = [sample]
        for operator in self.operators:
            next_batch: list[Sample] = []
            for element in batch:
                next_batch.extend(operator.push(element))
            batch = next_batch
            if not batch:
                break
        self.samples_out += len(batch)
        if batch:
            _SAMPLES.labels(stage="out").inc(len(batch))
        return batch

    def flush(self) -> list[Sample]:
        """Flush partial operator state down the chain.

        For each operator in order: first route the upstream flush
        outputs through it as ordinary pushes, then append its own
        flush output — so a half-full window still passes the
        downstream precision/rate stages.
        """
        pending: list[Sample] = []
        for operator in self.operators:
            routed: list[Sample] = []
            for element in pending:
                routed.extend(operator.push(element))
            routed.extend(operator.flush())
            pending = routed
        self.samples_out += len(pending)
        if pending:
            _SAMPLES.labels(stage="out").inc(len(pending))
        return pending

    def process(self, samples: Iterable[Sample]) -> list[Sample]:
        """Stream a whole iterable through, including the final flush."""
        with _OBS.tracer.span(
            "streams.pipeline", operators=len(self.operators)
        ) as span:
            output: list[Sample] = []
            for sample in samples:
                output.extend(self.push(sample))
            output.extend(self.flush())
            span.annotate(
                samples_in=self.samples_in, samples_out=self.samples_out
            )
        return output
