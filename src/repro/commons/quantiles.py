"""Distribution statistics over the commons: quantiles and medians.

Sums and counts are not the only "global treatments" the paper's
shared commons needs — census-style queries want medians and
percentiles ("what is the median household consumption?"). Exact
order statistics cannot be computed by additive aggregation, but a
*bucketized* quantile can: cells place their value into one of B
buckets, the bucket counts are computed with the masked-histogram
protocol (no individual value revealed), and the quantile is read off
the cumulative histogram with a ±bucket-width error bound.
"""

from __future__ import annotations

from ..errors import ConfigurationError, ProtocolError
from .aggregation import AggregationNode, AggregationResult, masked_histogram


def bucketize(value: float, low: float, high: float, buckets: int) -> int:
    """The bucket index of ``value`` in [low, high] split into
    ``buckets`` equal bins (clamped at the edges)."""
    if buckets < 1:
        raise ConfigurationError("need at least one bucket")
    if high <= low:
        raise ConfigurationError("bucket range is empty")
    if value <= low:
        return 0
    if value >= high:
        return buckets - 1
    return int((value - low) / (high - low) * buckets)


def bucket_midpoint(index: int, low: float, high: float, buckets: int) -> float:
    width = (high - low) / buckets
    return low + (index + 0.5) * width


def quantile_from_counts(
    counts: list[int], q: float, low: float, high: float
) -> float:
    """The q-quantile estimate from a histogram (bucket midpoint)."""
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError("q must be in [0, 1]")
    total = sum(counts)
    if total == 0:
        raise ProtocolError("empty histogram")
    target = q * total
    running = 0
    for index, count in enumerate(counts):
        running += count
        if running >= target and count > 0:
            return bucket_midpoint(index, low, high, len(counts))
    # q == 0 with leading empty buckets, or rounding at the top
    for index in reversed(range(len(counts))):
        if counts[index] > 0:
            return bucket_midpoint(index, low, high, len(counts))
    raise ProtocolError("empty histogram")  # pragma: no cover


def secure_quantiles(
    nodes: list[AggregationNode],
    values: dict[str, float],
    quantiles: list[float],
    low: float,
    high: float,
    buckets: int = 32,
    online: set[str] | None = None,
    round_tag: str = "quantiles-0",
    neighbors: int | None = None,
) -> tuple[dict[float, float], AggregationResult]:
    """Estimate quantiles without revealing any individual value.

    Error bound: half a bucket width, i.e. ``(high-low)/(2*buckets)``.
    ``neighbors=k`` masks over the k-regular ring graph (see
    :func:`~repro.commons.aggregation.masked_histogram`).
    Returns ``({q: estimate}, protocol accounting)``.
    """
    bucket_of = {
        node.name: bucketize(values[node.name], low, high, buckets)
        for node in nodes
    }
    counts, accounting = masked_histogram(
        nodes, bucket_of, bucket_count=buckets, online=online,
        round_tag=round_tag, neighbors=neighbors,
    )
    estimates = {
        q: quantile_from_counts(counts, q, low, high) for q in quantiles
    }
    return estimates, accounting


def secure_median(
    nodes: list[AggregationNode],
    values: dict[str, float],
    low: float,
    high: float,
    buckets: int = 32,
    online: set[str] | None = None,
) -> tuple[float, AggregationResult]:
    """Convenience wrapper: the 0.5-quantile."""
    estimates, accounting = secure_quantiles(
        nodes, values, [0.5], low, high, buckets, online,
    )
    return estimates[0.5], accounting
