"""Bounded-memory stream processing for sensor-class cells."""

from .forwarding import (
    DROP_NEWEST,
    DROP_OLDEST,
    ForwardingStats,
    InOrderDelivery,
    SequencedUplink,
    StoreAndForwardQueue,
)
from .operators import (
    Clip,
    Downsample,
    Quantize,
    RateLimit,
    Sample,
    StreamOperator,
    StreamPipeline,
    ThresholdEvents,
    Transform,
    WindowMean,
)

__all__ = [
    "DROP_NEWEST",
    "DROP_OLDEST",
    "ForwardingStats",
    "InOrderDelivery",
    "SequencedUplink",
    "StoreAndForwardQueue",
    "Clip",
    "Downsample",
    "Quantize",
    "RateLimit",
    "Sample",
    "StreamOperator",
    "StreamPipeline",
    "ThresholdEvents",
    "Transform",
    "WindowMean",
]
