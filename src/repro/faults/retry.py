"""Sim-clock retry with exponential backoff and jitter.

Two consumption styles, matching how the simulator models time:

* **In-call retries** (:func:`retry_call`): cloud RPCs are
  instantaneous in the simulator, so re-attempting inside one call
  burns no simulated time. The backoff the policy *would* have slept is
  still accounted (the ``retry.backoff_seconds`` histogram) so traces
  record the latency a real deployment would pay.
* **Deferred retries** (:func:`schedule_retry`): loop-driven components
  (the replicator, the async aggregation) re-schedule a failed step as
  a future event, so backoff consumes simulated time and interleaves
  with churn and deadlines.

Every re-attempt bumps ``retry.attempts`` (labelled by operation),
exhaustion bumps ``retry.exhausted``, and the whole retry episode is
bracketed in a ``retry`` span. A first-attempt success records nothing:
the no-fault path stays byte-for-byte the seed behaviour.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from typing import Callable, TypeVar

from ..errors import CellOfflineError, ConfigurationError, TransientCloudError

T = TypeVar("T")

#: Errors that are safe to retry by default: operational, not security.
TRANSIENT_ERRORS: tuple[type[Exception], ...] = (
    TransientCloudError,
    CellOfflineError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full parameterization.

    ``max_attempts`` counts the first try: ``max_attempts=4`` means one
    try plus up to three retries. ``jitter`` is the ±fraction applied
    multiplicatively to each delay (0 disables it; keep it on in fleets
    so synchronized failures do not retry in lockstep).
    """

    max_attempts: int = 4
    base_delay_s: float = 2.0
    multiplier: float = 2.0
    max_delay_s: float = 120.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.base_delay_s <= 0 or self.max_delay_s <= 0:
            raise ConfigurationError("backoff delays must be positive")
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError("jitter must be in [0, 1)")

    def delay_for(self, retry_index: int,
                  rng: random.Random | None = None) -> float:
        """Backoff before the ``retry_index``-th retry (1-based)."""
        if retry_index < 1:
            raise ConfigurationError("retry_index is 1-based")
        delay = min(
            self.base_delay_s * self.multiplier ** (retry_index - 1),
            self.max_delay_s,
        )
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay

    def delays(self, rng: random.Random | None = None) -> list[float]:
        """All backoff delays of one full (exhausted) episode."""
        return [
            self.delay_for(index, rng)
            for index in range(1, self.max_attempts)
        ]

    def worst_case_delays(self) -> list[float]:
        """Upper bound per delay with jitter at its +fraction extreme.

        Horizon computations must use this, not ``delays(None)``: the
        nominal ladder underestimates a fully jittered episode by up to
        ``jitter`` per step, which is exactly the margin a bounded-
        horizon guarantee cannot afford to lose.
        """
        return [delay * (1.0 + self.jitter) for delay in self.delays(None)]


def _retry_instruments(obs):
    metrics = obs.metrics
    return (
        metrics.counter(
            "retry.attempts",
            help="re-attempts after transient failures",
            labelnames=("op",),
        ),
        metrics.counter(
            "retry.exhausted",
            help="retry episodes that gave up after max_attempts",
            labelnames=("op",),
        ),
        metrics.histogram(
            "retry.backoff_seconds",
            help="backoff delays between retry attempts",
            buckets=(1, 2, 5, 10, 30, 60, 120, float("inf")),
        ),
    )


def retry_call(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy | None,
    obs,
    rng: random.Random | None = None,
    operation: str = "op",
    transient: tuple[type[Exception], ...] = TRANSIENT_ERRORS,
) -> T:
    """Call ``fn``, retrying transient failures up to the policy budget.

    The first attempt runs bare — a clean call records no metrics, no
    events, no span. On exhaustion the *last* transient error is
    re-raised, after ``retry.exhausted`` is recorded. With no
    ``policy`` the bare attempt is the only one: its transient error
    is re-raised as is, and nothing is recorded.
    """
    try:
        return fn()
    except transient as error:
        if policy is None:
            raise
        first_error = error
    attempts_metric, exhausted_metric, backoff_metric = _retry_instruments(obs)
    error = first_error
    with obs.tracer.span("retry", op=operation) as span:
        for attempt in range(2, policy.max_attempts + 1):
            delay = policy.delay_for(attempt - 1, rng)
            backoff_metric.observe(delay)
            attempts_metric.labels(op=operation).inc()
            obs.events.emit(
                "retry.attempt", op=operation, attempt=attempt,
                backoff_s=round(delay, 3), error=type(error).__name__,
            )
            try:
                result = fn()
            except transient as next_error:
                error = next_error
                continue
            span.annotate(attempts=attempt, outcome="ok")
            return result
        exhausted_metric.labels(op=operation).inc()
        obs.events.emit(
            "retry.exhausted", op=operation, attempts=policy.max_attempts,
            error=type(error).__name__,
        )
        span.annotate(attempts=policy.max_attempts, outcome="exhausted")
    raise error


#: One jitter stream per world, derived from the world's seed: callers
#: that do not thread their own rng still get deterministic, *enabled*
#: jitter instead of silently losing it to ``delay_for(..., rng=None)``.
_jitter_streams: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _world_jitter_rng(world) -> random.Random:
    stream = _jitter_streams.get(world)
    if stream is None:
        stream = world.rng("faults.retry.jitter")
        _jitter_streams[world] = stream
    return stream


def schedule_retry(
    world,
    policy: RetryPolicy,
    retry_index: int,
    callback: Callable[[], None],
    *,
    rng: random.Random | None = None,
    label: str = "retry",
):
    """Schedule ``callback`` after the policy's backoff, in sim time.

    Returns the event handle, or ``None`` when ``retry_index`` exceeds
    the policy budget (the caller should degrade gracefully instead).
    When no ``rng`` is given the delay is jittered from a world-seeded
    stream — jitter is never silently disabled on the deferred path.
    """
    if retry_index >= policy.max_attempts:
        return None
    if rng is None and policy.jitter:
        rng = _world_jitter_rng(world)
    delay = max(1, round(policy.delay_for(retry_index, rng)))
    return world.loop.schedule_in(delay, callback, label=label)
