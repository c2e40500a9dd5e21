"""Span tracing installed from outside the program.

``install()`` rebinds the public callables named in :data:`TARGETS`
with recording wrappers and ``restore()`` puts the originals back; no
file under ``src/`` is edited. A wrapper is inert until the sampler
arms the tracer for an op, so set-up, warm-up and the untraced half of
a traced run execute the original code plus one flag test.

A span's *self time* is its duration minus the part its child spans
cover; every span accrues its self time to exactly one per-layer
``*_ms`` metric, so within an op the metrics plus the uncovered
remainder (``harness.untraced_ms``) add up to the op's wall time.
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

#: Raw span rows kept for ``trace.json``; later rows are only counted.
MAX_SPAN_ROWS = 250_000

Probe = Callable[["Tracer", tuple, Any], None]


class Tracer:
    """In-memory span recorder with a span stack."""

    def __init__(self) -> None:
        self.armed = False
        self.op_id = -1
        # One frame per open span: [child seconds, row index].
        self._stack: list[list] = []
        self._op_self: dict[str, float] = {}
        self._op_spans = 0
        self._next_row = 0
        self.calls: dict[str, int] = {}
        self.tally: dict[str, float] = {}
        self.labels: list[str] = []
        # (row, label id, start, end, parent row, op id)
        self.rows: list[tuple[int, int, float, float, int, int]] = []
        self.rows_dropped = 0
        self.targets_missing = 0
        self._restore: list[tuple[Any, str, Any]] = []

    # -- op boundaries (driven by the sampler) -------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._op_self = {}
        self._op_spans = 0
        self.armed = True

    def end_op(self) -> tuple[dict[str, float], int]:
        """Disarm; returns the op's self seconds by metric (the
        uncovered remainder is the caller's wall minus their sum)."""
        self.armed = False
        return self._op_self, self._op_spans

    # -- recording -------------------------------------------------------------

    def label(self, text: str) -> int:
        if text not in self.labels:
            self.labels.append(text)
        return self.labels.index(text)

    def add(self, name: str, amount: float = 1) -> None:
        self.tally[name] = self.tally.get(name, 0) + amount

    def enter(self) -> list:
        frame = [0.0, self._next_row]
        self._next_row += 1
        self._stack.append(frame)
        return frame

    def leave(self, frame: list, label_id: int, time_metric: str,
              calls_metric: str | None, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        op_self = self._op_self
        op_self[time_metric] = op_self.get(time_metric, 0.0) \
            + duration - frame[0]
        if stack:
            stack[-1][0] += duration
            parent = stack[-1][1]
        else:
            parent = -1
        if calls_metric is not None:
            self.calls[calls_metric] = self.calls.get(calls_metric, 0) + 1
        self._op_spans += 1
        if len(self.rows) < MAX_SPAN_ROWS:
            self.rows.append(
                (frame[1], label_id, start, end, parent, self.op_id))
        else:
            self.rows_dropped += 1

    # -- wrappers --------------------------------------------------------------

    def span(self, fn: Callable, label: str, time_metric: str,
             calls_metric: str | None = None,
             probe: Probe | None = None) -> Callable:
        label_id = self.label(label)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.armed:
                return fn(*args, **kwargs)
            frame = self.enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(frame, label_id, time_metric, calls_metric,
                           start, perf_counter())
            if probe is not None:
                probe(self, args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def counted(self, fn: Callable, calls_metric: str) -> Callable:
        """Count calls only: for leaves called thousands of times per
        op, where two clock reads would cost more than the call."""
        calls = self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self.armed:
                calls[calls_metric] = calls.get(calls_metric, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def generator(self, fn: Callable, label: str, time_metric: str,
                  calls_metric: str | None = None) -> Callable:
        """Wrap a generator function: each resumption is a span, so the
        consumer's work between two ``next()`` calls is not billed to
        the producer."""
        label_id = self.label(label)

        def resumptions(iterator: Any) -> Any:
            while True:
                frame = self.enter()
                start = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.leave(frame, label_id, time_metric, None,
                               start, perf_counter())
                yield item

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            iterator = fn(*args, **kwargs)
            if not self.armed:
                return iterator
            if calls_metric is not None:
                self.calls[calls_metric] = \
                    self.calls.get(calls_metric, 0) + 1
            return resumptions(iterator)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Rebind every target; a target that no longer resolves is
        counted in ``targets_missing`` and skipped, never an error."""
        for target in TARGETS:
            try:
                self._install_target(target)
            except (ImportError, AttributeError, KeyError):
                self.targets_missing += 1

    def _install_target(self, target: "Target") -> None:
        module = importlib.import_module(target.module)
        owner_name, _, method_name = target.attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[method_name]
            binder = type(raw) if isinstance(
                raw, (classmethod, staticmethod)) else None
            function = raw.__func__ if binder else raw
            wrapped = target.wrap(self, function)
            self._bind(owner, method_name, raw,
                       binder(wrapped) if binder else wrapped)
            return
        original = getattr(module, target.attribute)
        wrapped = target.wrap(self, original)
        # ``from .spec import wire_size`` copies the reference: rebind
        # it in every loaded repro namespace that holds the original.
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                    name == "repro" or name.startswith("repro.")):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    self._bind(loaded, attribute, original, wrapped)

    def _bind(self, owner: Any, name: str, original: Any,
              replacement: Any) -> None:
        setattr(owner, name, replacement)
        self._restore.append((owner, name, original))

    def restore(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def installed(self) -> list[tuple[Any, str, Any]]:
        """``(owner, name, original)`` for every rebound attribute."""
        return list(self._restore)

    # -- output ----------------------------------------------------------------

    def write(self, path: Any) -> None:
        """Spans as ``[row, label, start_s, end_s, parent_row, op_id]``,
        times relative to the first recorded span."""
        origin = self.rows[0][2] if self.rows else 0.0
        with open(path, "w") as handle:
            json.dump({
                "labels": self.labels,
                "columns": ["row", "label", "start_s", "end_s",
                            "parent_row", "op_id"],
                "spans": [
                    [row, label, round(start - origin, 7),
                     round(end - origin, 7), parent, op_id]
                    for row, label, start, end, parent, op_id in self.rows
                ],
                "spans_dropped": self.rows_dropped,
            }, handle, separators=(",", ":"))


# -- what is wrapped -----------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One public callable and the per-layer metrics it feeds."""

    module: str
    attribute: str  # ``function`` or ``Class.method``
    time_metric: str | None  # None: count calls only
    calls_metric: str | None = None
    kind: str = "span"  # span | generator | count | register | schedule
    probe: Probe | None = None

    def wrap(self, tracer: Tracer, fn: Callable) -> Callable:
        label = f"{self.module.removeprefix('repro.')}.{self.attribute}"
        if self.kind == "count":
            return tracer.counted(fn, self.calls_metric)
        if self.kind == "generator":
            return tracer.generator(
                fn, label, self.time_metric, self.calls_metric)
        if self.kind == "register":
            return _register_wrapper(tracer, fn)
        if self.kind == "schedule":
            return _schedule_wrapper(tracer, fn)
        return tracer.span(
            fn, label, self.time_metric, self.calls_metric, self.probe)


#: Endpoint handlers by address prefix, first match wins; every other
#: address is a cell. The workloads use the coordinators' default
#: addresses, so these name roles, not benchmark inputs.
HANDLER_ROLES = (
    ("fq-root.r", "hierarchy.region_handler", "hierarchy.region_handler_self_ms", None),
    ("fq-root", "hierarchy.root_handler", "hierarchy.root_handler_self_ms", None),
    ("fq-coordinator", "coordinator.handler", "coordinator.handler_self_ms",
     "coordinator.handler_calls"),
    ("", "cell.handler", "cell.handler_self_ms", "cell.handler_calls"),
)

#: Loop callbacks that are not message deliveries, by the label the
#: program passes to the public ``EventLoop.schedule_at``.
CALLBACK_ROLES = (
    ("fq deadline", "coordinator.deadline", "coordinator.deadline_self_ms"),
    ("fq window close", "standing.close_tick", "standing.close_tick_ms"),
    ("fq window open", "standing.open_tick", "standing.open_tick_ms"),
    ("traffic ingest", "traffic.ingest", "harness.ingest_tick_ms"),
)


def _register_wrapper(tracer: Tracer, register: Callable) -> Callable:
    """``Network.register`` with the handler wrapped by endpoint role."""

    def wrapper(network: Any, address: str, handler: Callable,
                *args: Any, **kwargs: Any) -> Any:
        for prefix, label, time_metric, calls_metric in HANDLER_ROLES:
            if address.startswith(prefix):
                handler = tracer.span(
                    handler, label, time_metric, calls_metric)
                break
        return register(network, address, handler, *args, **kwargs)

    wrapper.__wrapped__ = register  # type: ignore[attr-defined]
    return wrapper


def _schedule_wrapper(tracer: Tracer, schedule_at: Callable) -> Callable:
    """``EventLoop.schedule_at`` with role callbacks wrapped by label."""

    def wrapper(loop: Any, timestamp: int, callback: Callable,
                label: str = "") -> Any:
        for prefix, role, time_metric in CALLBACK_ROLES:
            if label.startswith(prefix):
                callback = tracer.span(callback, role, time_metric)
                break
        return schedule_at(loop, timestamp, callback, label)

    wrapper.__wrapped__ = schedule_at  # type: ignore[attr-defined]
    return wrapper


def _query_probe(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("catalog.records_examined", result.records_examined)
    tracer.add("catalog.rows_returned", len(result.rows))
    head = result.plan.split(":", 1)[0]
    plan = "index" if head in ("index", "range", "keyword") else head
    tracer.add(f"catalog.plan.{plan}")


def _decode_page_probe(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("encoding.records_decoded", len(args[0]))
    tracer.add("encoding.scalar_rows", len(result.scalar_rows))


_FQ = "repro.fedquery."
_MESSAGES = "spec.message_build_ms"

TARGETS: tuple[Target, ...] = (
    # sim
    Target("repro.sim.events", "EventLoop.run_until", "sim.loop_self_ms"),
    Target("repro.sim.events", "EventLoop.schedule_at", None,
           kind="schedule"),
    # infrastructure.network
    Target("repro.infrastructure.network", "Network.register", None,
           kind="register"),
    Target("repro.infrastructure.network", "Network.send",
           "network.send_self_ms", "network.send_calls"),
    # fedquery.spec: the wire codec
    Target(_FQ + "spec", "wire_size", "spec.wire_size_ms",
           "spec.wire_size_calls"),
    Target(_FQ + "spec", "FedQuerySpec.from_wire", _MESSAGES,
           "spec.from_wire_calls"),
    Target(_FQ + "spec", "FedQuerySpec.to_wire", _MESSAGES),
    Target(_FQ + "spec", "plan_message", _MESSAGES),
    Target(_FQ + "spec", "partial_message", _MESSAGES),
    Target(_FQ + "spec", "recover_message", _MESSAGES),
    Target(_FQ + "spec", "mask_message", _MESSAGES),
    Target(_FQ + "spec", "shard_plan_message", _MESSAGES),
    Target(_FQ + "spec", "shard_partial_message", _MESSAGES),
    Target(_FQ + "spec", "shard_recover_message", _MESSAGES),
    Target(_FQ + "spec", "shard_mask_message", _MESSAGES),
    # fedquery coordinators (their handlers: HANDLER_ROLES)
    Target(_FQ + "coordinator", "Coordinator.run",
           "coordinator.run_self_ms"),
    Target(_FQ + "hierarchy", "HierarchicalCoordinator.run",
           "hierarchy.run_self_ms"),
    Target(_FQ + "journal", "QueryJournal.append", "journal.append_ms",
           "journal.append_calls"),
    # fedquery.gate
    Target(_FQ + "gate", "masked_contribution",
           "gate.masked_contribution_ms", "gate.masked_contribution_calls"),
    Target(_FQ + "gate", "net_recovery_mask",
           "gate.net_recovery_mask_ms", "gate.net_recovery_mask_calls"),
    Target(_FQ + "gate", "seal_records", "gate.seal_records_ms",
           "gate.seal_records_calls"),
    Target(_FQ + "gate", "dp_noise_share", None,
           "gate.dp_noise_share_calls", kind="count"),
    # commons.kernels
    Target("repro.commons.kernels", "expand_streams",
           "kernels.expand_streams_ms", "kernels.expand_streams_calls"),
    Target("repro.commons.kernels", "accumulate", "kernels.accumulate_ms"),
    Target("repro.commons.kernels", "signed_accumulate",
           "kernels.accumulate_ms"),
    # crypto (hmac_sha256 is read from its registry counter instead:
    # tens of thousands of calls per query)
    Target("repro.crypto.aead", "seal", "crypto.seal_ms",
           "crypto.seal_calls"),
    Target("repro.crypto.aead", "open_sealed", "crypto.open_ms"),
    # store.catalog
    Target("repro.store.catalog", "Catalog.query",
           "catalog.query_self_ms", "catalog.query_calls",
           probe=_query_probe),
    Target("repro.store.catalog", "Collection.get_many",
           "catalog.query_self_ms", "catalog.query_calls"),
    Target("repro.store.catalog", "Collection.insert",
           "catalog.insert_self_ms"),
    Target("repro.store.catalog", "Collection.insert_many",
           "catalog.insert_self_ms"),
    # store.log_store
    Target("repro.store.log_store", "LogStructuredStore.put",
           "log_store.insert_ms"),
    Target("repro.store.log_store", "LogStructuredStore.insert_many",
           "log_store.insert_ms"),
    Target("repro.store.log_store", "LogStructuredStore.scan",
           "log_store.scan_ms", kind="generator"),
    Target("repro.store.log_store", "LogStructuredStore.scan_range",
           "log_store.scan_ms", kind="generator"),
    Target("repro.store.log_store", "LogStructuredStore.scan_batches",
           "log_store.scan_ms", kind="generator"),
    Target("repro.store.log_store", "LogStructuredStore.get",
           "log_store.get_ms"),
    Target("repro.store.log_store", "LogStructuredStore.get_many",
           "log_store.get_ms"),
    Target("repro.store.log_store", "LogStructuredStore.flush",
           "log_store.flush_ms", "log_store.flush_calls"),
    Target("repro.store.log_store", "LogStructuredStore.checkpoint",
           "log_store.checkpoint_ms"),
    # store.encoding
    Target("repro.store.encoding", "encode_record", "encoding.encode_ms"),
    Target("repro.store.encoding", "lane_plan", "encoding.encode_ms"),
    Target("repro.store.encoding", "encode_frame_runs",
           "encoding.encode_ms"),
    Target("repro.store.encoding", "decode_page",
           "encoding.decode_page_ms", "encoding.decode_page_calls",
           probe=_decode_page_probe),
    Target("repro.store.encoding", "decode_record", None,
           "encoding.decode_record_calls", kind="count"),
)


def self_time_metrics() -> set[str]:
    """Every metric a span can accrue self time to."""
    metrics = {t.time_metric for t in TARGETS if t.time_metric}
    metrics.update(role[2] for role in HANDLER_ROLES)
    metrics.update(role[2] for role in CALLBACK_ROLES)
    return metrics
