"""Tests for the observability subsystem: metrics, tracing, events,
the per-World / process-default split, the stable export schema, and
the instrumentation woven into the protocol layers."""

import json

import pytest

from repro.commons.aggregation import AggregationNode, MaskedSum
from repro.crypto.primitives import hmac_invocations, hmac_sha256
from repro.errors import CellOfflineError, ConfigurationError
from repro.infrastructure.network import Network
from repro.obs import (
    EXPORT_SCHEMA_VERSION,
    Counter,
    Observability,
    get_default,
)
from repro.policy.conditions import AccessContext
from repro.policy.ucon import RIGHT_READ, Grant, UsagePolicy
from repro.sim.world import World
from repro.store.timeseries import TimeSeries


class TestMetricsRegistry:
    def test_counter_inc_and_snapshot(self):
        obs = Observability()
        counter = obs.metrics.counter("x.count", help="a test counter")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert obs.metrics.snapshot()["x.count"] == {"kind": "counter", "value": 5}

    def test_get_or_create_returns_same_instrument(self):
        obs = Observability()
        first = obs.metrics.counter("same")
        second = obs.metrics.counter("same")
        assert first is second

    def test_name_collision_across_kinds_rejected(self):
        obs = Observability()
        obs.metrics.counter("dual")
        with pytest.raises(ConfigurationError):
            obs.metrics.gauge("dual")

    def test_labels_are_cached_children(self):
        obs = Observability()
        counter = obs.metrics.counter("by.outcome", labelnames=("outcome",))
        counter.labels(outcome="ok").inc(2)
        counter.labels(outcome="fail").inc()
        assert counter.labels(outcome="ok").value == 2
        assert obs.metrics.snapshot()["by.outcome"]["labels"] == {
            "fail": 1, "ok": 2,
        }

    def test_counter_total(self):
        obs = Observability()
        metrics = obs.metrics
        assert Counter.total(metrics, "never.registered") == 0
        metrics.counter("plain").inc(3)
        assert Counter.total(metrics, "plain") == 3
        labelled = metrics.counter("by.kind", labelnames=("kind",))
        labelled.labels(kind="loss").inc(2)
        labelled.labels(kind="churn").inc(5)
        assert Counter.total(metrics, "by.kind") == 7
        labelled.inc()  # a bump on the parent counts beside its children
        assert Counter.total(metrics, "by.kind") == 8

    def test_wrong_labels_raise(self):
        obs = Observability()
        counter = obs.metrics.counter("strict", labelnames=("a",))
        with pytest.raises(ConfigurationError):
            counter.labels(b="nope")

    def test_gauge_set_inc_dec(self):
        obs = Observability()
        gauge = obs.metrics.gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12

    def test_histogram_buckets_and_stats(self):
        obs = Observability()
        histogram = obs.metrics.histogram("lat", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 3
        assert snapshot["sum"] == 55.5
        assert snapshot["min"] == 0.5 and snapshot["max"] == 50.0
        assert snapshot["buckets"] == {"1.0": 1, "10.0": 1, "+Inf": 1}

    def test_disabled_registry_is_noop_but_always_counters_count(self):
        obs = Observability()
        plain = obs.metrics.counter("plain")
        oracle = obs.metrics.counter("oracle", always=True)
        gauge = obs.metrics.gauge("g")
        obs.disable()
        plain.inc()
        oracle.inc()
        gauge.set(3)
        assert plain.value == 0
        assert oracle.value == 1
        assert gauge.value == 0.0

    def test_reset_zeroes_in_place(self):
        obs = Observability()
        counter = obs.metrics.counter("keep.me", labelnames=("k",))
        child = counter.labels(k="a")
        child.inc(7)
        obs.reset()
        assert child.value == 0
        child.inc()  # the bound child must still be live after reset
        assert counter.labels(k="a").value == 1


class TestTracer:
    def test_spans_nest_and_record_depth_and_parent(self):
        obs = Observability(clock=iter(range(100)).__next__)
        with obs.tracer.span("outer") as outer:
            with obs.tracer.span("inner", detail=1):
                pass
        spans = obs.tracer.spans()
        assert [span.name for span in spans] == ["inner", "outer"]
        inner, outer_done = spans
        assert inner.depth == 1 and inner.parent_id == outer.span_id
        assert outer_done.depth == 0 and outer_done.parent_id is None
        assert outer_done.duration >= inner.duration

    def test_world_tracer_stamps_sim_time(self):
        world = World()
        with world.obs.tracer.span("op") as span:
            world.clock.advance(42)
        assert span.start == 0.0 and span.end == 42.0
        assert span.duration == 42.0

    def test_disabled_tracer_hands_out_noop_span(self):
        obs = Observability(enabled=False)
        with obs.tracer.span("ghost") as span:
            span.annotate(ignored=True)
        assert obs.tracer.spans() == []

    def test_error_flag_set_on_exception(self):
        obs = Observability()
        with pytest.raises(ValueError):
            with obs.tracer.span("boom"):
                raise ValueError("x")
        assert obs.tracer.spans("boom")[0].error is True

    def test_max_spans_cap_counts_drops(self):
        obs = Observability(max_spans=2)
        for index in range(4):
            with obs.tracer.span(f"s{index}"):
                pass
        assert len(obs.tracer.spans()) == 2
        assert obs.tracer.dropped == 2

    def test_annotate_attaches_attrs(self):
        obs = Observability()
        with obs.tracer.span("op", a=1) as span:
            span.annotate(b=2)
        assert obs.tracer.last("op").attrs == {"a": 1, "b": 2}


class TestEventLog:
    def test_emit_and_filter(self):
        obs = Observability()
        obs.events.emit("net.drop", source="a")
        obs.events.emit("policy", allowed=True)
        assert len(obs.events.events()) == 2
        assert obs.events.events("net.drop")[0]["source"] == "a"
        assert obs.events.counts_by_kind() == {"net.drop": 1, "policy": 1}

    def test_capacity_evicts_oldest(self):
        obs = Observability(event_capacity=3)
        for index in range(5):
            obs.events.emit("tick", index=index)
        retained = obs.events.events()
        assert [event["index"] for event in retained] == [2, 3, 4]
        assert obs.events.emitted == 5

    def test_world_events_carry_sim_time(self):
        world = World()
        world.clock.advance(7)
        world.obs.events.emit("thing")
        assert world.obs.events.events()[0]["t"] == 7.0

    def test_disabled_log_records_nothing(self):
        obs = Observability(enabled=False)
        obs.events.emit("nope")
        assert len(obs.events.events()) == 0


class TestExportSchema:
    """Tier-1 guard: the JSON export schema downstream tooling (the
    aggregation bench, the CLI dump) consumes must stay stable."""

    def test_export_top_level_schema(self):
        world = World()
        with world.obs.tracer.span("agg.round", protocol="masked"):
            pass
        world.obs.events.emit("network.drop", source="a", destination="b")
        world.obs.metrics.counter("net.messages").inc()
        export = world.obs.export()
        assert set(export) == {"schema", "metrics", "trace", "events"}
        assert export["schema"] == EXPORT_SCHEMA_VERSION == 1
        json.dumps(export)  # must be JSON-serializable as-is

    def test_span_record_schema(self):
        world = World()
        with world.obs.tracer.span("op", n=3):
            pass
        (record,) = world.obs.export()["trace"]["spans"]
        assert set(record) == {
            "id", "parent", "name", "start", "end", "duration", "depth",
            "error", "attrs",
        }
        assert record["attrs"] == {"n": 3}

    def test_event_record_schema(self):
        world = World()
        world.obs.events.emit("vault.detect", reason="tamper")
        export = world.obs.export()["events"]
        assert set(export) == {"events", "emitted", "retained"}
        (record,) = export["events"]
        assert {"seq", "kind", "t"} <= set(record)

    def test_metric_snapshot_schema(self):
        world = World()
        world.obs.metrics.counter("c").inc()
        world.obs.metrics.gauge("g").set(2)
        world.obs.metrics.histogram("h", buckets=(1.0,)).observe(0.5)
        metrics = world.obs.export()["metrics"]
        assert metrics["c"] == {"kind": "counter", "value": 1}
        assert metrics["g"] == {"kind": "gauge", "value": 2}
        assert set(metrics["h"]) == {
            "kind", "count", "sum", "mean", "min", "max", "buckets",
        }


class TestDefaultScope:
    def test_default_is_a_stable_singleton(self):
        assert get_default() is get_default()

    def test_hmac_shim_is_backed_by_registry(self):
        before = hmac_invocations()
        hmac_sha256(b"k" * 16, b"m")
        assert hmac_invocations() == before + 1
        assert get_default().metrics.get("crypto.hmac.calls").value == \
            hmac_invocations()

    def test_hmac_counts_even_when_disabled(self):
        obs = get_default()
        obs.disable()
        try:
            before = hmac_invocations()
            hmac_sha256(b"k" * 16, b"m")
            assert hmac_invocations() == before + 1
        finally:
            obs.enable()

    def test_reset_fixture_isolates_counts(self):
        # conftest resets between tests; within a test we can reset too
        hmac_sha256(b"k" * 16, b"m")
        get_default().reset()
        assert hmac_invocations() == 0


class TestProtocolInstrumentation:
    def _nodes(self, count):
        nodes = [
            AggregationNode.preshared(f"n-{i}", b"obs-test")
            for i in range(count)
        ]
        values = {node.name: index for index, node in enumerate(nodes)}
        return nodes, values

    def test_masked_round_emits_span_event_and_counters(self):
        obs = get_default()
        nodes, values = self._nodes(4)
        MaskedSum().run(nodes, values, round_tag="obs-1")
        span = obs.tracer.last("agg.round")
        assert span is not None and span.attrs["protocol"] == "masked"
        (event,) = obs.events.events("agg.round")
        assert event["participants"] == 4 and event["dropped"] == 0
        assert obs.metrics.get("agg.rounds").labels(protocol="masked").value == 1
        assert obs.metrics.get("agg.messages").value == 4

    def test_dropout_recovery_nests_inside_round_span(self):
        obs = get_default()
        nodes, values = self._nodes(5)
        online = {node.name for node in nodes[1:]}
        MaskedSum().run(nodes, values, online=online, round_tag="obs-2")
        (recovery,) = obs.tracer.spans("agg.recovery")
        round_span = obs.tracer.last("agg.round")
        assert recovery.parent_id == round_span.span_id
        assert recovery.depth == round_span.depth + 1

    def test_policy_decisions_counted_and_logged(self):
        obs = get_default()
        policy = UsagePolicy(
            owner="alice",
            grants=(Grant(rights=(RIGHT_READ,), subjects=("bob",)),),
        )
        bob = AccessContext(subject="bob", timestamp=0)
        eve = AccessContext(subject="eve", timestamp=0)
        assert policy.evaluate(RIGHT_READ, bob).allowed
        assert not policy.evaluate(RIGHT_READ, eve).allowed
        decisions = obs.metrics.get("policy.decisions")
        assert decisions.labels(outcome="granted").value == 1
        assert decisions.labels(outcome="denied").value == 1
        denied = [event for event in obs.events.events("policy.decision")
                  if not event["allowed"]]
        assert denied[0]["subject"] == "eve"

    def test_timeseries_cache_counters(self):
        obs = get_default()
        series = TimeSeries("meter")
        series.extend((t, 1.0) for t in range(10))
        assert obs.metrics.get("store.appends").value == 10
        series.resample(5)
        series.resample(5)
        assert obs.metrics.get("store.resample.misses").value == 1
        assert obs.metrics.get("store.resample.hits").value == 1


class TestNetworkInstrumentation:
    def make(self):
        world = World()
        network = Network(world)
        inboxes = {"a": [], "b": []}
        network.register("a", lambda s, m: inboxes["a"].append((s, m)))
        network.register("b", lambda s, m: inboxes["b"].append((s, m)))
        return world, network, inboxes

    def test_per_link_bytes_tracked(self):
        world, network, _ = self.make()
        network.send("a", "b", "x", size_bytes=100)
        network.send("a", "b", "y", size_bytes=40)
        network.send("b", "a", "z", size_bytes=9)
        assert network.stats.per_link[("a", "b")] == 2
        assert network.stats.per_link_bytes[("a", "b")] == 140
        assert network.stats.per_link_bytes[("b", "a")] == 9

    def test_world_metrics_mirror_stats(self):
        world, network, _ = self.make()
        network.send("a", "b", "x", size_bytes=64)
        metrics = world.obs.metrics
        assert metrics.get("net.messages").value == 1
        assert metrics.get("net.bytes").value == 64

    def test_drop_and_queue_emit_events(self):
        world, network, _ = self.make()
        network.set_online("b", False)
        network.send("a", "b", "parked", queue_if_offline=True)
        with pytest.raises(CellOfflineError):
            network.send("a", "b", "lost")
        kinds = world.obs.events.counts_by_kind()
        assert kinds == {"network.queue": 1, "network.drop": 1}
        network.set_online("b", True)
        assert world.obs.events.counts_by_kind()["network.flush"] == 1


class TestNetworkQueueFlush:
    """set_online queue-flush ordering and dropped/queued accounting."""

    def make(self):
        world = World()
        network = Network(world)
        inbox = []
        network.register("src", lambda s, m: None)
        network.register("dst", lambda s, m: inbox.append(m))
        return world, network, inbox

    def test_flush_preserves_fifo_order(self):
        world, network, inbox = self.make()
        network.set_online("dst", False)
        for index in range(5):
            network.send("src", "dst", f"m{index}", queue_if_offline=True)
        assert network.stats.queued == 5
        assert inbox == []
        network.set_online("dst", True)
        world.loop.run_for(10)
        assert inbox == [f"m{index}" for index in range(5)]

    def test_flush_records_traffic_on_delivery_not_enqueue(self):
        world, network, inbox = self.make()
        network.set_online("dst", False)
        network.send("src", "dst", "m", size_bytes=80, queue_if_offline=True)
        assert network.stats.messages == 0 and network.stats.bytes == 0
        network.set_online("dst", True)
        world.loop.run_for(10)
        assert network.stats.messages == 1
        assert network.stats.bytes == 80
        assert network.stats.per_link_bytes[("src", "dst")] == 80

    def test_offline_destination_fail_fast_counts_dropped(self):
        world, network, _ = self.make()
        network.set_online("dst", False)
        with pytest.raises(CellOfflineError):
            network.send("src", "dst", "gone")
        assert network.stats.dropped == 1
        assert network.stats.queued == 0

    def test_queue_if_offline_counts_queued_not_dropped(self):
        world, network, _ = self.make()
        network.set_online("dst", False)
        network.send("src", "dst", "parked", queue_if_offline=True)
        assert network.stats.queued == 1
        assert network.stats.dropped == 0

    def test_offline_sender_fails_without_dropped_accounting(self):
        world, network, _ = self.make()
        network.set_online("src", False)
        with pytest.raises(CellOfflineError):
            network.send("src", "dst", "x")
        # the sender never put the message on the wire: not a drop
        assert network.stats.dropped == 0

    def test_reflush_only_delivers_new_messages(self):
        world, network, inbox = self.make()
        network.set_online("dst", False)
        network.send("src", "dst", "first", queue_if_offline=True)
        network.set_online("dst", True)
        world.loop.run_for(10)
        network.set_online("dst", False)
        network.send("src", "dst", "second", queue_if_offline=True)
        network.set_online("dst", True)
        world.loop.run_for(10)
        assert inbox == ["first", "second"]


class TestCliObsCommand:
    def test_obs_dump_text(self, capsys):
        from repro.__main__ import main

        assert main(["obs"]) == 0
        output = capsys.readouterr().out
        assert "observability dump" in output
        assert "crypto.hmac.calls" in output

    def test_obs_dump_json_export(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "obs.json"
        assert main(["obs", "--json", str(path)]) == 0
        export = json.loads(path.read_text())
        assert set(export) == {"schema", "metrics", "trace", "events"}
        assert export["schema"] == 1

    def test_obs_unknown_experiment_errors(self, capsys):
        from repro.__main__ import main

        assert main(["obs", "E99"]) == 2
