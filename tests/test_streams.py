"""Tests for stream operators and store-and-forward."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, CellOfflineError, ConfigurationError
from repro.hardware import SENSOR_CELL, SMART_TOKEN
from repro.obs import get_default
from repro.streams import (
    DROP_NEWEST,
    Clip,
    Downsample,
    InOrderDelivery,
    Quantize,
    RateLimit,
    Sample,
    SequencedUplink,
    StoreAndForwardQueue,
    StreamPipeline,
    ThresholdEvents,
    Transform,
    WindowMean,
)


def samples(values, start=0, step=1):
    return [Sample(start + i * step, float(v)) for i, v in enumerate(values)]


class TestOperators:
    def test_downsample(self):
        pipeline = StreamPipeline([Downsample(3)])
        out = pipeline.process(samples(range(10)))
        assert [s.value for s in out] == [0.0, 3.0, 6.0, 9.0]

    def test_downsample_factor_one_passthrough(self):
        out = StreamPipeline([Downsample(1)]).process(samples(range(4)))
        assert len(out) == 4

    def test_invalid_factor(self):
        with pytest.raises(ConfigurationError):
            Downsample(0)

    def test_window_mean(self):
        out = StreamPipeline([WindowMean(2)]).process(samples([2, 4, 6, 8]))
        assert [(s.timestamp, s.value) for s in out] == [(0, 3.0), (2, 7.0)]

    def test_window_mean_flush_partial(self):
        out = StreamPipeline([WindowMean(10)]).process(samples([5, 7]))
        assert out == [Sample(0, 6.0)]

    def test_clip(self):
        out = StreamPipeline([Clip(0.0, 100.0)]).process(samples([-5, 50, 200]))
        assert [s.value for s in out] == [0.0, 50.0, 100.0]

    def test_clip_inverted_rejected(self):
        with pytest.raises(ConfigurationError):
            Clip(10.0, 0.0)

    def test_quantize(self):
        out = StreamPipeline([Quantize(10.0)]).process(samples([12, 17, 24]))
        assert [s.value for s in out] == [10.0, 20.0, 20.0]

    def test_threshold_events_emit_crossings_only(self):
        out = StreamPipeline([ThresholdEvents(100.0)]).process(
            samples([50, 150, 160, 90, 80, 120])
        )
        assert [(s.timestamp, s.value) for s in out] == [
            (1, 1.0), (3, 0.0), (5, 1.0),
        ]

    def test_rate_limit(self):
        out = StreamPipeline([RateLimit(5)]).process(samples(range(12)))
        assert [s.timestamp for s in out] == [0, 5, 10]

    def test_transform(self):
        out = StreamPipeline([Transform(lambda v: v / 1000.0)]).process(
            samples([1500.0])
        )
        assert out[0].value == 1.5


class TestPipeline:
    def test_composition_meter_export(self):
        """The Linky export path: 1 Hz -> 15-min means, watt-quantized."""
        pipeline = StreamPipeline([WindowMean(900), Quantize(1.0)])
        raw = samples([100.0 + (i % 7) for i in range(1800)])
        out = pipeline.process(raw)
        assert len(out) == 2
        assert all(s.value == round(s.value) for s in out)

    def test_flush_routes_through_downstream(self):
        # the partial window's mean must still pass the quantizer
        pipeline = StreamPipeline([WindowMean(100), Quantize(10.0)])
        out = pipeline.process(samples([13.0, 14.0]))
        assert out == [Sample(0, 10.0)]

    def test_counts(self):
        pipeline = StreamPipeline([Downsample(2)])
        pipeline.process(samples(range(10)))
        assert pipeline.samples_in == 10
        assert pipeline.samples_out == 5

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamPipeline([])

    def test_state_bounds_are_static(self):
        pipeline = StreamPipeline([WindowMean(900), Quantize(1.0), RateLimit(60)])
        before = pipeline.state_bytes
        pipeline.process(samples(range(5000)))
        assert pipeline.state_bytes == before  # O(1) state, by design

    def test_fits_profiles(self):
        pipeline = StreamPipeline([WindowMean(900), Quantize(1.0)])
        assert pipeline.fits(SENSOR_CELL)
        assert pipeline.fits(SMART_TOKEN)
        pipeline.require_fits(SENSOR_CELL)

    def test_oversized_pipeline_rejected(self):
        import dataclasses

        tiny = dataclasses.replace(SENSOR_CELL, ram_bytes=64)
        pipeline = StreamPipeline([WindowMean(900), Quantize(1.0)])
        with pytest.raises(CapacityError):
            pipeline.require_fits(tiny)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1e4), min_size=1,
                    max_size=300),
           st.integers(min_value=1, max_value=50))
    def test_window_mean_mass_preserved(self, values, width):
        """Sum of (mean x count) over windows equals the input sum."""
        pipeline = StreamPipeline([WindowMean(width)])
        stream = samples(values)
        out = pipeline.process(stream)
        # regroup input by window to check each mean
        by_window = {}
        for sample in stream:
            by_window.setdefault(sample.timestamp // width, []).append(sample.value)
        assert len(out) == len(by_window)
        for emitted in out:
            window_values = by_window[emitted.timestamp // width]
            assert emitted.value == pytest.approx(
                sum(window_values) / len(window_values)
            )


class TestStoreAndForward:
    def test_online_direct_forwarding(self):
        sent = []
        queue = StoreAndForwardQueue(10, sent.append)
        queue.offer(Sample(0, 1.0))
        assert len(sent) == 1
        assert len(queue) == 0

    def test_offline_buffers_then_drains_in_order(self):
        sent = []
        queue = StoreAndForwardQueue(10, sent.append)
        queue.set_online(False)
        for i in range(5):
            queue.offer(Sample(i, float(i)))
        assert sent == []
        queue.set_online(True)
        assert [s.timestamp for s in sent] == [0, 1, 2, 3, 4]

    def test_drop_oldest_overflow(self):
        sent = []
        queue = StoreAndForwardQueue(3, sent.append)
        queue.set_online(False)
        for i in range(5):
            queue.offer(Sample(i, float(i)))
        queue.set_online(True)
        assert [s.timestamp for s in sent] == [2, 3, 4]
        assert queue.stats.dropped == 2

    def test_drop_newest_overflow(self):
        sent = []
        queue = StoreAndForwardQueue(3, sent.append, drop_policy=DROP_NEWEST)
        queue.set_online(False)
        for i in range(5):
            queue.offer(Sample(i, float(i)))
        queue.set_online(True)
        assert [s.timestamp for s in sent] == [0, 1, 2]
        assert queue.stats.dropped == 2

    def test_flapping_connectivity(self):
        sent = []
        queue = StoreAndForwardQueue(100, sent.append)
        for i in range(20):
            if i % 5 == 0:
                queue.set_online(not queue.online)
            queue.offer(Sample(i, float(i)))
        queue.set_online(True)
        assert [s.timestamp for s in sent] == list(range(20))

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            StoreAndForwardQueue(0, lambda s: None)
        with pytest.raises(ConfigurationError):
            StoreAndForwardQueue(1, lambda s: None, drop_policy="panic")

    def test_stats(self):
        sent = []
        queue = StoreAndForwardQueue(10, sent.append)
        queue.set_online(False)
        queue.offer(Sample(0, 1.0))
        queue.set_online(True)
        queue.offer(Sample(1, 2.0))
        assert queue.stats.forwarded == 2
        assert queue.stats.buffered == 1


class TestObsInstrumentation:
    def test_pipeline_sample_counters(self):
        StreamPipeline([Downsample(2)]).process(samples(range(10)))
        snapshot = get_default().metrics.get("streams.samples").snapshot()
        assert snapshot["labels"]["in"] == 10
        assert snapshot["labels"]["out"] == 5

    def test_pipeline_span_recorded(self):
        StreamPipeline([Downsample(2)]).process(samples(range(4)))
        spans = get_default().export()["trace"]["spans"]
        assert any(span["name"] == "streams.pipeline" for span in spans)

    def test_dropped_counter_and_queue_depth_gauge(self):
        queue = StoreAndForwardQueue(2, lambda s: None)
        queue.set_online(False)
        for i in range(5):
            queue.offer(Sample(i, float(i)))
        metrics = get_default().metrics
        assert metrics.get("streams.dropped").snapshot()["value"] == 3
        assert metrics.get("streams.queue_depth").snapshot()["value"] == 2
        queue.set_online(True)
        assert metrics.get("streams.queue_depth").snapshot()["value"] == 0


class _FlakySink:
    """An uplink endpoint that can vanish between sends."""

    def __init__(self, fail_on: set[int] | None = None):
        self.sent = []
        self.calls = 0
        self.fail_on = fail_on or set()

    def __call__(self, sample):
        self.calls += 1
        if self.calls in self.fail_on:
            raise CellOfflineError("uplink endpoint vanished")
        self.sent.append(sample)


class TestDrainUnderChurn:
    def test_send_failure_mid_drain_loses_nothing(self):
        sink = _FlakySink(fail_on={3})
        queue = StoreAndForwardQueue(10, sink)
        queue.set_online(False)
        for i in range(5):
            queue.offer(Sample(i, float(i)))
        queue.set_online(True)  # third send raises mid-drain
        assert [s.timestamp for s in sink.sent] == [0, 1]
        assert not queue.online  # the failed send flipped it offline
        assert len(queue) == 3  # the in-flight sample is still queued
        queue.set_online(True)
        assert [s.timestamp for s in sink.sent] == [0, 1, 2, 3, 4]
        assert queue.stats.dropped == 0

    def test_direct_send_failure_buffers_instead_of_losing(self):
        sink = _FlakySink(fail_on={1})
        queue = StoreAndForwardQueue(10, sink)
        queue.offer(Sample(0, 1.0))  # online, no backlog -> direct send
        assert sink.sent == []
        assert len(queue) == 1
        queue.set_online(True)
        assert [s.timestamp for s in sink.sent] == [0]

    def test_repeated_churn_preserves_order(self):
        sink = _FlakySink(fail_on={2, 5, 6})
        queue = StoreAndForwardQueue(32, sink)
        queue.set_online(False)
        for i in range(8):
            queue.offer(Sample(i, float(i)))
        for _ in range(4):  # each reconnect survives another vanish
            queue.set_online(True)
        assert [s.timestamp for s in sink.sent] == list(range(8))


class TestNetworkReorder:
    def test_latency_spike_reorder_delivered_oldest_first(self):
        """Seeded regression: a reconnect burst pushed through the fault
        plane arrives reordered (latency spikes delay messages
        independently), and the sequenced uplink + receiver-side
        resequencer must still deliver oldest-first."""
        from repro.faults import FaultInjector, FaultPlan
        from repro.faults.plan import LinkFaultSpec
        from repro.infrastructure import Network
        from repro.sim import World

        world = World(seed=11)
        network = Network(world)
        plan = FaultPlan(seed=11, link=LinkFaultSpec(
            latency_spike_rate=0.4, latency_spike_s=45,
        ))
        FaultInjector(world, plan).attach_network(network)
        delivered = []
        resequencer = InOrderDelivery(delivered.append)
        network.register(
            "cloud", lambda source, payload: resequencer.receive(payload))
        network.register("cell", lambda source, payload: None)
        uplink = SequencedUplink(
            lambda message: network.send("cell", "cloud", message,
                                         size_bytes=64))
        queue = StoreAndForwardQueue(64, uplink)
        queue.set_online(False)
        for i in range(30):
            queue.offer(Sample(i, float(i)))
        queue.set_online(True)  # the whole burst drains at one instant
        world.loop.run_until(400)
        assert [s.timestamp for s in delivered] == list(range(30))
        assert resequencer.reordered > 0  # the spikes really reordered
        assert resequencer.duplicates == 0
        assert len(resequencer) == 0  # nothing stuck in the hold buffer

    def test_resequencer_swallows_duplicates(self):
        delivered = []
        resequencer = InOrderDelivery(delivered.append)
        resequencer.receive((1, Sample(1, 1.0)))  # early
        resequencer.receive((1, Sample(1, 1.0)))  # duplicate while pending
        resequencer.receive((0, Sample(0, 0.0)))
        resequencer.receive((0, Sample(0, 0.0)))  # duplicate after release
        assert [s.timestamp for s in delivered] == [0, 1]
        assert resequencer.duplicates == 2
        assert resequencer.reordered == 1
