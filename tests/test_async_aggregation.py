"""Tests for asynchronous cloud-mediated aggregation."""

import random

import pytest

from repro.commons import AggregationNode, AsyncMaskedAggregation
from repro.errors import ConfigurationError
from repro.infrastructure import CloudProvider, CuriousAdversary
from repro.sim import World


def build(wake_times, values=None, deadline=3600, seed=81, adversary=None,
          **options):
    """One round over standalone nodes; ``options`` (``neighbors``,
    ``recovery_timeout``, ``max_recovery_rounds``) go to the protocol,
    whose recovery rounds default to 1800 s windows."""
    world = World(seed=seed)
    cloud = CloudProvider(world, adversary)
    rng = random.Random(seed)
    nodes = [
        AggregationNode.standalone(name, rng) for name in sorted(wake_times)
    ]
    values = values or {node.name: 100 for node in nodes}
    protocol = AsyncMaskedAggregation(
        world, cloud, nodes, values, round_tag="daily-total",
        deadline=deadline, wake_times=wake_times, **options,
    )
    return world, cloud, protocol


class TestHappyPath:
    def test_all_submit_before_deadline(self):
        wake_times = {"a": [100], "b": [500], "c": [2000]}
        world, cloud, protocol = build(
            wake_times, values={"a": 10, "b": 20, "c": 30}
        )
        protocol.start()
        world.loop.run_until(4000)
        assert protocol.result.complete
        assert protocol.result.signed_total() == 60
        assert protocol.result.missing == []
        assert protocol.result.completed_at == 3600  # right at the deadline

    def test_cells_never_online_simultaneously(self):
        """The point of the async protocol: disjoint online windows."""
        wake_times = {"a": [10], "b": [1000], "c": [3000]}
        world, cloud, protocol = build(
            wake_times, values={"a": 1, "b": 2, "c": 3}
        )
        protocol.start()
        world.loop.run_until(4000)
        assert protocol.result.signed_total() == 6

    def test_cloud_sees_only_masked_values(self):
        adversary = CuriousAdversary()
        wake_times = {"a": [10], "b": [20]}
        world, cloud, protocol = build(
            wake_times, values={"a": 7, "b": 7}, adversary=adversary
        )
        protocol.start()
        world.loop.run_until(4000)
        assert protocol.result.signed_total() == 14
        # the adversary saw the mailbox payloads; the raw value 7 must
        # not be recoverable from any single masked submission
        assert adversary.stats.objects_observed >= 2


class TestDropoutRecovery:
    def test_missing_cell_recovered_after_deadline(self):
        wake_times = {
            "a": [100, 4000],  # returns after the deadline
            "b": [200, 5000],
            "c": [],  # never shows up
        }
        world, cloud, protocol = build(
            wake_times, values={"a": 10, "b": 20, "c": 999}
        )
        protocol.start()
        world.loop.run_until(10_000)
        assert protocol.result.complete
        assert protocol.result.signed_total() == 30  # c's value excluded
        assert protocol.result.missing == ["c"]
        assert protocol.result.completed_at >= 5000  # waited for b's return

    def test_completion_time_tracks_slowest_survivor(self):
        wake_times = {"a": [100, 3700], "b": [200, 9000], "c": []}
        # a window that covers b's return 5,400 s after the deadline
        world, cloud, protocol = build(wake_times, recovery_timeout=5400)
        protocol.start()
        world.loop.run_until(20_000)
        assert protocol.result.complete
        assert protocol.result.demoted == []
        assert protocol.result.completed_at >= 9000

    def test_survivor_that_never_returns_fails_loudly(self):
        """Survivors that never come back are demoted and the round is
        abandoned with a reason — the run itself does not raise."""
        wake_times = {"a": [100], "b": [200], "c": []}
        world, cloud, protocol = build(wake_times)
        protocol.start()
        world.loop.run_until(10_000)
        assert not protocol.result.complete
        assert protocol.result.demoted == ["a", "b"]
        assert "privacy floor" in protocol.result.failure
        assert world.obs.metrics.get("agg.async.abandoned").value == 1

    def test_nobody_submits_fails_loudly(self):
        wake_times = {"a": [], "b": []}
        world, cloud, protocol = build(wake_times)
        protocol.start()
        world.loop.run_until(10_000)
        assert protocol.result.failure == (
            "no cell submitted before the deadline"
        )
        assert protocol.result.missing == ["a", "b"]
        [abandoned] = world.obs.events.events("agg.async.abandoned")
        assert abandoned["reason"] == protocol.result.failure

    def test_late_wake_counts_as_missing(self):
        wake_times = {"a": [100, 4000], "b": [200, 4100], "c": [3900, 4200]}
        world, cloud, protocol = build(
            wake_times, values={"a": 1, "b": 2, "c": 4}
        )
        protocol.start()
        world.loop.run_until(10_000)
        assert protocol.result.missing == ["c"]
        assert protocol.result.signed_total() == 3


class TestSparseMaskingGraph:
    def test_k_regular_total_exact(self):
        wake_times = {f"c{i}": [100 + i] for i in range(8)}
        values = {f"c{i}": i * 3 for i in range(8)}
        world, cloud, protocol = build(wake_times, values=values, neighbors=4)
        protocol.start()
        world.loop.run_until(4000)
        assert protocol.result.complete
        assert protocol.result.signed_total() == sum(values.values())

    def test_k_regular_dropout_recovery(self):
        wake_times = {f"c{i}": [100 + i, 4000 + i] for i in range(8)}
        wake_times["c3"] = []  # never shows up
        values = {f"c{i}": 10 + i for i in range(8)}
        world, cloud, protocol = build(wake_times, values=values, neighbors=4)
        protocol.start()
        world.loop.run_until(10_000)
        assert protocol.result.complete
        assert protocol.result.missing == ["c3"]
        expected = sum(v for k, v in values.items() if k != "c3")
        assert protocol.result.signed_total() == expected


class TestValidation:
    def test_single_node_rejected(self):
        with pytest.raises(ConfigurationError):
            build({"only": [10]})

    def test_past_deadline_rejected(self):
        world = World(seed=1)
        world.clock.advance(5000)
        cloud = CloudProvider(world)
        rng = random.Random(1)
        nodes = [AggregationNode.standalone(n, rng) for n in ("a", "b")]
        with pytest.raises(ConfigurationError):
            AsyncMaskedAggregation(
                world, cloud, nodes, {"a": 1, "b": 2},
                round_tag="x", deadline=3600, wake_times={"a": [], "b": []},
            )

    def test_accounting(self):
        wake_times = {"a": [100], "b": [200], "c": []}
        world, cloud, protocol = build(wake_times)
        # patch c to have a return so recovery completes
        protocol.wake_times = {"a": [100, 4000], "b": [200, 4100], "c": []}
        protocol.start()
        world.loop.run_until(10_000)
        # 2 submissions + 2 recovery answers
        assert protocol.result.messages == 4
        assert protocol.result.bytes == 4 * 16


class TestGracefulDegradation:
    """recovery_timeout bounds every recovery round: non-answering
    survivors are demoted and the round completes partially instead of
    hanging forever."""

    def test_no_dropouts_complete_and_not_partial(self):
        wake_times = {"a": [100], "b": [500], "c": [2000]}
        world, cloud, protocol = build(
            wake_times, values={"a": 10, "b": 20, "c": 30}
        )
        protocol.start()
        world.loop.run_until(10_000)
        assert protocol.result.complete
        assert not protocol.result.partial
        assert protocol.result.signed_total() == 60

    def test_dropout_recovered_without_demotion(self):
        wake_times = {"a": [100, 4000], "b": [200, 4100], "c": []}
        world, cloud, protocol = build(
            wake_times, values={"a": 10, "b": 20, "c": 999}
        )
        protocol.start()
        world.loop.run_until(10_000)
        assert protocol.result.complete
        assert not protocol.result.partial
        assert protocol.result.demoted == []
        assert protocol.result.signed_total() == 30

    def test_vanished_survivor_demoted_partial_total(self):
        # c submits then vanishes; d never shows. Round 1 demotes c,
        # round 2 re-requests masks for {c, d} from a and b.
        wake_times = {
            "a": [100, 4000, 5500],
            "b": [200, 4100, 5600],
            "c": [300],  # submits, never returns
            "d": [],  # never shows up
        }
        world, cloud, protocol = build(
            wake_times, values={"a": 10, "b": 20, "c": 999, "d": 999}
        )
        protocol.start()
        world.loop.run_until(20_000)
        assert protocol.result.complete
        assert protocol.result.partial
        assert protocol.result.demoted == ["c"]
        assert protocol.result.missing == ["c", "d"]
        assert protocol.result.signed_total() == 30
        assert protocol.result.failure is None

    def test_privacy_floor_abandons_single_survivor(self):
        # only a keeps answering; completing would expose a's bare value
        wake_times = {"a": [100, 4000, 5500, 7000], "b": [200], "c": []}
        world, cloud, protocol = build(wake_times)
        protocol.start()
        world.loop.run_until(30_000)
        assert not protocol.result.complete
        assert protocol.result.partial
        assert "privacy floor" in protocol.result.failure

    def test_round_budget_exhausted_abandons(self):
        # b answers round 1 then vanishes: every round demotes someone
        # until the budget (1 round here) runs out
        wake_times = {"a": [100, 4000], "b": [200, 4100], "c": []}
        world, cloud, protocol = build(
            wake_times, recovery_timeout=100, max_recovery_rounds=1
        )
        # neither a nor b wakes inside the 100 s round window
        protocol.start()
        world.loop.run_until(30_000)
        assert not protocol.result.complete
        assert protocol.result.failure is not None

    def test_nobody_submits_flagged_not_raised(self):
        wake_times = {"a": [], "b": []}
        world, cloud, protocol = build(wake_times)
        protocol.start()
        world.loop.run_until(10_000)  # must not raise
        assert not protocol.result.complete
        assert protocol.result.failure == (
            "no cell submitted before the deadline"
        )

    def test_demotion_observable(self):
        wake_times = {
            "a": [100, 4000, 5500],
            "b": [200, 4100, 5600],
            "c": [300],
            "d": [],
        }
        world, cloud, protocol = build(wake_times)
        protocol.start()
        world.loop.run_until(20_000)
        assert world.obs.metrics.get("agg.async.demoted").value == 1
        assert world.obs.metrics.get("agg.async.partial").value == 1
        demotes = world.obs.events.events("agg.async.demote")
        assert [e["node"] for e in demotes] == ["c"]

    def test_validation(self):
        wake_times = {"a": [100], "b": [200]}
        with pytest.raises(ConfigurationError):
            build(wake_times, recovery_timeout=0)
        with pytest.raises(ConfigurationError):
            build(wake_times, max_recovery_rounds=0)
