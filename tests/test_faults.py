"""Tests for the fault plane: plans, injector, retry/backoff."""

import pytest

from repro.errors import ConfigurationError, TransientCloudError
from repro.faults import (
    PROFILES,
    ChurnSpec,
    FaultInjector,
    FaultPlan,
    LinkFaultSpec,
    RetryPolicy,
    retry_call,
    schedule_retry,
)
from repro.infrastructure import CloudProvider, Network
from repro.sim import World


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            LinkFaultSpec(loss_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan.flaky_cloud(failure_rate=-0.1)
        with pytest.raises(ConfigurationError):
            ChurnSpec(address="c", offline_windows=((100, 50),))

    def test_quiet_plan_is_inactive(self):
        assert not FaultPlan.quiet().active
        assert FaultPlan.lossy().active
        assert FaultPlan.stormy(addresses=("a",)).active

    def test_with_seed_replays_same_plan(self):
        plan = FaultPlan.lossy(seed=1)
        reseeded = plan.with_seed(9)
        assert reseeded.seed == 9
        assert reseeded.link == plan.link

    def test_profiles_registry(self):
        for name, factory in PROFILES.items():
            plan = factory(seed=3)
            assert plan.seed == 3, name


def lossy_network(plan, n_messages=200):
    world = World(seed=7)
    network = Network(world)
    inbox = []
    network.register("a", lambda s, m: None)
    network.register("b", lambda s, m: inbox.append(m))
    injector = FaultInjector(world, plan).attach_network(network)
    for i in range(n_messages):
        network.send("a", "b", i)
    world.loop.drain()
    return world, network, injector, inbox


class TestLinkFaults:
    def test_loss_drops_silently(self):
        plan = FaultPlan(seed=5, link=LinkFaultSpec(loss_rate=0.2))
        world, network, injector, inbox = lossy_network(plan)
        assert 0 < network.stats.lost < 200
        assert len(inbox) == 200 - network.stats.lost
        assert injector.counts["loss"] == network.stats.lost

    def test_certain_loss_drops_everything(self):
        plan = FaultPlan(seed=5, link=LinkFaultSpec(loss_rate=1.0))
        world, network, injector, inbox = lossy_network(plan, 20)
        assert inbox == []
        assert network.stats.lost == 20

    def test_duplication_delivers_twice(self):
        plan = FaultPlan(seed=5, link=LinkFaultSpec(duplicate_rate=1.0))
        world, network, injector, inbox = lossy_network(plan, 10)
        assert len(inbox) == 20
        assert network.stats.duplicated == 10
        assert injector.counts["duplicate"] == 10

    def test_latency_spike_delays_delivery(self):
        plan = FaultPlan(seed=5, link=LinkFaultSpec(
            latency_spike_rate=1.0, latency_spike_s=30))
        world = World(seed=7)
        network = Network(world)
        arrival = []
        network.register("a", lambda s, m: None)
        network.register("b", lambda s, m: arrival.append(world.now))
        FaultInjector(world, plan).attach_network(network)
        network.send("a", "b", "x")
        world.loop.run_for(29)
        assert arrival == []
        world.loop.run_for(10)
        assert arrival == [30]

    def test_same_plan_seed_same_decisions(self):
        plan = FaultPlan(seed=11, link=LinkFaultSpec(
            loss_rate=0.3, duplicate_rate=0.2, latency_spike_rate=0.1))
        _, net1, inj1, _ = lossy_network(plan)
        _, net2, inj2, _ = lossy_network(plan)
        assert inj1.counts == inj2.counts
        assert net1.stats.lost == net2.stats.lost

    def test_disabled_injector_is_clean(self):
        plan = FaultPlan(seed=5, link=LinkFaultSpec(loss_rate=1.0))
        world = World(seed=7)
        network = Network(world)
        inbox = []
        network.register("a", lambda s, m: None)
        network.register("b", lambda s, m: inbox.append(m))
        injector = FaultInjector(world, plan).attach_network(network)
        injector.disable()
        network.send("a", "b", "x")
        world.loop.drain()
        assert inbox == ["x"]
        assert injector.injected_total == 0
        assert world.obs.metrics.get("faults.injected").snapshot()[
            "value"] == 0


class TestCloudFaults:
    def test_put_and_get_fail_transiently(self):
        from repro.faults import CloudFaultSpec

        world = World(seed=3)
        cloud = CloudProvider(world)
        plan = FaultPlan(seed=3, cloud=CloudFaultSpec(
            put_failure_rate=1.0, get_failure_rate=1.0))
        injector = FaultInjector(world, plan).attach_cloud(cloud)
        with pytest.raises(TransientCloudError):
            cloud.put_object("k", b"v")
        assert not cloud.contains("k")  # a failed put stores nothing
        injector.disable()
        cloud.put_object("k", b"v")
        injector.enable()
        with pytest.raises(TransientCloudError):
            cloud.get_object("k")
        assert injector.counts == {"cloud_put": 1, "cloud_get": 1}

    def test_mailboxes_gated_without_losing_messages(self):
        world = World(seed=3)
        cloud = CloudProvider(world)
        cloud.post_message("box", "a", b"m1")
        from repro.faults import CloudFaultSpec

        plan = FaultPlan(seed=3, cloud=CloudFaultSpec(get_failure_rate=1.0))
        injector = FaultInjector(world, plan).attach_cloud(cloud)
        with pytest.raises(TransientCloudError):
            cloud.fetch_messages("box")
        injector.disable()
        assert cloud.fetch_messages("box") == [("a", b"m1")]

    def test_failure_is_not_evidence(self):
        world = World(seed=3)
        cloud = CloudProvider(world)
        FaultInjector(world, FaultPlan.flaky_cloud(seed=3, failure_rate=1.0)
                      ).attach_cloud(cloud)
        with pytest.raises(TransientCloudError):
            cloud.put_object("k", b"v")
        assert cloud.evidence_log == []
        assert not cloud.convicted


class TestChurn:
    def test_explicit_windows_flip_endpoint(self):
        world = World(seed=3)
        network = Network(world)
        network.register("c", lambda s, m: None)
        plan = FaultPlan(seed=3, churn=(
            ChurnSpec(address="c", offline_windows=((100, 200), (400, 500))),
        ))
        injector = FaultInjector(world, plan).attach_network(network)
        transitions = injector.schedule_churn(network, horizon=1000)
        assert transitions == 4
        world.loop.run_until(150)
        assert not network.is_online("c")
        world.loop.run_until(300)
        assert network.is_online("c")
        world.loop.run_until(450)
        assert not network.is_online("c")
        world.loop.run_until(1000)
        assert network.is_online("c")
        assert injector.counts["churn"] == 4

    def test_generated_schedule_is_deterministic(self):
        def run():
            world = World(seed=3)
            network = Network(world)
            network.register("c", lambda s, m: None)
            plan = FaultPlan.churning(
                seed=9, addresses=("c",),
                mean_online_s=600, mean_offline_s=300)
            injector = FaultInjector(world, plan).attach_network(network)
            injector.schedule_churn(network, horizon=6 * 3600)
            offline_at = []
            for t in range(0, 6 * 3600, 60):
                world.loop.run_until(t)
                offline_at.append(network.is_online("c"))
            return offline_at, injector.counts.get("churn", 0)

        first, flips1 = run()
        second, flips2 = run()
        assert first == second
        assert flips1 == flips2 > 0
        assert first[-1]  # forced back online at the horizon


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay_s=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.0)

    def test_exponential_and_capped(self):
        policy = RetryPolicy(max_attempts=6, base_delay_s=2,
                             multiplier=3, max_delay_s=20, jitter=0.0)
        assert policy.delays() == [2, 6, 18, 20, 20]

    def test_jitter_bounds(self):
        import random

        policy = RetryPolicy(base_delay_s=10, jitter=0.2)
        rng = random.Random(4)
        for _ in range(100):
            assert 8.0 <= policy.delay_for(1, rng) <= 12.0


class TestRetryCall:
    def make(self, failures, exc=TransientCloudError):
        world = World(seed=1)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] <= failures:
                raise exc("boom")
            return "ok"

        return world, calls, flaky

    def test_success_after_transient_failures(self):
        world, calls, flaky = self.make(failures=2)
        policy = RetryPolicy(max_attempts=4, jitter=0.0)
        assert retry_call(flaky, policy=policy, obs=world.obs,
                          operation="t.op") == "ok"
        assert calls["n"] == 3
        attempts = world.obs.metrics.get("retry.attempts")
        assert attempts.labels(op="t.op").value == 2

    def test_clean_call_records_nothing(self):
        world, calls, flaky = self.make(failures=0)
        retry_call(flaky, policy=RetryPolicy(), obs=world.obs)
        assert world.obs.metrics.get("retry.attempts") is None
        assert world.obs.tracer.spans("retry") == []

    def test_exhaustion_reraises_and_counts(self):
        world, calls, flaky = self.make(failures=10)
        policy = RetryPolicy(max_attempts=3, jitter=0.0)
        with pytest.raises(TransientCloudError):
            retry_call(flaky, policy=policy, obs=world.obs, operation="t.op")
        assert calls["n"] == 3
        exhausted = world.obs.metrics.get("retry.exhausted")
        assert exhausted.labels(op="t.op").value == 1

    def test_no_policy_is_one_bare_attempt(self):
        world, calls, flaky = self.make(failures=1)
        with pytest.raises(TransientCloudError):
            retry_call(flaky, policy=None, obs=world.obs, operation="t.op")
        assert calls["n"] == 1
        for name in ("retry.attempts", "retry.exhausted",
                     "retry.backoff_seconds"):
            assert world.obs.metrics.get(name) is None
        assert not [event for event in world.obs.events.events()
                    if event["kind"].startswith("retry.")]
        assert world.obs.tracer.spans("retry") == []
        world, calls, flaky = self.make(failures=0)
        assert retry_call(flaky, policy=None, obs=world.obs) == "ok"

    def test_non_transient_error_not_retried(self):
        world, calls, flaky = self.make(failures=2, exc=ValueError)
        with pytest.raises(ValueError):
            retry_call(flaky, policy=RetryPolicy(), obs=world.obs)
        assert calls["n"] == 1


class TestScheduleRetry:
    def test_fires_after_backoff(self):
        world = World(seed=1)
        fired = []
        policy = RetryPolicy(base_delay_s=10, jitter=0.0)
        handle = schedule_retry(world, policy, 1, lambda: fired.append(world.now))
        assert handle is not None
        world.loop.run_for(9)
        assert fired == []
        world.loop.run_for(2)
        assert fired == [10]

    def test_budget_exceeded_returns_none(self):
        world = World(seed=1)
        policy = RetryPolicy(max_attempts=2)
        assert schedule_retry(world, policy, 2, lambda: None) is None


class TestScheduleRetryJitter:
    """Callers that pass no rng must still get *deterministic* jitter.

    Regression for an audit of ``schedule_retry`` call sites: several
    loop-driven components scheduled retries without threading an rng,
    which used to silently disable jitter (``delay_for(..., rng=None)``
    is the nominal ladder). The deferred path now draws from one
    world-seeded jitter stream instead.
    """

    def _fire_times(self, seed, rounds=6):
        world = World(seed=seed)
        policy = RetryPolicy(base_delay_s=100, multiplier=1.0,
                             max_delay_s=100, jitter=0.3, max_attempts=10)
        times = []
        for _ in range(rounds):
            start = world.now
            fired = []
            schedule_retry(world, policy, 1, lambda: fired.append(world.now))
            world.loop.run_for(200)
            assert fired, "retry never fired"
            times.append(fired[0] - start)
        return times

    def test_jitter_applies_without_an_rng(self):
        times = self._fire_times(7)
        # not the nominal 100 s ladder: jitter is really on
        assert any(delay != 100 for delay in times), times
        # and bounded by the policy's +/- fraction
        assert all(70 <= delay <= 130 for delay in times), times

    def test_jitter_draws_are_a_stream_not_a_constant(self):
        times = self._fire_times(7)
        assert len(set(times)) > 1, times

    def test_jitter_is_deterministic_per_world_seed(self):
        assert self._fire_times(7) == self._fire_times(7)
        assert self._fire_times(7) != self._fire_times(8)

    def test_explicit_rng_still_wins(self):
        import random

        world = World(seed=7)
        policy = RetryPolicy(base_delay_s=100, multiplier=1.0,
                             max_delay_s=100, jitter=0.3)
        fired = []
        schedule_retry(world, policy, 1, lambda: fired.append(world.now),
                       rng=random.Random(5))
        world.loop.run_for(200)
        expected = max(1, round(
            policy.delay_for(1, random.Random(5))
        ))
        assert fired == [expected]

    def test_worst_case_delays_bound_the_jittered_ladder(self):
        policy = RetryPolicy(max_attempts=4, base_delay_s=2,
                             multiplier=2, max_delay_s=30, jitter=0.1)
        worst = policy.worst_case_delays()
        assert worst == [delay * 1.1 for delay in policy.delays(None)]
        import random

        rng = random.Random(9)
        for _ in range(50):
            for index, delay in enumerate(policy.delays(rng)):
                assert delay <= worst[index] + 1e-9
