"""Structural byte accounting: a message's bytes are paid for once.

Every ``*_message`` builder returns a :class:`~repro.fedquery.spec.
WireMessage` that carries its compact-JSON size from the first
``wire_size`` call on; the flat coordinator ships one shared plan per
run. Neither may move a byte: the sizes equal a fresh serialisation,
and end-to-end byte and message totals are pinned to literals measured
before the change.
"""

import copy
import json
from unittest import mock

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LinkFaultSpec
from repro.faults.retry import RetryPolicy
from repro.fedquery import (
    TRANSFORM_DP,
    TRANSFORM_EXACT,
    TRANSFORM_KANON,
    Coordinator,
    FedQuerySpec,
    HierarchicalCoordinator,
    WindowClause,
    build_fleet,
    build_fleet_sharded,
)
from repro.fedquery import coordinator as coordinator_module
from repro.fedquery import spec as spec_module
from repro.fedquery.spec import (
    STATUS_DECLINED,
    STATUS_FLOOR,
    STATUS_OK,
    WireMessage,
    mask_message,
    partial_message,
    plan_message,
    recover_message,
    shard_mask_message,
    shard_partial_message,
    shard_plan_message,
    shard_recover_message,
    wire_size,
)
from repro.fedquery.standing import sub_message
from repro.infrastructure.network import Network
from repro.sim.world import World
from repro.store.query import And, Between, Eq

FAST_RETRIES = RetryPolicy(
    max_attempts=2, base_delay_s=1.0, multiplier=2.0, max_delay_s=4.0,
    jitter=0.0,
)
NEAR_PRIME = (1 << 127) - 2  # a masked element at the top of the field

SPEC = FedQuerySpec(
    recipient="utility", purpose="load-forecast", transform=TRANSFORM_EXACT,
    collection="energy", where=Between("hour", 18, 21), value_field="watts",
    scale=10,
)
KANON = FedQuerySpec(
    recipient="réseau-études", purpose="study", transform=TRANSFORM_KANON,
    collection="profile", project=("qi_age", "qi_zip"), k=5,
    where=And(Eq("city", "orléans"), Between("age", 20, None)),
)
ROSTER = [f"cell-{index:02d}" for index in range(9)]
WINDOW = {name: 40 + index for index, name in enumerate(ROSTER)}


def _built_messages():
    return {
        "plan": plan_message("t", SPEC, ROSTER, "coord"),
        "plan-windowed": plan_message(
            "t", KANON, ROSTER, "coord.r1", round_tag="rt", neighbors=8,
            positions=WINDOW, global_size=100_000),
        "partial-ok": partial_message(
            "t", "cell-03", STATUS_OK, "index", 24, {"masked": NEAR_PRIME}),
        "partial-sealed": partial_message(
            "t", "cell-03", STATUS_OK, "scan", 3,
            {"count": 3, "blob": "ab" * 700}),
        "partial-declined": partial_message(
            "t", "cell-03", STATUS_DECLINED, "none", 0),
        "partial-floor": partial_message(
            "t", "cell-03", STATUS_FLOOR, "none", 0),
        "recover": recover_message("t", 1, ROSTER[2:5], "coord"),
        "mask": mask_message("t", "cell-03", 1, NEAR_PRIME),
        "shard-plan": shard_plan_message(
            "t", SPEC, ROSTER[:4], WINDOW, 100_000, "root", region=2,
            round_tag="rt", neighbors=8),
        "shard-partial": shard_partial_message(
            "t", "root.r2", 2,
            statuses={name: STATUS_OK for name in ROSTER[:4]},
            masked_sum=NEAR_PRIME, count=4,
            sealed=[("cell-01", "cd" * 90)], plan_mix={"index": 3, "scan": 1},
            examined=96, messages=8, bytes_=4321, reasks=1),
        "shard-recover": shard_recover_message("t", ROSTER[2:5], "root"),
        "shard-mask": shard_mask_message(
            "t", "root.r2", 2, net_sum=NEAR_PRIME, reasks=0, messages=4,
            bytes_=600),
        "shard-mask-failed": shard_mask_message(
            "t", "root.r2", 2, net_sum=None, reasks=2, messages=6,
            bytes_=900, failure="mask-recovery"),
        "sub": sub_message(
            "sub1|utility|load-forecast", SPEC,
            WindowClause(width_s=900, windows=4, field_seconds=300),
            ROSTER, "coord", round_base="rb", neighbors=8),
    }


def _serialised(message):
    return len(json.dumps(message, separators=(",", ":")).encode())


class TestWireSize:
    @pytest.mark.parametrize("name", sorted(_built_messages()))
    def test_built_message_sizes_as_its_compact_json(self, name):
        message = _built_messages()[name]
        assert isinstance(message, WireMessage)
        assert wire_size(message) == _serialised(message)

    @pytest.mark.parametrize("name", sorted(_built_messages()))
    def test_sizing_twice_serialises_once(self, name):
        message = _built_messages()[name]
        with mock.patch.object(
                spec_module, "compact_json",
                wraps=spec_module.compact_json) as dumps:
            first = wire_size(message)
            assert wire_size(message) == first
        assert dumps.call_count == 1

    @pytest.mark.parametrize("name", sorted(_built_messages()))
    def test_a_copy_and_a_plain_dict_size_the_same(self, name):
        message = _built_messages()[name]
        size = wire_size(message)
        duplicate = dict(message)
        assert type(duplicate) is dict and duplicate == message
        assert wire_size(duplicate) == size
        assert wire_size(json.loads(json.dumps(message))) == size

    def test_a_plain_dict_is_serialised_every_time(self):
        message = dict(plan_message("t", SPEC, ROSTER, "coord"))
        with mock.patch.object(
                spec_module, "compact_json",
                wraps=spec_module.compact_json) as dumps:
            assert wire_size(message) == wire_size(message)
        assert dumps.call_count == 2

    def test_a_copy_forgets_the_size(self):
        message = plan_message("t", SPEC, ROSTER, "coord")
        wire_size(message)
        edited = dict(message)
        edited["roster"] = ROSTER[:2]
        assert wire_size(edited) == _serialised(edited) < wire_size(message)

    def test_a_key_assigned_after_sizing_is_re_measured(self):
        message = plan_message(
            "t", SPEC, ROSTER, "coord", positions={"c0": 0}, global_size=9)
        before = wire_size(message)
        message["roster"] = ROSTER[:2]
        assert wire_size(message) == _serialised(message) < before

    def test_non_ascii_is_counted_in_bytes(self):
        message = plan_message("t", KANON, ROSTER, "coord")
        text = json.dumps(message, separators=(",", ":"))
        assert wire_size(message) == len(text.encode()) == len(text)
        # json escapes non-ASCII, so characters == bytes; the keymgmt
        # copy that skipped ``.encode()`` read the same number.

    @pytest.mark.parametrize("plain", [False, True])
    def test_non_ascii_recipient_and_rows_size_in_bytes(self, plain):
        """The size is the encoded byte count, not a character count
        that happens to match: a non-ASCII recipient and row values
        (an astral character among them) included."""
        message = plan_message("t", KANON, ROSTER, "coord")
        message["rows"] = [{"city": "orléans", "note": "café 東京"},
                           {"city": "zürich", "mood": "\U0001F642"}]
        if plain:
            message = dict(message)
        assert wire_size(message) == len(
            json.dumps(message, separators=(",", ":")).encode())

    def test_spec_wire_form_is_built_once_per_spec(self):
        spec = FedQuerySpec("r", "p", TRANSFORM_DP, "c")
        assert spec.to_wire() is spec.to_wire()
        twin = FedQuerySpec("r", "p", TRANSFORM_DP, "c")
        assert twin == spec and hash(twin) == hash(spec)
        assert twin.to_wire() == spec.to_wire()
        assert twin.to_wire() is not spec.to_wire()


def _net_bytes(world):
    return world.obs.metrics.get("net.bytes").snapshot()["value"]


def _flat_run(offline, injector=None):
    world = World(seed=11)
    network = Network(world)
    if injector is not None:
        injector(world).attach_network(network)
    fleet = build_fleet(world, network, 12)
    if offline:
        network.set_online(fleet.roster[5], False)
    coordinator = Coordinator(
        world, network, neighbors=4, retry_policy=FAST_RETRIES,
        collect_timeout_s=5, recovery_timeout_s=5,
    )
    return world, fleet, coordinator, coordinator.run(SPEC, fleet.roster)


def _tree_run(offline):
    world = World(seed=11)
    network = Network(world)
    fleet = build_fleet_sharded(world, network, 36, shards=3)
    if offline:
        network.set_online(fleet.roster[17], False)
    root = HierarchicalCoordinator(
        world, network, regions=3, neighbors=8, retry_policy=FAST_RETRIES,
        region_retry_policy=FAST_RETRIES, region_collect_timeout_s=5,
        region_recovery_timeout_s=5,
    )
    return world, root.run(SPEC, fleet.roster)


class TestNotOneByteMoves:
    """Literals measured at the parent commit (per-child plans, every
    message serialised at every ``wire_size`` call)."""

    def test_flat_quiet(self):
        world, _, _, result = _flat_run(offline=False)
        assert result.outcome == "complete"
        assert (result.bytes, result.messages) == (8776, 24)
        assert _net_bytes(world) == 8776

    def test_flat_with_one_cell_offline(self):
        # The re-ask re-ships the shared plan; sends to the offline
        # cell are billed by the coordinator but never delivered.
        world, fleet, _, result = _flat_run(offline=True)
        assert result.outcome == "partial"
        assert result.demoted == [fleet.roster[5]] and result.reasks == 1
        assert (result.bytes, result.messages) == (11623, 46)
        assert _net_bytes(world) == 10515

    def test_tree_quiet(self):
        world, result = _tree_run(offline=False)
        assert result.outcome == "complete"
        assert (result.bytes, result.messages) == (34968, 78)
        assert _net_bytes(world) == 34968

    def test_tree_with_one_cell_offline(self):
        world, result = _tree_run(offline=True)
        assert result.outcome == "partial" and result.reasks == 1
        assert (result.bytes, result.messages) == (38264, 100)
        assert _net_bytes(world) == 36902


class TestSharedPlan:
    def _spy_on_plans(self, monkeypatch):
        built = []

        def spy(*args, **kwargs):
            built.append(plan_message(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(coordinator_module, "plan_message", spy)
        return built

    def test_flat_run_builds_one_plan_and_counts_every_ship(
            self, monkeypatch):
        built = self._spy_on_plans(monkeypatch)
        world, fleet, _, result = _flat_run(offline=False)
        assert result.outcome == "complete"
        assert len(built) == 1
        plans = world.obs.metrics.get("fedquery.plans").snapshot()["value"]
        assert plans == len(fleet.roster) == 12

    def test_reask_reships_the_same_plan_object(self, monkeypatch):
        built = self._spy_on_plans(monkeypatch)
        world, _, _, result = _flat_run(offline=True)
        assert result.reasks == 1 and len(built) == 1
        plans = world.obs.metrics.get("fedquery.plans").snapshot()["value"]
        assert plans == 13  # twelve ships and one re-ask, one object

    def test_no_receiver_mutates_the_shared_plan(self, monkeypatch):
        built = self._spy_on_plans(monkeypatch)

        def duplicating(world):
            return FaultInjector(world, FaultPlan(
                seed=3, link=LinkFaultSpec(duplicate_rate=0.5)))

        snapshots = []
        real_send = Network.send

        def snapshot_first_send(network, source, destination, payload,
                                **kwargs):
            if built and payload is built[0] and not snapshots:
                snapshots.append(copy.deepcopy(dict(payload)))
            return real_send(network, source, destination, payload, **kwargs)

        monkeypatch.setattr(Network, "send", snapshot_first_send)
        world, fleet, _, result = _flat_run(
            offline=False, injector=duplicating)
        assert result.outcome == "complete"
        injected = world.obs.metrics.get("faults.injected").snapshot()
        assert sum(injected["labels"].values()) > 0
        assert len(built) == 1 and dict(built[0]) == snapshots[0]
        assert wire_size(built[0]) == _serialised(built[0])

    def test_a_state_rebuilt_from_the_journal_rebuilds_its_plan(
            self, monkeypatch):
        built = self._spy_on_plans(monkeypatch)
        world = World(seed=11)
        network = Network(world)
        fleet = build_fleet(world, network, 12)
        coordinator = Coordinator(
            world, network, neighbors=4, retry_policy=FAST_RETRIES,
            collect_timeout_s=5, recovery_timeout_s=5, horizon_slack_s=60,
        )
        crashed = []

        def crash_after_third_partial(index, record):
            if record["type"] == "partial" and not crashed \
                    and sum(r["type"] == "partial"
                            for r in coordinator.journal.records()) == 3:
                crashed.append(index)
                coordinator.crash()
                world.loop.schedule_in(2, coordinator.restart)

        coordinator.journal.on_append = crash_after_third_partial
        result = coordinator.run(SPEC, fleet.roster)
        assert crashed and result.outcome == "complete"
        assert len(built) == 2  # the launch's, then the resumed state's
        assert built[0] == built[1] and built[0] is not built[1]
        assert result.value == pytest.approx(
            fleet.ground_truth(SPEC), abs=1e-6)



def _capture_plans(monkeypatch):
    """``(cell, plan)`` for every ``fq.plan`` the network is asked to
    send, in order."""
    shipped = []
    real_send = Network.send

    def capturing(network, source, destination, payload, **kwargs):
        if isinstance(payload, dict) and payload.get("kind") == "fq.plan":
            shipped.append((destination, payload))
        return real_send(network, source, destination, payload, **kwargs)

    monkeypatch.setattr(Network, "send", capturing)
    return shipped


def _assert_sized_as_serialised(shipped):
    assert shipped
    for _, plan in shipped:
        assert plan.wire_bytes == len(spec_module.compact_json(plan))


def _tree_root(world, network):
    return HierarchicalCoordinator(
        world, network, regions=3, neighbors=8, retry_policy=FAST_RETRIES,
        region_retry_policy=FAST_RETRIES, region_collect_timeout_s=5,
        region_recovery_timeout_s=5,
    )


class TestEveryShippedPlanIsItsJson:
    """A windowed plan's size is composed from its run's base and its
    window's remembered bytes, never serialised per cell: every plan
    that leaves a coordinator must still size as its compact JSON."""

    def test_flat_quiet(self, monkeypatch):
        shipped = _capture_plans(monkeypatch)
        _, _, _, result = _flat_run(offline=False)
        assert result.outcome == "complete"
        _assert_sized_as_serialised(shipped)

    @pytest.mark.parametrize("offline", [False, True])
    def test_tree(self, monkeypatch, offline):
        shipped = _capture_plans(monkeypatch)
        _, result = _tree_run(offline=offline)
        assert result.outcome == ("partial" if offline else "complete")
        assert len(shipped) == 36 + result.reasks == 36 + offline
        _assert_sized_as_serialised(shipped)

    def test_region_crashed_mid_collect_and_restarted(self, monkeypatch):
        shipped = _capture_plans(monkeypatch)
        world = World(seed=11)
        network = Network(world)
        fleet = build_fleet_sharded(world, network, 36, shards=3)
        offline = fleet.roster[5]  # in region 0's shard: a re-ask
        network.set_online(offline, False)
        root = _tree_root(world, network)
        region = root.regions[0]
        crashed = []

        def crash_after_third_partial(index, record):
            if record["type"] == "partial" and not crashed \
                    and sum(r["type"] == "partial"
                            for r in region.journal.records()) == 3:
                crashed.append(len(shipped))
                region.crash()
                assert region._layout == (None, {})
                world.loop.schedule_in(2, region.restart)

        region.journal.on_append = crash_after_third_partial
        result = root.run(SPEC, fleet.roster)
        assert crashed and result.outcome == "partial"
        assert result.demoted == [offline]
        survivors = [name for name in fleet.roster if name != offline]
        assert result.value == pytest.approx(
            fleet.ground_truth(SPEC, survivors), abs=1e-6)
        # The restart re-ships from a rebuilt layout, not the lost one.
        before = dict(shipped[:crashed[0]])
        resumed = shipped[crashed[0]:]
        assert resumed and all(
            plan["reply_to"] == region.address
            and plan["positions"] is not before[cell]["positions"]
            and plan["positions"] == before[cell]["positions"]
            for cell, plan in resumed)
        _assert_sized_as_serialised(shipped)

    def test_one_root_two_rosters(self, monkeypatch):
        shipped = _capture_plans(monkeypatch)
        rosters = []

        def both(coordinator_for):
            world = World(seed=11)
            network = Network(world)
            fleet = build_fleet_sharded(world, network, 36, shards=3)
            rosters[:] = [fleet.roster, fleet.roster[:7] + fleet.roster[8:]]
            coordinator = coordinator_for(world, network)
            return fleet, [
                coordinator.run(SPEC, roster, round_tag=f"q{index}")
                for index, roster in enumerate(rosters)
            ]

        fleet, tree = both(_tree_root)
        windowed = shipped[:]
        _, flat = both(lambda world, network: Coordinator(
            world, network, neighbors=8))
        for index, roster in enumerate(rosters):
            assert tree[index].outcome == flat[index].outcome == "complete"
            assert tree[index].field_total == flat[index].field_total
            assert tree[index].value == pytest.approx(
                fleet.ground_truth(SPEC, roster), abs=1e-6)
        # Dropping a cell moved every later cell's global position: the
        # second query ships from a new layout.
        assert len(windowed) == 36 + 35
        moved = [plan for cell, plan in windowed if cell == fleet.roster[20]]
        assert [plan["global_size"] for plan in moved] == [36, 35]
        assert moved[0]["positions"] != moved[1]["positions"]
        _assert_sized_as_serialised(shipped)
