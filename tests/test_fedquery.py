"""Federated query engine: wire codec, gate, end-to-end, equivalence."""

import gc
import random

import pytest

from repro.commons.aggregation import AggregationNode, MaskedSum
from repro.commons.anonymize import is_k_anonymous, k_anonymize
from repro.commons.orchestrator import (
    CommonsCoordinator,
    CommonsMember,
    GlobalQuery,
)
from repro.crypto import shamir
from repro.crypto.primitives import hmac_invocations
from repro.errors import ConfigurationError, IntegrityError, ProtocolError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.fedquery import (
    TRANSFORM_DP,
    TRANSFORM_EXACT,
    TRANSFORM_KANON,
    Coordinator,
    FedQuerySpec,
    build_fleet,
    open_release,
)
from repro.fedquery import gate
from repro.fedquery.cell import CellQueryAgent, ValueSource
from repro.fedquery.spec import plan_kind, plan_message, wire_size
from repro.infrastructure.network import Network
from repro.obs import get_default
from repro.policy.ucon import Grant, RIGHT_AGGREGATE, UsagePolicy
from repro.sim.rng import SeedSequence
from repro.sim.world import World
from repro.store.query import (
    And,
    Between,
    Contains,
    Eq,
    HasKeyword,
    MATCH_ALL,
    Ne,
    Not,
    Or,
    predicate_from_wire,
    predicate_to_wire,
)


class TestWireCodec:
    def test_predicate_round_trip(self):
        tree = And(
            Or(Eq("city", "paris"), Ne("city", "lyon")),
            Between("age", 20, 40),
            Not(Contains("note", "secret")),
            HasKeyword("tags", ("solar", "meter")),
            MATCH_ALL,
        )
        wire = predicate_to_wire(tree)
        rebuilt = predicate_from_wire(wire)
        assert predicate_to_wire(rebuilt) == wire
        record = {"city": "paris", "age": 30, "note": "x", "tags": "solar meter"}
        assert rebuilt.matches(record) == tree.matches(record)

    def test_unknown_predicate_op_rejected(self):
        with pytest.raises(ProtocolError):
            predicate_from_wire({"op": "regex", "field": "x"})

    def test_spec_round_trip(self):
        spec = FedQuerySpec(
            recipient="utility", purpose="billing", transform=TRANSFORM_EXACT,
            collection="energy", where=Between("hour", 18, 21),
            value_field="watts", aggregate="sum", project=("a", "b"),
            epsilon=2.0, k=7, scale=100, min_cohort=3,
        )
        rebuilt = FedQuerySpec.from_wire(spec.to_wire())
        assert rebuilt.to_wire() == spec.to_wire()
        assert rebuilt.min_cohort == 3

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FedQuerySpec("r", "p", "magic", "c")
        with pytest.raises(ConfigurationError):
            FedQuerySpec("r", "p", TRANSFORM_EXACT, "c", aggregate="median")
        with pytest.raises(ConfigurationError):
            FedQuerySpec("r", "p", TRANSFORM_DP, "c", epsilon=0)
        with pytest.raises(ConfigurationError):
            FedQuerySpec("r", "p", TRANSFORM_EXACT, "c", min_cohort=0)

    def test_plan_kind_buckets(self):
        assert plan_kind("index:hour") == "index"
        assert plan_kind("range:hour") == "index"
        assert plan_kind("keyword:tags") == "index"
        assert plan_kind("zonemap:hour") == "zonemap"
        assert plan_kind("scan") == "scan"
        assert plan_kind("memory") == "memory"

    def test_wire_size_is_serialized_bytes(self):
        spec = FedQuerySpec("r", "p", TRANSFORM_EXACT, "c")
        message = plan_message("t", spec, ["a", "b"], "coord")
        assert wire_size(message) > 100


class TestGate:
    def _roster(self, n, secret=b"s"):
        names = [f"n{i}" for i in range(n)]
        directory = {
            name: AggregationNode.preshared(name, secret) for name in names
        }
        return names, directory

    def test_masks_cancel_across_roster(self):
        names, directory = self._roster(7)
        values = {name: i * 3 - 5 for i, name in enumerate(names)}
        total = 0
        for name in names:
            total = (total + gate.masked_contribution(
                directory[name], directory, names, "tag", values[name]
            )) % shamir.PRIME
        assert shamir.decode_signed(total) == sum(values.values())

    def test_masks_cancel_on_k_regular_graph(self):
        names, directory = self._roster(10)
        values = {name: i for i, name in enumerate(names)}
        total = 0
        for name in names:
            total = (total + gate.masked_contribution(
                directory[name], directory, names, "tag", values[name],
                neighbors=4,
            )) % shamir.PRIME
        assert shamir.decode_signed(total) == sum(values.values())

    def test_recovery_masks_repair_missing_edges(self):
        names, directory = self._roster(6)
        values = {name: 10 + i for i, name in enumerate(names)}
        missing = [names[1], names[4]]
        survivors = [name for name in names if name not in missing]
        total = 0
        for name in survivors:
            total = (total + gate.masked_contribution(
                directory[name], directory, names, "tag", values[name]
            )) % shamir.PRIME
        for name in survivors:
            total = (total + gate.net_recovery_mask(
                directory[name], directory, names, "tag", missing
            )) % shamir.PRIME
        assert shamir.decode_signed(total) == sum(
            values[name] for name in survivors
        )

    def test_single_cell_roster_is_plain_encoding(self):
        names, directory = self._roster(1)
        masked = gate.masked_contribution(
            directory["n0"], directory, names, "tag", -42
        )
        assert masked == shamir.encode_signed(-42)

    def test_off_roster_cell_rejected(self):
        names, directory = self._roster(3)
        stranger = AggregationNode.preshared("zz", b"s")
        with pytest.raises(ProtocolError):
            gate.masked_contribution(stranger, directory, names, "tag", 1)

    def test_seal_open_round_trip_and_binding(self):
        key = gate.recipient_key("epi", b"fleet")
        rows = [{"qi_age": 30, "disease": "flu"}]
        blob_hex = gate.seal_records(key, rows, "tag-1", "cell-a")
        assert gate.open_records(key, blob_hex) == rows
        wrong = gate.recipient_key("other", b"fleet")
        with pytest.raises(IntegrityError):
            gate.open_records(wrong, blob_hex)

    def test_cohort_floor(self):
        spec = FedQuerySpec("r", "p", TRANSFORM_EXACT, "c", min_cohort=5)
        assert gate.cohort_allows(spec, 5)
        assert not gate.cohort_allows(spec, 4)


def _quiet_fleet(size, seed=11, purposes=None):
    world = World(seed=seed)
    network = Network(world)
    fleet = build_fleet(
        world, network, size,
        purposes=purposes or {"load-forecast", "study"},
    )
    return world, network, fleet


def _evening_spec(**overrides):
    params = dict(
        recipient="utility", purpose="load-forecast",
        transform=TRANSFORM_EXACT, collection="energy",
        where=Between("hour", 18, 21), value_field="watts", scale=10,
    )
    params.update(overrides)
    return FedQuerySpec(**params)


class TestEngineQuiet:
    def test_exact_aggregate_matches_ground_truth(self):
        world, network, fleet = _quiet_fleet(12)
        coordinator = Coordinator(world, network)
        result = coordinator.run(_evening_spec(), fleet.roster)
        assert result.outcome == "complete"
        assert not result.partial and not result.abandoned
        assert result.participants == 12
        assert result.value == pytest.approx(
            fleet.ground_truth(_evening_spec()), abs=1e-6
        )

    def test_plan_mix_reports_all_layouts(self):
        world, network, fleet = _quiet_fleet(9)
        coordinator = Coordinator(world, network)
        result = coordinator.run(_evening_spec(), fleet.roster)
        assert result.plan_mix == {"index": 3, "zonemap": 3, "scan": 3}
        assert result.records_examined > 0

    def test_coordinator_never_sees_raw_values(self):
        world, network, fleet = _quiet_fleet(8)
        coordinator = Coordinator(world, network)
        spec = _evening_spec()
        result = coordinator.run(spec, fleet.roster)
        raw = {
            shamir.encode_signed(
                round(fleet.catalogs[name].query(spec.local_query()).scalar()
                      * spec.scale)
            )
            for name in fleet.roster
        }
        seen = {
            item["masked"] if isinstance(item, dict) else item
            for item in result.coordinator_view
        }
        assert not raw & seen

    def test_dp_aggregate_is_noisy_but_close(self):
        world, network, fleet = _quiet_fleet(20)
        coordinator = Coordinator(world, network)
        spec = _evening_spec(
            recipient="institute", transform=TRANSFORM_DP,
            epsilon=5.0, scale=1000,
        )
        result = coordinator.run(spec, fleet.roster)
        truth = fleet.ground_truth(spec)
        assert result.value != truth
        assert result.value == pytest.approx(truth, abs=25.0)

    def test_kanon_release_round_trip(self):
        world, network, fleet = _quiet_fleet(15)
        coordinator = Coordinator(world, network)
        spec = FedQuerySpec(
            recipient="epi", purpose="study", transform=TRANSFORM_KANON,
            collection="profile", k=4,
        )
        result = coordinator.run(spec, fleet.roster)
        assert result.outcome == "complete"
        assert result.value is None
        key = gate.recipient_key("epi", fleet.secret)
        released = open_release(result, key, k=4)
        assert len(released) == 15
        assert is_k_anonymous(released, 4)

    def test_kanon_coordinator_cannot_open_blobs(self):
        world, network, fleet = _quiet_fleet(6)
        coordinator = Coordinator(world, network)
        spec = FedQuerySpec(
            recipient="epi", purpose="study", transform=TRANSFORM_KANON,
            collection="profile", k=2,
        )
        result = coordinator.run(spec, fleet.roster)
        # The coordinator holds no recipient key; any key it could
        # derive without the fleet secret fails authentication.
        with pytest.raises(IntegrityError):
            gate.open_records(
                gate.recipient_key("epi", b"not-the-fleet-secret"),
                result.sealed_records[0][1],
            )

    def test_declined_cells_are_recovered_not_leaked(self):
        world, network, fleet = _quiet_fleet(10)
        # Three cells never opted into this purpose.
        for name in fleet.roster[:3]:
            fleet.agents[name].opt_out("load-forecast")
        coordinator = Coordinator(world, network)
        spec = _evening_spec()
        result = coordinator.run(spec, fleet.roster)
        assert result.outcome == "complete"
        assert result.declined == 3
        assert result.participants == 7
        assert result.value == pytest.approx(
            fleet.ground_truth(spec, fleet.roster[3:]), abs=1e-6
        )

    def test_policy_gate_declines_unauthorized_recipient(self):
        world, network, fleet = _quiet_fleet(6)
        name = fleet.roster[0]
        fleet.agents[name].policy = UsagePolicy(
            owner=name,
            grants=(Grant(rights=(RIGHT_AGGREGATE,), subjects=("utility",)),),
        )
        coordinator = Coordinator(world, network)
        allowed = coordinator.run(_evening_spec(), fleet.roster)
        assert allowed.declined == 0
        denied = coordinator.run(
            _evening_spec(recipient="stranger"), fleet.roster
        )
        assert denied.declined == 1
        assert denied.participants == 5

    def test_cell_side_cohort_floor_abandons(self):
        world, network, fleet = _quiet_fleet(3)
        coordinator = Coordinator(world, network)
        result = coordinator.run(
            _evening_spec(min_cohort=5), fleet.roster
        )
        assert result.abandoned
        # Every cell refused at its own floor, so nobody participated.
        assert result.failure == "no-participants"
        assert result.value is None
        assert result.floored == 3

    def test_duplicate_plan_replays_cached_partial(self):
        world, network, fleet = _quiet_fleet(4)
        name = fleet.roster[0]
        agent = fleet.agents[name]
        spec = _evening_spec(transform=TRANSFORM_DP, epsilon=1.0, scale=1000)
        message = plan_message(
            "t1", spec, fleet.roster, "fq-sink", round_tag="rt",
        )
        network.register("fq-sink", lambda sender, payload: None)
        noise_state = agent._noise_stream.getstate()
        agent._on_plan(message)
        first = dict(agent._partials["t1"])
        assert agent._noise_stream.getstate() != noise_state
        drawn_once = agent._noise_stream.getstate()
        agent._on_plan(message)
        assert agent._partials["t1"] == first
        # The DP noise share was drawn exactly once: re-asks cannot be
        # averaged to strip the noise.
        assert agent._noise_stream.getstate() == drawn_once

    def test_malformed_plan_and_recover_are_dropped(self):
        world, network, fleet = _quiet_fleet(4)
        name = fleet.roster[0]
        network.register("fq-sink", lambda sender, payload: None)
        plan = dict(plan_message("t-bad", _evening_spec(), fleet.roster,
                                 "fq-sink"))
        plan["spec"] = dict(plan["spec"], where={"op": "quantum"})
        network.send("fq-sink", name, plan)
        world.loop.run_until(world.now + 60)  # the loop survives
        dropped = world.obs.metrics.get("fedquery.cell.dropped")
        assert dropped.labels(reason="malformed-plan").value == 1
        del plan["spec"]
        network.send("fq-sink", name, plan)
        network.send("fq-sink", name, {"kind": "fq.recover", "tag": "t-bad"})
        world.loop.run_until(world.now + 60)
        assert dropped.labels(reason="malformed-plan").value == 2
        assert dropped.labels(reason="malformed-recover").value == 1
        assert "t-bad" not in fleet.agents[name]._partials
        # The same cell then answers a well-formed plan.
        result = Coordinator(world, network).run(_evening_spec(), fleet.roster)
        assert result.outcome == "complete"
        assert result.participants == 4


class TestMaskMemoLane:
    """``agg.mask_rows{source}``: the mask memo's hit/miss lane."""

    def _run(self, offline, flush_before_recovery=False):
        world, network, fleet = _quiet_fleet(12)
        if offline:
            network.set_online(fleet.roster[5], False)
        if flush_before_recovery:
            # Every partial is in within the first second; the collect
            # deadline (and the recovery round after it) is at 5 s.
            world.loop.schedule_in(3, lambda: [
                agent.node.flush_masks() for agent in fleet.agents.values()])
        coordinator = Coordinator(
            world, network, neighbors=4, collect_timeout_s=5,
            recovery_timeout_s=5,
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=1.0,
                                     jitter=0.0),
        )
        result = coordinator.run(_evening_spec(), fleet.roster)
        rows = get_default().metrics.get("agg.mask_rows").snapshot()
        return result, rows["labels"]

    def test_quiet_query_derives_every_row(self):
        result, rows = self._run(offline=False)
        assert result.outcome == "complete"
        assert rows == {"cached": 0, "derived": 12 * 4}
        assert hmac_invocations() == 12 * 4

    def test_recovery_round_reads_every_row_from_the_memo(self):
        result, rows = self._run(offline=True)
        assert result.outcome == "partial" and result.recovery_rounds == 1
        # Collect: eleven survivors derive their four ring rows each.
        # Recovery: the missing cell's four ring neighbours each reveal
        # one row, all from the round memo — no new derivation.
        assert rows == {"cached": 4, "derived": 11 * 4}
        assert hmac_invocations() == 11 * 4


    def test_recovery_of_a_dropped_round_rederives_the_same_total(self):
        kept, _ = self._run(offline=True)
        get_default().reset()
        late, rows = self._run(offline=True, flush_before_recovery=True)
        assert late.outcome == "partial" and late.recovery_rounds == 1
        assert late.field_total == kept.field_total
        assert late.value == kept.value
        # The round is gone from every survivor's memo: the four edges
        # to the missing cell are derived again, and counted as such.
        assert rows == {"cached": 0, "derived": 11 * 4 + 4}
        assert hmac_invocations() == 11 * 4 + 4


class TestHeapResidue:
    """What one quiet query leaves on the heap is O(cells), not
    O(cells x k): a round's masks are one record per cell whatever the
    ring degree, and the plan's roster is kept by reference."""

    CELLS = 48

    @staticmethod
    def _tracked():
        # A pass untracks a tuple of untracked things, so a nest of
        # them settles one level per pass; three reads the same twice.
        for _ in range(3):
            gc.collect()
        return len(gc.get_objects())

    def _containers_per_cell(self, neighbors):
        world, network, fleet = _quiet_fleet(self.CELLS)
        coordinator = Coordinator(world, network, neighbors=neighbors)
        for index in range(2):  # warm-up: one-time caches fill here
            coordinator.run(
                _evening_spec(recipient=f"warm-{index}"), fleet.roster)
        before = self._tracked()
        result = coordinator.run(
            _evening_spec(recipient="measured"), fleet.roster)
        left = self._tracked() - before
        assert result.outcome == "complete"
        assert result.participants == self.CELLS
        return left / self.CELLS

    def test_tracked_containers_per_cell_do_not_grow_with_ring_degree(self):
        residue = {k: self._containers_per_cell(k) for k in (4, 16, 32)}
        assert residue[4] == residue[16] == residue[32]
        assert residue[32] <= 8  # the per-(peer, round) memo read 4 + 2k

    def test_cell_keeps_the_plans_roster_by_reference(self):
        world, network, fleet = _quiet_fleet(6)
        coordinator = Coordinator(world, network)
        coordinator.run(_evening_spec(), fleet.roster)
        rosters = {id(context["roster"])
                   for agent in fleet.agents.values()
                   for context in agent._rounds.values()}
        assert len(rosters) == 1


class TestOrchestratorEquivalence:
    """Satellite: the engine must reproduce the legacy in-memory paths."""

    def _members(self, count, seed=4):
        rng = random.Random(seed)
        members = []
        for i in range(count):
            members.append(CommonsMember(
                node=AggregationNode.standalone(f"home-{i}", rng),
                value=float(i) * 1.5,
                record={
                    "qi_age": 20 + i,
                    "qi_zip": 75000 + i % 5,
                    "disease": "flu" if i % 2 else "none",
                },
                opted_in_purposes={"census", "epidemiology"},
            ))
        return members, rng

    def test_exact_equals_legacy_masked_sum_bit_for_bit(self):
        members, rng = self._members(9)
        scale = 10
        round_tag = "utility|census"
        # The legacy in-memory protocol, exactly as the old orchestrator
        # ran it: same nodes, same values, same round tag.
        nodes = [member.node for member in members]
        values = {
            member.node.name: round(member.value * scale)
            for member in members
        }
        legacy = MaskedSum().run(
            nodes, values,
            online={node.name for node in nodes},
            round_tag=round_tag,
        )
        # The same query through the networked engine.
        world = World(seed=3)
        network = Network(world)
        directory = {member.node.name: member.node for member in members}
        for member in members:
            CellQueryAgent(
                world, network, member.node.name, member.node,
                ValueSource(member.value), purposes={"census"},
                directory=directory, fleet_secret=b"x",
            )
        coordinator = Coordinator(world, network)
        spec = FedQuerySpec(
            recipient="utility", purpose="census",
            transform=TRANSFORM_EXACT, collection="member", scale=scale,
            min_cohort=1,
        )
        result = coordinator.run(
            spec, [member.node.name for member in members],
            round_tag=round_tag,
        )
        assert result.field_total == legacy.total
        assert result.value == shamir.decode_signed(legacy.total) / scale

    def test_kanon_equals_legacy_lattice(self):
        members, rng = self._members(20)
        direct = k_anonymize(
            [dict(member.record) for member in members],
            ["qi_age", "qi_zip"], ["disease"], 4,
        )
        coordinator = CommonsCoordinator(members, seeds=SeedSequence(0))
        result = coordinator.run(
            GlobalQuery("institute", "epidemiology", TRANSFORM_KANON, k=4)
        )
        assert result.records == direct

    def test_adapter_runs_reproducible_from_one_seed(self):
        query = GlobalQuery(
            "institute", "census", TRANSFORM_DP, epsilon=1.0, scale=1000
        )
        outcomes = []
        for _ in range(2):
            members, _ = self._members(12)
            coordinator = CommonsCoordinator(members, seeds=SeedSequence(7))
            outcomes.append(coordinator.run(query).value)
        assert outcomes[0] == outcomes[1]

    def test_adapter_aggregation_accounting_populated(self):
        members, _ = self._members(5)
        coordinator = CommonsCoordinator(members)
        result = coordinator.run(GlobalQuery("u", "census", TRANSFORM_EXACT))
        assert result.aggregation is not None
        assert result.aggregation.protocol == "fedquery"
        assert result.aggregation.messages > 0
        assert result.aggregation.bytes > 0


class TestEngineUnderFaults:
    def test_straggler_is_demoted_to_partial_result(self):
        world = World(seed=2)
        network = Network(world)
        fleet = build_fleet(world, network, 6)
        # One cell replies through a 2-minute uplink: a deterministic
        # straggler that outlives the collect deadline and every re-ask.
        straggler = "straggler-0"
        node = AggregationNode.preshared(straggler, fleet.secret)
        catalog = fleet.catalogs[fleet.roster[0]]
        from repro.fedquery.cell import CatalogSource

        directory = fleet.agents[fleet.roster[0]].directory
        fleet.agents[straggler] = CellQueryAgent(
            world, network, straggler, node, CatalogSource(catalog),
            purposes={"load-forecast"}, directory=directory,
            fleet_secret=fleet.secret, latency_ms=120000.0,
        )
        fleet.catalogs[straggler] = catalog
        roster = fleet.roster
        coordinator = Coordinator(
            world, network,
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=2.0,
                                     jitter=0.0),
            collect_timeout_s=10,
        )
        spec = _evening_spec()
        result = coordinator.run(spec, roster)
        assert result.outcome == "partial"
        assert result.demoted == [straggler]
        assert result.reasks >= 1
        survivors = [name for name in roster if name != straggler]
        assert result.value == pytest.approx(
            fleet.ground_truth(spec, survivors), abs=1e-6
        )

    def test_lossy_network_degrades_gracefully(self):
        world = World(seed=5)
        network = Network(world)
        FaultInjector(world, FaultPlan.lossy(seed=5)).attach_network(network)
        fleet = build_fleet(world, network, 18)
        coordinator = Coordinator(world, network, collect_timeout_s=10)
        spec = _evening_spec()
        result = coordinator.run(spec, fleet.roster)
        assert result.outcome in ("complete", "partial")
        survivors = [
            name for name in fleet.roster if name not in result.demoted
        ]
        assert result.participants == len(survivors)
        # Whatever survived is *exact* over the survivors: loss and
        # duplication never corrupt the combine, they only shrink it.
        assert result.value == pytest.approx(
            fleet.ground_truth(spec, survivors), abs=1e-6
        )

    def test_quiet_control_run_has_zero_fault_metrics(self):
        world = World(seed=9)
        network = Network(world)
        FaultInjector(world, FaultPlan.quiet(seed=9)).attach_network(network)
        fleet = build_fleet(world, network, 8)
        coordinator = Coordinator(world, network)
        result = coordinator.run(_evening_spec(), fleet.roster)
        assert result.outcome == "complete"
        assert result.reasks == 0
        assert network.stats.lost == 0 and network.stats.duplicated == 0

    def test_engine_reproducible_from_world_seed(self):
        values = []
        for _ in range(2):
            world = World(seed=21)
            network = Network(world)
            fleet = build_fleet(world, network, 10)
            coordinator = Coordinator(world, network)
            spec = _evening_spec(
                recipient="institute", transform=TRANSFORM_DP,
                epsilon=1.0, scale=1000,
            )
            values.append(coordinator.run(spec, fleet.roster).value)
        assert values[0] == values[1]
