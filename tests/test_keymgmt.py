"""Key lifecycle: agreement, epochs, revocation, fleet wiring.

The acceptance bars from the PR issue live here: a revoked member is
excluded from **every** future epoch; the quiet-path fedquery totals
are bit-for-bit identical to the preshared stopgap at a fixed epoch
(flat and tree); and the gate's roster memo cannot serve stale nodes
across a rotation.
"""

import random

import pytest

from repro.commons.aggregation import AggregationNode, MaskedSum
from repro.crypto import shamir
from repro.crypto.keys import KeyRing, generate_exchange_keypair
from repro.errors import ConfigurationError, ProtocolError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.fedquery import (
    Coordinator,
    FedQuerySpec,
    HierarchicalCoordinator,
    build_fleet,
    build_fleet_sharded,
)
from repro.fedquery import gate
from repro.infrastructure.network import Network
from repro.keymgmt import (
    DirectoryService,
    KeyClient,
    KeyDirectory,
    PrekeyBundle,
)
from repro.keymgmt.prekeys import prekey_signing_bytes
from repro.sim.world import World
from repro.store.query import Between


def _ring(tag):
    return KeyRing.generate(random.Random(tag))


def _directory(n=4, neighbors=None, seed=7, online=True):
    directory = KeyDirectory(rng=random.Random(seed), neighbors=neighbors)
    for i in range(n):
        directory.enroll(f"m{i}", _ring(i), online=online)
    return directory


class TestPrekeyBundles:
    def test_bundle_verifies(self):
        bundle = PrekeyBundle.publish("a", _ring(1))
        assert bundle.verify()
        bundle.require_valid()

    def test_tampered_prekey_rejected(self):
        bundle = PrekeyBundle.publish("a", _ring(1))
        forged = PrekeyBundle(
            name=bundle.name, identity_public=bundle.identity_public,
            verify_element=bundle.verify_element,
            signed_prekey_public=bundle.signed_prekey_public + 1,
            prekey_signature=bundle.prekey_signature,
        )
        assert not forged.verify()
        with pytest.raises(Exception):
            forged.require_valid()

    def test_wire_round_trip(self):
        bundle = PrekeyBundle.publish("a", _ring(1))
        rebuilt = PrekeyBundle.from_wire(bundle.to_wire())
        assert rebuilt == bundle
        assert rebuilt.verify()

    def test_signing_bytes_bind_the_prekey(self):
        ring = _ring(1)
        assert prekey_signing_bytes(ring.signed_prekey_public) != \
            prekey_signing_bytes(ring.signed_prekey_public + 1)


class TestX3dh:
    def test_both_sides_derive_the_same_secret(self):
        alice, bob = _ring("a"), _ring("b")
        bundle = PrekeyBundle.publish("bob", bob)
        eph_secret, eph_public = generate_exchange_keypair(random.Random(3))
        initiator_secret = alice.x3dh_initiate(
            bundle.identity_public, bundle.signed_prekey_public, eph_secret)
        responder_secret = bob.x3dh_respond(
            alice.exchange_public, eph_public)
        assert initiator_secret == responder_secret
        assert len(initiator_secret) == 16

    def test_different_ephemerals_give_different_secrets(self):
        alice, bob = _ring("a"), _ring("b")
        bundle = PrekeyBundle.publish("bob", bob)
        secrets = set()
        for seed in (1, 2, 3):
            eph_secret, _ = generate_exchange_keypair(random.Random(seed))
            secrets.add(alice.x3dh_initiate(
                bundle.identity_public, bundle.signed_prekey_public,
                eph_secret))
        assert len(secrets) == 3


class TestKeyDirectory:
    def test_ring_edges_cancel_in_a_masked_round(self):
        directory = _directory(n=6, neighbors=2)
        directory.activate()
        nodes = list(directory.issue_all().values())
        values = {node.name: 100 + i for i, node in enumerate(nodes)}
        result = MaskedSum(neighbors=2).run(nodes, values, round_tag="t")
        assert shamir.decode_signed(result.total) == sum(values.values())

    def test_distinct_keys_per_edge(self):
        directory = _directory(n=4)
        directory.activate()
        nodes = directory.issue_all()
        keys = {nodes["m0"]._pairwise_key_for(nodes[p]) for p in
                ("m1", "m2", "m3")}
        assert len(keys) == 3

    def test_agreement_is_symmetric(self):
        directory = _directory(n=4)
        directory.activate()
        nodes = directory.issue_all()
        assert nodes["m0"]._pairwise_key_for(nodes["m1"]) == \
            nodes["m1"]._pairwise_key_for(nodes["m0"])

    def test_only_ring_edges_get_keys(self):
        directory = _directory(n=8, neighbors=2)
        directory.activate()
        nodes = directory.issue_all()
        # positions 0 and 4 are not ring neighbors at degree 2
        with pytest.raises(ProtocolError, match="no epoch-0 key"):
            nodes["m0"]._pairwise_key_for(nodes["m4"])

    def test_rotation_changes_every_mask_key(self):
        directory = _directory(n=4)
        directory.activate()
        before = directory.issue_all()
        assert directory.advance_epoch() == 1
        after = directory.issue_all()
        for name, peer in (("m0", "m1"), ("m1", "m2"), ("m2", "m3")):
            assert before[name]._pairwise_key_for(before[peer]) != \
                after[name]._pairwise_key_for(after[peer])

    def test_rotated_keys_stay_symmetric_and_cancel(self):
        directory = _directory(n=6, neighbors=2)
        directory.activate()
        directory.advance_epoch()
        directory.advance_epoch()
        nodes = list(directory.issue_all().values())
        values = {node.name: 10 * (i + 1) for i, node in enumerate(nodes)}
        result = MaskedSum(neighbors=2).run(nodes, values, round_tag="t")
        assert shamir.decode_signed(result.total) == sum(values.values())

    def test_offline_responder_completes_on_wake(self):
        directory = KeyDirectory(rng=random.Random(7), neighbors=None)
        directory.enroll("m0", _ring(0))
        directory.enroll("m1", _ring(1))
        directory.enroll("m2", _ring(2), online=False)
        directory.activate()
        assert directory.pending_peers("m2") == ["m0", "m1"]
        with pytest.raises(ProtocolError, match="un-agreed ring edges"):
            directory.issue_node("m2")
        directory.set_online("m2", True)
        assert directory.pending_peers("m2") == []
        nodes = directory.issue_all()
        assert nodes["m2"]._pairwise_key_for(nodes["m0"]) == \
            nodes["m0"]._pairwise_key_for(nodes["m2"])

    def test_wake_after_rotation_ratchets_forward(self):
        directory = KeyDirectory(rng=random.Random(7), neighbors=None)
        directory.enroll("m0", _ring(0))
        directory.enroll("m1", _ring(1))
        directory.enroll("m2", _ring(2), online=False)
        directory.activate()
        directory.advance_epoch()  # m2 still asleep
        directory.set_online("m2", True)
        nodes = directory.issue_all()
        assert nodes["m2"]._pairwise_key_for(nodes["m0"]) == \
            nodes["m0"]._pairwise_key_for(nodes["m2"])

    def test_hashed_mode_needs_no_rings(self):
        directory = KeyDirectory(rng=random.Random(7), neighbors=2,
                                 agreement="hashed", group_secret=b"g")
        for i in range(6):
            directory.enroll(f"m{i}")
        directory.activate()
        nodes = list(directory.issue_all().values())
        values = {node.name: i for i, node in enumerate(nodes)}
        result = MaskedSum(neighbors=2).run(nodes, values, round_tag="t")
        assert shamir.decode_signed(result.total) == sum(values.values())

    def test_mode_configuration_is_validated(self):
        with pytest.raises(ConfigurationError):
            KeyDirectory(rng=random.Random(1), agreement="magic")
        with pytest.raises(ConfigurationError):
            KeyDirectory(rng=random.Random(1), agreement="hashed")
        with pytest.raises(ConfigurationError):
            KeyDirectory(rng=random.Random(1), agreement="x3dh",
                         group_secret=b"g")
        with pytest.raises(ConfigurationError):
            KeyDirectory(rng=random.Random(1)).enroll("m0")  # no ring

    def test_activation_preconditions(self):
        directory = KeyDirectory(rng=random.Random(1))
        directory.enroll("m0", _ring(0))
        with pytest.raises(ConfigurationError, match=">= 2 members"):
            directory.activate()
        directory.enroll("m1", _ring(1))
        directory.activate()
        with pytest.raises(ProtocolError, match="already activated"):
            directory.activate()

    def test_issue_before_activation_raises(self):
        directory = _directory(n=3)
        with pytest.raises(ProtocolError, match="activate"):
            directory.issue_node("m0")


class TestMembershipEvents:
    def test_join_after_activation_advances_the_epoch(self):
        directory = _directory(n=4)
        directory.activate()
        assert directory.epoch == 0
        directory.enroll("m9", _ring(9))
        assert directory.epoch == 1
        nodes = directory.issue_all()
        assert "m9" in nodes
        assert nodes["m9"]._pairwise_key_for(nodes["m0"]) == \
            nodes["m0"]._pairwise_key_for(nodes["m9"])

    def test_leaver_may_rejoin_a_revoked_name_may_not(self):
        directory = _directory(n=4)
        directory.activate()
        directory.leave("m1")
        directory.enroll("m1", _ring("again"))  # fine
        directory.revoke("m2")
        with pytest.raises(ProtocolError, match="cannot re-enroll"):
            directory.enroll("m2", _ring("again"))

    def test_revoked_member_excluded_from_all_future_epochs(self):
        """The PR's dedicated acceptance test: revocation at epoch e
        removes the member from every epoch > e, not just e+1."""
        directory = _directory(n=6, neighbors=2)
        directory.activate()
        revocation_epoch = directory.epoch
        directory.revoke("m2")
        for _ in range(3):  # epochs e+1, e+2, e+3
            nodes = directory.issue_all()
            assert "m2" not in nodes
            assert "m2" not in directory.roster()
            with pytest.raises(ProtocolError):
                directory.issue_node("m2")
            # no survivor holds any keyed edge to the revoked name
            for node in nodes.values():
                assert "m2" not in node._epoch_keys
            # the surviving ring still cancels exactly
            values = {name: 7 for name in nodes}
            result = MaskedSum(neighbors=2).run(
                list(nodes.values()), values,
                round_tag=f"e{directory.epoch}")
            assert shamir.decode_signed(result.total) == 7 * len(nodes)
            directory.advance_epoch()
        assert directory.epoch == revocation_epoch + 4

    def test_removal_drops_pending_agreements(self):
        directory = KeyDirectory(rng=random.Random(7), neighbors=None)
        directory.enroll("m0", _ring(0))
        directory.enroll("m1", _ring(1))
        directory.enroll("m2", _ring(2), online=False)
        directory.activate()
        directory.revoke("m2")
        assert directory._pending == {}
        assert all("m2" not in member.chains
                   for member in directory._members.values())

    def test_unknown_and_revoked_names_raise(self):
        directory = _directory(n=3)
        directory.activate()
        with pytest.raises(ProtocolError, match="unknown member"):
            directory.issue_node("ghost")
        directory.revoke("m1")
        with pytest.raises(ProtocolError, match="revoked"):
            directory.issue_node("m1")


SPEC = FedQuerySpec(
    recipient="utility", purpose="load-forecast",
    transform="aggregate-exact", collection="energy",
    where=Between("hour", 18, 21), value_field="watts",
)


def _flat_total(key_lifecycle, epochs=0, revoke=None):
    world = World(seed=5)
    network = Network(world)
    fleet = build_fleet(world, network, 24, key_lifecycle=key_lifecycle,
                        ring_neighbors=8)
    for _ in range(epochs):
        fleet.advance_epoch()
    if revoke is not None:
        fleet.revoke(revoke)
    result = Coordinator(world, network, neighbors=8).run(SPEC, fleet.roster)
    return result, fleet


def _tree_total(key_lifecycle):
    world = World(seed=5)
    network = Network(world)
    fleet = build_fleet_sharded(world, network, 60, shards=3,
                                key_lifecycle=key_lifecycle,
                                ring_neighbors=8)
    coordinator = HierarchicalCoordinator(world, network, regions=3,
                                          neighbors=8)
    return coordinator.run(SPEC, fleet.roster), fleet


class TestFleetEquivalence:
    """Quiet-path totals must pin bit-for-bit to the preshared build."""

    def test_flat_total_matches_preshared_bit_for_bit(self):
        preshared, fleet_p = _flat_total(key_lifecycle=False)
        keyed, fleet_k = _flat_total(key_lifecycle=True)
        assert keyed.outcome == "complete"
        assert keyed.field_total == preshared.field_total
        # scale-1 fixed point rounds each cell to the nearest watt
        assert keyed.value == pytest.approx(fleet_k.ground_truth(SPEC),
                                            abs=0.5 * len(fleet_k.roster))

    def test_flat_total_survives_rotation_bit_for_bit(self):
        preshared, _ = _flat_total(key_lifecycle=False)
        rotated, _ = _flat_total(key_lifecycle=True, epochs=2)
        assert rotated.outcome == "complete"
        assert rotated.field_total == preshared.field_total

    def test_tree_total_matches_preshared_bit_for_bit(self):
        preshared, _ = _tree_total(key_lifecycle=False)
        keyed, fleet = _tree_total(key_lifecycle=True)
        assert keyed.outcome == "complete"
        assert keyed.field_total == preshared.field_total
        assert keyed.value == pytest.approx(fleet.ground_truth(SPEC),
                                            abs=0.5 * len(fleet.roster))

    def test_revoked_cell_leaves_the_roster_and_the_total(self):
        keyed, fleet = _flat_total(key_lifecycle=True, revoke="cell-0003")
        assert keyed.outcome == "complete"
        assert "cell-0003" not in fleet.roster
        assert keyed.value == pytest.approx(fleet.ground_truth(SPEC),
                                            abs=0.5 * len(fleet.roster))

    def test_revoke_needs_a_lifecycle_build(self):
        world = World(seed=5)
        network = Network(world)
        fleet = build_fleet(world, network, 4)
        with pytest.raises(ConfigurationError, match="key_lifecycle"):
            fleet.revoke("cell-0001")

    def test_fleet_build_is_deterministic(self):
        first, _ = _flat_total(key_lifecycle=True)
        second, _ = _flat_total(key_lifecycle=True)
        assert first.field_total == second.field_total


class TestGateMemoUnderRotation:
    """Peer resolution must never serve epoch-N nodes in epoch N+1."""

    def test_rotation_does_not_serve_stale_nodes(self):
        world = World(seed=5)
        network = Network(world)
        fleet = build_fleet(world, network, 24, key_lifecycle=True,
                            ring_neighbors=8)
        coordinator = Coordinator(world, network, neighbors=8)
        before = coordinator.run(SPEC, fleet.roster)
        fleet.advance_epoch()
        after = coordinator.run(SPEC, fleet.roster)
        # same data, fresh keys: the total must still be exact — a memo
        # serving epoch-0 nodes to half the ring would shred the masks
        assert after.outcome == "complete"
        assert after.field_total == before.field_total

    def test_rotated_keys_mask_differently_under_the_same_round_tag(self):
        # Both runs mask under the same round tag ("recipient|purpose"),
        # so only the epoch keys tell them apart: a node's keyed HMAC
        # state (and its round memo) must die with its epoch's node.
        world = World(seed=5)
        network = Network(world)
        fleet = build_fleet(world, network, 24, key_lifecycle=True,
                            ring_neighbors=8)
        coordinator = Coordinator(world, network, neighbors=8)
        before = coordinator.run(SPEC, fleet.roster)
        stale = {name: agent.node for name, agent in fleet.agents.items()}
        fleet.advance_epoch()
        after = coordinator.run(SPEC, fleet.roster)
        assert after.field_total == before.field_total  # still cancel
        masked_before = [view["masked"] for view in before.coordinator_view]
        masked_after = [view["masked"] for view in after.coordinator_view]
        assert len(masked_after) == len(masked_before) == 24
        assert not set(masked_after) & set(masked_before)
        for name, agent in fleet.agents.items():
            assert agent.node is not stale[name]
            assert len(agent.node._mask_keys) == 8  # the ring degree
            assert len(stale[name]._mask_keys) == 8


class TestPresharedDeprecation:
    """The group-secret constructor is one plain constructor: no
    warning, no private twin; its nodes still mask and cancel."""

    def test_preshared_still_produces_working_nodes(self):
        nodes = [AggregationNode.preshared(f"n{i}", b"s") for i in range(4)]
        values = {node.name: 5 for node in nodes}
        result = MaskedSum().run(nodes, values, round_tag="t")
        assert shamir.decode_signed(result.total) == 20


FAST_ROTATION_RETRY = RetryPolicy(
    max_attempts=10, base_delay_s=60.0, multiplier=2.0,
    max_delay_s=1800.0, jitter=0.1,
)


def _service_fleet(n=12, seed=11, ack_timeout_s=120):
    world = World(seed=seed)
    network = Network(world)
    directory = KeyDirectory(
        rng=world.rng("keymgmt.directory"), neighbors=4)
    clients = {}
    for i in range(n):
        name = f"cell-{i:04d}"
        directory.enroll(name, KeyRing.generate(world.rng(f"km.{name}")))
        clients[name] = KeyClient(world, network, name)
    directory.activate()
    service = DirectoryService(world, network, directory,
                               retry_policy=FAST_ROTATION_RETRY,
                               ack_timeout_s=ack_timeout_s)
    return world, network, directory, service, clients


class TestDirectoryService:
    def test_quiet_rotation_converges_without_retries(self):
        world, network, directory, service, clients = _service_fleet()
        tag = service.advance_epoch()
        world.loop.run_until(world.now + 600)
        assert service.exclusion_latency(tag) == 0.0
        assert service.rotations[tag].retry_index == 0
        assert all(client.epoch == 1 for client in clients.values())

    def test_revocation_notice_reaches_every_survivor(self):
        world, network, directory, service, clients = _service_fleet()
        tag = service.revoke("cell-0003")
        world.loop.run_until(world.now + 600)
        status = service.rotations[tag]
        assert status.complete
        assert "cell-0003" not in status.pending
        for name, client in clients.items():
            if name != "cell-0003":
                assert "cell-0003" in client.excluded

    def test_sleeping_member_is_reached_by_the_retry_ladder(self):
        world, network, directory, service, clients = _service_fleet()
        network.set_online("cell-0005", False)
        tag = service.advance_epoch()
        world.loop.run_until(world.now + 300)
        assert not service.rotations[tag].complete
        network.set_online("cell-0005", True)
        world.loop.run_until(world.now + 7200)
        assert service.rotations[tag].complete
        assert service.rotations[tag].retry_index > 0
        assert clients["cell-0005"].epoch == 1

    def test_join_announces_only_after_activation(self):
        world = World(seed=11)
        network = Network(world)
        directory = KeyDirectory(rng=world.rng("keymgmt.directory"),
                                 neighbors=None)
        service = DirectoryService(world, network, directory)
        assert service.enroll("a", _ring("a")) is None
        assert service.enroll("b", _ring("b")) is None
        directory.activate()
        KeyClient(world, network, "a")
        KeyClient(world, network, "b")
        KeyClient(world, network, "c")
        tag = service.enroll("c", _ring("c"))
        assert tag is not None
        world.loop.run_until(world.now + 600)
        assert service.rotations[tag].complete


class TestChurningRevocation:
    def test_revocation_converges_under_churn(self):
        world, network, directory, service, clients = _service_fleet(n=12)
        addresses = sorted(clients)
        plan = FaultPlan.churning(seed=3, addresses=addresses)
        injector = FaultInjector(world, plan)
        injector.attach_network(network)
        horizon = 6 * 3600
        injector.schedule_churn(network, horizon)
        world.loop.run_until(600)
        tag = service.revoke("cell-0003")
        world.loop.run_until(horizon)
        status = service.rotations[tag]
        assert status.complete, status
        assert service.exclusion_latency(tag) > 0.0
        assert status.retry_index > 0  # churn forced at least one resend
        for name, client in clients.items():
            if name != "cell-0003":
                assert "cell-0003" in client.excluded, name
