"""Cross-module integration tests: the platform working as a whole."""

import random

import pytest

from repro.bench import check, e01_figure1
from repro.commons import AggregationNode, MaskedSum
from repro.core import TrustedCell
from repro.crypto import shamir
from repro.errors import IntegrityError
from repro.hardware import HOME_GATEWAY, SENSOR_CELL, SMARTPHONE
from repro.infrastructure import CloudProvider, WeaklyMaliciousAdversary
from repro.policy import Grant
from repro.policy.ucon import RIGHT_READ
from repro.sharing import SharingPeer, introduce_cells
from repro.sim import World
from repro.streams import Sample, StoreAndForwardQueue, StreamPipeline, WindowMean
from repro.sync import Guardian, VaultClient, enroll_guardians, recover_cell
from repro.workloads import HouseholdSimulator


class TestFigure1Walkthrough:
    def test_every_claim_row_holds(self):
        tables = e01_figure1.run(seed=3)
        assert all(verdict.ok for verdict in check(e01_figure1, tables))

    def test_walkthrough_is_deterministic(self):
        first = e01_figure1.run(seed=5)
        second = e01_figure1.run(seed=5)
        assert first[0].rows == second[0].rows


class TestSharingUnderAttack:
    def test_tampered_shared_envelope_detected_not_swallowed(self):
        world = World(seed=71)
        adversary = WeaklyMaliciousAdversary(random.Random(1), tamper_rate=1.0)
        cloud = CloudProvider(world, adversary)
        alice_cell = TrustedCell(world, "alice-cell", SMARTPHONE)
        bob_cell = TrustedCell(world, "bob-cell", SMARTPHONE)
        alice_cell.register_user("alice", "pin")
        introduce_cells(alice_cell, bob_cell)
        alice = alice_cell.login("alice", "pin")
        alice_cell.store_object(alice, "doc", b"payload")
        SharingPeer(alice_cell, cloud).share_object(
            alice, "doc", bob_cell, Grant(rights=(RIGHT_READ,), subjects=("bob",))
        )
        bob_peer = SharingPeer(bob_cell, cloud)
        with pytest.raises(IntegrityError):
            bob_peer.accept_shares()
        assert cloud.convicted  # the attack produced evidence

    def test_share_completes_after_conviction(self):
        world = World(seed=72)
        adversary = WeaklyMaliciousAdversary(random.Random(1), tamper_rate=1.0)
        cloud = CloudProvider(world, adversary)
        alice_cell = TrustedCell(world, "alice-cell", SMARTPHONE)
        bob_cell = TrustedCell(world, "bob-cell", SMARTPHONE)
        alice_cell.register_user("alice", "pin")
        bob_cell.register_user("bob", "pin")
        introduce_cells(alice_cell, bob_cell)
        alice = alice_cell.login("alice", "pin")
        alice_cell.store_object(alice, "doc", b"payload")
        SharingPeer(alice_cell, cloud).share_object(
            alice, "doc", bob_cell, Grant(rights=(RIGHT_READ,), subjects=("bob",))
        )
        bob_peer = SharingPeer(bob_cell, cloud)
        with pytest.raises(IntegrityError):
            bob_peer.accept_shares()
        # the offer was consumed, but alice can re-share now that the
        # convicted cloud behaves
        SharingPeer(alice_cell, cloud).share_object(
            alice, "doc", bob_cell, Grant(rights=(RIGHT_READ,), subjects=("bob",))
        )
        assert bob_peer.accept_shares() == ["doc"]
        bob = bob_cell.login("bob", "pin")
        assert bob_cell.read_object(bob, "doc") == b"payload"


class TestRecoveryThenSharing:
    def test_restored_cell_can_still_share(self):
        world = World(seed=73)
        cloud = CloudProvider(world)
        alice_cell = TrustedCell(world, "alice-cell", SMARTPHONE)
        bob_cell = TrustedCell(world, "bob-cell", SMARTPHONE)
        alice_cell.register_user("alice", "pin")
        bob_cell.register_user("bob", "pin")
        introduce_cells(alice_cell, bob_cell)
        alice = alice_cell.login("alice", "pin")
        alice_cell.store_object(alice, "doc", b"precious")
        VaultClient(alice_cell, cloud).push_all()
        guardians = [
            Guardian(TrustedCell(world, f"guardian-{i}", SMARTPHONE))
            for i in range(3)
        ]
        enroll_guardians(alice_cell, guardians, 2, "passphrase", random.Random(2))
        alice_cell.breach()

        restored, _ = recover_cell(
            world, "alice-cell", SMARTPHONE, guardians, "passphrase", cloud
        )
        # same master => same principal; bob's registry entry still matches.
        # The new device re-imports its contact list (out-of-band, like a
        # new phone would).
        restored.register_user("alice", "pin")
        introduce_cells(restored, bob_cell)
        session = restored.login("alice", "pin")
        SharingPeer(restored, cloud).share_object(
            session, "doc", bob_cell, Grant(rights=(RIGHT_READ,), subjects=("bob",))
        )
        bob_peer = SharingPeer(bob_cell, cloud)
        assert bob_peer.accept_shares() == ["doc"]
        assert bob_cell.read_object(bob_cell.login("bob", "pin"), "doc") == b"precious"


class TestSensorToGatewayPipeline:
    def test_stream_pipeline_feeds_gateway_series(self):
        """Meter cell runs a bounded-RAM pipeline; gateway gets 15-min
        means through a store-and-forward uplink that flaps."""
        world = World(seed=74)
        gateway = TrustedCell(world, "gateway", HOME_GATEWAY)
        gateway.register_user("alice", "pin")
        from repro.policy import UsagePolicy

        gateway.register_series(
            "power-15min",
            {900: UsagePolicy(
                owner="meter",
                grants=(Grant(rights=(RIGHT_READ,), subjects=("alice",)),),
            )},
        )
        pipeline = StreamPipeline([WindowMean(900)])
        pipeline.require_fits(SENSOR_CELL)
        delivered = []

        def uplink(sample: Sample) -> None:
            gateway.append_sample("power-15min", sample.timestamp, sample.value)
            delivered.append(sample)

        queue = StoreAndForwardQueue(capacity=1000, send=uplink)
        simulator = HouseholdSimulator(random.Random(74), sample_period=60)
        trace = simulator.simulate_day(0)
        for position, (timestamp, watts) in enumerate(trace.series.samples()):
            if position == 400:
                queue.set_online(False)  # uplink outage mid-day
            if position == 900:
                queue.set_online(True)
            for out in pipeline.push(Sample(timestamp, watts)):
                queue.offer(out)
        for out in pipeline.flush():
            queue.offer(out)
        queue.set_online(True)

        assert len(delivered) == 96  # a full day of 15-min means, none lost
        alice = gateway.login("alice", "pin")
        buckets = gateway.read_series(alice, "power-15min", 900)
        assert len(buckets) == 96

    def test_pipeline_output_matches_direct_resample(self):
        simulator = HouseholdSimulator(random.Random(75), sample_period=60)
        trace = simulator.simulate_day(0)
        pipeline = StreamPipeline([WindowMean(900)])
        streamed = pipeline.process(
            Sample(t, v) for t, v in trace.series.samples()
        )
        resampled = trace.series.resample(900)
        assert len(streamed) == len(resampled)
        for out, bucket in zip(streamed, resampled):
            assert out.timestamp == bucket.start
            assert out.value == pytest.approx(bucket.mean)


class TestCommonsOverRealCells:
    def test_masked_sum_with_cell_key_rings(self):
        world = World(seed=76)
        cells = [
            TrustedCell(world, f"home-{index}", SMARTPHONE) for index in range(5)
        ]
        nodes = [AggregationNode.from_cell(cell) for cell in cells]
        values = {node.name: (position + 1) * 10
                  for position, node in enumerate(nodes)}
        result = MaskedSum().run(nodes, values)
        assert shamir.decode_signed(result.total) == 150
