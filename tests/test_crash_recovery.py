"""Coordinator crash recovery: the write-ahead journal under fire.

Three layers of assurance, all driven by the seeded simulator:

* scenario tests (:func:`repro.faults.scenario.run_crash_scenario`):
  an injected :class:`~repro.faults.plan.CrashSpec` kills a flat
  coordinator, a regional coordinator, or the tree root at a chosen
  query phase; the run must end ``complete`` with a field total
  bit-for-bit equal to the crash-free control — recovery, not retry
  luck;
* a property-style sweep that crashes the flat coordinator *after
  every single journal record* (the ``on_append`` durability hook
  fires right after the "disk write"), restarts it, and requires an
  identical outcome plus an empty leakage audit at every index;
* a directory-service crash mid-rotation, which must still converge
  every cell to the new epoch after replaying its notice journal.
"""

import pytest

from repro.faults import CrashSpec, FaultPlan
from repro.faults.scenario import run_crash_scenario

FLAT = "fq-coordinator"
ROOT = "fq-root"
REGION = "fq-root.r1"


def _flat(seed, crash=None, **kwargs):
    return run_crash_scenario(seed, topology="flat", crash=crash, **kwargs)


def _tree(seed, crash=None, **kwargs):
    return run_crash_scenario(seed, topology="tree", crash=crash, **kwargs)


class TestFlatCrashRecovery:
    @pytest.mark.parametrize("phase", ("fanout", "collect", "recover"))
    def test_crash_at_phase_recovers_to_control_total(self, phase):
        control = _flat(21)
        crashed = _flat(21, CrashSpec(
            FLAT, at_phase=phase, restart_after_s=30.0,
        ))
        assert crashed["crashes"] == 1
        assert crashed["outcome"] == "complete"
        # bit-for-bit: re-asks hit the cells' cached partials, so the
        # resumed query reassembles the identical field total
        assert crashed["field_total"] == control["field_total"]
        assert crashed["participants"] == control["participants"]
        assert not crashed["raw_in_journal"]
        assert not crashed["raw_in_view"]

    def test_timed_crash_recovers(self):
        control = _flat(22)
        crashed = _flat(22, CrashSpec(FLAT, at_time=1.0, restart_after_s=20.0))
        assert crashed["crashes"] == 1
        assert crashed["outcome"] == "complete"
        assert crashed["field_total"] == control["field_total"]

    def test_crash_runs_are_deterministic(self):
        spec = CrashSpec(FLAT, at_phase="collect", restart_after_s=30.0)
        assert _flat(23, spec) == _flat(23, spec)

    def test_quiet_control_sees_no_crash_machinery(self):
        row = _flat(24)
        assert row["crashes"] == 0
        assert row["faults_injected"] == 0
        assert row["reasks"] == 0
        assert row["outcome"] == "complete"
        assert row["journal_records"] > 0  # the journal is always on


class TestTreeCrashRecovery:
    @pytest.mark.parametrize("phase", ("fanout", "collect", "recover"))
    def test_root_crash_at_phase_recovers(self, phase):
        control = _tree(31)
        crashed = _tree(31, CrashSpec(
            ROOT, at_phase=phase, restart_after_s=30.0,
        ))
        assert crashed["crashes"] == 1
        assert crashed["outcome"] == "complete"
        assert crashed["field_total"] == control["field_total"]
        assert not crashed["raw_in_journal"]

    def test_region_crash_with_restart_recovers(self):
        control = _tree(32)
        crashed = _tree(32, CrashSpec(
            REGION, at_phase="collect", restart_after_s=30.0,
        ))
        assert crashed["crashes"] == 1
        assert crashed["outcome"] == "complete"
        assert crashed["field_total"] == control["field_total"]

    def test_root_failover_respawns_dead_region(self):
        # no scheduled restart: the root's retry ladder is the failure
        # detector, and its respawn brings the region back from the
        # region's own journal
        control = _tree(33)
        crashed = _tree(33, CrashSpec(
            REGION, at_phase="collect", restart_after_s=None,
        ))
        assert crashed["crashes"] == 1
        assert crashed["respawns"] >= 1
        assert crashed["outcome"] == "complete"
        assert crashed["field_total"] == control["field_total"]

    def test_crash_plus_offline_cells_is_survivor_exact(self):
        crashed = _tree(34, CrashSpec(
            REGION, at_phase="collect", restart_after_s=30.0,
        ), offline_cells=2)
        assert crashed["outcome"] == "partial"
        assert crashed["demoted"] == 2
        assert crashed["survivor_exact"]
        assert not crashed["raw_in_journal"]
        assert not crashed["raw_in_view"]


class TestCrashAfterEveryJournalRecord:
    """The WAL property: no append index is a bad time to die."""

    N_CELLS = 10
    NEIGHBORS = 4

    def _reference(self):
        from repro.fedquery import Coordinator, build_fleet
        from repro.infrastructure import Network
        from repro.sim import World

        world = World(seed=41)
        network = Network(world)
        fleet = build_fleet(world, network, self.N_CELLS,
                            purposes={"load-forecast"},
                            ring_neighbors=self.NEIGHBORS)
        coordinator = Coordinator(world, network, neighbors=self.NEIGHBORS)
        result = coordinator.run(self._spec(), fleet.roster)
        assert result.outcome == "complete"
        return len(coordinator.journal), result.field_total

    @staticmethod
    def _spec():
        from repro.fedquery import FedQuerySpec
        from repro.fedquery.spec import TRANSFORM_EXACT
        from repro.store.query import Between

        return FedQuerySpec(
            recipient="utility", purpose="load-forecast",
            transform=TRANSFORM_EXACT, collection="energy",
            where=Between("hour", 18, 21), value_field="watts", scale=10,
        )

    def test_crash_after_each_record_always_recovers(self):
        from repro.crypto import shamir
        from repro.fedquery import (
            Coordinator,
            QueryJournal,
            build_fleet,
            journal_elements,
        )
        from repro.infrastructure import Network
        from repro.sim import World

        records, reference_total = self._reference()
        assert records > self.N_CELLS  # start + one partial per cell + done
        spec = self._spec()
        for crash_index in range(records):
            world = World(seed=41)
            network = Network(world)
            fleet = build_fleet(world, network, self.N_CELLS,
                                purposes={"load-forecast"},
                                ring_neighbors=self.NEIGHBORS)
            holder = {}

            def crash_after(index, record, at=crash_index):
                if index != at:
                    return
                # the record hit the log; the process dies before it
                # can act on it (deferred so the in-flight handler and
                # run()'s own fan-out finish their current step first)
                world.loop.schedule_at(
                    world.now, holder["coordinator"].crash,
                    label="test.crash",
                )
                world.loop.schedule_in(
                    30.0, holder["coordinator"].restart,
                    label="test.restart",
                )

            journal = QueryJournal(on_append=crash_after)
            holder["coordinator"] = Coordinator(
                world, network, neighbors=self.NEIGHBORS,
                journal=journal, horizon_slack_s=300,
            )
            result = holder["coordinator"].run(spec, fleet.roster)
            assert result.outcome == "complete", crash_index
            assert result.field_total == reference_total, crash_index
            raw = {
                shamir.encode_signed(round(float(
                    fleet.catalogs[name].query(spec.local_query()).scalar()
                ) * spec.scale))
                for name in fleet.roster
            }
            assert not raw & journal_elements(journal), crash_index


    # -- the same property one level up: the tree's root ---------------------

    def _run_tree(self, crash_index=None, region=None):
        """One query over 12 cells / 3 regions / k=4 with the last cell
        offline; the root — or region ``region`` — dies right after its
        journal append ``crash_index`` and restarts 30 s later."""
        from repro.fedquery import QueryJournal

        holder = {}

        def crash_after(index, record):
            if index != crash_index:
                return
            world.loop.schedule_at(
                world.now, holder["victim"].crash, label="test.crash")
            world.loop.schedule_in(
                30.0, holder["victim"].restart, label="test.restart")

        if region is None:
            world, fleet, root = _small_fleet(
                "tree", journal=QueryJournal(on_append=crash_after),
                horizon_slack_s=300,
            )
            holder["victim"] = root
        else:
            world, fleet, root = _small_fleet("tree", horizon_slack_s=300)
            holder["victim"] = root.regions[region]
            holder["victim"].journal.on_append = crash_after
        result = root.run(self._spec(), fleet.roster)
        return fleet, root, result

    def _assert_tree_property(self, region=None):
        from repro.crypto import shamir
        from repro.fedquery import journal_elements

        spec = self._spec()
        fleet, reference, result = self._run_tree()
        survivors = fleet.roster[:-1]
        assert result.outcome == "partial"
        assert result.demoted == fleet.roster[-1:]
        victim = reference if region is None else reference.regions[region]
        records, reference_total = len(victim.journal), result.field_total
        for crash_index in range(records):
            fleet, root, result = self._run_tree(crash_index, region)
            assert result.outcome == "partial", crash_index
            assert result.demoted == fleet.roster[-1:], crash_index
            assert result.field_total == reference_total, crash_index
            assert result.value == pytest.approx(fleet.ground_truth(
                spec, roster=survivors), abs=1e-9), crash_index
            raw = {
                shamir.encode_signed(round(float(
                    fleet.catalogs[name].query(spec.local_query()).scalar()
                ) * spec.scale))
                for name in fleet.roster
            }
            for journal in [root.journal] + [
                    region.journal for region in root.regions]:
                assert not raw & journal_elements(journal), crash_index
            # settled: no region still holds the shard's run
            assert not any(r._active for r in root.regions), crash_index
        return reference, records

    def test_crash_after_each_root_record_always_recovers(self):
        reference, records = self._assert_tree_property()
        # start + a partial per region + recover + their masks + done
        assert records > 2 * len(reference.regions)

    def test_crash_after_each_region_record_always_recovers(self):
        reference, _ = self._assert_tree_property(region=0)
        # the sweep dies after every kind of record a region writes
        assert {record["type"] for record in
                reference.regions[0].journal.records()} == {
            "start", "partial", "report", "recover", "mask", "mask_report"}


def _small_fleet(topology, seed=41, **coordinator_options):
    """A 10-cell flat fleet, or 12 cells under a 3-region tree with the
    last cell offline (so the tree run must recover masks and settle
    ``partial``). Returns ``(world, fleet, coordinator)``."""
    from repro.fedquery import (
        Coordinator,
        HierarchicalCoordinator,
        build_fleet,
        build_fleet_sharded,
    )
    from repro.infrastructure import Network
    from repro.sim import World

    world = World(seed=seed)
    network = Network(world)
    if topology == "flat":
        fleet = build_fleet(world, network, 10, purposes={"load-forecast"},
                            ring_neighbors=4)
        coordinator = Coordinator(
            world, network, neighbors=4, **coordinator_options)
    else:
        fleet = build_fleet_sharded(
            world, network, 12, shards=3, purposes={"load-forecast"},
            ring_neighbors=4)
        network.set_online(fleet.roster[-1], False)
        coordinator = HierarchicalCoordinator(
            world, network, regions=3, neighbors=4, **coordinator_options)
    return world, fleet, coordinator


class TestReplayRepublishesOnlyAwaitedResults:
    @pytest.mark.parametrize("topology", ("flat", "tree"))
    def test_reply_channel_is_empty_after_crash_restart_run(self, topology):
        # restart() used to republish the ``done`` result of every
        # query in journal history; nobody pops those, so each pinned a
        # full coordinator_view for the life of the process
        import dataclasses

        spec = TestCrashAfterEveryJournalRecord._spec()
        world, fleet, coordinator = _small_fleet(topology)
        for index in range(5):
            coordinator.run(
                dataclasses.replace(spec, recipient=f"utility-{index}"),
                fleet.roster)
        coordinator.crash()
        coordinator.restart()
        assert coordinator._results == {}
        result = coordinator.run(spec, fleet.roster)
        assert result.value is not None
        assert coordinator._results == {}


class TestDirectoryServiceCrash:
    def _fleet(self, n, seed):
        from repro.crypto.keys import KeyRing
        from repro.infrastructure.network import Network
        from repro.keymgmt import DirectoryService, KeyClient, KeyDirectory
        from repro.sim.world import World

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
        service = DirectoryService(world, network, directory)
        return world, service, clients

    def test_rotation_survives_directory_crash(self):
        world, service, clients = self._fleet(8, 51)
        tag = service.advance_epoch()
        # die mid-ack-collection, restart, replay the notice journal
        world.loop.schedule_at(2.0, service.crash, label="test.crash")
        world.loop.schedule_in(32.0, service.restart, label="test.restart")
        world.loop.run_until(world.now + 900)
        status = service.rotations[tag]
        assert status.complete
        assert not status.exhausted
        assert all(client.epoch == 1 for client in clients.values())

    def test_revocation_survives_directory_crash(self):
        world, service, clients = self._fleet(8, 52)
        tag = service.revoke("cell-0003")
        world.loop.schedule_at(2.0, service.crash, label="test.crash")
        world.loop.schedule_in(32.0, service.restart, label="test.restart")
        world.loop.run_until(world.now + 900)
        status = service.rotations[tag]
        assert status.complete
        for name, client in clients.items():
            if name == "cell-0003":
                continue
            assert "cell-0003" in client.excluded, name
            assert client.epoch == 1, name

    def test_completed_rotation_replays_as_complete(self):
        world, service, clients = self._fleet(6, 53)
        tag = service.advance_epoch()
        world.loop.run_until(world.now + 600)
        assert service.rotations[tag].complete
        # a crash after convergence must not resurrect the rotation
        service.crash()
        service.restart()
        status = service.rotations[tag]
        assert status.complete
        assert not status.pending
