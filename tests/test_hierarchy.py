"""The coordinator tree: flat-equivalence, degradation, leakage audit.

The hierarchical path must be *indistinguishable in its answers* from
the flat coordinator — bit-for-bit equal field totals for exact and DP
aggregates (which also pins the global-not-per-shard DP calibration),
identical record releases — while degrading recursively (cell dropouts
inside a region, whole silent regions) and exposing nothing raw at
any tree level.
"""

import pytest

from repro.crypto import shamir
from repro.errors import ConfigurationError, IntegrityError
from repro.faults.retry import RetryPolicy
from repro.fedquery import (
    TRANSFORM_DP,
    TRANSFORM_EXACT,
    TRANSFORM_KANON,
    Coordinator,
    FedQuerySpec,
    HierarchicalCoordinator,
    build_fleet,
    build_fleet_sharded,
    open_release,
    partition_shards,
)
from repro.fedquery import gate
from repro.infrastructure.network import Network
from repro.sim.world import World

FAST_RETRIES = RetryPolicy(
    max_attempts=2, base_delay_s=1.0, multiplier=2.0, max_delay_s=4.0,
    jitter=0.0,
)


def _flat_fleet(size, seed=77, **kwargs):
    world = World(seed=seed)
    network = Network(world)
    return world, network, build_fleet(world, network, size, **kwargs)


def _tree_fleet(size, shards, seed=77, **kwargs):
    world = World(seed=seed)
    network = Network(world)
    fleet = build_fleet_sharded(world, network, size, shards=shards, **kwargs)
    return world, network, fleet


def _sum_spec(transform=TRANSFORM_EXACT, **kwargs):
    return FedQuerySpec(
        recipient="grid-operator", purpose="load-forecast",
        transform=transform, collection="energy", value_field="watts",
        aggregate="sum", scale=10, **kwargs,
    )


def _tree(world, network, regions, **kwargs):
    kwargs.setdefault("neighbors", 8)
    kwargs.setdefault("retry_policy", FAST_RETRIES)
    kwargs.setdefault("region_retry_policy", FAST_RETRIES)
    kwargs.setdefault("region_collect_timeout_s", 5)
    kwargs.setdefault("region_recovery_timeout_s", 5)
    return HierarchicalCoordinator(world, network, regions=regions, **kwargs)


class TestFlatEquivalence:
    def test_exact_total_is_bit_for_bit_flat(self):
        world_f, network_f, fleet_f = _flat_fleet(150)
        flat = Coordinator(world_f, network_f, neighbors=8).run(
            _sum_spec(), fleet_f.roster
        )
        world_t, network_t, fleet_t = _tree_fleet(150, shards=5)
        tree = _tree(world_t, network_t, 5).run(_sum_spec(), fleet_t.roster)
        assert tree.outcome == "complete"
        assert tree.field_total == flat.field_total
        assert tree.value == pytest.approx(
            fleet_f.ground_truth(_sum_spec()), abs=1e-6
        )
        assert tree.participants == 150
        assert tree.regions == 5

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_dp_noise_is_global_not_per_shard(self, seed):
        """Satellite regression: sharding must not change the noise.

        Each cell's share is calibrated to the GLOBAL participant
        count and drawn once per query from its own seeded stream, so
        the tree's DP total is bit-for-bit the flat path's — same
        noise draw, same variance, no per-shard re-draws.
        """
        spec = _sum_spec(TRANSFORM_DP, epsilon=0.8)
        world_f, network_f, fleet_f = _flat_fleet(90, seed=seed)
        flat = Coordinator(world_f, network_f, neighbors=8).run(
            spec, fleet_f.roster
        )
        world_t, network_t, fleet_t = _tree_fleet(90, shards=3, seed=seed)
        tree = _tree(world_t, network_t, 3).run(spec, fleet_t.roster)
        assert tree.field_total == flat.field_total
        assert tree.value == flat.value
        # And the shared noise is really there (not cancelled away).
        assert tree.value != pytest.approx(
            fleet_t.ground_truth(spec), abs=1e-9
        )

    def test_tree_shards_with_different_region_count_agree(self):
        spec = _sum_spec()
        world_a, network_a, fleet_a = _tree_fleet(120, shards=4)
        total_a = _tree(world_a, network_a, 4).run(spec, fleet_a.roster)
        world_b, network_b, fleet_b = _tree_fleet(120, shards=10)
        total_b = _tree(world_b, network_b, 10).run(spec, fleet_b.roster)
        assert total_a.field_total == total_b.field_total


class TestDegradation:
    def test_offline_cells_degrade_to_survivor_exact_partial(self):
        world, network, fleet = _tree_fleet(150, shards=5, seed=99)
        offline = [fleet.roster[3], fleet.roster[70], fleet.roster[149]]
        for name in offline:
            network.set_online(name, False)
        result = _tree(world, network, 5).run(_sum_spec(), fleet.roster)
        assert result.outcome == "partial"
        assert sorted(result.demoted) == sorted(offline)
        survivors = [
            name for name in fleet.roster if name not in set(offline)
        ]
        assert result.value == pytest.approx(
            fleet.ground_truth(_sum_spec(), survivors), abs=1e-6
        )
        assert result.reasks > 0

    def test_silent_region_demotes_all_its_cells(self):
        world, network, fleet = _tree_fleet(150, shards=5, seed=99)
        root = _tree(world, network, 5, collect_timeout_s=40,
                     recovery_timeout_s=40)
        network.set_online(root.regions[2].address, False)
        result = root.run(_sum_spec(), fleet.roster)
        assert result.outcome == "partial"
        assert sorted(result.demoted) == sorted(fleet.shard_rosters[2])
        survivors = [
            name for name in fleet.roster
            if name not in set(fleet.shard_rosters[2])
        ]
        assert result.value == pytest.approx(
            fleet.ground_truth(_sum_spec(), survivors), abs=1e-6
        )

    def test_everything_offline_abandons_not_hangs(self):
        world, network, fleet = _tree_fleet(40, shards=2, seed=5)
        root = _tree(world, network, 2, collect_timeout_s=20,
                     recovery_timeout_s=20)
        for region in root.regions:
            network.set_online(region.address, False)
        result = root.run(_sum_spec(), fleet.roster)
        assert result.outcome == "abandoned"
        assert result.failure == "no-participants"
        assert result.value is None

    def test_tiny_roster_is_rejected_toward_flat_path(self):
        world, network, fleet = _tree_fleet(6, shards=2, seed=5)
        with pytest.raises(ConfigurationError):
            _tree(world, network, 2).run(_sum_spec(), fleet.roster)


class TestLeakage:
    def test_no_raw_value_at_any_tree_level(self):
        world, network, fleet = _tree_fleet(90, shards=3)
        # One dropout so recovery traffic crosses the tree too.
        network.set_online(fleet.roster[10], False)
        root = _tree(world, network, 3)
        spec = _sum_spec()
        result = root.run(spec, fleet.roster)
        raw = {
            shamir.encode_signed(
                round(fleet.catalogs[name].query(spec.local_query()).scalar()
                      * spec.scale)
            )
            for name in fleet.roster
        }
        # Root level: masked shard sums and net recovery sums only.
        assert result.coordinator_view
        assert all(isinstance(item, int) for item in result.coordinator_view)
        assert not raw & set(result.coordinator_view)
        # Region level: per-cell masked elements and net masks only.
        region_views = [
            item["masked"] if isinstance(item, dict) else item
            for region in root.regions
            for view in region.views.values()
            for item in view
        ]
        assert region_views
        assert all(isinstance(item, int) for item in region_views)
        assert not raw & set(region_views)

    def test_kanon_release_passes_tree_sealed(self):
        spec = FedQuerySpec(
            recipient="epi-institute", purpose="cohort-study",
            transform=TRANSFORM_KANON, collection="profile",
            project=("qi_age", "qi_zip", "disease"), k=4,
        )
        world, network, fleet = _tree_fleet(
            60, shards=4, purposes={"load-forecast", "cohort-study"},
        )
        root = _tree(world, network, 4)
        result = root.run(spec, fleet.roster)
        assert result.outcome == "complete"
        assert len(result.sealed_records) == 60
        # No coordinator in the tree holds the recipient key: a key
        # derived without the fleet secret fails authentication.
        with pytest.raises(IntegrityError):
            gate.open_records(
                gate.recipient_key("epi-institute", b"wrong-secret"),
                result.sealed_records[0][1],
            )
        rows = open_release(
            result, gate.recipient_key("epi-institute", fleet.secret), 4
        )
        assert len(rows) == 60


class TestShardedBuild:
    def test_sharded_build_matches_monolithic_cell_for_cell(self):
        spec = _sum_spec()
        _, _, mono = _flat_fleet(45)
        _, _, sharded = _tree_fleet(45, shards=3)
        assert sharded.roster == mono.roster
        assert sharded.layouts == mono.layouts
        assert sharded.ground_truth(spec) == mono.ground_truth(spec)
        assert [len(shard) for shard in sharded.shard_rosters] == [15, 15, 15]
        assert sum(sharded.shard_rosters, []) == sharded.roster

    @pytest.mark.parametrize("size, shards", [
        (1, 1), (5, 2), (7, 3), (9, 9), (4, 9), (23, 5),
    ])
    def test_sharded_build_uses_the_one_partition_rule(self, size, shards):
        """The builder's shards are the tree's routing split, and its
        cells are ``build_fleet``'s, flash image and all."""
        _, _, mono = _flat_fleet(size, hours=4)
        _, _, sharded = _tree_fleet(size, shards=shards, hours=4)
        assert sharded.shard_rosters == partition_shards(
            sharded.roster, shards)
        assert sharded.roster == mono.roster
        assert sharded.layouts == mono.layouts
        for name in mono.roster:
            built, reference = (
                fleet.catalogs[name].store for fleet in (sharded, mono))
            assert built.flash._pages == reference.flash._pages
            assert list(built.scan()) == list(reference.scan())
            assert (sharded.agents[name].node._preshared
                    == mono.agents[name].node._preshared)

    def test_sharded_build_needs_a_shard(self):
        with pytest.raises(ConfigurationError):
            _tree_fleet(4, shards=0)

    def test_partition_shards_contiguous_and_balanced(self):
        roster = [f"c{index}" for index in range(10)]
        shards = partition_shards(roster, 3)
        assert shards == [roster[0:4], roster[4:7], roster[7:10]]
        assert partition_shards(roster[:2], 5) == [["c0"], ["c1"]]
        with pytest.raises(ConfigurationError):
            partition_shards([], 3)


class TestRootScaling:
    def test_root_work_is_region_bound_not_cell_bound(self):
        world, network, fleet = _tree_fleet(150, shards=5)
        result = _tree(world, network, 5).run(_sum_spec(), fleet.roster)
        # The flat baseline is 2 messages per cell (plan + partial);
        # the root sees only its regions: 2 messages per region.
        assert result.root_messages == 2 * 5
        assert result.root_messages / result.roster_size < 2.0
        # Whole-tree accounting still covers the cell fan-out.
        assert result.messages >= 2 * 150
        assert result.root_bytes < result.bytes


class TestOneStateMachine:
    def test_whole_region_offline_settles_like_flat(self):
        """The root is the flat coordinator's state machine over regions.

        Same fleet, same damage (one whole shard silent, two cells
        opted out), a record release and an exact aggregate: every
        field the shared finalize derives from leaf statuses, folded
        plan mixes and sealed batches must agree between the levels.
        """
        purposes = {"load-forecast", "cohort-study"}
        specs = [
            FedQuerySpec(
                recipient="epi-institute", purpose="cohort-study",
                transform=TRANSFORM_KANON, collection="profile",
                project=("qi_age", "qi_zip", "disease"), k=4,
            ),
            _sum_spec(),
        ]

        def damage(fleet):
            for name in (fleet.roster[1], fleet.roster[50]):
                fleet.agents[name].opt_out(*purposes)
            return fleet.roster[30:45]  # shard 2 of 4

        world_f, network_f, fleet_f = _flat_fleet(60, purposes=purposes)
        for name in damage(fleet_f):
            network_f.set_online(name, False)
        flat = Coordinator(
            world_f, network_f, neighbors=8, retry_policy=FAST_RETRIES,
            collect_timeout_s=5, recovery_timeout_s=5,
        )
        world_t, network_t, fleet_t = _tree_fleet(
            60, shards=4, purposes=purposes)
        assert damage(fleet_t) == fleet_t.shard_rosters[2]
        root = _tree(world_t, network_t, 4, collect_timeout_s=40,
                     recovery_timeout_s=40)
        network_t.set_online(root.regions[2].address, False)

        for spec in specs:
            flat_result = flat.run(spec, fleet_f.roster)
            tree_result = root.run(spec, fleet_t.roster)
            assert tree_result.outcome == flat_result.outcome == "partial"
            assert tree_result.failure == flat_result.failure
            assert tree_result.participants == flat_result.participants == 43
            assert tree_result.declined == flat_result.declined == 2
            assert tree_result.floored == flat_result.floored
            assert sorted(tree_result.demoted) == sorted(flat_result.demoted)
            assert sorted(tree_result.demoted) == fleet_t.shard_rosters[2]
            assert tree_result.plan_mix == flat_result.plan_mix
            assert tree_result.records_examined \
                == flat_result.records_examined
            assert tree_result.field_total == flat_result.field_total
        assert tree_result.field_total is not None


class TestRegionLifecycle:
    """A region holds a shard run only while it collects or recovers it;
    after its report the region's journal answers the root."""

    def test_quiet_queries_leave_no_region_run_behind(self):
        world, network, fleet = _tree_fleet(40, shards=3)
        root = _tree(world, network, 3)
        for _ in range(3):
            result = root.run(_sum_spec(), fleet.roster)
            assert result.outcome == "complete"
            assert result.recovery_rounds == 0
        assert [region._active for region in root.regions] == [{}, {}, {}]

    @pytest.mark.parametrize("lost, offline", [
        ("fq.shard_partial", False),
        ("fq.shard_mask", True),
    ])
    def test_reasked_region_answers_from_its_journal(self, lost, offline):
        def run(drop):
            world, network, fleet = _tree_fleet(40, shards=3)
            if offline:
                network.set_online(fleet.roster[-1], False)
            root = _tree(world, network, 3)
            region = root.regions[0]
            send_up, dropped = region._send_up, []

            def lossy(address, message):
                if drop and message["kind"] == lost and not dropped:
                    dropped.append(message)  # lost on the way up
                    return
                send_up(address, message)

            region._send_up = lossy
            return root, dropped, root.run(_sum_spec(), fleet.roster)

        _, _, control = run(drop=False)
        root, dropped, result = run(drop=True)
        assert dropped
        assert result.reasks > control.reasks
        assert result.outcome == control.outcome
        assert result.demoted == control.demoted
        assert result.field_total == control.field_total
        assert [region._active for region in root.regions] == [{}, {}, {}]
