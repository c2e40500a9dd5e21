"""Tests for standing federated queries (windowed subscriptions)."""

import json

import pytest

from repro.commons.anonymize import is_k_anonymous
from repro.errors import ConfigurationError
from repro.fedquery import (
    Coordinator,
    FedQuerySpec,
    StandingCoordinator,
    WindowClause,
    build_fleet,
    journal_elements,
    open_release,
    recipient_key,
    run_traffic,
    seed_stream_data,
    tenant_specs,
    window_tag,
)
from repro.fedquery import gate
from repro.fedquery.spec import (
    TRANSFORM_DP,
    TRANSFORM_EXACT,
    TRANSFORM_KANON,
    plan_message,
    wire_size,
)
from repro.fedquery.standing import sub_message
from repro.infrastructure.network import Network
from repro.sim.world import World
from repro.store.query import Between

WIDTH_S = 900
FIELD_SECONDS = 300
WINDOWS = 3
UNITS = WINDOWS * (WIDTH_S // FIELD_SECONDS)


def window_clause(**overrides):
    defaults = dict(width_s=WIDTH_S, windows=WINDOWS,
                    field_seconds=FIELD_SECONDS)
    defaults.update(overrides)
    return WindowClause(**defaults)


def energy_spec(transform=TRANSFORM_EXACT, **overrides):
    defaults = dict(
        recipient="utility", purpose="load-forecast", transform=transform,
        collection="energy_stream", value_field="watts",
        scale=1000 if transform == TRANSFORM_DP else 10, epsilon=2.0,
    )
    defaults.update(overrides)
    return FedQuerySpec(**defaults)


def standing_fleet(seed=0, n_cells=6, **fleet_kwargs):
    world = World(seed=seed)
    network = Network(world)
    fleet = build_fleet(world, network, n_cells, **fleet_kwargs)
    seed_stream_data(fleet, units=UNITS, field_seconds=FIELD_SECONDS)
    return world, network, fleet


class TestWindowClause:
    def test_spans_and_bounds(self):
        window = window_clause()
        assert window.window_span_s(0) == (0, 900)
        assert window.window_span_s(2) == (1800, 2700)
        assert window.window_bounds(0) == (0, 2)
        assert window.window_bounds(1) == (3, 5)

    def test_sliding_spans_overlap(self):
        window = window_clause(slide_s=300)
        assert window.window_span_s(0) == (0, 900)
        assert window.window_span_s(1) == (300, 1200)

    def test_windowed_spec_bounds_time_field(self):
        spec = energy_spec()
        wspec = window_clause().windowed_spec(spec, 1)
        assert isinstance(wspec.where, Between)
        assert (wspec.where.field, wspec.where.low, wspec.where.high) \
            == ("t", 3, 5)

    def test_windowed_spec_conjoins_existing_predicate(self):
        spec = energy_spec(where=Between("watts", 0, 100))
        wspec = window_clause().windowed_spec(spec, 0)
        assert not isinstance(wspec.where, Between)  # And(existing, window)

    def test_wire_round_trip(self):
        window = window_clause(slide_s=300, origin_s=600)
        assert WindowClause.from_wire(window.to_wire()) == window

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            window_clause(width_s=0)
        with pytest.raises(ConfigurationError):
            window_clause(windows=0)
        with pytest.raises(ConfigurationError):
            window_clause(slide_s=WIDTH_S + 1)
        with pytest.raises(ConfigurationError):
            window_clause(width_s=FIELD_SECONDS + 1)  # not unit-aligned


class TestStandingQuiet:
    def test_exact_totals_pinned_to_oneshot(self):
        """The headline contract: every standing window's total equals
        the equivalent one-shot windowed query, bit-for-bit."""
        window = window_clause()
        spec = energy_spec()
        world, network, fleet = standing_fleet()
        coordinator = StandingCoordinator(world, network)
        sub = coordinator.subscribe(spec, fleet.roster, window)
        coordinator.drive()
        assert len(sub.results) == WINDOWS
        assert sub.complete

        world2, network2, fleet2 = standing_fleet()
        world2.loop.run_until(WINDOWS * WIDTH_S + 10)
        oneshot = Coordinator(world2, network2, address="fq-oneshot")
        for index in range(WINDOWS):
            result = oneshot.run(window.windowed_spec(spec, index),
                                 fleet2.roster)
            standing = sub.results[index]
            assert standing.outcome == "complete"
            assert (standing.value, standing.field_total) \
                == (result.value, result.field_total)
            assert sub.settle_lag_s[index] == 0

    def test_inherited_oneshot_run_still_answers(self):
        """A StandingCoordinator is still a Coordinator: a one-shot
        ``run()`` tag belongs to no subscription, so window routing
        must leave its result for ``run()`` to collect."""
        spec = window_clause().windowed_spec(energy_spec(), 0)
        world, network, fleet = standing_fleet()
        world.loop.run_until(WIDTH_S + 10)
        standing = StandingCoordinator(world, network).run(spec, fleet.roster)

        world2, network2, fleet2 = standing_fleet()
        world2.loop.run_until(WIDTH_S + 10)
        plain = Coordinator(world2, network2).run(spec, fleet2.roster)
        assert standing.outcome == "complete"
        assert (standing.value, standing.field_total) \
            == (plain.value, plain.field_total)

    def test_dp_draws_fresh_noise_every_window(self):
        window = window_clause()
        spec = energy_spec(TRANSFORM_DP)
        world, network, fleet = standing_fleet()
        coordinator = StandingCoordinator(world, network)
        sub = coordinator.subscribe(spec, fleet.roster, window)
        coordinator.drive()
        errors = [
            abs(sub.results[i].value
                - fleet.ground_truth(window.windowed_spec(spec, i)))
            for i in range(WINDOWS)
        ]
        assert all(error > 0 for error in errors)  # noise in every window
        assert len(set(errors)) > 1  # and not the same draw replayed

    def test_kanon_ships_sealed_window_batches(self):
        window = window_clause()
        spec = FedQuerySpec(
            recipient="agency", purpose="cohort-release",
            transform=TRANSFORM_KANON, collection="employment",
            project=("qi_age", "qi_zip", "sector"), k=3,
        )
        world, network, fleet = standing_fleet(n_cells=8)
        coordinator = StandingCoordinator(world, network)
        sub = coordinator.subscribe(spec, fleet.roster, window)
        coordinator.drive()
        key = recipient_key(spec.recipient, fleet.secret)
        for index in range(WINDOWS):
            result = sub.results[index]
            assert result.outcome == "complete"
            assert result.sealed_records
            released = open_release(result, key, k=spec.k)
            assert is_k_anonymous(released, spec.k)

    def test_journal_holds_no_raw_window_encoding(self):
        from repro.crypto import shamir

        window = window_clause()
        spec = energy_spec()
        world, network, fleet = standing_fleet()
        coordinator = StandingCoordinator(world, network)
        coordinator.subscribe(spec, fleet.roster, window)
        coordinator.drive()
        raw = set()
        for index in range(WINDOWS):
            wspec = window.windowed_spec(spec, index)
            for name in fleet.roster:
                scalar = fleet.catalogs[name].query(
                    wspec.local_query()).scalar()
                raw.add(shamir.encode_signed(
                    round(float(scalar) * spec.scale)))
        assert not journal_elements(coordinator.journal) & raw

    def test_two_tenants_use_distinct_mask_streams(self):
        """Two subscriptions over the same roster and windows must not
        reuse mask keystreams — identical data, different tags, so the
        journalled masked elements must differ."""
        window = window_clause()
        world, network, fleet = standing_fleet()
        coordinator = StandingCoordinator(world, network)
        sub_a = coordinator.subscribe(energy_spec(), fleet.roster, window)
        sub_b = coordinator.subscribe(energy_spec(), fleet.roster, window)
        coordinator.drive()
        by_tag: dict[str, list[int]] = {}
        for record in coordinator.journal.records():
            if record["type"] == "partial" and record["status"] == "ok":
                payload = record["payload"]
                if isinstance(payload, dict) and "masked" in payload:
                    by_tag.setdefault(record["tag"], []).append(
                        payload["masked"])
        masked_a = [by_tag[f"{sub_a.tag}|w{i}"] for i in range(WINDOWS)]
        masked_b = [by_tag[f"{sub_b.tag}|w{i}"] for i in range(WINDOWS)]
        assert all(sorted(a) != sorted(b)
                   for a, b in zip(masked_a, masked_b))
        # yet both settle to the same exact total
        assert all(
            sub_a.results[i].value == sub_b.results[i].value
            for i in range(WINDOWS)
        )


class TestPerWindowGating:
    def test_opt_out_mid_subscription_floors_later_windows(self):
        """Opt-in and the min-cohort floor are re-checked at every
        window close, not just at subscribe time."""
        n_cells = 6
        window = window_clause()
        spec = energy_spec(min_cohort=n_cells)
        world, network, fleet = standing_fleet(n_cells=n_cells)
        coordinator = StandingCoordinator(world, network)
        sub = coordinator.subscribe(spec, fleet.roster, window)
        defector = fleet.agents[fleet.roster[0]]
        world.loop.schedule_in(
            WIDTH_S + 10, lambda: defector.opt_out("load-forecast"),
            label="mid-subscription opt-out",
        )
        coordinator.drive()
        assert sub.results[0].outcome == "complete"
        for index in (1, 2):
            result = sub.results[index]
            assert result.outcome == "abandoned"
            assert result.failure == "privacy-floor"
            assert result.declined == 1

    def test_opt_out_without_floor_excludes_cell_exactly(self):
        n_cells = 6
        window = window_clause()
        spec = energy_spec()  # min_cohort=1
        world, network, fleet = standing_fleet(n_cells=n_cells)
        coordinator = StandingCoordinator(world, network)
        sub = coordinator.subscribe(spec, fleet.roster, window)
        defector = fleet.agents[fleet.roster[0]]
        world.loop.schedule_in(
            WIDTH_S + 10, lambda: defector.opt_out("load-forecast"),
            label="mid-subscription opt-out",
        )
        coordinator.drive()
        survivors = fleet.roster[1:]
        for index in (1, 2):
            result = sub.results[index]
            assert result.outcome == "complete"
            assert result.declined == 1
            truth = fleet.ground_truth(
                window.windowed_spec(spec, index), survivors)
            assert result.value == pytest.approx(truth, abs=1e-6)


class TestCrashRecovery:
    def test_crash_across_window_close_recovers_pinned(self):
        window = window_clause()
        spec = energy_spec()
        totals = {}
        lags = {}
        for profile in ("control", "crashed"):
            world, network, fleet = standing_fleet(seed=3)
            coordinator = StandingCoordinator(
                world, network, horizon_slack_s=2000)
            sub = coordinator.subscribe(spec, fleet.roster, window)
            if profile == "crashed":
                _, end_1 = window.window_span_s(1)
                world.loop.schedule_in(end_1 - 100, coordinator.crash)
                world.loop.schedule_in(end_1 + 500, coordinator.restart)
            coordinator.drive()
            assert len(sub.results) == WINDOWS
            # windows already on the handle are not republished by the
            # restart (each would pin a coordinator_view forever)
            assert coordinator._results == {}
            totals[profile] = {
                index: (result.value, result.field_total)
                for index, result in sub.results.items()
            }
            lags[profile] = dict(sub.settle_lag_s)
        assert totals["crashed"] == totals["control"]
        assert lags["control"] == {i: 0 for i in range(WINDOWS)}
        assert lags["crashed"][1] > 0  # the missed window settled late
        assert lags["crashed"][2] == 0  # later windows back on schedule

    def test_crash_before_any_close_rebuilds_subscription(self):
        window = window_clause()
        spec = energy_spec()
        world, network, fleet = standing_fleet(seed=4)
        coordinator = StandingCoordinator(
            world, network, horizon_slack_s=2000)
        sub = coordinator.subscribe(spec, fleet.roster, window)
        world.loop.schedule_in(100, coordinator.crash)
        world.loop.schedule_in(400, coordinator.restart)
        coordinator.drive()
        assert len(sub.results) == WINDOWS
        assert sub.complete
        assert all(lag == 0 for lag in sub.settle_lag_s.values())


class TestTraffic:
    def test_multi_tenant_mix_settles_clean(self):
        window = window_clause()
        world, network, fleet = standing_fleet(seed=5, n_cells=8)
        coordinator = StandingCoordinator(world, network)
        subs, report = run_traffic(
            coordinator, fleet, tenant_specs(20), window)
        assert report.subscriptions == 20
        assert report.windows_settled == report.windows_expected
        assert report.complete_subscriptions == 20
        assert report.reasks == 0
        assert report.outcomes == {"complete": 20 * WINDOWS}
        transforms = {spec.transform for spec in tenant_specs(20)}
        assert transforms == {
            TRANSFORM_EXACT, TRANSFORM_DP, TRANSFORM_KANON,
        }

    def test_epoch_rotation_mid_subscription_stays_exact(self):
        """Fresh per-window masks compose with the keymgmt epoch
        ratchet: rotating the fleet's key epoch between windows must
        not perturb the exact totals."""
        window = window_clause()
        spec = energy_spec()
        world, network, fleet = standing_fleet(
            seed=6, n_cells=6, key_lifecycle=True, ring_neighbors=4)
        coordinator = StandingCoordinator(world, network, neighbors=4)
        subs, report = run_traffic(
            coordinator, fleet, [spec], window, rotate_epoch_every=2)
        assert report.complete_subscriptions == 1
        sub = subs[0]
        for index in range(WINDOWS):
            truth = fleet.ground_truth(window.windowed_spec(spec, index))
            assert sub.results[index].value == pytest.approx(
                truth, abs=1e-6)


class TestOneEgress:
    """A window close and a one-shot plan leave the cell by the same
    ladder (``CellQueryAgent._egress``): only where the local value
    comes from differs, so for the same window tag and round tag the
    two partials are the same bytes."""

    SUB_TAG = "sub1|utility|load-forecast"
    ROUND_BASE = "pin-egress"

    def _cell(self, n_cells=6, opted_out=False):
        world, network, fleet = standing_fleet(n_cells=n_cells)
        inbox = []
        network.register("sink", lambda sender, payload: inbox.append(payload))
        agent = fleet.agents[fleet.roster[1]]
        if opted_out:
            agent.opt_out("load-forecast", "cohort-release")
        return world, network, fleet, agent, inbox

    def _deliver(self, world, network, agent, message, until):
        network.send("sink", agent.name, message,
                     size_bytes=wire_size(message))
        world.loop.run_until(until)

    def _window_partial(self, spec, index, **cell):
        window = window_clause()
        world, network, fleet, agent, inbox = self._cell(**cell)
        self._deliver(world, network, agent, sub_message(
            self.SUB_TAG, spec, window, fleet.roster, "sink",
            round_base=self.ROUND_BASE,
        ), window.window_span_s(index)[1] + 5)
        wtag = window_tag(self.SUB_TAG, index)
        (partial,) = [m for m in inbox if m["tag"] == wtag]
        assert partial is agent._partials[wtag]
        return partial

    def _plan_partial(self, spec, index, **cell):
        window = window_clause()
        world, network, fleet, agent, inbox = self._cell(**cell)
        end_s = window.window_span_s(index)[1]
        world.loop.run_until(end_s)
        self._deliver(world, network, agent, plan_message(
            window_tag(self.SUB_TAG, index),
            window.windowed_spec(spec, index), fleet.roster, "sink",
            round_tag=f"{self.ROUND_BASE}|w{index}",
        ), end_s + 5)
        (partial,) = inbox
        return partial

    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize("case", [
        "aggregate-exact", "records-kanon", "opted-out", "below-floor",
    ])
    def test_window_close_and_plan_emit_the_same_bytes(self, case, index):
        spec, cell, status = energy_spec(), {}, "ok"
        if case == "records-kanon":
            spec = FedQuerySpec(
                recipient="agency", purpose="cohort-release",
                transform=TRANSFORM_KANON, collection="employment",
                project=("qi_age", "qi_zip", "sector"), k=3,
            )
        elif case == "opted-out":
            cell, status = {"opted_out": True}, "declined"
        elif case == "below-floor":
            spec, status = energy_spec(min_cohort=7), "floor"
        closed = self._window_partial(spec, index, **cell)
        planned = self._plan_partial(spec, index, **cell)
        assert closed["status"] == planned["status"] == status
        assert json.dumps(closed, sort_keys=True) \
            == json.dumps(planned, sort_keys=True)

    def test_dp_share_is_drawn_once_per_cell_and_window(self, monkeypatch):
        draws = []
        draw = gate.dp_noise_share

        def counting_draw(*args, **kwargs):
            draws.append(kwargs["participants"])
            return draw(*args, **kwargs)

        monkeypatch.setattr(gate, "dp_noise_share", counting_draw)
        spec = energy_spec(TRANSFORM_DP)
        window = window_clause()
        world, network, fleet, agent, inbox = self._cell()
        self._deliver(world, network, agent, sub_message(
            self.SUB_TAG, spec, window, fleet.roster, "sink",
            round_base=self.ROUND_BASE,
        ), window.window_span_s(0)[1] + 5)
        assert len(draws) == 1
        # A coordinator plan re-ask after the close replays the cached
        # bytes: no second draw to average the noise away with.
        self._deliver(world, network, agent, plan_message(
            window_tag(self.SUB_TAG, 0), window.windowed_spec(spec, 0),
            fleet.roster, "sink", round_tag=f"{self.ROUND_BASE}|w0",
        ), window.window_span_s(0)[1] + 10)
        closed, replayed = inbox
        assert json.dumps(closed, sort_keys=True) \
            == json.dumps(replayed, sort_keys=True)
        assert len(draws) == 1
        world.loop.run_until(window.window_span_s(1)[1] + 5)
        assert len(draws) == 2 and len(inbox) == 3
        assert inbox[2]["payload"] != closed["payload"]


# -- the shared window feed -----------------------------------------------------

FEED_UNITS = 12


def feed_fleet(seed=0, n_cells=6, units=FEED_UNITS):
    from repro.fedquery import TRAFFIC_PURPOSES

    world = World(seed=seed)
    network = Network(world)
    fleet = build_fleet(
        world, network, n_cells, purposes=set(TRAFFIC_PURPOSES))
    seed_stream_data(fleet, units=units, field_seconds=FIELD_SECONDS)
    return world, network, fleet


def metric(world, name):
    return world.obs.export()["metrics"][name]


def feed_pulls(world):
    return sum(
        metric(world, "fedquery.standing.feed_pulls")["labels"].values())


class TestWindowFeed:
    """One store pull per cell per feed per close, whatever the number
    of tenants; every per-(subscription, window) guarantee unchanged."""

    @pytest.mark.parametrize("tenants", [1, 4, 16])
    def test_store_queries_per_close_follow_feeds_not_tenants(
            self, tenants, monkeypatch):
        from repro.store.catalog import Catalog

        calls = []
        query = Catalog.query

        def counting_query(catalog, spec):
            calls.append(id(catalog))
            return query(catalog, spec)

        monkeypatch.setattr(Catalog, "query", counting_query)
        window = window_clause()
        specs = tenant_specs(tenants)
        feeds = len({spec.collection for spec in specs})
        assert feeds == min(tenants, 2)
        world, network, fleet = feed_fleet(n_cells=4, units=UNITS)
        coordinator = StandingCoordinator(world, network)
        subs = [coordinator.subscribe(spec, fleet.roster, window)
                for spec in specs]
        for index in range(WINDOWS):
            before = len(calls)
            world.loop.run_until(window.window_span_s(index)[1] + 5)
            closing = calls[before:]
            assert len(closing) == feeds * len(fleet.roster)
            assert all(closing.count(id(catalog)) == feeds
                       for catalog in fleet.catalogs.values())
        coordinator.drive()
        assert all(sub.complete for sub in subs)
        assert feed_pulls(world) == len(calls)

    MIXED = (
        # spec, clause overrides
        (energy_spec(recipient="u-tumbling"), dict(windows=4)),
        (energy_spec(recipient="u-sliding",
                     where=Between("watts", 100.0, 400.0)),
         dict(windows=8, slide_s=300)),
        (energy_spec(recipient="u-offset"),
         dict(width_s=600, windows=5, origin_s=300)),
        (FedQuerySpec(
            recipient="a-hours", purpose="employment-stats",
            transform=TRANSFORM_EXACT, collection="employment",
            value_field="hours", scale=10),
         dict(windows=5, slide_s=600, origin_s=300)),
        (FedQuerySpec(
            recipient="a-audit", purpose="eligibility-audit",
            transform=TRANSFORM_EXACT, collection="employment",
            where=Between("hours", 0.0, 1e9), aggregate="count"),
         dict(windows=4)),
        (FedQuerySpec(
            recipient="a-release", purpose="cohort-release",
            transform=TRANSFORM_KANON, collection="employment",
            project=("qi_age", "qi_zip", "sector"), k=2),
         dict(windows=5, slide_s=600, origin_s=300)),
    )

    def test_mixed_clauses_on_one_fleet_pinned_to_oneshot(self):
        """Tumbling and sliding clauses at two origins share the same
        two feeds; every exact window total is bit-for-bit the one-shot
        windowed query and every record release is the one-shot rows."""
        tenants = [(spec, window_clause(**clause))
                   for spec, clause in self.MIXED]
        world, network, fleet = feed_fleet()
        coordinator = StandingCoordinator(world, network)
        subs = [coordinator.subscribe(spec, fleet.roster, clause)
                for spec, clause in tenants]
        coordinator.drive()
        assert all(len(fleet.agents[name]._standing.feeds) == 0
                   for name in fleet.roster)  # all released at the end

        world2, network2, fleet2 = feed_fleet()
        world2.loop.run_until(FEED_UNITS * FIELD_SECONDS + 10)
        oneshot = Coordinator(world2, network2, address="fq-oneshot")
        for sub, (spec, clause) in zip(subs, tenants):
            assert sub.complete
            key = recipient_key(spec.recipient, fleet.secret)
            for index in range(clause.windows):
                expected = oneshot.run(
                    clause.windowed_spec(spec, index), fleet2.roster)
                standing = sub.results[index]
                assert standing.outcome == expected.outcome == "complete"
                if spec.numeric:
                    assert (standing.value, standing.field_total) \
                        == (expected.value, expected.field_total)
                    continue
                released, oracle = (
                    {cell: sorted(json.dumps(row, sort_keys=True)
                                  for row in gate.open_records(key, blob))
                     for cell, blob in result.sealed_records}
                    for result in (standing, expected)
                )
                assert released == oracle
                assert any(released.values())

    # -- cell-level probes (one agent, a sink for its partials) -------------

    SUB_A = "sub1|agency|cohort-release"
    SUB_B = "sub2|agency|employment-stats"
    HOURS = FedQuerySpec(
        recipient="agency", purpose="employment-stats",
        transform=TRANSFORM_EXACT, collection="employment",
        value_field="hours", scale=10,
    )
    RELEASE = FedQuerySpec(
        recipient="agency", purpose="cohort-release",
        transform=TRANSFORM_KANON, collection="employment",
        project=("qi_age", "qi_zip", "sector"), k=2,
    )

    def _cell(self):
        world, network, fleet = feed_fleet()
        inbox = []
        network.register("sink", lambda sender, payload: inbox.append(payload))
        return world, network, fleet, fleet.agents[fleet.roster[1]], inbox

    def _send(self, network, agent, message):
        network.send("sink", agent.name, message,
                     size_bytes=wire_size(message))

    def _subscribe(self, network, fleet, agent, tag, spec, clause):
        self._send(network, agent, sub_message(
            tag, spec, clause, fleet.roster, "sink", round_base=tag))

    def test_late_subscriber_extends_the_feed_downward(self):
        """A tenant installed two windows after another reads the same
        feed; the rows its overdue windows need were already let go, so
        the feed is extended downward — to the same values the tenant
        gets when it subscribes alone and on time."""
        clause = window_clause(windows=4)
        world, network, fleet, agent, inbox = self._cell()
        # A sliding record tenant keeps the feed populated.
        self._subscribe(network, fleet, agent, self.SUB_A, self.RELEASE,
                        window_clause(windows=10, slide_s=300))
        world.loop.run_until(2 * WIDTH_S + 50)
        feed = agent._standing.feeds["employment", "t", FIELD_SECONDS]
        assert feed._pulls and feed._pulls[0].low > 0
        before = feed_pulls(world)
        self._subscribe(network, fleet, agent, self.SUB_B, self.HOURS, clause)
        world.loop.run_until(2 * WIDTH_S + 60)
        # windows 0 and 1 closed at once, off the same feed, for ONE
        # more pull: the range below the retained rows
        assert agent._standing.feeds[
            "employment", "t", FIELD_SECONDS] is feed
        assert len(feed.readers) == 2
        assert feed_pulls(world) == before + 1
        world.loop.run_until(4 * WIDTH_S + 5)
        late = {m["tag"]: m["payload"] for m in inbox
                if m["tag"].startswith(self.SUB_B)}

        world2, network2, fleet2, agent2, inbox2 = self._cell()
        self._subscribe(network2, fleet2, agent2, self.SUB_B, self.HOURS,
                        clause)
        world2.loop.run_until(4 * WIDTH_S + 5)
        alone = {m["tag"]: m["payload"] for m in inbox2}
        assert len(alone) == clause.windows
        assert late == alone

    def test_plan_reask_that_beats_a_close_replays_and_next_is_exact(self):
        clause = window_clause()
        spec = energy_spec()
        tag = TestOneEgress.SUB_TAG
        world, network, fleet, agent, inbox = self._cell()
        self._subscribe(network, fleet, agent, tag, spec, clause)
        plan = plan_message(
            window_tag(tag, 0), clause.windowed_spec(spec, 0),
            fleet.roster, "sink", round_tag=f"{tag}|w0")
        world.loop.run_until(WIDTH_S - 1)  # the window's last rows are in
        self._send(network, agent, plan)
        world.loop.run_until(WIDTH_S - 1)
        assert len(inbox) == 1  # answered by the plan, before the close
        world.loop.run_until(WIDTH_S + 5)
        assert len(inbox) == 1  # the close found it answered
        self._send(network, agent, plan)
        world.loop.run_until(WIDTH_S + 10)
        assert json.dumps(inbox[1], sort_keys=True) \
            == json.dumps(inbox[0], sort_keys=True)
        world.loop.run_until(2 * WIDTH_S + 5)

        # window 1 is the bytes a cell that closed window 0 itself emits
        world2, network2, fleet2, agent2, inbox2 = self._cell()
        self._subscribe(network2, fleet2, agent2, tag, spec, clause)
        world2.loop.run_until(2 * WIDTH_S + 5)
        assert [m["tag"] for m in inbox2] == [
            window_tag(tag, 0), window_tag(tag, 1)]
        assert json.dumps(inbox[2], sort_keys=True) \
            == json.dumps(inbox2[1], sort_keys=True)
        assert inbox[0]["payload"] == inbox2[0]["payload"]

    def test_runtime_released_after_last_window_and_late_sub_is_noop(self):
        clause = window_clause()
        tag = TestOneEgress.SUB_TAG
        world, network, fleet, agent, inbox = self._cell()
        self._subscribe(network, fleet, agent, tag, energy_spec(), clause)
        world.loop.run_until(WIDTH_S + 5)
        runtime = agent._standing
        assert list(runtime.subscriptions) == [tag] and runtime.feeds
        # a duplicate of a live subscription: already armed
        self._subscribe(network, fleet, agent, tag, energy_spec(), clause)
        world.loop.run_until(WINDOWS * WIDTH_S + 5)
        assert len(inbox) == WINDOWS
        assert not runtime.subscriptions and not runtime.feeds
        assert not runtime._armed
        # a late duplicate of the finished subscription: nothing to do
        pending = world.loop.pending
        self._subscribe(network, fleet, agent, tag, energy_spec(), clause)
        world.loop.run_until(WINDOWS * WIDTH_S + 10)
        assert not runtime.subscriptions and not runtime.feeds
        assert world.loop.pending == pending
        assert len(inbox) == WINDOWS

    def test_feed_rows_stay_within_the_widest_live_window(self):
        """The retention bound, read from the exported gauge after
        every close: per cell at most rows-per-unit x the widest live
        window (two stream collections, at most one row per unit
        each), and nothing once every subscription has finished."""
        tenants = [(spec, window_clause(**clause))
                   for spec, clause in self.MIXED]
        widest_units = max(
            clause.width_s for _, clause in tenants) // FIELD_SECONDS
        world, network, fleet = feed_fleet()
        coordinator = StandingCoordinator(world, network)
        for spec, clause in tenants:
            coordinator.subscribe(spec, fleet.roster, clause)
        peaks = []
        for unit in range(1, FEED_UNITS + 1):
            world.loop.run_until(unit * FIELD_SECONDS + 1)
            retained = metric(
                world, "fedquery.standing.feed_rows")["labels"]
            assert set(retained) == set(fleet.roster)
            assert max(retained.values()) <= 2 * widest_units
            peaks.append(max(retained.values()))
        assert max(peaks) > 0  # the sliding tenants do retain rows
        coordinator.drive()
        retained = metric(world, "fedquery.standing.feed_rows")["labels"]
        assert set(retained.values()) == {0}

    def test_feed_counters_survive_an_in_place_reset(self):
        """``obs.reset()`` zeroes instruments in place (what
        ``tests/conftest.py`` does to the default scope); the feed binds
        instruments, not values, so it keeps counting afterwards."""
        window = window_clause()
        world, network, fleet = feed_fleet(n_cells=4, units=UNITS)
        coordinator = StandingCoordinator(world, network)
        for spec in tenant_specs(4):
            coordinator.subscribe(spec, fleet.roster, window)
        world.loop.run_until(WIDTH_S + 5)
        first = feed_pulls(world)
        assert first == 2 * len(fleet.roster)
        assert metric(
            world, "fedquery.standing.feed_rows_examined")["value"] > 0
        world.obs.reset()
        world.loop.run_until(2 * WIDTH_S + 5)
        assert feed_pulls(world) == first
        assert set(metric(world, "fedquery.standing.feed_pulls")["labels"]) \
            <= {"index", "zonemap", "scan"}
        assert metric(world, "fedquery.standing.rows_consumed")["value"] > 0
