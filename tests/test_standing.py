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
