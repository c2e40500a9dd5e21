"""E15 — standing queries: continuous multi-tenant windows over a fleet.

Turns E14's one-shot engine into a continuously-serving system: a
recipient *subscribes* a windowed ``FedQuerySpec`` and the fleet
releases one egress-gated delta per window close. The measured claims:

* **pinning** — a standing ``aggregate-exact`` subscription's
  per-window totals equal re-running the equivalent one-shot windowed
  spec on identical data, bit-for-bit (value *and* field element) —
  including across a coordinator crash/restart mid-subscription;
* **privacy per window** — DP tenants get a fresh noise draw every
  window, the journal holds only gate-transformed deltas (no raw
  window encoding), ``records-kanon`` windows ship sealed batches;
* **multi-tenancy** — a mixed tenant population (energy + employment
  domains, mixed transforms) settles every window on the quiet path
  with zero re-asks.
"""

from __future__ import annotations

from ..crypto import shamir
from ..fedquery import (
    Coordinator,
    FedQuerySpec,
    StandingCoordinator,
    WindowClause,
    build_fleet,
    journal_elements,
    run_traffic,
    seed_stream_data,
    tenant_specs,
)
from ..fedquery.spec import TRANSFORM_DP, TRANSFORM_EXACT, TRANSFORM_KANON
from ..infrastructure.network import Network
from ..sim.world import World
from .claims import Claim
from .tables import Table, cell, where

WINDOWS = 3
WIDTH_S = 900
FIELD_SECONDS = 300
UNITS = WINDOWS * (WIDTH_S // FIELD_SECONDS)


def _window() -> WindowClause:
    return WindowClause(width_s=WIDTH_S, windows=WINDOWS,
                        field_seconds=FIELD_SECONDS)


def _spec(transform: str) -> FedQuerySpec:
    if transform == TRANSFORM_KANON:
        return FedQuerySpec(
            recipient="agency", purpose="cohort-release",
            transform=transform, collection="employment",
            project=("qi_age", "qi_zip", "sector"), k=5,
        )
    return FedQuerySpec(
        recipient="utility" if transform == TRANSFORM_EXACT else "institute",
        purpose="load-forecast", transform=transform,
        collection="energy_stream", value_field="watts",
        scale=1000 if transform == TRANSFORM_DP else 10,
        epsilon=2.0,
    )


def _standing_fleet(seed: int, n_cells: int):
    world = World(seed=seed)
    network = Network(world)
    fleet = build_fleet(world, network, n_cells)
    seed_stream_data(fleet, units=UNITS, field_seconds=FIELD_SECONDS)
    return world, network, fleet


def _oneshot_values(seed: int, n_cells: int,
                    spec: FedQuerySpec) -> dict[int, tuple]:
    """Each window's one-shot answer on an identical fresh world."""
    world, network, fleet = _standing_fleet(seed, n_cells)
    world.loop.run_until(WINDOWS * WIDTH_S + 10)  # let ingestion land
    coordinator = Coordinator(world, network, address="fq-oneshot")
    window = _window()
    values = {}
    for index in range(WINDOWS):
        result = coordinator.run(window.windowed_spec(spec, index),
                                 fleet.roster)
        values[index] = (result.value, result.field_total)
    return values


def _raw_window_elements(fleet, spec: FedQuerySpec,
                         window: WindowClause) -> set[int]:
    raw = set()
    for index in range(window.windows):
        wspec = window.windowed_spec(spec, index)
        for name in fleet.roster:
            scalar = fleet.catalogs[name].query(wspec.local_query()).scalar()
            raw.add(shamir.encode_signed(round(float(scalar) * spec.scale)))
    return raw


def run(seed: int = 0, n_cells: int = 12, tenants: int = 16) -> list[Table]:
    window = _window()

    transforms = Table(
        title=f"E15: standing windows ({n_cells} cells, {WINDOWS} windows, "
              "quiet net)",
        columns=["transform", "settled", "complete windows", "pinned",
                 "dp windows noisy", "max lag s", "raw leaked"],
    )
    for transform in (TRANSFORM_EXACT, TRANSFORM_DP, TRANSFORM_KANON):
        world, network, fleet = _standing_fleet(seed, n_cells)
        coordinator = StandingCoordinator(world, network)
        spec = _spec(transform)
        sub = coordinator.subscribe(spec, fleet.roster, window)
        coordinator.drive()
        complete = sum(
            result.outcome == "complete" for result in sub.results.values()
        )
        pinned = True
        noisy = 0
        if transform == TRANSFORM_EXACT:
            oneshot = _oneshot_values(seed, n_cells, spec)
            pinned = all(
                (sub.results[i].value, sub.results[i].field_total)
                == oneshot[i]
                for i in range(WINDOWS)
            )
        elif transform == TRANSFORM_DP:
            noisy = sum(
                abs(sub.results[i].value
                    - fleet.ground_truth(window.windowed_spec(spec, i))) > 0
                for i in range(WINDOWS)
            )
        else:
            pinned = all(
                sub.results[i].sealed_records for i in range(WINDOWS)
            )
        leaked = bool(
            spec.numeric
            and journal_elements(coordinator.journal)
            & _raw_window_elements(fleet, spec, window)
        )
        transforms.add_row(
            transform, len(sub.results), complete, pinned, noisy,
            max(sub.settle_lag_s.values(), default=0), leaked,
        )
    transforms.add_note(
        "pinned: exact per-window totals match the equivalent one-shot "
        "windowed query bit-for-bit; dp draws fresh noise every window; "
        "the journal never holds a raw window encoding"
    )

    crash = Table(
        title=f"E15: coordinator crash mid-subscription ({n_cells} cells, "
              "aggregate-exact)",
        columns=["profile", "settled", "outcomes complete",
                 "max lag s", "pinned to control", "reasks"],
    )
    spec = _spec(TRANSFORM_EXACT)
    control: dict[int, tuple] = {}
    for profile in ("quiet", "crash+restart"):
        world, network, fleet = _standing_fleet(seed + 1, n_cells)
        coordinator = StandingCoordinator(
            world, network, horizon_slack_s=2000)
        sub = coordinator.subscribe(spec, fleet.roster, window)
        if profile == "crash+restart":
            # Down across window 1's close, restarted before window 2.
            _, end_1 = window.window_span_s(1)
            world.loop.schedule_in(end_1 - 100, coordinator.crash,
                                   label="e15 crash")
            world.loop.schedule_in(end_1 + 500, coordinator.restart,
                                   label="e15 restart")
        coordinator.drive()
        totals = {
            index: (result.value, result.field_total)
            for index, result in sub.results.items()
        }
        if profile == "quiet":
            control = totals
        crash.add_row(
            profile, len(sub.results),
            sum(r.outcome == "complete" for r in sub.results.values()),
            max(sub.settle_lag_s.values(), default=0),
            totals == control,
            sum(r.reasks for r in sub.results.values()),
        )
    crash.add_note(
        "the journal rebuilds the subscription on restart: the window "
        "whose close fell in the downtime settles late but bit-for-bit "
        "equal to the no-crash control"
    )

    tenants_table = Table(
        title=f"E15: multi-tenant standing traffic ({tenants} tenants, "
              f"{n_cells} cells, quiet net)",
        columns=["tenants", "windows settled", "complete subs",
                 "reasks", "messages/window"],
    )
    world, network, fleet = _standing_fleet(seed + 2, n_cells)
    coordinator = StandingCoordinator(world, network)
    _, report = run_traffic(coordinator, fleet, tenant_specs(tenants), window)
    tenants_table.add_row(
        report.subscriptions, report.windows_settled,
        report.complete_subscriptions, report.reasks,
        round(report.messages_per_window, 1),
    )
    tenants_table.add_note(
        "mixed energy + employment tenants (exact/dp/kanon mix) against "
        "one fleet; quiet path settles every window with zero re-asks"
    )
    return [transforms, crash, tenants_table]


def _tenants_short(column: str, per_tenant: int = 1):
    """How far the multi-tenant row's ``column`` falls short of
    ``per_tenant`` for every tenant."""
    def read(tables: list[Table]) -> int:
        row = dict(zip(tables[2].columns, tables[2].rows[0]))
        return row["tenants"] * per_tenant - row[column]
    return read


CLAIMS = (
    Claim("every exact window settles", "distributed computation", "count",
          cell(0, TRANSFORM_EXACT, "settled"), "==", WINDOWS),
    Claim("every exact window completes", "distributed computation",
          "count", cell(0, TRANSFORM_EXACT, "complete windows"), "==",
          WINDOWS),
    Claim("exact windows equal one-shot queries", "distributed computation",
          "count", cell(0, TRANSFORM_EXACT, "pinned"), "=="),
    Claim("every dp window settles", "shared commons", "count",
          cell(0, TRANSFORM_DP, "settled"), "==", WINDOWS),
    Claim("every dp window draws fresh noise", "shared commons", "count",
          cell(0, TRANSFORM_DP, "dp windows noisy"), "==", WINDOWS),
    Claim("every kanon window settles", "shared commons", "count",
          cell(0, TRANSFORM_KANON, "settled"), "==", WINDOWS),
    Claim("every kanon window releases sealed records", "shared commons",
          "count", cell(0, TRANSFORM_KANON, "pinned"), "=="),
    Claim("no journal holds a raw window encoding", "threat model", "count",
          where(0, lambda row: row["raw leaked"]), "==", []),
    Claim("quiet: every window settles", "distributed computation", "count",
          cell(1, "quiet", "settled"), "==", WINDOWS),
    Claim("quiet: every window settles on time", "distributed computation",
          "sim", cell(1, "quiet", "max lag s"), "==", 0),
    Claim("crash: every window settles", "distributed computation", "count",
          cell(1, "crash+restart", "settled"), "==", WINDOWS),
    Claim("crash: windows equal the control's", "distributed computation",
          "count", cell(1, "crash+restart", "pinned to control"), "=="),
    Claim("crash: the downtime's window is late", "distributed computation",
          "sim", cell(1, "crash+restart", "max lag s"), ">", 0),
    Claim("every tenant settles every window", "distributed computation",
          "count", _tenants_short("windows settled", WINDOWS), "==", 0),
    Claim("every tenant's subscription completes", "distributed computation",
          "count", _tenants_short("complete subs"), "==", 0),
    Claim("multi-tenant traffic re-asks no cell", "distributed computation",
          "count", lambda tables: tables[2].column("reasks")[0], "==", 0),
)
