"""Multi-tenant standing-query traffic over one cell fleet.

The load shape the paper implies but the one-shot engine cannot serve:
*hundreds* of recipients — utilities, municipalities, employment
agencies — each holding a durable subscription against the same fleet,
with mixed purposes and transforms. This module seeds the two workload
domains (an energy stream and administrative employment records from
:mod:`repro.workloads.records`), schedules their ingestion so rows
arrive in event-time order *before* each window closes (the standing
path's monotone-append contract), builds a deterministic tenant mix,
and rolls the whole thing up into a :class:`TrafficReport` the
standing bench tracks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..sim.world import World
from ..store.query import Eq
from ..workloads.records import (
    EMPLOYMENT_PURPOSES,
    PURPOSE_COHORT_RELEASE,
    PURPOSE_ELIGIBILITY_AUDIT,
    PURPOSE_EMPLOYMENT_STATS,
    employment_rows,
    generate_eligibility_spans,
    generate_employment_records,
)
from .fleet import Fleet
from .spec import TRANSFORM_DP, TRANSFORM_EXACT, TRANSFORM_KANON, FedQuerySpec
from .standing import StandingCoordinator, StandingSubscription, WindowClause

ENERGY_STREAM = "energy_stream"
EMPLOYMENT = "employment"

PURPOSE_LOAD_FORECAST = "load-forecast"

#: Every UCON purpose the standing experiment's tenant mix runs under.
TRAFFIC_PURPOSES = (PURPOSE_LOAD_FORECAST,) + EMPLOYMENT_PURPOSES


def seed_stream_data(
    fleet: Fleet,
    *,
    units: int,
    field_seconds: int,
    origin_s: int = 0,
    time_field: str = "t",
) -> None:
    """Seed both stream domains and schedule their in-order ingestion.

    Each cell gets an ``energy_stream`` collection (one watts reading
    per field unit) and an ``employment`` collection (one reporting-
    period row per unit, with gaps, from the workloads generators).
    Rows for unit ``u`` are inserted one sim-second before
    ``origin_s + (u+1) * field_seconds`` — i.e. strictly before any
    window closing at that boundary — and units are scheduled in
    ascending order, so every store's append order is event-time
    monotone: the contract that pins the standing window totals to
    the one-shot query bit-for-bit.

    Cells are opted in to every employment purpose here (the energy
    purpose is the fleet default).
    """
    world = fleet.world
    for name, agent in fleet.agents.items():
        agent.opt_in(*EMPLOYMENT_PURPOSES)
        catalog = fleet.catalogs[name]
        energy = catalog.collection(ENERGY_STREAM)
        employment = catalog.collection(EMPLOYMENT)
        energy_rng = world.rng(f"traffic.energy.{name}")
        work_rng = world.rng(f"traffic.employment.{name}")
        work_by_period = {
            row[time_field]: row
            for row in employment_rows(
                generate_employment_records(work_rng, units),
                generate_eligibility_spans(work_rng, units),
                qi_age=work_rng.randint(18, 67),
                qi_zip=work_rng.randint(10_000, 99_999),
                time_field=time_field,
            )
        }
        for unit in range(units):
            rows = [(energy, f"s{unit}", {
                time_field: unit,
                "watts": round(energy_rng.uniform(50.0, 450.0), 1),
            })]
            work_row = work_by_period.get(unit)
            if work_row is not None:
                rows.append((employment, f"e{unit}", work_row))
            arrive_at = origin_s + (unit + 1) * field_seconds - 1
            world.loop.schedule_in(
                max(0, arrive_at - world.now),
                lambda batch=rows: [
                    collection.insert(key, value)
                    for collection, key, value in batch
                ],
                label=f"traffic ingest {name} u{unit}",
            )


def tenant_specs(
    count: int,
    *,
    time_field: str = "t",
    min_cohort: int = 2,
    k: int = 5,
) -> list[FedQuerySpec]:
    """A deterministic mixed-tenant spec list.

    Tenants alternate between the energy and employment domains;
    transforms cycle mostly ``aggregate-exact``, every 5th tenant
    ``aggregate-dp``, every 16th ``records-kanon`` — the mix the
    multi-tenant bench row claims.
    """
    specs = []
    for index in range(count):
        recipient = f"tenant-{index:04d}"
        if index % 16 == 15:
            specs.append(FedQuerySpec(
                recipient=recipient, purpose=PURPOSE_COHORT_RELEASE,
                transform=TRANSFORM_KANON, collection=EMPLOYMENT,
                project=("qi_age", "qi_zip", "sector"),
                k=k, min_cohort=min_cohort,
            ))
            continue
        transform = TRANSFORM_DP if index % 5 == 4 else TRANSFORM_EXACT
        if index % 2:
            if index % 4 == 3:
                specs.append(FedQuerySpec(
                    recipient=recipient, purpose=PURPOSE_ELIGIBILITY_AUDIT,
                    transform=transform, collection=EMPLOYMENT,
                    where=Eq("approved", 1), aggregate="count",
                    min_cohort=min_cohort,
                ))
            else:
                specs.append(FedQuerySpec(
                    recipient=recipient, purpose=PURPOSE_EMPLOYMENT_STATS,
                    transform=transform, collection=EMPLOYMENT,
                    value_field="hours", aggregate="sum", scale=10,
                    min_cohort=min_cohort,
                ))
        else:
            specs.append(FedQuerySpec(
                recipient=recipient, purpose=PURPOSE_LOAD_FORECAST,
                transform=transform, collection=ENERGY_STREAM,
                value_field="watts", aggregate="sum", scale=10,
                min_cohort=min_cohort,
            ))
    return specs


@dataclass
class TrafficReport:
    """Roll-up of one multi-tenant run, the shape the bench tracks."""

    subscriptions: int
    windows_expected: int
    windows_settled: int
    complete_subscriptions: int
    outcomes: dict[str, int]
    messages: int
    bytes: int
    sub_messages: int
    sub_bytes: int
    reasks: int
    recovery_rounds: int
    max_settle_lag_s: int
    wall_seconds: float

    @property
    def windows_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.windows_settled / self.wall_seconds

    @property
    def messages_per_window(self) -> float:
        if not self.windows_settled:
            return 0.0
        return self.messages / self.windows_settled

    @property
    def bytes_per_window(self) -> float:
        if not self.windows_settled:
            return 0.0
        return self.bytes / self.windows_settled


def run_traffic(
    coordinator: StandingCoordinator,
    fleet: Fleet,
    specs: list[FedQuerySpec],
    window: WindowClause,
    *,
    rotate_epoch_every: int | None = None,
    slack_s: int = 0,
) -> tuple[list[StandingSubscription], TrafficReport]:
    """Subscribe every tenant, drive to completion, roll up the report.

    ``rotate_epoch_every=N`` schedules a fleet key-epoch rotation
    halfway through every Nth window slide (a key-lifecycle fleet
    only): windows before the rotation masked under the old epoch,
    windows after under the new one — the "fresh masks per window
    epoch via the keymgmt ratchet" composition.
    """
    world: World = coordinator.world
    if rotate_epoch_every is not None:
        for index in range(rotate_epoch_every - 1, window.windows,
                           rotate_epoch_every):
            _, end_s = window.window_span_s(index)
            world.loop.schedule_in(
                max(0, end_s + window.slide // 2 - world.now),
                fleet.advance_epoch,
                label=f"traffic epoch rotation after w{index}",
            )
    started = time.perf_counter()
    subscriptions = [
        coordinator.subscribe(spec, fleet.roster, window) for spec in specs
    ]
    coordinator.drive(slack_s=slack_s)
    wall = time.perf_counter() - started
    outcomes: dict[str, int] = {}
    messages = bytes_ = reasks = recovery = settled = complete = 0
    sub_messages = sub_bytes = 0
    max_lag = 0
    for sub in subscriptions:
        complete += sub.complete
        sub_messages += sub.sub_messages
        sub_bytes += sub.sub_bytes
        for index, result in sub.results.items():
            settled += 1
            outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
            messages += result.messages
            bytes_ += result.bytes
            reasks += result.reasks
            recovery += result.recovery_rounds
            max_lag = max(max_lag, sub.settle_lag_s.get(index, 0))
    return subscriptions, TrafficReport(
        subscriptions=len(subscriptions),
        windows_expected=len(subscriptions) * window.windows,
        windows_settled=settled,
        complete_subscriptions=complete,
        outcomes=outcomes,
        messages=messages,
        bytes=bytes_,
        sub_messages=sub_messages,
        sub_bytes=sub_bytes,
        reasks=reasks,
        recovery_rounds=recovery,
        max_settle_lag_s=max_lag,
        wall_seconds=wall,
    )
