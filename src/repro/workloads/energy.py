"""Smart-meter workload: households, appliances, tariffs, weather.

Substitute for the paper's Linky power-meter feed. The generator is
event-based: each household's occupants run appliances according to a
daily routine; the 1 Hz meter trace is the base load plus the rated
power of every running appliance (plus sensor noise). Because each
appliance has a distinctive rated draw — the premise of Lam's load-
signature taxonomy that the paper cites — the trace is NILM-attackable
at fine granularity, which is exactly the property experiment E2
measures as a function of aggregation.

The ground-truth event list is returned alongside the trace so attacks
can be scored.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from ..store.timeseries import TimeSeries, series_record_id


@dataclass(frozen=True)
class Appliance:
    """An ON/OFF appliance with a distinctive rated power draw."""

    name: str
    power_watts: float
    typical_duration_s: int
    # hours of the day when this appliance plausibly starts
    active_hours: tuple[int, ...]
    daily_uses: float  # expected number of uses per day

    def __post_init__(self) -> None:
        if self.power_watts <= 0 or self.typical_duration_s <= 0:
            raise ConfigurationError(f"invalid appliance spec for {self.name!r}")


# A compact library of distinguishable appliances (rated draws spread
# far enough apart that 1 Hz edges identify them).
KETTLE = Appliance("kettle", 2000.0, 180, (6, 7, 8, 12, 16, 19), 3.0)
TOASTER = Appliance("toaster", 900.0, 150, (6, 7, 8), 1.0)
MICROWAVE = Appliance("microwave", 1200.0, 240, (7, 12, 18, 19, 20), 2.0)
OVEN = Appliance("oven", 2600.0, 2700, (18, 19), 0.7)
WASHING_MACHINE = Appliance("washing-machine", 1600.0, 4500, (9, 10, 20, 21), 0.5)
DISHWASHER = Appliance("dishwasher", 1400.0, 3600, (20, 21, 22), 0.6)
TELEVISION = Appliance("television", 140.0, 7200, (19, 20, 21), 1.2)
VACUUM = Appliance("vacuum", 700.0, 1200, (10, 11, 15, 16), 0.3)
EV_CHARGER = Appliance("ev-charger", 3300.0, 3 * 3600, (22, 23, 0, 1), 0.8)

STANDARD_APPLIANCES = (
    KETTLE, TOASTER, MICROWAVE, OVEN, WASHING_MACHINE,
    DISHWASHER, TELEVISION, VACUUM,
)


@dataclass(frozen=True)
class ApplianceEvent:
    """Ground truth: one appliance run."""

    appliance: str
    power_watts: float
    start: int  # absolute timestamp
    duration: int

    @property
    def end(self) -> int:
        return self.start + self.duration


@dataclass
class DayTrace:
    """One simulated day: the meter trace plus ground truth."""

    day: int
    series: TimeSeries
    events: list[ApplianceEvent]
    sample_period: int = 1

    def energy_kwh(self) -> float:
        """Total energy, honouring the trace's sampling period."""
        return self.series.total() * self.sample_period / 3600.0 / 1000.0

    def records(self) -> list[tuple[str, dict]]:
        """The trace as catalog records, one ``{"t", "w"}`` row per
        sample, ids in time order — the shape the batched store ingest
        consumes."""
        return [
            (series_record_id(timestamp), {"t": int(timestamp), "w": float(watts)})
            for timestamp, watts in self.series.samples()
        ]


class HouseholdSimulator:
    """Generates meter traces for one household."""

    def __init__(
        self,
        rng: random.Random,
        appliances: tuple[Appliance, ...] = STANDARD_APPLIANCES,
        base_load_watts: float = 120.0,
        noise_watts: float = 4.0,
        sample_period: int = 1,
        activity_scale: float = 1.0,
    ) -> None:
        if sample_period < 1:
            raise ConfigurationError("sample period must be >= 1 second")
        self._rng = rng
        self.appliances = appliances
        self.base_load = base_load_watts
        self.noise = noise_watts
        self.sample_period = sample_period
        self.activity_scale = activity_scale

    # -- event generation -------------------------------------------------------

    def _events_for_day(self, day: int) -> list[ApplianceEvent]:
        day_start = day * SECONDS_PER_DAY
        events: list[ApplianceEvent] = []
        for appliance in self.appliances:
            expected = appliance.daily_uses * self.activity_scale
            uses = self._poisson(expected)
            for _ in range(uses):
                hour = self._rng.choice(appliance.active_hours)
                start = (
                    day_start
                    + hour * SECONDS_PER_HOUR
                    + self._rng.randrange(SECONDS_PER_HOUR)
                )
                duration = max(
                    60,
                    int(self._rng.gauss(appliance.typical_duration_s,
                                        appliance.typical_duration_s * 0.15)),
                )
                events.append(
                    ApplianceEvent(
                        appliance=appliance.name,
                        power_watts=appliance.power_watts,
                        start=start,
                        duration=duration,
                    )
                )
        events.sort(key=lambda event: event.start)
        return events

    def _poisson(self, expected: float) -> int:
        # Knuth's algorithm is fine for small expectations.
        import math

        limit = math.exp(-expected)
        count = 0
        product = self._rng.random()
        while product > limit:
            count += 1
            product *= self._rng.random()
        return count

    # -- trace synthesis -----------------------------------------------------------

    def simulate_day(self, day: int, events: list[ApplianceEvent] | None = None) -> DayTrace:
        """Synthesize one day's 1 Hz (or coarser) meter trace."""
        if events is None:
            events = self._events_for_day(day)
        day_start = day * SECONDS_PER_DAY
        samples = SECONDS_PER_DAY // self.sample_period
        power = [self.base_load] * samples
        for event in events:
            first = max(0, (event.start - day_start) // self.sample_period)
            last = min(samples, (event.end - day_start) // self.sample_period)
            for position in range(first, last):
                power[position] += event.power_watts
        series = TimeSeries(f"power-day-{day}")
        series.extend(
            (
                day_start + position * self.sample_period,
                max(0.0, watts + self._rng.gauss(0.0, self.noise)),
            )
            for position, watts in enumerate(power)
        )
        return DayTrace(
            day=day, series=series, events=events,
            sample_period=self.sample_period,
        )

    def simulate_days(self, first_day: int, count: int) -> list[DayTrace]:
        return [self.simulate_day(first_day + offset) for offset in range(count)]


# -- tariffs ---------------------------------------------------------------------


@dataclass(frozen=True)
class TimeOfUseTariff:
    """A two-rate tariff (the classic French heures creuses)."""

    peak_price_per_kwh: float = 0.25
    offpeak_price_per_kwh: float = 0.10
    peak_start_hour: int = 7
    peak_end_hour: int = 23

    def is_peak(self, timestamp: int) -> bool:
        hour = (timestamp % SECONDS_PER_DAY) // SECONDS_PER_HOUR
        return self.peak_start_hour <= hour < self.peak_end_hour

    def price_at(self, timestamp: int) -> float:
        return (
            self.peak_price_per_kwh
            if self.is_peak(timestamp)
            else self.offpeak_price_per_kwh
        )

    def bill(self, series: TimeSeries, sample_period: int = 1) -> float:
        """Cost in currency units of a power (watt) series."""
        total = 0.0
        for timestamp, watts in series.samples():
            total += watts * sample_period / 3600.0 / 1000.0 * self.price_at(timestamp)
        return total


# -- weather (for the heat pump) -----------------------------------------------------


def winter_temperature(timestamp: int, rng: random.Random | None = None) -> float:
    """Outdoor temperature (deg C) with a sinusoidal daily cycle around 5C."""
    import math

    seconds_into_day = timestamp % SECONDS_PER_DAY
    phase = 2 * math.pi * (seconds_into_day - 14 * SECONDS_PER_HOUR) / SECONDS_PER_DAY
    base = 5.0 + 4.0 * math.cos(phase)
    if rng is not None:
        base += rng.gauss(0.0, 0.5)
    return base


def heating_demand_watts(outdoor_temp: float, comfort_temp: float = 20.0,
                         loss_watts_per_degree: float = 120.0) -> float:
    """Steady-state heat demand to hold the comfort temperature."""
    return max(0.0, (comfort_temp - outdoor_temp) * loss_watts_per_degree)
