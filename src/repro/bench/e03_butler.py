"""E3 — the energy butler's 30% bill saving.

Operationalizes: the butler "controls their heat pump and the charge of
their electrical vehicle ... and saves them 30% on their bill". The
absolute percentage depends on tariff spread and load flexibility; the
shape that must hold is a saving in the tens of percent, achieved by
*shifting* (not reducing) energy, plus a lower grid peak.
"""

from __future__ import annotations

from ..apps.energy_butler import (
    EvChargeNeed,
    HeatPumpPlant,
    simulate_household_month,
)
from ..workloads.energy import TimeOfUseTariff
from .claims import Claim
from .tables import Table, cell


def run(seed: int = 0, days: int = 30, households: int = 5) -> list[Table]:
    table = Table(
        title="E3: energy butler - monthly bill with and without",
        columns=[
            "household", "baseline bill", "butler bill", "saving %",
            "baseline kWh", "butler kWh", "baseline peak W", "butler peak W",
        ],
    )
    savings = []
    for index in range(households):
        result = simulate_household_month(seed=seed + index, days=days)
        baseline_peak, butler_peak = result.peak_watts
        savings.append(result.saving_fraction)
        table.add_row(
            f"home-{index}",
            result.baseline_bill,
            result.butler_bill,
            result.saving_fraction * 100,
            result.baseline_kwh,
            result.butler_kwh,
            baseline_peak,
            butler_peak,
        )
    table.add_note(f"mean saving: {sum(savings) / len(savings) * 100:.1f}% "
                   f"(paper claims 30%)")

    ablation = Table(
        title="E3a: ablation - which flexibility buys the saving",
        columns=["configuration", "saving %"],
    )
    configurations = [
        ("full butler", EvChargeNeed(), HeatPumpPlant()),
        ("EV shifting only", EvChargeNeed(),
         HeatPumpPlant(shiftable_fraction=0.0)),
        ("heating shifting only", EvChargeNeed(energy_kwh_per_day=0.01),
         HeatPumpPlant()),
        ("flat tariff (no arbitrage)", EvChargeNeed(), HeatPumpPlant()),
    ]
    for label, ev, plant in configurations:
        tariff = (
            TimeOfUseTariff(peak_price_per_kwh=0.16, offpeak_price_per_kwh=0.16)
            if label.startswith("flat")
            else None
        )
        result = simulate_household_month(
            seed=seed, days=days, ev=ev, plant=plant, tariff=tariff
        )
        ablation.add_row(label, result.saving_fraction * 100)
    return [table, ablation]


def _off_30_percent(tables: list[Table]) -> float:
    """How far the mean saving lands from the paper's 30 %, in points."""
    savings = tables[0].column("saving %")
    return abs(sum(savings) / len(savings) - 30.0)


def _full_over_best_lever(tables: list[Table]) -> float:
    saving = dict(tables[1].rows)
    return saving["full butler"] - max(saving["EV shifting only"],
                                       saving["heating shifting only"])


CLAIMS = (
    Claim("the mean saving is 30 % within 10 points", "motivating scenario",
          "count", _off_30_percent, "<=", 10.0),
    Claim("a flat tariff leaves nothing to shift", "motivating scenario",
          "count", cell(1, "flat tariff (no arbitrage)", "saving %"), "<",
          5.0),
    Claim("the full butler saves at least its best lever",
          "motivating scenario", "count", _full_over_best_lever, ">=", -1e-9),
)
