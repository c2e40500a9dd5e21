"""E6 — the attacker's cost-benefit: central DB vs trusted cells.

Operationalizes: "users are exposed to sophisticated attacks, whose
cost-benefit is high on a centralized database" plus the cells' defence
factors ("the obligation to physically be in contact with the device to
attack it"). An attacker with a budget faces one hardened central
store holding everyone, or a population of cells each needing its own
physical attack. Expected shape: records-per-dollar is orders of
magnitude higher against the central store for any realistic budget.
"""

from __future__ import annotations

from ..attacks.economics import breach_economics
from .claims import Claim
from .tables import Table

POPULATION = 100_000
RECORDS_PER_USER = 200
CENTRAL_COST = 2_000_000.0
CELL_COST = 500_000.0


def run(seed: int = 0) -> list[Table]:
    budgets = [
        100_000.0, 500_000.0, 1_000_000.0, 2_000_000.0,
        5_000_000.0, 20_000_000.0,
    ]
    rows = breach_economics(
        population=POPULATION,
        records_per_user=RECORDS_PER_USER,
        central_attack_cost=CENTRAL_COST,
        cell_attack_cost=CELL_COST,
        budgets=budgets,
    )
    table = Table(
        title="E6: expected records exposed vs attacker budget",
        columns=[
            "budget", "central exposed", "cells exposed",
            "centralization penalty x",
        ],
    )
    for row in rows:
        penalty = row.centralization_penalty
        table.add_row(
            row.budget,
            row.central_records_exposed,
            row.decentralized_records_exposed,
            penalty if penalty != float("inf") else 10**9,
        )
    table.add_note(
        f"population {POPULATION:,} users x {RECORDS_PER_USER} records; "
        f"central attack {CENTRAL_COST:,.0f}, per-cell attack {CELL_COST:,.0f}"
    )
    return [table]


CLAIMS = (
    Claim("a central breach leaks 100x more at every budget", "threat model",
          "count",
          lambda tables: min(tables[0].column("centralization penalty x")),
          ">=", 100),
)
