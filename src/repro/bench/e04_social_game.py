"""E4 — the social game's 20% consumption reduction.

Operationalizes: "Alice is engaged in a social game ... reducing
consumption by 20%." Players receive only the daily statistics their
cells expose; the measured quantity is the early-vs-late season
consumption change for players against a no-game control group.
"""

from __future__ import annotations

from ..apps.social_game import run_season
from .claims import Claim
from .tables import Table


def run(seed: int = 0, rounds: int = 45, cohorts: int = 3) -> list[Table]:
    table = Table(
        title="E4: social energy game - season consumption reduction",
        columns=["cohort", "players reduction %", "controls reduction %",
                 "player advantage pp"],
    )
    player_reductions = []
    for cohort in range(cohorts):
        result = run_season(players=16, controls=16, rounds=rounds,
                            seed=seed + cohort)
        player_reductions.append(result.player_reduction)
        table.add_row(
            f"cohort-{cohort}",
            result.player_reduction * 100,
            result.control_reduction * 100,
            (result.player_reduction - result.control_reduction) * 100,
        )
    table.add_note(
        f"mean player reduction {sum(player_reductions) / cohorts * 100:.1f}% "
        f"(paper claims 20%); game sees daily statistics only"
    )
    return [table]


def _off_25_percent(tables: list[Table]) -> float:
    """How far the players' mean cut lands from 25 %, in points."""
    players = tables[0].column("players reduction %")
    return abs(sum(players) / len(players) - 25.0)


CLAIMS = (
    Claim("players cut 25 % within 10 points", "motivating scenario",
          "count", _off_25_percent, "<=", 10.0),
    Claim("every cohort's players beat its controls", "motivating scenario",
          "count", lambda tables: min(tables[0].column("player advantage pp")),
          ">", 0),
)
