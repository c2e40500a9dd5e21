"""E5 — neighborhood peak-load shaving by secure exchange.

Operationalizes: "time series at required granularity are securely
exchanged with other trusted cells in their neighborhood to achieve
consumption peak load shaving." Coordination runs over the masked-
histogram protocol, so per-household schedules never leave their
cells; the comparison is uncoordinated vs coordinated at equal energy.
"""

from __future__ import annotations

from ..apps.peak_shaving import coordinate, make_neighborhood, peak_to_average
from .claims import Claim
from .tables import Table


def run(seed: int = 0, sizes: list[int] | None = None,
        rounds: int = 3) -> list[Table]:
    sizes = sizes or [6, 12, 24]
    table = Table(
        title="E5: neighborhood peak shaving (coordinated vs not)",
        columns=[
            "households", "peak before kWh", "peak after kWh",
            "peak reduction %", "PAR before", "PAR after",
            "protocol msgs", "protocol KB",
        ],
    )
    for size in sizes:
        households = make_neighborhood(size=size, seed=seed)
        result = coordinate(households, rounds=rounds)
        table.add_row(
            size,
            max(result.uncoordinated_profile),
            max(result.coordinated_profile),
            result.peak_reduction * 100,
            peak_to_average(result.uncoordinated_profile),
            peak_to_average(result.coordinated_profile),
            result.protocol_messages,
            result.protocol_bytes / 1024,
        )
    table.add_note("total energy identical before/after by construction; "
                   "schedules exchanged only as masked aggregates")
    return [table]


def _worst_par_change(tables: list[Table]) -> float:
    table = tables[0]
    return max(after - before for before, after in
               zip(table.column("PAR before"), table.column("PAR after")))


CLAIMS = (
    Claim("every neighborhood shaves its peak by over 8 %", "shared commons",
          "count", lambda tables: min(tables[0].column("peak reduction %")),
          ">", 8.0),
    Claim("coordination lowers every peak-to-average ratio",
          "shared commons", "count", _worst_par_change, "<", 0),
)
