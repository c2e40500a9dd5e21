"""E7 — class-breaking attacks: per-cell keys vs a shared master.

Operationalizes: "the trusted cells' cryptographic secrets must be
managed in such a way that a successful attack on a (small set of)
trusted cells cannot degenerate in breaking class attack."

The experiment physically breaches k cells (using the real breach path:
TEE loot, key rings), then tries the looted masters against every
envelope in the cloud vault. Regimes: per-cell master secrets (the
platform design) vs one manufacturer-shared master (the ablation).
Expected shape: exposure grows linearly in k under per-cell keys, and
jumps to 100% at k=1 under the shared master.
"""

from __future__ import annotations

from ..attacks.economics import class_breaking_exposure
from .claims import Claim
from .tables import Table


def run(seed: int = 0, cells: int = 8, objects_per_cell: int = 3) -> list[Table]:
    table = Table(
        title="E7: vault-wide exposure after breaching k cells",
        columns=["regime", "cells breached", "objects exposed",
                 "objects total", "exposure %"],
    )
    for shared in (False, True):
        for breached in (0, 1, 2, 4):
            result = class_breaking_exposure(
                cells=cells,
                objects_per_cell=objects_per_cell,
                breached=breached,
                shared_master=shared,
                seed=seed,
            )
            table.add_row(
                result.regime,
                breached,
                result.objects_exposed,
                result.objects_total,
                result.exposure_fraction * 100,
            )
    table.add_note("looted masters tried against every envelope in the vault")
    return [table]


def _exposure(tables: list[Table], regime: str) -> dict[int, float]:
    """``{cells breached: exposure %}`` under one key regime."""
    return {row[1]: row[4] for row in tables[0].rows if row[0] == regime}


def _per_cell_excess(tables: list[Table]) -> float:
    exposure = _exposure(tables, "per-cell-master")
    return max(abs(exposure[k] - 100.0 * k / 8) for k in (0, 1, 2, 4))


def _shared(breached: int):
    return lambda tables: _exposure(tables, "shared-master")[breached]


CLAIMS = (
    Claim("per-cell keys expose only the breached cells' share",
          "threat model", "count", _per_cell_excess, "<", 1e-6),
    Claim("no breach, no exposure under a shared master", "threat model",
          "count", _shared(0), "==", 0.0),
    Claim("one breach exposes all under a shared master", "threat model",
          "count", _shared(1), "==", 100.0),
    Claim("four breaches expose all under a shared master", "threat model",
          "count", _shared(4), "==", 100.0),
)
