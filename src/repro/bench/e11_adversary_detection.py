"""E11 — detecting and convicting the weakly malicious infrastructure.

Operationalizes the threat model: "The infrastructure may deviate from
the protocols ... Integrity attacks ... must also be deterred ... The
infrastructure is assumed trying to cheat only if it cannot be
convicted as an adversary by any trusted cell."

A cell keeps its vault in a cloud whose adversary tampers / rolls back
/ drops at a configurable rate. The cell's normal read path (verified
fetch) must (a) never release corrupted data, (b) detect every
manipulation it encounters, and (c) convict the provider on the first
detection — after which the adversary stops (cheating is only rational
while deniable). An honest run must produce zero false accusations.
"""

from __future__ import annotations

import random

from ..core.cell import TrustedCell
from ..errors import IntegrityError, NotFoundError, ReplayError
from ..hardware.profiles import SMARTPHONE
from ..infrastructure.adversary import Adversary, WeaklyMaliciousAdversary
from ..infrastructure.cloud import CloudProvider
from ..sim.world import World
from ..sync.vault import VaultClient
from .claims import Claim
from .tables import Table, cell


def _run_campaign(adversary, seed: int, objects: int = 20,
                  reads: int = 200) -> dict:
    world = World(seed=seed)
    cloud = CloudProvider(world, adversary)
    cell = TrustedCell(world, "victim-cell", SMARTPHONE)
    cell.register_user("owner", "pin")
    session = cell.login("owner", "pin")
    vault = VaultClient(cell, cloud)
    for index in range(objects):
        cell.store_object(session, f"doc-{index}", f"payload-{index}".encode())
        vault.push(f"doc-{index}")
        if index % 3 == 0:  # some churn so rollback has history to serve
            cell.store_object(session, f"doc-{index}", f"payload-{index}b".encode())
            vault.push(f"doc-{index}")
    rng = random.Random(seed + 1)
    corrupted_released = 0
    detections = 0
    conviction_read: int | None = None
    for read_index in range(reads):
        world.clock.advance(60)
        object_id = f"doc-{rng.randrange(objects)}"
        try:
            envelope = vault.verified_fetch(object_id)
            payload, _ = envelope.open(
                cell.tee.keys.key_for(object_id, envelope.version)
            )
            if not payload.startswith(b"payload-"):
                corrupted_released += 1  # must never happen
        except (IntegrityError, ReplayError, NotFoundError):
            detections += 1
            if conviction_read is None and cloud.convicted:
                conviction_read = read_index + 1
    return {
        "corrupted_released": corrupted_released,
        "detections": detections,
        "attempts": (
            adversary.stats.tamper_attempts
            + adversary.stats.rollback_attempts
            + adversary.stats.drop_attempts
        ),
        "convicted": cloud.convicted,
        "conviction_read": conviction_read,
        "false_evidence": (not isinstance(adversary, WeaklyMaliciousAdversary))
        and bool(cloud.evidence_log),
    }


def run(seed: int = 0) -> list[Table]:
    table = Table(
        title="E11: weakly malicious cloud - detection and conviction",
        columns=[
            "adversary", "attack attempts", "detections",
            "corrupted data released", "convicted", "reads to conviction",
        ],
    )
    campaigns = [
        ("honest", Adversary()),
        ("tamper 5%", WeaklyMaliciousAdversary(random.Random(seed), tamper_rate=0.05)),
        ("rollback 5%", WeaklyMaliciousAdversary(random.Random(seed),
                                                 rollback_rate=0.05)),
        ("drop 5%", WeaklyMaliciousAdversary(random.Random(seed), drop_rate=0.05)),
        ("mixed 3+3+3%", WeaklyMaliciousAdversary(
            random.Random(seed), tamper_rate=0.03, rollback_rate=0.03,
            drop_rate=0.03)),
    ]
    for label, adversary in campaigns:
        outcome = _run_campaign(adversary, seed)
        table.add_row(
            label,
            outcome["attempts"],
            outcome["detections"],
            outcome["corrupted_released"],
            outcome["convicted"],
            outcome["conviction_read"] if outcome["conviction_read"] else "-",
        )
    table.add_note("conviction = first verifiable evidence filed; adversary "
                   "stops cheating once convicted (weakly malicious)")
    return [table]


def _campaigns_where(test):
    """The attack campaigns whose row ``test`` flags."""
    def read(tables: list[Table]) -> list[str]:
        table = tables[0]
        rows = {row[0]: dict(zip(table.columns, row)) for row in table.rows}
        return [label for label in ("tamper 5%", "rollback 5%", "drop 5%",
                                    "mixed 3+3+3%") if test(rows[label])]
    return read


CLAIMS = (
    Claim("the honest cloud is never convicted", "threat model", "count",
          cell(0, "honest", "convicted"), "==", False),
    Claim("the honest cloud mounts no attack", "threat model", "count",
          cell(0, "honest", "attack attempts"), "==", 0),
    Claim("no phantom detection on the honest cloud", "threat model",
          "count", cell(0, "honest", "detections"), "==", 0),
    Claim("no campaign releases corrupted data", "threat model", "count",
          _campaigns_where(lambda row: row["corrupted data released"] != 0),
          "==", []),
    Claim("every attack campaign ends in conviction", "accountability",
          "count", _campaigns_where(lambda row: row["attack attempts"] > 0
                                    and not row["convicted"]), "==", []),
)
