"""E12 — usage control enforcement: correctness at scale and overhead.

Operationalizes: "usage control rules ... will be enforced by any
trusted cell downloading data and cannot be bypassed by the recipient
user", and footnote 6's concrete policy ("a photo could be accessed ten
times (mutability), in the course of 2012 (condition), informing the
owner of the precise access date (obligation)").

Two measurements:

* correctness at scale: many subjects hammer a footnote-6 policy;
  exactly ``max_uses`` reads per subject succeed inside the window,
  zero outside it, and the audit log plus notification outbox account
  for every single event;
* overhead: CPU-op and audit cost of a policy-checked read versus a
  hypothetical unchecked read of the same envelope.
"""

from __future__ import annotations

from ..core.cell import TrustedCell
from ..errors import AccessDenied
from ..hardware.profiles import SMARTPHONE
from ..policy.audit import AuditLog
from ..policy.conditions import TimeWindow
from ..policy.ucon import (
    OBLIGATION_NOTIFY_OWNER,
    RIGHT_READ,
    Grant,
    Obligation,
    UsagePolicy,
)
from ..sim.world import World
from .claims import Claim
from .tables import Table, cell

WINDOW_END = 366 * 86400  # "in the course of 2012"


def _footnote6_cell(world: World, subjects: int) -> TrustedCell:
    cell = TrustedCell(world, "photo-cell", SMARTPHONE)
    cell.register_user("alice", "pin")
    names = tuple(f"friend-{index}" for index in range(subjects))
    for name in names:
        cell.register_user(name, f"pin-{name}")
    policy = UsagePolicy(
        owner="alice",
        grants=(Grant(rights=(RIGHT_READ,), subjects=names),),
        conditions=(TimeWindow(not_before=0, not_after=WINDOW_END),),
        obligations=(Obligation(OBLIGATION_NOTIFY_OWNER),),
        max_uses=10,
    )
    session = cell.login("alice", "pin")
    cell.store_object(session, "photo", b"jpeg-bytes", policy=policy)
    return cell


def run(seed: int = 0, subjects: int = 20, attempts_per_subject: int = 15
        ) -> list[Table]:
    world = World(seed=seed)
    cell = _footnote6_cell(world, subjects)

    granted = denied_budget = 0
    for index in range(subjects):
        session = cell.login(f"friend-{index}", f"pin-friend-{index}")
        for _ in range(attempts_per_subject):
            world.clock.advance(3600)
            try:
                cell.read_object(session, "photo")
                granted += 1
            except AccessDenied:
                denied_budget += 1
    # now jump past the time window: even subjects with budget left are out
    world.clock.advance_to(WINDOW_END + 1)
    denied_window = 0
    session = cell.login("friend-0", "pin-friend-0")
    try:
        cell.read_object(session, "photo")
    except AccessDenied:
        denied_window = 1

    correctness = Table(
        title="E12: footnote-6 policy at scale "
              f"({subjects} subjects x {attempts_per_subject} attempts)",
        columns=["measure", "value"],
    )
    correctness.add_row("reads granted", granted)
    correctness.add_row("expected granted (subjects x 10)", subjects * 10)
    correctness.add_row("denied by use budget", denied_budget)
    correctness.add_row("denied after window", denied_window)
    correctness.add_row("owner notifications", len(cell.outbox))
    read_entries = [
        entry for entry in cell.audit.entries_for("photo")
        if entry.action == "read"
    ]
    correctness.add_row("audit read entries", len(read_entries))
    correctness.add_row(
        "audit chain verifies", AuditLog.verify_chain(cell.audit.entries())
    )

    # -- overhead ----------------------------------------------------------------
    overhead = Table(
        title="E12a: per-read enforcement overhead",
        columns=["configuration", "TEE world switches", "audit entries",
                 "notifications"],
    )
    for label, policy in (
        ("policy-checked (footnote 6)", None),  # reuse the cell above
        ("owner-only, no obligations", UsagePolicy(owner="alice")),
    ):
        probe_world = World(seed=seed + 1)
        probe = TrustedCell(probe_world, "probe", SMARTPHONE)
        probe.register_user("alice", "pin")
        session = probe.login("alice", "pin")
        if policy is None:
            policy = UsagePolicy(
                owner="alice",
                conditions=(TimeWindow(not_before=0, not_after=WINDOW_END),),
                obligations=(Obligation(OBLIGATION_NOTIFY_OWNER),),
                max_uses=1000,
            )
        probe.store_object(session, "o", b"x" * 100, policy=policy)
        switches_before = probe.tee.world_switches
        audit_before = len(probe.audit)
        for _ in range(100):
            probe.read_object(session, "o")
        overhead.add_row(
            label,
            (probe.tee.world_switches - switches_before) / 100,
            (len(probe.audit) - audit_before) / 100,
            len(probe.outbox) / 100,
        )
    overhead.add_note("counts per read, averaged over 100 reads")

    # -- ablation: why sticky policies must be bound ------------------------------
    from ..attacks.sticky_ablation import run_ablation
    from ..crypto.primitives import hkdf
    from ..infrastructure.cloud import CloudProvider

    ablation_world = World(seed=seed + 2)
    outcome = run_ablation(
        CloudProvider(ablation_world), hkdf(bytes(16), "ablation")
    )
    ablation = Table(
        title="E12b: sticky-binding ablation (policy-swap attack)",
        columns=["design", "attacker read denied pre-attack",
                 "policy swap lets attacker read", "tampering detected"],
    )
    ablation.add_row(
        "unbound (policy stored beside data)",
        outcome["unbound_denied_before_attack"],
        outcome["unbound_attack_succeeded"],
        False,
    )
    ablation.add_row(
        "bound (policy sealed with data)",
        True,
        False,
        outcome["bound_attack_detected"],
    )
    ablation.add_note('the paper\'s "cryptographically inseparable" '
                      "requirement, demonstrated")
    return [correctness, overhead, ablation]


def _values(read):
    """``read`` over the correctness table as a ``{measure: value}`` dict."""
    return lambda tables: read(dict(tables[0].rows))


CLAIMS = (
    Claim("every allowed read is granted", "access/usage control", "count",
          _values(lambda v: v["reads granted"]
                  - v["expected granted (subjects x 10)"]), "==", 0),
    Claim("one read denied after the window", "access/usage control",
          "count", cell(0, "denied after window", "value"), "==", 1),
    Claim("the owner hears of every read", "accountability", "count",
          _values(lambda v: v["owner notifications"] - v["reads granted"]),
          "==", 0),
    Claim("every read attempt is audited once", "accountability", "count",
          _values(lambda v: v["audit read entries"] - v["reads granted"]
                  - v["denied by use budget"] - 1), "==", 0),
    Claim("the audit chain verifies", "accountability", "count",
          cell(0, "audit chain verifies", "value"), "=="),
    Claim("a swap lets the attacker read only unbound", "secure usage",
          "count", lambda tables: tables[2].column(
              "policy swap lets attacker read"), "==", [True, False]),
    Claim("only the sealed policy detects tampering", "secure usage",
          "count", lambda tables: tables[2].column("tampering detected"),
          "==", [False, True]),
)
