"""E1 — Figure 1 as an executable walkthrough.

The paper's only figure shows Alice and Bob's fixed and portable cells
acquiring data from sensors and external organizations, synchronizing
encrypted vaults through the cloud, sharing with each other, and
Charlie reading his data from an internet café through his portable
cell. This experiment performs every arrow of the figure and reports,
per arrow, the traffic it generated — plus the security invariants the
architecture promises, checked against an honest-but-curious cloud.
"""

from __future__ import annotations

from ..apps.metering import HomeMetering
from ..core.cell import TrustedCell
from ..core.identity import CertificateAuthority
from ..errors import AccessDenied
from ..hardware.profiles import SMART_TOKEN, SMARTPHONE
from ..infrastructure.adversary import CuriousAdversary
from ..infrastructure.cloud import CloudProvider
from ..policy.audit import AuditLog
from ..policy.ucon import RIGHT_READ, Grant
from ..sharing.protocol import SharingPeer, introduce_cells
from ..sim.world import World
from ..sync.terminal import UntrustedTerminal
from ..sync.vault import VaultClient
from ..workloads.records import generate_pay_slips
from .claims import Claim
from .tables import Table, cell


def run(seed: int = 0, metered_days: int = 1) -> list[Table]:
    """Execute the full Figure 1 scenario; returns traffic + invariants."""
    world = World(seed=seed)
    adversary = CuriousAdversary()
    cloud = CloudProvider(world, adversary)

    # -- the cast -------------------------------------------------------------
    home = HomeMetering.build(world, "ab-home", members=("alice", "bob"),
                              seed=seed, sample_period=60)
    alice_portable = TrustedCell(world, "alice-portable", SMARTPHONE)
    alice_portable.register_user("alice", "pin-a")
    charlie_token = TrustedCell(world, "charlie-token", SMART_TOKEN)
    charlie_token.register_user("charlie", "pin-c")
    introduce_cells(home.gateway, alice_portable, charlie_token)
    employer = CertificateAuthority("employer", b"employer-seed")
    for cell in (home.gateway, alice_portable, charlie_token):
        cell.registry.trust_authority("employer", employer.verify_key)

    traffic = Table(
        title="E1: Figure 1 walkthrough - traffic per arrow",
        columns=["arrow", "messages", "bytes", "encrypted"],
    )

    # -- arrow 1: sensors -> fixed cell -------------------------------------------
    samples = 0
    for day in range(metered_days):
        trace = home.meter_day(day)
        samples += len(trace.series)
    traffic.add_row("power meter -> gateway (in-home)", samples, samples * 8, False)

    # -- arrow 2: external organizations -> cells -----------------------------------
    gateway_alice = home.gateway.login("alice", "pin-alice")
    pay_slips = generate_pay_slips(world.rng("payslips"), months=2)
    for slip in pay_slips:
        home.gateway.store_object(
            gateway_alice,
            f"payslip-{slip.month}",
            f"{slip.employer}:{slip.gross}:{slip.net}".encode(),
            kind="payslip",
        )
    charlie_session = charlie_token.login("charlie", "pin-c")
    charlie_token.store_object(
        charlie_session, "medical-1", b"allergy: pollen", kind="medical"
    )
    traffic.add_row("employer/hospital -> cells", len(pay_slips) + 1, 64, False)

    # -- arrow 3: cells sync encrypted vaults with the cloud ------------------------
    gateway_vault = VaultClient(home.gateway, cloud)
    charlie_vault = VaultClient(charlie_token, cloud)
    puts_before, bytes_before = cloud.put_count, cloud.bytes_in
    home.gateway.store_object(
        gateway_alice, "photo-beach", b"jpeg:alice+bob at the beach", kind="photo"
    )
    gateway_vault.push_all()
    charlie_vault.push_all()
    traffic.add_row(
        "cells <-> encrypted vault (cloud)",
        cloud.put_count - puts_before,
        cloud.bytes_in - bytes_before,
        True,
    )

    # -- arrow 4: secure sharing Alice -> her own portable cell --------------------
    messages_before, bytes_before = cloud.put_count, cloud.bytes_in
    gateway_peer = SharingPeer(home.gateway, cloud)
    portable_peer = SharingPeer(alice_portable, cloud)
    gateway_peer.share_object(
        gateway_alice, "photo-beach", alice_portable,
        Grant(rights=(RIGHT_READ,), subjects=("alice",)),
    )
    imported = portable_peer.accept_shares()
    portable_alice = alice_portable.login("alice", "pin-a")
    photo = alice_portable.read_object(portable_alice, "photo-beach")
    traffic.add_row(
        "secure sharing via cloud mailbox",
        cloud.put_count - messages_before + 1,
        cloud.bytes_in - bytes_before,
        True,
    )

    # -- arrow 5: Charlie at the internet cafe --------------------------------------
    charlie_vault.install_fetcher()
    charlie_vault.evict_local("medical-1")
    terminal = UntrustedTerminal("internet-cafe")
    terminal.connect(charlie_token.login("charlie", "pin-c"))
    fetches_before = cloud.get_count
    displayed = terminal.display("medical-1")
    terminal.disconnect()
    traffic.add_row(
        "untrusted terminal via portable cell",
        cloud.get_count - fetches_before,
        len(displayed),
        True,
    )

    # -- arrow 6: accountability flows back to the data owner -----------------------
    from ..sync.accountability import AccountabilityService

    portable_accountability = AccountabilityService(
        alice_portable, cloud, owner_cell_of={"alice": "ab-home-gateway"}
    )
    gateway_accountability = AccountabilityService(home.gateway, cloud)
    bytes_before = cloud.bytes_in
    portable_accountability.push_trail("photo-beach", "ab-home-gateway")
    trails = gateway_accountability.fetch_trails()
    traffic.add_row(
        "audit trail back to originator (cloud)",
        1,
        cloud.bytes_in - bytes_before,
        True,
    )

    # -- invariants ---------------------------------------------------------------
    invariants = Table(
        title="E1: architecture invariants",
        columns=["invariant", "holds"],
    )
    invariants.add_row(
        "cloud observed zero plaintext bytes",
        adversary.stats.plaintext_bytes_seen == 0,
    )
    invariants.add_row("shared photo readable on recipient cell",
                       photo == b"jpeg:alice+bob at the beach")
    invariants.add_row("share import succeeded", imported == ["photo-beach"])
    raw_denied = False
    try:
        home.gateway.read_series(gateway_alice, "power", 1)
    except AccessDenied:
        raw_denied = True
    invariants.add_row("household denied raw 1s meter feed", raw_denied)
    invariants.add_row("terminal keeps no residue", terminal.residue() == {})
    payload, signature = home.certified_monthly_feed()
    invariants.add_row(
        "utility verifies certified monthly feed",
        home.verify_certified_feed(payload, signature),
    )
    invariants.add_row(
        "audit chains verify on all cells",
        all(
            AuditLog.verify_chain(cell.audit.entries())
            for cell in (home.gateway, alice_portable, charlie_token)
        ),
    )
    invariants.add_row("honest cloud never convicted", not cloud.convicted)
    invariants.add_row(
        "recipient's audit trail reaches the owner and chain-verifies",
        bool(trails) and trails[0].chain_ok
        and any(entry.action == "read" for entry in trails[0].entries),
    )
    return [traffic, invariants]


# One row per architecture invariant, naming the paper concept it checks.
CLAIMS = tuple(
    Claim(invariant, concept, "count", cell(1, invariant, "holds"), "==")
    for invariant, concept in (
        ("cloud observed zero plaintext bytes", "crypto protection"),
        ("shared photo readable on recipient cell", "secure sharing"),
        ("share import succeeded", "secure sharing"),
        ("household denied raw 1s meter feed", "controlled collection"),
        ("terminal keeps no residue", "secure usage"),
        ("utility verifies certified monthly feed", "controlled collection"),
        ("audit chains verify on all cells", "accountability"),
        ("honest cloud never convicted", "threat model"),
        ("recipient's audit trail reaches the owner and chain-verifies",
         "accountability"),
    )
)
