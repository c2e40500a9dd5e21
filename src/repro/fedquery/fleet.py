"""Fleet construction: many store-backed cells on one simulated network.

Builds the population the federated-query experiments and benches run
against: each cell owns a *tiny* NAND device and an embedded
:class:`~repro.store.catalog.Catalog` holding a day of per-hour energy
records plus one demographic profile record. Cells are deliberately
heterogeneous in their storage layout — a third carry an ordered index
on ``hour``, a third rely on zone maps alone, a third must full-scan —
so a fan-out surfaces the per-cell plan mix the coordinator reports.

All randomness comes from the world's seed streams; building the same
fleet twice from the same seed yields identical stores, values and key
material.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..commons.aggregation import (
    AggregationNode,
    _effective_degree,
    _masking_positions,
)
from ..crypto.keys import KeyRing
from ..errors import ConfigurationError
from ..hardware.flash import NandFlash
from ..hardware.profiles import FlashTimings
from ..infrastructure.network import Network
from ..sim.world import World
from ..store.catalog import Catalog
from .cell import CatalogSource, CellQueryAgent
from .hierarchy import partition_shards
from .spec import FedQuerySpec

if TYPE_CHECKING:  # imported lazily at runtime (keymgmt imports commons)
    from ..keymgmt.directory import KeyDirectory

#: A smart-meter-class device: 512 B pages, 16-page blocks, 64 KiB.
TINY_FLASH = FlashTimings(
    page_size=512, pages_per_block=16,
    read_page_us=25.0, write_page_us=200.0, erase_block_us=1500.0,
)
TINY_CAPACITY = 64 * 1024

LAYOUT_INDEX = "index"
LAYOUT_ZONEMAP = "zonemap"
LAYOUT_SCAN = "scan"
LAYOUTS = (LAYOUT_INDEX, LAYOUT_ZONEMAP, LAYOUT_SCAN)

DISEASES = ("asthma", "diabetes", "flu", "none")


@dataclass
class Fleet:
    """A built population, ready for a :class:`Coordinator` to query."""

    world: World
    network: Network
    secret: bytes
    agents: dict[str, CellQueryAgent] = field(default_factory=dict)
    catalogs: dict[str, Catalog] = field(default_factory=dict)
    layouts: dict[str, str] = field(default_factory=dict)
    # Sharded builds only: the contiguous per-region rosters (empty for
    # a monolithic build).
    shard_rosters: list[list[str]] = field(default_factory=list)
    # Key-lifecycle builds only: the fleet's key directory, the live
    # directory dicts its agents resolve peers through (one per shard,
    # or one fleet-wide), the masking degree the ring was agreed at,
    # and the names revoked since the build.
    key_directory: "KeyDirectory | None" = None
    directories: list[dict[str, AggregationNode]] = field(default_factory=list)
    ring_neighbors: int | None = None
    revoked: set[str] = field(default_factory=set)

    @property
    def roster(self) -> list[str]:
        return [name for name in self.agents if name not in self.revoked]

    # -- key lifecycle -----------------------------------------------------

    def refresh_keys(self) -> None:
        """Re-issue every agent's node at the directory's current epoch.

        Swaps fresh :class:`~repro.keymgmt.directory.EpochNode` objects
        into every agent *and* every live directory dict atomically
        (in-place: the agents hold references to the dicts), so the
        whole fleet masks from one coherent (epoch, generation) and the
        ring masks still cancel exactly. Removed members disappear from
        the dicts entirely.
        """
        directory = self._require_directory()
        nodes = directory.issue_all()
        active = directory.roster()
        positions = {name: index for index, name in enumerate(active)}
        degree = _effective_degree(len(active), self.ring_neighbors)
        rosters = self.shard_rosters or [list(self.agents)]
        for shard_roster, shard_directory in zip(rosters, self.directories):
            shard_directory.clear()
            for name in shard_roster:
                node = nodes.get(name)
                if node is None:
                    continue  # revoked or departed
                shard_directory[name] = node
                # Cross-shard ring neighbors: the hierarchical path
                # resolves a boundary peer from this shard's dict, so
                # its epoch node must already be there.
                for at in _masking_positions(
                        positions[name], len(active), degree):
                    shard_directory[active[at]] = nodes[active[at]]
        for name, agent in self.agents.items():
            node = nodes.get(name)
            if node is not None:
                agent.node = node

    def advance_epoch(self) -> int:
        """Rotate the fleet's ring keys one epoch; re-keys every agent."""
        epoch = self._require_directory().advance_epoch()
        self.refresh_keys()
        return epoch

    def revoke(self, name: str) -> None:
        """Revoke one cell fleet-wide: banned from the directory,
        excluded from every future epoch, dropped from the roster."""
        self._require_directory().revoke(name)
        self.revoked.add(name)
        self.refresh_keys()

    def _require_directory(self) -> "KeyDirectory":
        if self.key_directory is None:
            raise ConfigurationError(
                "this fleet was built without key_lifecycle=True")
        return self.key_directory

    def ground_truth(self, spec: FedQuerySpec,
                     roster: list[str] | None = None) -> float:
        """The oracle answer: each cell's local query, summed in the
        clear (bypasses the network — for asserting engine results)."""
        names = roster if roster is not None else self.roster
        total = 0.0
        for name in names:
            result = self.catalogs[name].query(spec.local_query())
            total += float(result.scalar())
        return total

    def local_rows(self, spec: FedQuerySpec,
                   roster: list[str] | None = None) -> list[dict]:
        """Oracle record release: every cell's matching rows, in roster
        order (what a ``records-kanon`` release decrypts to)."""
        names = roster if roster is not None else self.roster
        rows: list[dict] = []
        for name in names:
            result = self.catalogs[name].query(spec.local_query())
            rows.extend(result.rows)
        return rows


def _cell_name(name_prefix: str, position: int, size: int) -> str:
    """``cell-0042``-style names; padding widens past 10k cells so the
    historical 4-digit format is preserved for every existing fleet."""
    pad = max(4, len(str(size - 1)))
    return f"{name_prefix}-{position:0{pad}d}"


def _build_cell(
    fleet: Fleet,
    position: int,
    name: str,
    directory: dict[str, AggregationNode],
    purposes: set[str],
    hours: int,
    node: AggregationNode | None = None,
) -> None:
    """One store-backed cell: tiny flash, catalog, agent, key material."""
    world = fleet.world
    layout = LAYOUTS[position % len(LAYOUTS)]
    rng = world.rng(f"fleet.{name}")
    catalog = Catalog(
        NandFlash(TINY_FLASH, TINY_CAPACITY),
        zone_maps=layout != LAYOUT_SCAN,
        page_cache_bytes=TINY_FLASH.pages_per_block * TINY_FLASH.page_size,
    )
    energy = catalog.collection("energy")
    if layout == LAYOUT_INDEX:
        energy.create_ordered_index("hour")
    energy.insert_many(
        (
            f"r{hour}",
            {
                "hour": hour,
                "watts": round(
                    rng.uniform(50.0, 450.0)
                    + (300.0 if 18 <= hour <= 21 else 0.0),
                    1,
                ),
                "day": 1,
            },
        )
        for hour in range(hours)
    )
    catalog.collection("profile").insert(
        "p0",
        {
            "qi_age": rng.randint(18, 90),
            "qi_zip": rng.randint(10_000, 99_999),
            "disease": rng.choice(DISEASES),
        },
    )
    if node is None:
        node = AggregationNode.preshared(name, fleet.secret)
    directory[name] = node
    fleet.agents[name] = CellQueryAgent(
        world, fleet.network, name, node, CatalogSource(catalog),
        purposes=set(purposes), directory=directory,
        fleet_secret=fleet.secret,
    )
    fleet.catalogs[name] = catalog
    fleet.layouts[name] = layout


def _agreed_nodes(
    fleet: Fleet, names: list[str], ring_neighbors: int | None,
) -> dict[str, AggregationNode]:
    """Stand up the fleet's key directory and issue epoch-0 nodes.

    Key-ring masters come from dedicated ``keymgmt.*`` world streams —
    *not* the ``fleet.*`` streams the cell data is drawn from — so a
    key-lifecycle fleet's stores and values are byte-identical to the
    preshared build's and the quiet-path totals pin bit-for-bit.
    """
    from ..keymgmt.directory import KeyDirectory

    world = fleet.world
    directory = KeyDirectory(
        rng=world.rng("keymgmt.directory"), neighbors=ring_neighbors)
    for name in names:
        directory.enroll(name, KeyRing.generate(world.rng(f"keymgmt.{name}")))
    directory.activate()
    fleet.key_directory = directory
    fleet.ring_neighbors = ring_neighbors
    return directory.issue_all()


def build_fleet(
    world: World,
    network: Network,
    size: int,
    *,
    purposes: set[str] | None = None,
    hours: int = 24,
    secret: bytes = b"fedquery-fleet-secret",
    name_prefix: str = "cell",
    key_lifecycle: bool = False,
    ring_neighbors: int | None = 32,
) -> Fleet:
    """Build ``size`` store-backed cells registered on ``network``.

    Layouts rotate ``index`` / ``zonemap`` / ``scan`` by position.
    Watts values and demographics are drawn from per-cell world
    streams, so the fleet is a pure function of the world seed.
    All cells share one fleet-wide directory — the monolithic build
    the flat coordinator wants; very large fleets should use
    :func:`build_fleet_sharded` instead.

    With ``key_lifecycle=True`` the cells mask from a
    :class:`~repro.keymgmt.KeyDirectory` instead of the preshared
    group secret: ring-edge keys are agreed (X3DH over prekey bundles)
    at ``ring_neighbors`` degree, and ``Fleet.advance_epoch`` /
    ``Fleet.revoke`` become available. Queries should then use the
    same ``neighbors=ring_neighbors`` degree — a cell holds keys for
    its agreed ring edges only. ``secret`` is still used for sealed
    ``records-kanon`` recipient keys.
    """
    fleet = Fleet(world=world, network=network, secret=secret)
    purposes = purposes if purposes is not None else {"load-forecast"}
    names = [_cell_name(name_prefix, position, size)
             for position in range(size)]
    nodes = _agreed_nodes(fleet, names, ring_neighbors) if key_lifecycle \
        else {}
    directory: dict[str, AggregationNode] = {}
    for position, name in enumerate(names):
        _build_cell(
            fleet, position, name, directory, purposes, hours,
            node=nodes.get(name),
        )
    fleet.directories = [directory]
    return fleet


def build_fleet_sharded(
    world: World,
    network: Network,
    size: int,
    *,
    shards: int,
    purposes: set[str] | None = None,
    hours: int = 24,
    secret: bytes = b"fedquery-fleet-secret",
    name_prefix: str = "cell",
    key_lifecycle: bool = False,
    ring_neighbors: int | None = 32,
) -> Fleet:
    """Build a large fleet as a fan-out of ``shards`` shard builds.

    Cells are identical to :func:`build_fleet`'s (same names, same
    seeded stores — the two builds are interchangeable cell for cell);
    what changes is the wiring: each contiguous shard gets its **own**
    key-material directory holding only that shard's nodes, instead of
    one monolithic fleet-wide dict every cell shares. That matches the
    coordinator tree's trust boundaries — a cell never holds the
    global roster; out-of-shard ring neighbors resolve through the
    preshared group secret at masking time — and keeps each build step
    O(shard). The per-region rosters — the contiguous split of
    :func:`~repro.fedquery.hierarchy.partition_shards`, which the
    coordinator tree routes by — land in ``Fleet.shard_rosters``.

    With ``key_lifecycle=True`` out-of-shard neighbors cannot be
    synthesized (there is no group secret to hash a stub from), so
    each shard's dict is pre-seeded with the directory-issued epoch
    nodes of its members' cross-shard ring neighbors — still O(shard
    + boundary), never the global roster.
    """
    fleet = Fleet(world=world, network=network, secret=secret)
    purposes = purposes if purposes is not None else {"load-forecast"}
    names = [_cell_name(name_prefix, index, size) for index in range(size)]
    rosters = partition_shards(names, shards)
    nodes = _agreed_nodes(fleet, names, ring_neighbors) if key_lifecycle \
        else {}
    position = 0
    for roster in rosters:
        directory: dict[str, AggregationNode] = {}
        for name in roster:
            _build_cell(fleet, position, name, directory, purposes, hours,
                        node=nodes.get(name))
            position += 1
        fleet.shard_rosters.append(roster)
        fleet.directories.append(directory)
    if key_lifecycle:
        # Seed every shard's boundary neighbors at the current epoch.
        fleet.refresh_keys()
    return fleet
