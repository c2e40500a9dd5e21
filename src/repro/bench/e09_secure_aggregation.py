"""E9 — distributed computation at scale, with weak availability.

Operationalizes: "Such large scale computations may lead to atypical
distributed protocols ... on one side ... a very large number of highly
secure, low power and weakly available trusted cells and on the other
side ... a highly powerful, highly available but untrusted
infrastructure."

Sweeps the population size and the cell availability, comparing the
cleartext baseline, the masking protocol, and the Shamir committee
protocol on messages/bytes/rounds — while asserting every protocol
still returns the exact sum of the online cells' values.
"""

from __future__ import annotations

import random

from ..commons.aggregation import (
    AggregationNode,
    CleartextSum,
    MaskedSum,
    ShamirSum,
)
from ..crypto import shamir
from ..crypto.primitives import hmac_invocations
from .claims import Claim
from .tables import Table, where


def _population(size: int, seed: int):
    rng = random.Random(seed)
    nodes = [AggregationNode.standalone(f"cell-{i}", rng) for i in range(size)]
    values = {node.name: rng.randrange(0, 5000) for node in nodes}
    return nodes, values, rng


def run(seed: int = 0, sizes: list[int] | None = None) -> list[Table]:
    sizes = sizes or [10, 30, 100]
    scale_table = Table(
        title="E9: secure aggregation cost vs population size (full availability)",
        columns=["N", "protocol", "messages", "KB", "rounds", "exact"],
    )
    for size in sizes:
        nodes, values, rng = _population(size, seed)
        expected = sum(values.values())
        protocols = [
            CleartextSum(),
            MaskedSum(),
            ShamirSum(committee_size=5, threshold=3, rng=rng),
        ]
        for protocol in protocols:
            result = protocol.run(nodes, values)
            scale_table.add_row(
                size,
                result.protocol,
                result.messages,
                result.bytes / 1024,
                result.rounds,
                shamir.decode_signed(result.total) == expected,
            )

    availability_table = Table(
        title="E9a: masked vs shamir under weak availability (N=60)",
        columns=["availability %", "protocol", "messages", "rounds",
                 "dropped", "exact over online set"],
    )
    for availability in (1.0, 0.9, 0.7, 0.5):
        nodes, values, rng = _population(60, seed + 1)
        online = {
            node.name for node in nodes if rng.random() < availability
        }
        if len(online) < 2:
            online = {nodes[0].name, nodes[1].name}
        expected = sum(values[name] for name in online)
        for protocol in (
            MaskedSum(),
            ShamirSum(committee_size=7, threshold=4, rng=rng),
        ):
            result = protocol.run(nodes, values, online=online)
            availability_table.add_row(
                availability * 100,
                result.protocol,
                result.messages,
                result.rounds,
                result.dropped,
                shamir.decode_signed(result.total) == expected,
            )
    availability_table.add_note(
        "masked pays a recovery round per dropout set; shamir's committee "
        "absorbs dropouts structurally"
    )

    # -- asynchronous variant: cells never online simultaneously ---------------
    from ..commons.async_aggregation import AsyncMaskedAggregation
    from ..infrastructure.cloud import CloudProvider
    from ..sim.world import World

    async_table = Table(
        title="E9b: asynchronous aggregation via cloud-stored intermediates "
              "(N=20)",
        columns=["online window h", "missing cells", "completed at h",
                 "messages", "exact over online set"],
    )
    for window_hours, absent_count in ((2, 0), (8, 0), (8, 3), (24, 5)):
        world = World(seed=seed + 2)
        cloud = CloudProvider(world)
        rng = random.Random(seed + window_hours + absent_count)
        nodes = [AggregationNode.standalone(f"c-{i}", rng) for i in range(20)]
        values = {node.name: rng.randrange(1000) for node in nodes}
        deadline = window_hours * 3600
        wake_times: dict[str, list[int]] = {}
        for position, node in enumerate(nodes):
            if position < absent_count:
                wake_times[node.name] = []
            else:
                first = rng.randrange(1, deadline)
                wake_times[node.name] = [first, deadline + rng.randrange(1, 7200)]
        protocol = AsyncMaskedAggregation(
            world, cloud, nodes, values,
            round_tag=f"async-{window_hours}-{absent_count}",
            deadline=deadline, wake_times=wake_times,
            # every survivor is back within 7,199 s of the deadline
            recovery_timeout=7200,
        )
        protocol.start()
        world.loop.run_until(deadline + 4 * 3600)
        online = {name for name, wakes in wake_times.items()
                  if any(t <= deadline for t in wakes)}
        expected = sum(values[name] for name in online)
        async_table.add_row(
            window_hours,
            absent_count,
            (protocol.result.completed_at or 0) / 3600,
            protocol.result.messages,
            protocol.result.complete
            and protocol.result.signed_total() == expected,
        )
    async_table.add_note("the cloud stores masked intermediates so cells "
                         "need never be online together")

    # -- masking-graph cost curves: complete vs k-regular ----------------------
    from ..keymgmt import KeyDirectory

    graph_table = Table(
        title="E9c: masking graph cost curves, 10% dropouts "
              "(keystream masks, directory-issued epoch keys)",
        columns=["N", "graph", "hmac derivations", "messages", "exact"],
    )
    for size in (100, 240):
        rng = random.Random(seed + 3)
        dropouts = {f"g-{i}" for i in rng.sample(range(size), size // 10)}
        for degree in (None, 8, 32):
            # Hashed-agreement directories keep the epoch/revocation
            # machinery without the modexp bill a complete graph at
            # N=240 would run up — the benchmark measures *masking*
            # derivations, not agreement.
            directory = KeyDirectory(
                rng=random.Random(seed + 3), neighbors=degree,
                agreement="hashed", group_secret=b"e9c-group",
            )
            for i in range(size):
                directory.enroll(f"g-{i}")
            directory.activate()
            nodes = list(directory.issue_all().values())
            values = {node.name: rng.randrange(0, 5000) for node in nodes}
            online = {node.name for node in nodes} - dropouts
            expected = sum(values[name] for name in online)
            before = hmac_invocations()
            result = MaskedSum(neighbors=degree).run(
                nodes, values, online=online, round_tag=f"e9c-{size}"
            )
            graph_table.add_row(
                size,
                "complete" if degree is None else f"k={degree}",
                hmac_invocations() - before,
                result.messages,
                shamir.decode_signed(result.total) == expected,
            )
    graph_table.add_note(
        "k-regular masking turns O(N^2) derivations into O(N*k); the "
        "price is a collusion bound of k-1 neighbors instead of N-2"
    )

    # -- network traffic accounting: per-link messages *and* bytes -------------
    from ..infrastructure.network import Network
    from ..sim.world import World as _World

    traffic_table = Table(
        title="E9d: per-link traffic of one masked round over the star "
              "network (N=6, one dropout)",
        columns=["link", "messages", "bytes"],
    )
    world = _World(seed=seed + 4)
    network = Network(world)
    rng = random.Random(seed + 4)
    nodes = [AggregationNode.standalone(f"t-{i}", rng) for i in range(6)]
    values = {node.name: rng.randrange(0, 500) for node in nodes}
    network.register("aggregator", lambda s, m: None)
    for node in nodes:
        network.register(node.name, lambda s, m: None)
    online = {node.name for node in nodes[1:]}  # t-0 drops out
    result = MaskedSum().run(nodes, values, online=online,
                             round_tag=f"e9d-{seed}")
    # replay the round on the wire: one field element per submission,
    # one per revealed recovery mask (the aggregator is the star hub)
    survivors = [node.name for node in nodes if node.name in online]
    for name in survivors:
        network.send(name, "aggregator", "masked-submission", size_bytes=16)
    for name in survivors:  # each survivor reveals its mask with t-0
        network.send(name, "aggregator", "revealed-mask", size_bytes=16)
    for link in sorted(network.stats.per_link):
        traffic_table.add_row(
            "->".join(link),
            network.stats.per_link[link],
            network.stats.per_link_bytes[link],
        )
    traffic_table.add_row(
        "TOTAL", network.stats.messages, network.stats.bytes
    )
    traffic_table.add_note(
        f"wire bytes equal the protocol accounting: {result.bytes} B for "
        f"{result.messages} messages over {result.rounds} rounds"
    )
    return [scale_table, availability_table, async_table, graph_table,
            traffic_table]


def _link_bytes_over_total(tables: list[Table]) -> int:
    links = [row[2] for row in tables[4].rows if row[0] != "TOTAL"]
    return sum(links) - tables[4].lookup("TOTAL", "bytes")


def _graph_out_of_order(tables: list[Table]) -> list[int]:
    """The sizes N at which k=8 < k=32 < complete derivations fails."""
    derivations: dict[int, dict[str, int]] = {}
    for size, graph, hmacs, *_ in tables[3].rows:
        derivations.setdefault(size, {})[graph] = hmacs
    return [size for size, by in derivations.items()
            if not by["k=8"] < by["k=32"] < by["complete"]]


def _recovery_messages(tables: list[Table]) -> int:
    """Masked messages at the lowest availability over the highest."""
    masked = [row[2] for row in tables[1].rows if row[1] == "masked"]
    return masked[-1] - masked[0]


CLAIMS = (
    Claim("links sum to the network total", "distributed computation",
          "count", _link_bytes_over_total, "==", 0),
    Claim("every link bills 16 B a message", "distributed computation",
          "count", where(4, lambda row: row["link"] != "TOTAL"
                         and row["messages"] * 16 != row["bytes"]), "==", []),
    Claim("exact at full availability", "distributed computation", "count",
          where(0, lambda row: not row["exact"]), "==", []),
    Claim("exact over the online set", "distributed computation", "count",
          where(1, lambda row: not row["exact over online set"]), "==", []),
    Claim("async exact over the online set", "distributed computation",
          "count", where(2, lambda row: not row["exact over online set"]),
          "==", []),
    Claim("every masking graph is exact", "distributed computation",
          "count", where(3, lambda row: not row["exact"]), "==", []),
    Claim("derivations: k=8 < k=32 < complete", "distributed computation",
          "count", _graph_out_of_order, "==", []),
    Claim("masked: N messages for N cells", "distributed computation",
          "count", where(0, lambda row: row["protocol"] == "masked"
                         and row["messages"] != row["N"]), "==", []),
    Claim("dropout recovery costs messages", "distributed computation",
          "count", _recovery_messages, ">", 0),
)
