"""Global queries over a population of trusted cells.

Historically this module computed global queries by calling member
objects directly in memory. It is now a thin, API-compatible adapter
over the federated query engine (:mod:`repro.fedquery`): every
:meth:`CommonsCoordinator.run` builds a quiet simulated network, wraps
each member in a :class:`~repro.fedquery.cell.CellQueryAgent` backed by
a :class:`~repro.fedquery.cell.ValueSource`, fans the plan out through
an untrusted :class:`~repro.fedquery.coordinator.Coordinator`, and
converts the engine's result back to the legacy shape. The recipient-
facing semantics are unchanged:

* ``aggregate-dp`` — the recipient gets only a differentially private
  total, computed with the masked-sum protocol plus distributed noise;
* ``records-kanon`` — a trusted recipient gets record-level data,
  k-anonymized collectively;
* ``aggregate-exact`` — a certified recipient (the utility receiving
  monthly billing totals) gets the exact masked-sum aggregate.

Randomness: the whole run — network schedule, retry jitter, every
cell's DP noise stream — derives from one root ``seeds=`` (a
:class:`~repro.sim.rng.SeedSequence`, ``SeedSequence(0)`` when omitted),
reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import ConfigurationError, ProtocolError
from ..fedquery.cell import CellQueryAgent, ValueSource
from ..fedquery.coordinator import Coordinator, open_release
from ..fedquery.gate import recipient_key
from ..fedquery.spec import (
    TRANSFORM_DP,
    TRANSFORM_EXACT,
    TRANSFORM_KANON,
    TRANSFORMS,
    FedQuerySpec,
)
from ..infrastructure.network import Network
from ..sim.rng import SeedSequence
from ..sim.world import World
from .aggregation import AggregationNode, AggregationResult
from .anonymize import GeneralizedRecord

__all__ = [
    "TRANSFORM_DP",
    "TRANSFORM_KANON",
    "TRANSFORM_EXACT",
    "TRANSFORMS",
    "GlobalQuery",
    "CommonsMember",
    "GlobalQueryResult",
    "CommonsCoordinator",
]

_FLEET_SECRET = b"commons-adapter-fleet"


@dataclass(frozen=True)
class GlobalQuery:
    """A query from a recipient to the commons."""

    recipient: str
    purpose: str
    transform: str
    epsilon: float = 1.0
    k: int = 5
    scale: int = 1  # fixed-point scaling for fractional values

    def __post_init__(self) -> None:
        if self.transform not in TRANSFORMS:
            raise ConfigurationError(f"unknown transform {self.transform!r}")


@dataclass
class CommonsMember:
    """One household's participation profile."""

    node: AggregationNode
    value: float = 0.0  # the member's answer to numeric queries
    record: dict[str, Any] = field(default_factory=dict)  # for record releases
    opted_in_purposes: set[str] = field(default_factory=set)
    online: bool = True


@dataclass
class GlobalQueryResult:
    """What the recipient receives, plus accounting."""

    transform: str
    participants: int
    opted_out: int
    offline: int
    value: float | None = None
    records: list[GeneralizedRecord] | None = None
    aggregation: AggregationResult | None = None


class CommonsCoordinator:
    """Runs global queries over a member population.

    Every run derives from ``seeds`` through the :mod:`repro.sim.rng`
    stream discipline.
    """

    def __init__(self, members: list[CommonsMember], *,
                 seeds: SeedSequence | None = None) -> None:
        if not members:
            raise ConfigurationError("the commons needs at least one member")
        self._members = members
        self._seeds = seeds if seeds is not None else SeedSequence(0)
        self._runs = 0

    def run(self, query: GlobalQuery) -> GlobalQueryResult:
        willing = [
            member for member in self._members
            if query.purpose in member.opted_in_purposes
        ]
        opted_out = len(self._members) - len(willing)
        online = [member for member in willing if member.online]
        offline = len(willing) - len(online)
        if not online:
            raise ProtocolError("no participant is opted in and online")

        self._runs += 1
        result = self._run_engine(query, willing)

        if query.transform == TRANSFORM_KANON:
            if result.abandoned:
                released = sum(
                    1 for member in online if member.record
                )
                raise ConfigurationError(
                    f"cannot {query.k}-anonymize {released} records"
                )
            records = open_release(
                result, recipient_key(query.recipient, _FLEET_SECRET),
                k=query.k,
            )
            return GlobalQueryResult(
                transform=query.transform,
                participants=len(online),
                opted_out=opted_out,
                offline=offline,
                records=records,
            )

        if result.abandoned:  # pragma: no cover - quiet network never does
            raise ProtocolError(
                f"federated aggregate failed: {result.failure}"
            )
        aggregation = AggregationResult(
            total=result.field_total,
            participants=result.roster_size,
            dropped=len(result.demoted) + result.declined + result.floored,
            messages=result.messages,
            bytes=result.bytes,
            rounds=1 + result.recovery_rounds,
            protocol="fedquery",
            aggregator_view=result.coordinator_view,
        )
        return GlobalQueryResult(
            transform=query.transform,
            participants=len(online),
            opted_out=opted_out,
            offline=offline,
            value=result.value,
            aggregation=aggregation,
        )

    # -- engine plumbing -------------------------------------------------------

    def _run_engine(self, query: GlobalQuery, willing: list[CommonsMember]):
        world = World(seed=self._seeds.child_seed(f"commons-run-{self._runs}"))
        network = Network(world)
        coordinator = Coordinator(world, network, address="commons-recipient")
        directory = {member.node.name: member.node for member in willing}
        for member in willing:
            CellQueryAgent(
                world, network, member.node.name, member.node,
                ValueSource(member.value, member.record),
                purposes={query.purpose},
                directory=directory,
                fleet_secret=_FLEET_SECRET,
            )
            if not member.online:
                network.set_online(member.node.name, False)
        spec = FedQuerySpec(
            recipient=query.recipient,
            purpose=query.purpose,
            transform=query.transform,
            collection="member",
            value_field="value",
            epsilon=query.epsilon,
            k=query.k,
            scale=query.scale,
            # Legacy semantics released single-member aggregates; keep
            # that contract (the engine's default floor is 2).
            min_cohort=1,
        )
        roster = [member.node.name for member in willing]
        return coordinator.run(
            spec, roster,
            round_tag=f"{query.recipient}|{query.purpose}",
        )
