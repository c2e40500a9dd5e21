"""Declarative federated query specs and their wire format.

A :class:`FedQuerySpec` is the unit the coordinator ships to a fleet:
one local query (predicate tree + aggregate or projection, reusing the
:mod:`repro.store.query` types and their wire codec) plus the commons
contract — recipient, purpose, transformation, privacy parameters.
Everything serializes to plain JSON-able dicts so a plan can cross the
simulated network the same way sealed blobs and share offers do
(``docs/fedquery.md`` is the wire reference).

The transformation names are the canonical ones the orchestrator has
always used; :mod:`repro.commons.orchestrator` re-exports them from
here so existing imports keep working.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from ..errors import ConfigurationError, ProtocolError
from ..store.query import (
    MATCH_ALL,
    Aggregate,
    Predicate,
    Query,
    predicate_from_wire,
    predicate_to_wire,
)

TRANSFORM_DP = "aggregate-dp"
TRANSFORM_KANON = "records-kanon"
TRANSFORM_EXACT = "aggregate-exact"
TRANSFORMS = (TRANSFORM_DP, TRANSFORM_KANON, TRANSFORM_EXACT)

#: Aggregates a cell may compute locally for the numeric transforms.
#: Only additive functions survive masked summation.
NUMERIC_AGGREGATES = ("sum", "count")


# -- the query spec ----------------------------------------------------------


@dataclass(frozen=True)
class FedQuerySpec:
    """One global query, as shipped to every participating cell.

    ``value_field``/``aggregate`` drive the numeric transforms (each
    cell computes ``aggregate(value_field)`` over its matching records
    and contributes that one number); ``project`` selects the fields a
    ``records-kanon`` release ships (``None`` releases whole records).
    ``min_cohort`` is the egress privacy floor: a cell refuses to
    contribute to a cohort smaller than this, and the coordinator
    abandons a combine that degrades below it.
    """

    recipient: str
    purpose: str
    transform: str
    collection: str
    where: Predicate = field(default_factory=lambda: MATCH_ALL)
    value_field: str = "value"
    aggregate: str = "sum"
    project: tuple[str, ...] | None = None
    epsilon: float = 1.0
    k: int = 5
    scale: int = 1
    min_cohort: int = 2

    def __post_init__(self) -> None:
        if self.transform not in TRANSFORMS:
            raise ConfigurationError(f"unknown transform {self.transform!r}")
        if self.aggregate not in NUMERIC_AGGREGATES:
            raise ConfigurationError(
                f"unknown aggregate {self.aggregate!r}; "
                f"known: {NUMERIC_AGGREGATES}"
            )
        if self.epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")
        if self.k < 1:
            raise ConfigurationError("k must be at least 1")
        if self.scale < 1:
            raise ConfigurationError("scale must be a positive integer")
        if self.min_cohort < 1:
            raise ConfigurationError("min_cohort must be at least 1")

    @property
    def numeric(self) -> bool:
        return self.transform in (TRANSFORM_DP, TRANSFORM_EXACT)

    def local_query(self) -> Query:
        """The query one cell runs against its own catalog."""
        if self.numeric:
            return Query(
                collection=self.collection,
                where=self.where,
                aggregates=[Aggregate(self.aggregate, self.value_field)],
            )
        return Query(
            collection=self.collection,
            where=self.where,
            project=list(self.project) if self.project is not None else None,
        )

    def to_wire(self) -> dict[str, Any]:
        """The spec's wire form, built once per (frozen) instance.

        Every message and journal record of a run carries the same
        dict: treat it as read-only, like the messages themselves.
        """
        wire = self.__dict__.get("_wire")
        if wire is None:
            wire = {
                "recipient": self.recipient,
                "purpose": self.purpose,
                "transform": self.transform,
                "collection": self.collection,
                "where": predicate_to_wire(self.where),
                "value_field": self.value_field,
                "aggregate": self.aggregate,
                "project": list(self.project)
                if self.project is not None else None,
                "epsilon": self.epsilon,
                "k": self.k,
                "scale": self.scale,
                "min_cohort": self.min_cohort,
            }
            object.__setattr__(self, "_wire", wire)
        return wire

    @classmethod
    def from_wire(cls, data: Any) -> "FedQuerySpec":
        """Rebuild a spec from its wire form; malformed input of any
        shape raises :class:`ProtocolError` (the wire is untrusted)."""
        try:
            project = data.get("project")
            return cls(
                recipient=data["recipient"],
                purpose=data["purpose"],
                transform=data["transform"],
                collection=data["collection"],
                where=predicate_from_wire(data["where"]),
                value_field=data.get("value_field", "value"),
                aggregate=data.get("aggregate", "sum"),
                project=tuple(project) if project is not None else None,
                epsilon=data.get("epsilon", 1.0),
                k=data.get("k", 5),
                scale=data.get("scale", 1),
                min_cohort=data.get("min_cohort", 2),
            )
        except (AttributeError, KeyError, TypeError,
                ConfigurationError) as exc:
            raise ProtocolError(f"malformed query spec: {exc}") from exc


# -- message kinds -----------------------------------------------------------

MSG_PLAN = "fq.plan"
MSG_PARTIAL = "fq.partial"
MSG_RECOVER = "fq.recover"
MSG_MASK = "fq.mask"
#: Standing-subscription fan-out (:mod:`repro.fedquery.standing`).
MSG_SUB = "fq.sub"

# Hierarchical (coordinator-tree) message kinds: root <-> regional
# sub-coordinators. Everything in them is already transformed by the
# cells' egress gates — shard partial sums stay masked by the unpaired
# cross-shard boundary edges, so no tree level below the final combine
# learns anything.
MSG_SHARD_PLAN = "fq.shard_plan"
MSG_SHARD_PARTIAL = "fq.shard_partial"
MSG_SHARD_RECOVER = "fq.shard_recover"
MSG_SHARD_MASK = "fq.shard_mask"

STATUS_OK = "ok"
STATUS_DECLINED = "declined"
STATUS_FLOOR = "floor"
PARTIAL_STATUSES = (STATUS_OK, STATUS_DECLINED, STATUS_FLOOR)


class WireMessage(dict):
    """A built wire message: a plain JSON dict that carries its size.

    Every ``*_message`` builder returns one. :func:`wire_size`
    serialises it at most once — where it is first sized, normally the
    sender's ``send`` — and the number then travels with the object
    (the simulated network delivers payloads by reference), so the
    receiver's journal record and a re-ask's replay reuse it. A built
    message is therefore **read-only after its first send**;
    ``dict(message)`` is a plain, unsized copy for anyone who needs to
    edit one. Assigning a key forgets the size, so the one edit that
    is easy to make by accident is re-measured, not billed stale; an
    edit inside a nested value is not seen.
    """

    __slots__ = ("wire_bytes",)

    def __setitem__(self, key: str, value: Any) -> None:
        super().__setitem__(key, value)
        self.wire_bytes = None


def plan_message(tag: str, spec: FedQuerySpec, roster: list[str],
                 reply_to: str, *, round_tag: str | None = None,
                 neighbors: int | None = None,
                 positions: dict[str, int] | None = None,
                 global_size: int | None = None) -> dict[str, Any]:
    """The fan-out message: the plan plus the masking roster in order.

    ``round_tag`` keys the pairwise mask keystreams (defaults to the
    message tag); ``neighbors`` selects the k-regular masking graph
    (``None`` = complete). Both must be identical across the roster or
    masks will not cancel — which is why the coordinator ships them in
    the plan instead of letting cells choose.

    The hierarchical path ships a roster *window* instead of the full
    roster: ``roster`` then lists only the recipient cell and its ring
    neighbors, ``positions`` maps each of them to its global roster
    position (signs and the masking graph follow global positions),
    and ``global_size`` carries the full roster size — which the cell
    must use for its cohort floor and DP noise calibration, so privacy
    parameters stay global even though the wire message is O(k).

    The message owns its roster as a tuple (a list on the wire): one
    flat plan goes to every cell by reference, and each cell keeps
    that one object for a later recovery instead of a copy.
    """
    message = {
        "kind": MSG_PLAN, "tag": tag, "spec": spec.to_wire(),
        "roster": tuple(roster), "reply_to": reply_to,
        "round_tag": round_tag if round_tag is not None else tag,
        "neighbors": neighbors,
    }
    if positions is not None:
        message["positions"] = dict(positions)
    if global_size is not None:
        message["global_size"] = global_size
    return WireMessage(message)


def partial_message(tag: str, sender: str, status: str, plan: str,
                    examined: int, payload: Any = None) -> dict[str, Any]:
    """A cell's reply: its transformed partial plus plan accounting."""
    if status not in PARTIAL_STATUSES:
        raise ConfigurationError(f"unknown partial status {status!r}")
    return WireMessage({
        "kind": MSG_PARTIAL, "tag": tag, "from": sender, "status": status,
        "plan": plan, "examined": examined, "payload": payload,
    })


def recover_message(tag: str, round_index: int, missing: list[str],
                    reply_to: str) -> dict[str, Any]:
    return WireMessage({
        "kind": MSG_RECOVER, "tag": tag, "round": round_index,
        "missing": list(missing), "reply_to": reply_to,
    })


def mask_message(tag: str, sender: str, round_index: int,
                 net_mask: int) -> dict[str, Any]:
    return WireMessage({
        "kind": MSG_MASK, "tag": tag, "from": sender, "round": round_index,
        "net_mask": net_mask,
    })


# -- hierarchical wire messages ----------------------------------------------


def shard_plan_message(
    tag: str,
    spec: FedQuerySpec,
    shard: list[str],
    positions: dict[str, int],
    global_size: int,
    reply_to: str,
    *,
    region: int,
    round_tag: str,
    neighbors: int,
) -> dict[str, Any]:
    """Root -> regional sub-coordinator: run this shard of the query.

    ``shard`` lists the region's members in global roster order;
    ``positions`` additionally covers the boundary zone (the k/2
    positions on either side of the shard) so the region can build
    each member's roster window without ever holding the full roster.
    """
    return WireMessage({
        "kind": MSG_SHARD_PLAN, "tag": tag, "spec": spec.to_wire(),
        "shard": list(shard), "positions": dict(positions),
        "global_size": global_size, "reply_to": reply_to,
        "region": region, "round_tag": round_tag, "neighbors": neighbors,
    })


def shard_partial_message(
    tag: str,
    sender: str,
    region: int,
    *,
    statuses: dict[str, str],
    masked_sum: int | None,
    count: int,
    sealed: list[tuple[str, str]],
    plan_mix: dict[str, int],
    examined: int,
    messages: int,
    bytes_: int,
    reasks: int,
) -> dict[str, Any]:
    """Regional sub-coordinator -> root: one shard's combined partial.

    ``masked_sum`` is the mod-PRIME sum of the shard's masked
    contributions — still masked by the unpaired cross-shard boundary
    edges, so the root learns nothing per shard. ``statuses`` reports
    each member's terminal collect status so the root can compile the
    global missing set and the result accounting.
    """
    return WireMessage({
        "kind": MSG_SHARD_PARTIAL, "tag": tag, "from": sender,
        "region": region, "statuses": dict(statuses),
        "masked_sum": masked_sum, "count": count,
        "sealed": [list(item) for item in sealed],
        "plan_mix": dict(plan_mix), "examined": examined,
        "messages": messages, "bytes": bytes_, "reasks": reasks,
    })


def shard_recover_message(tag: str, missing: list[str],
                          reply_to: str) -> dict[str, Any]:
    """Root -> regions: cancel these cells' edges (global missing set)."""
    return WireMessage({
        "kind": MSG_SHARD_RECOVER, "tag": tag, "missing": list(missing),
        "reply_to": reply_to,
    })


def shard_mask_message(tag: str, sender: str, region: int, *,
                       net_sum: int | None, reasks: int,
                       messages: int, bytes_: int,
                       failure: str | None = None) -> dict[str, Any]:
    """Regional sub-coordinator -> root: the shard's net recovery mask.

    ``net_sum`` is the mod-PRIME sum of the shard survivors' net
    recovery masks (``None`` with a ``failure`` reason when a survivor
    exhausted its re-ask budget — the root must abandon, exactly as
    the flat coordinator does when masks are unrecoverable).
    """
    return WireMessage({
        "kind": MSG_SHARD_MASK, "tag": tag, "from": sender,
        "region": region, "net_sum": net_sum, "reasks": reasks,
        "messages": messages, "bytes": bytes_, "failure": failure,
    })


def wire_size(message: dict[str, Any]) -> int:
    """Serialized (compact JSON) size of a message, for network billing.

    A :class:`WireMessage` is serialised the first time it is sized
    and answers from its slot afterwards; any other dict is serialised
    on every call.
    """
    size = getattr(message, "wire_bytes", None)
    if size is None:
        size = len(json.dumps(message, separators=(",", ":")).encode())
        if isinstance(message, WireMessage):
            message.wire_bytes = size
    return size


def plan_kind(plan: str) -> str:
    """Collapse a catalog plan string into the E14 plan-mix buckets.

    ``index:f``/``range:f``/``keyword:f`` all answered from an index;
    ``zonemap:f`` pruned blocks without one; ``scan`` read everything.
    ``memory`` marks a value-backed source with no store behind it.
    """
    head = plan.split(":", 1)[0]
    if head in ("index", "range", "keyword"):
        return "index"
    if head in ("zonemap", "scan", "memory"):
        return head
    return "scan"
