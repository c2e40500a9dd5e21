"""The cell side of the federated query engine.

A :class:`CellQueryAgent` is the endpoint a coordinator fans a plan out
to. On receiving a plan it decides participation from its *own* opt-in
state (and, optionally, a :class:`~repro.policy.ucon.UsagePolicy` —
the recipient must hold the ``aggregate`` right), runs the local query
through its own storage, pushes the result through the egress gate
(:mod:`repro.fedquery.gate`) and replies with the transformed partial.
Raw records never leave the cell unsealed; raw numeric values never
leave it unmasked.

Replies are **idempotent**: the partial for a tag is computed once and
cached, so a duplicated plan (fault plane) or a coordinator re-ask
(straggler recovery) replays the identical bytes — in particular the
DP noise share is drawn exactly once per query, so re-asks cannot be
averaged to cancel the noise.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from typing import Any, Protocol

from ..commons.aggregation import AggregationNode
from ..errors import CellOfflineError, ProtocolError
from ..infrastructure.network import Network
from ..policy.conditions import AccessContext
from ..policy.ucon import RIGHT_AGGREGATE, UsagePolicy
from ..sim.world import World
from ..store.catalog import Catalog
from . import gate
from .spec import (
    MSG_PLAN,
    MSG_RECOVER,
    MSG_SUB,
    STATUS_DECLINED,
    STATUS_FLOOR,
    STATUS_OK,
    TRANSFORM_DP,
    FedQuerySpec,
    mask_message,
    partial_message,
    plan_kind,
    wire_size,
)


class LocalSource(Protocol):
    """Where a cell's data lives: a catalog, or bare values for tests."""

    def run_local(self, spec: FedQuerySpec) -> tuple[Any, str, int]:
        """Execute the spec's local query.

        Returns ``(result, plan, examined)`` where ``result`` is a
        number for numeric transforms or a list of rows for record
        transforms, ``plan`` is the store's plan string and
        ``examined`` the records-examined count.
        """


class CatalogSource:
    """A cell whose data lives in its embedded store."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    def run_local(self, spec: FedQuerySpec) -> tuple[Any, str, int]:
        result = self.catalog.query(spec.local_query())
        if spec.numeric:
            return result.scalar(), result.plan, result.records_examined
        return result.rows, result.plan, result.records_examined


class ValueSource:
    """A cell backed by an in-memory value and record (no store).

    The shape the legacy orchestrator's :class:`CommonsMember` carries;
    the adapter wraps members in these. ``plan`` reports ``memory``.
    """

    def __init__(self, value: float = 0.0,
                 record: dict[str, Any] | None = None) -> None:
        self.value = value
        self.record = record or {}

    def run_local(self, spec: FedQuerySpec) -> tuple[Any, str, int]:
        if spec.numeric:
            value = 1.0 if spec.aggregate == "count" else self.value
            return value, "memory", 1
        rows = [dict(self.record)] if self.record else []
        if spec.project is not None:
            rows = [{name: row.get(name) for name in spec.project}
                    for row in rows]
        return rows, "memory", 1


class CellQueryAgent:
    """One cell's federated-query endpoint."""

    def __init__(
        self,
        world: World,
        network: Network,
        name: str,
        node: AggregationNode,
        source: LocalSource,
        *,
        purposes: set[str] | None = None,
        policy: UsagePolicy | None = None,
        directory: dict[str, AggregationNode] | None = None,
        fleet_secret: bytes | None = None,
        latency_ms: float = 20.0,
        bandwidth_bytes_per_s: float = 1e6,
    ) -> None:
        self.world = world
        self.network = network
        self.name = name
        self.node = node
        self.source = source
        self.purposes = set(purposes or ())
        self.policy = policy
        # Roster names resolve to key material here. Preshared fleets
        # need no directory at all (keys derive from the group secret),
        # so default to self-only and let callers share a fleet-wide one.
        self.directory = directory if directory is not None else {}
        self.directory.setdefault(name, node)
        self.fleet_secret = fleet_secret
        # The DP noise stream, made by the first draw (_noise_stream).
        self._noise: random.Random | None = None
        # tag -> the exact partial message already sent (idempotency).
        self._partials: dict[str, dict[str, Any]] = {}
        # tag -> the round context of a *contributed* partial: what a
        # later recovery request masks under.
        self._rounds: dict[str, dict[str, Any]] = {}
        # The cell's standing runtime (window feeds + live
        # subscriptions), created by the first ``fq.sub``
        # (:func:`repro.fedquery.standing.handle_subscription`).
        self._standing: Any = None
        network.register(
            name, self._on_message,
            latency_ms=latency_ms,
            bandwidth_bytes_per_s=bandwidth_bytes_per_s,
        )

    @property
    def _noise_stream(self) -> random.Random:
        """This cell's ``fedquery.noise.{name}`` stream. A stream is
        seeded from its name alone, so making it at the first DP draw
        gives the draws making it here would: a cell that only ever
        answers exact or record queries holds no generator state."""
        if self._noise is None:
            self._noise = self.world.rng(f"fedquery.noise.{self.name}")
        return self._noise

    # -- participation ---------------------------------------------------------

    def opt_in(self, *purposes: str) -> None:
        self.purposes.update(purposes)

    def opt_out(self, *purposes: str) -> None:
        self.purposes.difference_update(purposes)

    def _participates(self, spec: FedQuerySpec) -> bool:
        if spec.purpose not in self.purposes:
            return False
        if self.policy is not None:
            context = AccessContext(
                subject=spec.recipient,
                timestamp=self.world.now,
                purpose=spec.purpose,
            )
            if not self.policy.evaluate(RIGHT_AGGREGATE, context).allowed:
                return False
        return True

    # -- message handling ------------------------------------------------------

    def _on_message(self, sender: str, payload: Any) -> None:
        kind = payload.get("kind") if isinstance(payload, dict) else None
        if kind == MSG_PLAN:
            self._on_plan(payload)
        elif kind == MSG_RECOVER:
            self._on_recover(payload)
        elif kind == MSG_SUB:
            # Standing subscription: installs the incremental window
            # runtime (lazy import keeps the commons anchor intact).
            from .standing import handle_subscription

            handle_subscription(self, payload)
        # Unknown kinds are dropped silently: the wire is untrusted.

    def _reply(self, destination: str, message: dict[str, Any]) -> None:
        try:
            self.network.send(
                self.name, destination, message, size_bytes=wire_size(message)
            )
        except CellOfflineError:
            pass  # the coordinator's re-ask machinery owns this failure

    def _dropped(self, reason: str) -> None:
        """Count a message dropped unparsed (the wire is untrusted)."""
        self.world.obs.metrics.counter(
            "fedquery.cell.dropped", labelnames=("reason",),
            help="plan/recover messages a cell could not parse",
        ).labels(reason=reason).inc()

    def _on_plan(self, message: dict[str, Any]) -> None:
        try:
            tag, reply_to = message["tag"], message["reply_to"]
            cached = self._partials.get(tag)
            if cached is None:
                spec = FedQuerySpec.from_wire(message["spec"])
                # The plan's own roster, by reference: ``plan_message``
                # made it a tuple, and a copy per cell per query is
                # O(N²) a flat query.
                roster = message["roster"]
        except (KeyError, TypeError, ProtocolError):
            self._dropped("malformed-plan")
            return
        if cached is not None:
            # Duplicate delivery or coordinator re-ask: replay verbatim.
            self._reply(reply_to, cached)
            return
        self._egress(tag, spec, reply_to, {
            "roster": roster,
            "round_tag": message.get("round_tag", tag),
            "neighbors": message.get("neighbors"),
            # Hierarchical plans ship a roster *window* plus global
            # positions and the global roster size. Kept by reference
            # as the roster is: a region ships one window object per
            # cell for as long as its shard layout holds, so all of
            # this cell's contexts share it.
            "positions": message.get("positions"),
            "global_size": message.get("global_size", len(roster)),
        }, lambda: self.source.run_local(spec))

    def _egress(self, tag: str, spec: FedQuerySpec, reply_to: str,
                context: dict[str, Any],
                local: Callable[[], tuple[Any, str, int]]) -> None:
        """The one way out of the cell: decline → cohort floor → DP
        share → mask or seal → cache → reply.

        ``context`` is the round's masking context, kept for a later
        recovery request; ``local()`` returns ``(result, plan,
        examined)`` as :meth:`LocalSource.run_local` does and is only
        called once the cell has decided to contribute. Privacy
        parameters (cohort floor, DP calibration) always follow the
        *global* roster size, so sharding the fan-out can never weaken
        them.
        """
        global_size = context["global_size"]
        plan, examined, payload = "none", 0, None
        if not self._participates(spec):
            status = STATUS_DECLINED
        elif not gate.cohort_allows(spec, global_size):
            status = STATUS_FLOOR
        else:
            status = STATUS_OK
            result, plan, examined = local()
            plan = plan_kind(plan)
            if spec.numeric:
                contribution = float(result)
                if spec.transform == TRANSFORM_DP:
                    # Calibrated to the GLOBAL participant count and
                    # drawn exactly once per query or window (the
                    # partial cache makes re-asks replays), so the
                    # shares across all shards sum to one global
                    # Laplace draw — never one draw per shard.
                    contribution += gate.dp_noise_share(
                        self._noise_stream, participants=global_size,
                        epsilon=spec.epsilon,
                    )
                payload = {"masked": gate.masked_contribution(
                    self.node, self.directory, context["roster"],
                    context["round_tag"], round(contribution * spec.scale),
                    neighbors=context["neighbors"],
                    positions=context["positions"], size=global_size,
                )}
            else:
                rows = list(result)
                if self.fleet_secret is None:
                    raise ProtocolError(
                        f"cell {self.name!r} has no fleet secret to seal "
                        "a record release"
                    )
                key = gate.recipient_key(spec.recipient, self.fleet_secret)
                payload = {
                    "count": len(rows),
                    "blob": gate.seal_records(key, rows, tag, self.name)
                    if rows else None,
                }
        partial = partial_message(
            tag, self.name, status, plan=plan, examined=examined,
            payload=payload,
        )
        self._partials[tag] = partial
        if status == STATUS_OK:
            self._rounds[tag] = context
        self._reply(reply_to, partial)

    def _on_recover(self, message: dict[str, Any]) -> None:
        try:
            tag, round_index = message["tag"], message["round"]
            reply_to, missing = message["reply_to"], set(message["missing"])
            context = self._rounds.get(tag)
        except (KeyError, TypeError):
            self._dropped("malformed-recover")
            return
        if context is None:
            # Never contributed a value: nothing of ours is in the
            # total, so there is nothing to unmask. Stay silent; the
            # coordinator only queries contributors anyway.
            return
        net = gate.net_recovery_mask(
            self.node, self.directory, context["roster"],
            context["round_tag"], missing,
            neighbors=context["neighbors"],
            positions=context["positions"], size=context["global_size"],
        )
        reply = mask_message(tag, self.name, round_index, net)
        self._reply(reply_to, reply)
