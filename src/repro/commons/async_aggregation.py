"""Asynchronous secure aggregation through the untrusted cloud.

The synchronous protocols in :mod:`repro.commons.aggregation` assume
everyone is reachable in the same instant — exactly what the paper says
cells are *not*. This variant uses the infrastructure the way the paper
prescribes ("participate to distributed computations (e.g., store
intermediate results)"):

1. the initiator posts a collection request naming the roster, the
   round tag and a submission deadline;
2. each cell, **whenever it next comes online**, posts its pairwise-
   masked contribution to a cloud mailbox — the stored intermediate
   result. The cloud learns nothing: every value is masked over the
   full roster;
3. at the deadline the aggregator drains the mailbox. If some cells
   never showed up, it posts a recovery request; each *submitted* cell
   answers at its next wake-up with the net mask it shared with the
   missing cells (protecting nobody: the missing contributed nothing);
4. the aggregate completes when every recovery answer of a round is in.

Recovery runs in bounded *rounds* of ``recovery_timeout`` seconds.
Each round re-requests net masks from every still-active submitter
against the full current missing set; a submitter that does not answer
within the round window is **demoted** — its contribution is excluded
and it joins the missing set — and a fresh round re-requests masks for
the enlarged set. The aggregate then completes as a *partial* result
over the surviving cells (flagged ``partial=True``) instead of hanging
forever. A round with no submissions, too many recovery rounds, or
fewer than two active cells left (the privacy floor: a "sum" over one
cell would reveal that cell's value) is abandoned with a reason in
``AsyncResult.failure``; nothing raises.

Everything runs on the simulation event loop, so completion time under
a given availability pattern is a measured output, not an assumption.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..crypto import shamir
from ..errors import ConfigurationError, ProtocolError, TransientCloudError
from ..faults.retry import RetryPolicy, retry_call
from ..infrastructure.cloud import CloudProvider
from ..sim.world import World
from . import kernels
from .aggregation import AggregationNode, _effective_degree, _positioned_peers

_FIELD_ELEMENT_BYTES = 16


@dataclass
class AsyncResult:
    """Outcome of one asynchronous aggregation round.

    ``partial`` marks a degraded completion: ``demoted`` lists the
    submitters whose contributions had to be excluded because they
    stopped answering recovery requests. ``failure`` is set (and
    ``total`` stays None) when the round had to be abandoned —
    the reason string says why.
    """

    total: int | None = None
    submitted: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    demoted: list[str] = field(default_factory=list)
    partial: bool = False
    failure: str | None = None
    completed_at: int | None = None
    messages: int = 0
    bytes: int = 0

    @property
    def complete(self) -> bool:
        return self.total is not None

    def signed_total(self) -> int:
        if self.total is None:
            raise ProtocolError("aggregation has not completed")
        return shamir.decode_signed(self.total)


class AsyncMaskedAggregation:
    """One asynchronous masked-sum round over cloud mailboxes."""

    def __init__(
        self,
        world: World,
        cloud: CloudProvider,
        nodes: list[AggregationNode],
        values: dict[str, int],
        round_tag: str,
        deadline: int,
        wake_times: dict[str, list[int]],
        poll_period: int = 300,
        neighbors: int | None = None,
        recovery_timeout: int = 1800,
        max_recovery_rounds: int = 3,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        """``wake_times[name]`` lists the instants a cell is online;
        an empty list models a cell that never shows up.
        ``neighbors=k`` masks over the k-regular ring graph (see
        :class:`~repro.commons.aggregation.MaskedSum`).
        ``recovery_timeout`` (seconds) bounds each recovery round: a
        submitter that does not answer within it is demoted;
        ``retry_policy`` retries transient cloud failures on every
        mailbox round-trip."""
        if len(nodes) < 2:
            raise ConfigurationError("need at least two participants")
        if deadline <= world.now:
            raise ConfigurationError("deadline must be in the future")
        if recovery_timeout < 1:
            raise ConfigurationError("recovery_timeout must be >= 1 second")
        if max_recovery_rounds < 1:
            raise ConfigurationError("max_recovery_rounds must be >= 1")
        self.world = world
        self.cloud = cloud
        self.nodes = nodes
        self.values = values
        self.round_tag = round_tag
        self.deadline = deadline
        self.wake_times = wake_times
        self.poll_period = poll_period
        self.recovery_timeout = recovery_timeout
        self.max_recovery_rounds = max_recovery_rounds
        self.retry_policy = retry_policy
        self._retry_rng = world.rng(f"agg-retry:{round_tag}")
        self._degree = _effective_degree(len(nodes), neighbors)
        self.result = AsyncResult()
        self._order = {node.name: i for i, node in enumerate(nodes)}
        self._by_name = {node.name: node for node in nodes}
        self._contributions: dict[str, int] = {}
        self._active: set[str] = set()
        self._round = 0
        self._round_answers: dict[str, int] = {}

    # -- mailbox names ------------------------------------------------------

    @property
    def _contrib_box(self) -> str:
        return f"agg/{self.round_tag}/contrib"

    @property
    def _recovery_box(self) -> str:
        return f"agg/{self.round_tag}/recovery"

    # -- resilient mailbox I/O ----------------------------------------------

    def _cloud_post(self, mailbox: str, sender: str, payload: bytes) -> None:
        retry_call(
            lambda: self.cloud.post_message(mailbox, sender, payload),
            policy=self.retry_policy, obs=self.world.obs,
            rng=self._retry_rng, operation="agg.post",
        )

    def _cloud_fetch(self, mailbox: str) -> list[tuple[str, bytes]]:
        return retry_call(
            lambda: self.cloud.fetch_messages(mailbox),
            policy=self.retry_policy, obs=self.world.obs,
            rng=self._retry_rng, operation="agg.fetch",
        )

    # -- node-side behaviour --------------------------------------------------

    def _edges(self, node: AggregationNode):
        """``node``'s roster position and masking edges, for the core."""
        position = self._order[node.name]
        return position, _positioned_peers(self.nodes, position, self._degree)

    def _submit(self, node: AggregationNode) -> None:
        if self.world.now > self.deadline:
            return  # too late; this cell counts as missing
        with self.world.obs.tracer.span(
            "agg.async.submit", node=node.name, round_tag=self.round_tag
        ):
            masked = node.masked_vector(
                *self._edges(node), self.round_tag,
                [shamir.encode_signed(self.values[node.name])],
            )[0]
            payload = json.dumps(
                {"from": node.name, "masked": masked}
            ).encode()
            try:
                self._cloud_post(self._contrib_box, node.name, payload)
            except TransientCloudError:
                self._resubmit_later(node)
                return
        self.result.messages += 1
        self.result.bytes += _FIELD_ELEMENT_BYTES
        self.world.obs.events.emit(
            "agg.async.submit", node=node.name, round_tag=self.round_tag
        )

    def _resubmit_later(self, node: AggregationNode) -> None:
        """Retries an exhausted submission at the cell's next wake-up
        before the deadline; with none left the cell goes missing."""
        upcoming = [
            t for t in sorted(self.wake_times.get(node.name, ()))
            if self.world.now < t <= self.deadline
        ]
        self.world.obs.events.emit(
            "agg.async.submit_failed", node=node.name,
            round_tag=self.round_tag, will_retry=bool(upcoming),
        )
        if upcoming:
            self.world.loop.schedule_at(
                upcoming[0], lambda: self._submit(node),
                label=f"resubmit {node.name}",
            )

    def _answer_recovery(
        self, node: AggregationNode, missing: list[str], round_index: int
    ) -> None:
        if round_index != self._round or node.name not in self._active:
            return  # stale request: a later round superseded this one
        # The term the aggregator adds to cancel the masks ``node``
        # shared with its missing *graph neighbors*.
        net_mask = node.unmasking_vector(
            *self._edges(node), self.round_tag, set(missing), 1
        )[0]
        body = {"from": node.name, "net_mask": net_mask, "round": round_index}
        try:
            self._cloud_post(
                self._recovery_box, node.name, json.dumps(body).encode()
            )
        except TransientCloudError:
            # counts as a non-answer the round close demotes; the
            # fault plane recorded the failure
            return
        self.result.messages += 1
        self.result.bytes += _FIELD_ELEMENT_BYTES
        self.world.obs.events.emit(
            "agg.async.recovery", node=node.name, round_tag=self.round_tag,
            missing=len(missing),
        )

    # -- orchestration ---------------------------------------------------------

    def start(self) -> None:
        """Schedule every cell's wake-ups and the aggregator's deadline."""
        for node in self.nodes:
            wakes = sorted(self.wake_times.get(node.name, ()))
            pre_deadline = [t for t in wakes if t <= self.deadline]
            if pre_deadline:
                self.world.loop.schedule_at(
                    pre_deadline[0], lambda n=node: self._submit(n),
                    label=f"submit {node.name}",
                )
        self.world.loop.schedule_at(
            self.deadline, self._close_submissions, label="aggregate deadline"
        )

    def _close_submissions(self) -> None:
        try:
            contributions = self._cloud_fetch(self._contrib_box)
        except TransientCloudError:
            # the mailbox persists; close again after a poll period
            self.world.obs.events.emit(
                "agg.async.close_deferred", round_tag=self.round_tag
            )
            self.world.loop.schedule_in(
                self.poll_period, self._close_submissions,
                label="aggregate deadline (deferred)",
            )
            return
        for _, payload in contributions:
            body = json.loads(payload.decode())
            self._contributions[body["from"]] = body["masked"]
        self.result.submitted = sorted(self._contributions)
        self.result.missing = sorted(
            set(self._order) - set(self.result.submitted)
        )
        if not self.result.missing:
            self._finish(kernels.accumulate(self._contributions.values()))
            return
        if not self.result.submitted:
            self._abandon("no cell submitted before the deadline")
            return
        self._active = set(self.result.submitted)
        self._start_recovery_round()

    # -- bounded recovery --------------------------------------------------------

    def _current_missing(self) -> list[str]:
        return sorted(set(self._order) - self._active)

    def _start_recovery_round(self) -> None:
        self._round += 1
        if self._round > self.max_recovery_rounds:
            self._abandon(
                f"recovery exceeded {self.max_recovery_rounds} rounds"
            )
            return
        if len(self._active) < 2:
            self._abandon(
                "fewer than two active cells remain (privacy floor)"
            )
            return
        missing = self._current_missing()
        self._round_answers = {}
        round_index = self._round
        start = self.world.now
        close_at = start + self.recovery_timeout
        self.world.obs.events.emit(
            "agg.async.rerequest", round_tag=self.round_tag,
            round=round_index, active=len(self._active), missing=len(missing),
        )
        for name in sorted(self._active):
            node = self._by_name[name]
            in_window = [
                t for t in sorted(self.wake_times.get(name, ()))
                if start < t <= close_at
            ]
            if in_window:
                self.world.loop.schedule_at(
                    in_window[0],
                    lambda n=node, m=missing, r=round_index:
                        self._answer_recovery(n, m, r),
                    label=f"recovery r{round_index} {name}",
                )
            # no wake in the window: the round deadline will demote it
        self.world.loop.schedule_at(
            close_at, lambda r=round_index: self._close_recovery_round(r),
            label=f"recovery round {round_index} deadline",
        )

    def _close_recovery_round(self, round_index: int) -> None:
        if self.result.complete or self.result.failure is not None:
            return
        if round_index != self._round:
            return  # a deferred close raced a newer round
        try:
            messages = self._cloud_fetch(self._recovery_box)
        except TransientCloudError:
            # answers persist in the mailbox; extend the round slightly
            self.world.loop.schedule_in(
                self.poll_period,
                lambda: self._close_recovery_round(round_index),
                label=f"recovery round {round_index} deadline (deferred)",
            )
            return
        for _, payload in messages:
            body = json.loads(payload.decode())
            if body.get("round") != round_index:
                continue  # answer to a superseded missing set
            if body["from"] not in self._active:
                continue
            self._round_answers[body["from"]] = body["net_mask"]
        laggards = self._active - set(self._round_answers)
        if not laggards:
            self.result.missing = self._current_missing()
            self.result.partial = bool(self.result.demoted)
            # One sign convention: contributions and unmasking terms
            # are all added.
            self._finish(kernels.accumulate(
                [self._contributions[name] for name in self._active]
                + list(self._round_answers.values())
            ))
            return
        demoted_metric = self.world.obs.metrics.counter(
            "agg.async.demoted",
            help="submitters excluded after missing a recovery round",
        )
        for name in sorted(laggards):
            self._active.discard(name)
            self.result.demoted.append(name)
            demoted_metric.inc()
            self.world.obs.events.emit(
                "agg.async.demote", round_tag=self.round_tag, node=name,
                round=round_index,
            )
        self._start_recovery_round()

    # -- terminal states ---------------------------------------------------------

    def _abandon(self, reason: str) -> None:
        self.result.failure = reason
        self.result.partial = True
        self.result.missing = (
            self._current_missing() if self._active or self.result.demoted
            else sorted(self._order)
        )
        self.world.obs.events.emit(
            "agg.async.abandoned", round_tag=self.round_tag, reason=reason,
            demoted=len(self.result.demoted),
        )
        self.world.obs.metrics.counter(
            "agg.async.abandoned", help="async aggregations abandoned"
        ).inc()

    def _finish(self, total: int) -> None:
        self.result.total = total
        self.result.completed_at = self.world.now
        self.world.obs.events.emit(
            "agg.async.complete", round_tag=self.round_tag,
            submitted=len(self.result.submitted),
            missing=len(self.result.missing),
            partial=self.result.partial,
            messages=self.result.messages,
        )
        metrics = self.world.obs.metrics
        metrics.counter(
            "agg.async.completed", help="async aggregations completed"
        ).inc()
        if self.result.partial:
            metrics.counter(
                "agg.async.partial",
                help="async aggregations completed degraded (partial roster)",
            ).inc()
        metrics.counter(
            "agg.async.messages", help="async aggregation mailbox messages"
        ).inc(self.result.messages)
