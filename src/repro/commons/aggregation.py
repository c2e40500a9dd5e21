"""Secure aggregation among trusted cells.

The "shared commons" requirement: privacy must not hinder societal
benefit, so cells participate in global computations — sums, averages,
histograms — without exposing individual contributions. The paper
anticipates "atypical distributed protocols ... on one side a very
large number of highly secure, low power and weakly available trusted
cells and on the other side a highly powerful, highly available but
untrusted infrastructure".

Three protocols, matched to experiment E9:

* :class:`CleartextSum` — the no-privacy baseline: everyone posts their
  value to the aggregator.
* :class:`MaskedSum` — SecAgg-style pairwise masking. Every pair of
  cells derives a common mask from their Diffie-Hellman key; cell *i*
  submits ``value + Σ_{j>i} m_ij − Σ_{j<i} m_ij``. Masks cancel in the
  sum, so the untrusted aggregator learns only the total. Dropouts are
  recovered by asking survivors to reveal their pairwise masks *with
  the dropped cells only* (those cells contributed nothing, so the
  revealed masks protect nothing).
* :class:`ShamirSum` — each cell Shamir-shares its value across a small
  committee of cells; committee members sum the shares they hold and
  publish one partial sum each; any ``threshold`` partials reconstruct
  the total. Tolerates committee dropouts up to the threshold without
  any recovery round.

Two scaling levers keep the masked protocols viable at large N:

* **Keystream mask expansion** — each (pair, round) derives *one* HMAC
  seed and expands it into as many field elements as the round needs
  (one for a scalar sum, B for a B-bucket histogram) via counter-mode
  blocks (:func:`repro.crypto.primitives.counter_stream`). This
  collapses :func:`masked_histogram` from N²·B keyed derivations to N²
  and lets the dropout-recovery round reuse the cached per-round masks
  instead of re-deriving them.
* **k-regular masking graph** — with ``neighbors=k`` each cell masks
  only against its k deterministic ring-neighbors (k/2 on each side),
  turning per-round cost from O(N²) into O(N·k). Masks still cancel
  exactly because the edge set is symmetric. The complete graph stays
  the default and the correctness oracle; the sparse graph weakens the
  collusion bound from N−2 to k−1 colluding neighbors (see
  ``docs/protocols.md``).

All protocols work over the integer field of :mod:`repro.crypto.shamir`
(values are scaled integers; negative values use the signed embedding)
and report message/byte/round accounting.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter

from ..crypto import shamir
from ..crypto.keys import KeyRing
from ..crypto.primitives import (
    KEY_SIZE,
    HmacKey,
    hmac_sha256,
    sha256,
)
from ..errors import ConfigurationError, ProtocolError
from ..obs import get_default as _obs_default
from . import kernels
from .kernels import _SEED_BYTES  # one HMAC-SHA256 tag: a round's seed

_FIELD_ELEMENT_BYTES = 16  # one PRIME-field element on the wire

# Synchronous protocols run without a World, so their rounds land in
# the process-default observability scope (one span + one event per
# *round*, never per node — the hot loops stay uninstrumented).
_OBS = _obs_default()
_ROUNDS = _OBS.metrics.counter(
    "agg.rounds", help="aggregation rounds executed", labelnames=("protocol",)
)
_MESSAGES = _OBS.metrics.counter(
    "agg.messages", help="aggregation protocol messages")
_BYTES = _OBS.metrics.counter(
    "agg.bytes", help="aggregation protocol payload bytes")
# The mask memo's lane, counted once per batch call (never per peer):
# a row is ``derived`` when it paid its keyed derivation in this call,
# ``cached`` when the round's memo record already held its seed.
_MASK_ROWS = _OBS.metrics.counter(
    "agg.mask_rows", help="pairwise mask rows by where they came from",
    labelnames=("source",))
_ROWS_DERIVED = _MASK_ROWS.labels(source="derived")
_ROWS_CACHED = _MASK_ROWS.labels(source="cached")

# Rounds one node's mask memo keeps, oldest evicted first: the smallest
# power of two above the most rounds a tracked bench masks on one node
# before any of them can be asked back — ``BENCH_standing.json``'s 240
# subscriptions closing one window together (counted with the bound
# lifted; ``docs/protocols.md``, "The round's mask record"). An evicted
# round costs re-derivation only: masks are a pure function of the
# pairwise key and the round tag.
MASK_ROUNDS_RESIDENT_MAX = 256
_ROUNDS_RESIDENT = _OBS.metrics.gauge(
    "agg.mask_rounds_resident",
    help="most rounds any one node's mask memo has held (rounds)")
_ROUNDS_EVICTED = _OBS.metrics.counter(
    "agg.mask_rounds_evicted",
    help="rounds dropped from a full mask memo, oldest first (rounds)")


class _RoundMasks:
    """One round's pairwise masks on one node: its seeds, nothing more.

    Peers sit in first-touch order: ``rows`` maps a peer's name to its
    row and ``seeds[row * 32:(row + 1) * 32]`` is the pair's keyed seed
    for this round, all in one ``bytes``. Readers expand the rows they
    ask for on each call, so a settled round holds 32 B per peer plus
    its row index, however wide it was asked.
    """

    __slots__ = ("rows", "seeds")

    def __init__(self) -> None:
        self.rows: dict[str, int] = {}
        self.seeds = b""

    def grow(self, names: list[str], seeds: list[bytes]) -> None:
        """Give the peers ``names`` — not yet in the record, ``seeds``
        their derived seeds — the next rows."""
        known = len(self.rows)
        self.rows.update(zip(names, range(known, known + len(names))))
        self.seeds += b"".join(seeds)

    def seeds_of(self, names: list[str]) -> list[bytes]:
        """The seeds of ``names``' rows, aligned with ``names``."""
        rows, seeds = self.rows, self.seeds
        starts = [rows[name] * _SEED_BYTES for name in names]
        return [seeds[start:start + _SEED_BYTES] for start in starts]


_name_of = attrgetter("name")
_peer_of = itemgetter(0)  # of a ``(peer, peer position)`` edge
_position_of = itemgetter(1)


def _record_round(result: "AggregationResult") -> None:
    """One bookkeeping call at the end of every protocol run."""
    _ROUNDS.labels(protocol=result.protocol).inc()
    _MESSAGES.inc(result.messages)
    _BYTES.inc(result.bytes)
    _OBS.events.emit(
        "agg.round", protocol=result.protocol, participants=result.participants,
        dropped=result.dropped, messages=result.messages,
        bytes=result.bytes, rounds=result.rounds,
    )


def ring_neighbor_positions(position: int, size: int, degree: int) -> list[int]:
    """The ``degree`` ring-neighbors of ``position`` in a roster of
    ``size``: the ``degree/2`` predecessors and ``degree/2`` successors
    modulo ``size``. The edge set is symmetric (j is a neighbor of i
    iff i is a neighbor of j), which is exactly what makes pairwise
    masks cancel on the sparse graph."""
    half = degree // 2
    neighbors = set()
    for distance in range(1, half + 1):
        neighbors.add((position + distance) % size)
        neighbors.add((position - distance) % size)
    neighbors.discard(position)
    return sorted(neighbors)


def _effective_degree(size: int, neighbors: int | None) -> int | None:
    """Normalize a requested masking degree; ``None`` means complete."""
    if neighbors is None:
        return None
    if neighbors < 2 or neighbors % 2:
        raise ConfigurationError(
            f"masking degree must be an even integer >= 2, got {neighbors}"
        )
    if neighbors >= size - 1:
        return None  # the ring closes into the complete graph
    return neighbors


def _masking_positions(position: int, size: int,
                       degree: int | None) -> list[int]:
    """The roster positions ``position`` masks against: every other one
    on the complete graph (``degree`` is ``None``), else its ring."""
    if degree is None:
        return [at for at in range(size) if at != position]
    return ring_neighbor_positions(position, size, degree)


def _positioned_peers(
    nodes: list["AggregationNode"], position: int, degree: int | None,
) -> list[tuple["AggregationNode", int]]:
    """``(peer, peer position)`` for each peer ``nodes[position]`` masks
    against — the edge list the mask core takes."""
    return [(nodes[at], at)
            for at in _masking_positions(position, len(nodes), degree)]


def _masking_peers(nodes: list["AggregationNode"], position: int,
                   degree: int | None):
    """The peers node ``nodes[position]`` masks against."""
    return [peer for peer, _ in _positioned_peers(nodes, position, degree)]


class AggregationNode:
    """One participant: a name, a value source, and key material."""

    def __init__(self, name: str, key_ring: KeyRing | None, *,
                 cache_masks: bool = True) -> None:
        self.name = name
        self.keys = key_ring
        # Pairwise keys are established once per peer (one DH exchange),
        # then reused across rounds — exactly as a real deployment would.
        self._pairwise_cache: dict[str, bytes] = {}
        # The same keys with their HMAC key blocks already absorbed:
        # what a round's mask derivation tags under. One per peer this
        # node ever masked against — at most the ring degree k — and
        # never older than its key: a rotated key arrives in a fresh
        # node (see ``keymgmt.directory.EpochNode``).
        self._mask_keys: dict[str, HmacKey] = {}
        self._preshared: bytes | None = None
        # The mask memo: round tag -> that round's one record
        # (:class:`_RoundMasks`), at most ``MASK_ROUNDS_RESIDENT_MAX``
        # rounds in insertion order. The dropout-recovery round
        # re-reads masks from here instead of re-deriving them.
        self.cache_masks = cache_masks
        self._mask_cache: dict[str, _RoundMasks] = {}
        # The last masking ring this node was asked for (see
        # :meth:`masking_ring`): ``((position, size, degree), ring)``.
        self._ring: tuple = (None, ())

    @classmethod
    def from_cell(cls, cell) -> "AggregationNode":
        """Wrap a :class:`~repro.core.cell.TrustedCell`."""
        return cls(cell.name, cell.tee.keys)

    @classmethod
    def standalone(cls, name: str, rng: random.Random) -> "AggregationNode":
        """A lightweight node for large-N protocol experiments."""
        return cls(name, KeyRing.generate(rng))

    @classmethod
    def preshared(cls, name: str, group_secret: bytes, *,
                  cache_masks: bool = True) -> "AggregationNode":
        """A node whose pairwise keys derive from ``group_secret``.

        Skips Diffie-Hellman entirely: the key for a pair is hashed on
        demand from the secret and the two names, so a population of
        thousands costs O(1) memory per node. For protocol benchmarks
        and scale tests where key *establishment* is out of scope (a
        deployment pays it once per peer, then reuses the key across
        every round). All nodes of a population must share the secret.

        The hashed group secret is a single point of class break — one
        leak unmasks every fleet round. Deployments that need agreed,
        rotatable, revocable ring keys obtain nodes from
        :class:`repro.keymgmt.KeyDirectory` instead.
        """
        node = cls(name, None, cache_masks=cache_masks)
        node._preshared = group_secret
        return node

    def _pairwise_key_for(self, peer: "AggregationNode") -> bytes:
        key = self._pairwise_cache.get(peer.name)
        if key is not None:
            return key
        if self._preshared is not None:
            low, high = sorted((self.name, peer.name))
            key = sha256(
                b"preshared|" + self._preshared
                + low.encode() + b"|" + high.encode()
            )[:KEY_SIZE]
        else:
            if self.keys is None:
                raise ConfigurationError(
                    f"node {self.name!r} has neither a key ring nor a "
                    "preshared group secret"
                )
            key = self.keys.pairwise_key(peer.keys.exchange_public)
        # Cache preshared derivations too: a fleet asking the same
        # roster a second query used to re-hash every pair from the
        # group secret on every mask call.
        self._pairwise_cache[peer.name] = key
        return key

    def masking_ring(self, position: int, size: int,
                     degree: int | None) -> tuple[int, ...]:
        """The roster positions this node masks against from
        ``position`` in a roster of ``size`` (every other one when
        ``degree`` is ``None``, else its ring), in ascending order.

        Remembered, one ring per node — the last one asked, at most
        ``size - 1`` ints: a fleet cell masks from the same position of
        the same-sized roster query after query, so the ring is built
        once, not per query. Positions only, no names or keys, so
        nothing in it can go stale when the roster's names or key
        material change.
        """
        key, ring = self._ring
        if key != (position, size, degree):
            ring = tuple(_masking_positions(position, size, degree))
            self._ring = ((position, size, degree), ring)
        return ring

    def _round_masks(self, round_tag: str) -> _RoundMasks:
        """This round's record — the memo's, or a fresh one, which is
        remembered (evicting the oldest round of a full memo) unless
        the node was built with ``cache_masks=False``."""
        cache = self._mask_cache
        record = cache.get(round_tag)
        if record is None:
            record = _RoundMasks()
            if self.cache_masks:
                cache[round_tag] = record
                if len(cache) > MASK_ROUNDS_RESIDENT_MAX:
                    del cache[next(iter(cache))]
                    _ROUNDS_EVICTED.inc()
                elif len(cache) > _ROUNDS_RESIDENT.value:
                    _ROUNDS_RESIDENT.set(len(cache))
        return record

    def mask_elements(self, peer: "AggregationNode", round_tag: str,
                      count: int) -> list[int]:
        """The first ``count`` shared mask elements for this (peer, round).

        One HMAC derives the per-(pair, round) seed; counter-mode
        expansion yields the elements, so asking for B elements costs
        the same single keyed derivation as asking for one. Both ends
        of the pair compute identical values (the pairwise key and the
        expansion are symmetric). The scalar oracle: same record as
        :meth:`mask_elements_many`, none of its kernels.
        """
        record = self._round_masks(round_tag)
        if peer.name not in record.rows:
            record.grow([peer.name], [hmac_sha256(
                self._pairwise_key_for(peer), f"mask|{round_tag}".encode()
            )])
        [seed] = record.seeds_of([peer.name])
        return kernels.expand_stream_reference(seed, count)

    def _filled(
        self,
        round_tag: str,
        names: list[str],
        peers: list["AggregationNode"],
    ) -> list[bytes]:
        """The round's seeds for every one of ``peers`` (``names`` are
        their names, aligned), recorded in this round's record — the
        one fill path of the batch calls.

        One lookup finds the record; every peer it lacks is derived —
        one HMAC per fresh pair, the keyed derivation count of the
        scalar path, every fresh peer's
        :class:`~repro.crypto.primitives.HmacKey` tagged in one
        :meth:`~repro.crypto.primitives.HmacKey.tag_many` call. A peer
        node is read only to build the key of a pair this node never
        masked before.
        """
        record = self._round_masks(round_tag)
        rows = record.rows
        fresh = [name for name in names if name not in rows]
        if fresh:
            keys = list(map(self._mask_keys.get, fresh))
            if not all(keys):  # a pair this node never masked before
                peer_of = dict(zip(names, peers))
                for at, name in enumerate(fresh):
                    if keys[at] is None:
                        keys[at] = self._mask_keys[name] = HmacKey(
                            self._pairwise_key_for(peer_of[name]))
            # Rows are recorded only once every fresh seed is derived: a
            # peer without key material raises here and leaves no trace.
            record.grow(fresh, HmacKey.tag_many(
                keys, f"mask|{round_tag}".encode()))
        _ROWS_DERIVED.inc(len(fresh))
        _ROWS_CACHED.inc(len(names) - len(fresh))
        return record.seeds_of(names)

    def mask_elements_many(
        self,
        peers: list["AggregationNode"],
        round_tag: str,
        count: int,
    ) -> list[list[int]]:
        """Mask elements against *every* peer in one batch call.

        The vectorized counterpart of calling :meth:`mask_elements`
        per peer, through the round's one fill path
        (:meth:`_filled`): the asked rows are expanded in a single
        :func:`~repro.commons.kernels.expand_streams` pass. Returns the
        element lists aligned with ``peers``, bit-for-bit equal to the
        scalar loop.
        """
        elements = kernels.expand_streams(self._filled(
            round_tag, list(map(_name_of, peers)), peers), count)
        return [elements[row * count:(row + 1) * count]
                for row in range(len(peers))]

    # -- the mask core: every masked transport goes through these -------------

    def masked_vector(
        self,
        position: int,
        peers: list[tuple["AggregationNode", int]],
        round_tag: str,
        base: list[int],
    ) -> list[int]:
        """``base`` plus this node's pairwise masks, component-wise.

        ``position`` is this node's roster position and ``peers`` the
        ``(peer, peer position)`` edges of its masking graph: the edge
        list form of :meth:`masked_ring`, which does the work.
        """
        nodes = list(map(_peer_of, peers))
        return self.masked_ring(
            position, list(map(_name_of, nodes)), nodes,
            list(map(_position_of, peers)), round_tag, base)

    def masked_ring(
        self,
        position: int,
        names: list[str],
        peers: list["AggregationNode"],
        peer_positions: Sequence[int],
        round_tag: str,
        base: list[int],
    ) -> list[int]:
        """:meth:`masked_vector` over parallel lists: each of ``peers``,
        named ``names[i]``, sits at roster position
        ``peer_positions[i]`` — the form a caller that already holds
        the names and positions (the fedquery gate) passes without
        building an edge list.

        The one sign convention: of the two ends of an edge, the lower
        position adds the shared mask and the higher subtracts it, so
        the masks of every pair that both contribute cancel in the
        aggregator's sum. One keyed derivation per fresh (pair, round)
        covers every component (width 1 for a sum, B for a B-bucket
        histogram).

        The asked rows are expanded ``len(base)`` wide from their seeds
        in one :func:`~repro.commons.kernels.expand_streams` pass; each
        component is then one
        :func:`~repro.commons.kernels.signed_accumulate` over it.
        """
        width = len(base)
        elements = kernels.expand_streams(
            self._filled(round_tag, names, peers), width)
        plus, minus = [], []
        for row, at in enumerate(peer_positions):
            (plus if position < at else minus).append(row * width)
        return [
            kernels.signed_accumulate(
                value,
                [elements[start + component] for start in plus],
                [elements[start + component] for start in minus])
            for component, value in enumerate(base)
        ]

    def unmasking_vector(
        self,
        position: int,
        peers: list[tuple["AggregationNode", int]],
        round_tag: str,
        missing: set[str],
        width: int,
    ) -> list[int]:
        """The net term that repairs this node's edges to ``missing`` peers.

        The negation of the masks this node applied against them: the
        aggregator *adds* it to its running total, and summed over all
        survivors it cancels exactly the masks applied against peers
        that never contributed. Revealing it protects nothing — the
        missing sent no values — and the cached round keystream answers
        it with zero fresh derivations.
        """
        applied = self.masked_vector(
            position, [entry for entry in peers if entry[0].name in missing],
            round_tag, [0] * width,
        )
        return kernels.accumulate_columns([0] * width, [], [applied])

    def pairwise_mask(self, peer: "AggregationNode", round_tag: str,
                      component: int = 0) -> int:
        """The shared mask between this node and ``peer`` for a round."""
        return self.mask_elements(peer, round_tag, component + 1)[component]

    def flush_masks(self, round_tag: str | None = None) -> None:
        """Drop cached round masks (all rounds, or one round's)."""
        if round_tag is None:
            self._mask_cache.clear()
        else:
            self._mask_cache.pop(round_tag, None)


@dataclass
class AggregationResult:
    """Outcome and cost accounting of one aggregation round."""

    total: int
    participants: int
    dropped: int
    messages: int
    bytes: int
    rounds: int
    protocol: str
    # What the untrusted aggregator saw: one entry per published
    # message — an int for scalar protocols, a vector (list of ints)
    # for masked histograms.
    aggregator_view: list = field(default_factory=list)

    @property
    def mean(self) -> float:
        contributing = self.participants - self.dropped
        if contributing == 0:
            raise ProtocolError("no contributions to average")
        return shamir.decode_signed(self.total) / contributing


class CleartextSum:
    """Baseline: the aggregator sees every individual value."""

    name = "cleartext"

    def run(
        self,
        nodes: list[AggregationNode],
        values: dict[str, int],
        online: set[str] | None = None,
        round_tag: str = "round-0",
    ) -> AggregationResult:
        online = online if online is not None else {node.name for node in nodes}
        submissions = [
            shamir.encode_signed(values[node.name])
            for node in nodes
            if node.name in online
        ]
        # Every submission is already reduced mod PRIME, so the running
        # sum stays in the field.
        total = sum(submissions) % shamir.PRIME
        result = AggregationResult(
            total=total,
            participants=len(nodes),
            dropped=len(nodes) - len(submissions),
            messages=len(submissions),
            bytes=len(submissions) * _FIELD_ELEMENT_BYTES,
            rounds=1,
            protocol=self.name,
            aggregator_view=submissions,  # full leakage, by construction
        )
        _record_round(result)
        return result


def _masked_rounds(
    nodes: list[AggregationNode],
    base_of: Callable[[str], list[int]],
    width: int,
    online: set[str] | None,
    round_tag: str,
    neighbors: int | None,
    protocol: str,
) -> tuple[list[int], AggregationResult]:
    """The two-round masked protocol at any width, under one span.

    ``base_of(name)`` is a survivor's unmasked ``width``-vector — width
    1 for a sum, B for a B-bucket histogram. Returns the unmasked
    column sums and the round's accounting, ``aggregator_view`` holding
    the vectors as published; the caller fills in ``total``.
    """
    with _OBS.tracer.span(
        "agg.round", protocol=protocol, n=len(nodes), buckets=width,
        round_tag=round_tag,
    ) as span:
        degree = _effective_degree(len(nodes), neighbors)
        dropped = set() if online is None else {
            node.name for node in nodes if node.name not in online
        }
        survivors = [
            (position, node, _positioned_peers(nodes, position, degree))
            for position, node in enumerate(nodes) if node.name not in dropped
        ]
        # Round 1: every survivor publishes its masked vector. A cell
        # does not yet know who else is online, so it masks against
        # *all* its graph neighbors — dropped edges are repaired in
        # round 2.
        published = [
            node.masked_vector(position, peers, round_tag, base_of(node.name))
            for position, node, peers in survivors
        ]
        sums = kernels.accumulate_columns([0] * width, published, [])
        messages = len(published)
        # Round 2 (only if needed): each survivor reveals the masks it
        # shares with dropped *graph neighbors* — one message per
        # (survivor, dropped) edge, answered from the cached round
        # keystream without re-deriving anything.
        if dropped:
            with _OBS.tracer.span("agg.recovery", dropped=len(dropped)):
                reveals = []
                for position, node, peers in survivors:
                    reveals.append(node.unmasking_vector(
                        position, peers, round_tag, dropped, width
                    ))
                    messages += sum(peer.name in dropped for peer, _ in peers)
                sums = kernels.accumulate_columns(sums, reveals, [])
        span.annotate(dropped=len(dropped), messages=messages)
    result = AggregationResult(
        total=0,
        participants=len(nodes),
        dropped=len(dropped),
        messages=messages,
        bytes=messages * width * _FIELD_ELEMENT_BYTES,
        rounds=2 if dropped else 1,
        protocol=protocol,
        aggregator_view=published,
    )
    _record_round(result)
    return sums, result


class MaskedSum:
    """Pairwise-masked aggregation with dropout recovery.

    ``neighbors=k`` (even, >= 2) switches from the complete masking
    graph to the k-regular ring graph: each cell masks only against its
    k ring-neighbors, so a round costs O(N·k) derivations instead of
    O(N²). A degree of ``None`` (the default) or ``k >= N-1`` is the
    complete graph.
    """

    name = "masked"

    def __init__(self, neighbors: int | None = None) -> None:
        if neighbors is not None and (neighbors < 2 or neighbors % 2):
            raise ConfigurationError(
                f"masking degree must be an even integer >= 2, got {neighbors}"
            )
        self.neighbors = neighbors

    @property
    def name_with_params(self) -> str:
        if self.neighbors is None:
            return self.name
        return f"masked(k={self.neighbors})"

    def run(
        self,
        nodes: list[AggregationNode],
        values: dict[str, int],
        online: set[str] | None = None,
        round_tag: str = "round-0",
    ) -> AggregationResult:
        if len(nodes) < 2:
            raise ConfigurationError("masked sum needs at least two nodes")
        if online is not None and not any(
                node.name in online for node in nodes):
            raise ProtocolError("all participants dropped out")
        sums, result = _masked_rounds(
            nodes, lambda name: [shamir.encode_signed(values[name])], 1,
            online, round_tag, self.neighbors, self.name_with_params,
        )
        result.total = sums[0]
        result.aggregator_view = [vector[0] for vector in result.aggregator_view]
        return result


class ShamirSum:
    """Committee-based aggregation over Shamir shares."""

    name = "shamir"

    def __init__(self, committee_size: int = 5, threshold: int = 3,
                 rng: random.Random | None = None) -> None:
        if threshold > committee_size:
            raise ConfigurationError("threshold cannot exceed committee size")
        self.committee_size = committee_size
        self.threshold = threshold
        self._rng = rng or random.Random(0)

    @property
    def name_with_params(self) -> str:
        return f"shamir({self.threshold}/{self.committee_size})"

    def run(
        self,
        nodes: list[AggregationNode],
        values: dict[str, int],
        online: set[str] | None = None,
        round_tag: str = "round-0",
        committee_online: set[int] | None = None,
    ) -> AggregationResult:
        with _OBS.tracer.span(
            "agg.round", protocol=self.name_with_params, n=len(nodes),
            round_tag=round_tag,
        ) as span:
            result = self._run(nodes, values, online, committee_online)
            span.annotate(dropped=result.dropped, messages=result.messages)
        _record_round(result)
        return result

    def _run(
        self,
        nodes: list[AggregationNode],
        values: dict[str, int],
        online: set[str] | None,
        committee_online: set[int] | None,
    ) -> AggregationResult:
        if len(nodes) < 1:
            raise ConfigurationError("need at least one node")
        online = online if online is not None else {node.name for node in nodes}
        survivors = [node for node in nodes if node.name in online]
        messages = 0
        total_bytes = 0

        # Round 1: each contributor sends one share to each committee member.
        partials = [0] * self.committee_size
        for node in survivors:
            shares = shamir.split_secret(
                shamir.encode_signed(values[node.name]),
                shares=self.committee_size,
                threshold=self.threshold,
                rng=self._rng,
            )
            for position, share in enumerate(shares):
                partials[position] = (partials[position] + share.y) % shamir.PRIME
                messages += 1
                total_bytes += _FIELD_ELEMENT_BYTES

        # Round 2: surviving committee members publish partial sums.
        committee_online = (
            committee_online
            if committee_online is not None
            else set(range(self.committee_size))
        )
        published = [
            shamir.Share(x=position + 1, y=partials[position])
            for position in range(self.committee_size)
            if position in committee_online
        ]
        messages += len(published)
        total_bytes += len(published) * _FIELD_ELEMENT_BYTES
        if len(published) < self.threshold:
            raise ProtocolError(
                f"only {len(published)} committee partials; "
                f"threshold is {self.threshold}"
            )
        total = shamir.reconstruct_secret(published[: self.threshold])
        return AggregationResult(
            total=total,
            participants=len(nodes),
            dropped=len(nodes) - len(survivors),
            messages=messages,
            bytes=total_bytes,
            rounds=2,
            protocol=self.name_with_params,
            aggregator_view=[share.y for share in published],
        )


def masked_histogram(
    nodes: list[AggregationNode],
    bucket_of: dict[str, int],
    bucket_count: int,
    online: set[str] | None = None,
    round_tag: str = "hist-0",
    neighbors: int | None = None,
) -> tuple[list[int], AggregationResult]:
    """Privacy-preserving histogram via per-component masked sums.

    ``bucket_of[name]`` is each node's bucket index; the aggregator
    learns only the per-bucket totals. One keyed derivation per (pair,
    round) covers all ``bucket_count`` components (keystream
    expansion); ``neighbors=k`` masks over the k-regular ring graph
    instead of the complete graph. Returns ``(counts, accounting)``.
    """
    if bucket_count < 1:
        raise ConfigurationError("need at least one bucket")

    def one_hot(name: str) -> list[int]:
        if not 0 <= bucket_of[name] < bucket_count:
            raise ConfigurationError(
                f"bucket {bucket_of[name]} out of range for {name!r}"
            )
        base = [0] * bucket_count
        base[bucket_of[name]] = 1
        return base

    degree = _effective_degree(len(nodes), neighbors)
    sums, accounting = _masked_rounds(
        nodes, one_hot, bucket_count, online, round_tag, neighbors,
        "masked-histogram" if degree is None
        else f"masked-histogram(k={degree})",
    )
    counts = [shamir.decode_signed(component) for component in sums]
    accounting.total = sum(counts)
    return counts, accounting
