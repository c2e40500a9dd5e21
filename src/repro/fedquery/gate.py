"""The egress privacy gate: the last thing a cell does before the wire.

Nothing leaves a cell in the clear. The gate turns a local query result
into the only three shapes the untrusted coordinator is allowed to see:

* a **masked field element** — the cell's (optionally noised, scaled)
  numeric contribution plus the pairwise masks of the k-regular SecAgg
  graph (:mod:`repro.commons.aggregation` machinery, same keystreams,
  same sign convention, so the coordinator's sum is bit-for-bit the
  legacy :class:`~repro.commons.aggregation.MaskedSum` total);
* a **net recovery mask** — what a survivor reveals so the edges it
  shares with cells that never contributed cancel out of the total;
* a **sealed record batch** — AEAD ciphertext under a key derived for
  the *recipient*, which the coordinator forwards but cannot open.

The gate also owns the **minimum-cohort floor**: a cell refuses to
contribute at all when the plan's roster is smaller than the spec's
``min_cohort`` (a tiny roster would let the recipient subtract its way
to an individual value).
"""

from __future__ import annotations

import json
import random
from collections.abc import Sequence
from typing import Any

from ..commons.aggregation import (
    AggregationNode,
    _effective_degree,
    _masking_peers,
)
from ..commons.dp import gamma_noise_share, laplace_scale
from ..crypto import aead, shamir
from ..crypto.primitives import KEY_SIZE, sha256
from ..errors import IntegrityError, ProtocolError
from .spec import FedQuerySpec

Directory = dict[str, AggregationNode]


def cohort_allows(spec: FedQuerySpec, roster_size: int) -> bool:
    """Whether a roster is large enough for this spec's privacy floor."""
    return roster_size >= spec.min_cohort


def dp_noise_share(rng: random.Random, participants: int,
                   epsilon: float) -> float:
    """This cell's additive share of the distributed Laplace noise.

    Calibrated for ``participants`` cells (the shipped roster size —
    every cell sees the same roster, so the shares sum to one exact
    Laplace draw when everyone contributes; dropouts leave the total
    slightly under-dispersed, quantified in E10).
    """
    return gamma_noise_share(
        rng, participants=participants, scale=laplace_scale(1.0, epsilon)
    )


def _roster_nodes(directory: Directory, roster: Sequence[str]) -> list[AggregationNode]:
    nodes = []
    for name in roster:
        node = directory.get(name)
        if node is None:
            raise ProtocolError(f"no key material for roster member {name!r}")
        nodes.append(node)
    return nodes


def _ring_peers(
    node: AggregationNode,
    directory: Directory,
    roster: Sequence[str],
    neighbors: int | None,
    positions: dict[str, int] | None,
    size: int | None,
) -> tuple[int, list[str], list[AggregationNode], tuple[int, ...]]:
    """A cell's roster position and its masking graph's peers — their
    names, nodes and positions, aligned — the one roster→peer
    resolution.

    The hierarchical path ships each cell only a *window* of the
    global roster — its k ring-neighbors plus itself — with their
    global ``positions`` and the global roster ``size``; a flat roster
    is the same case with every position on board. Masks and signs
    computed from those positions are identical either way, so shard
    partial sums compose to the flat global total. The ring's
    positions are the node's remembered ring
    (:meth:`~repro.commons.aggregation.AggregationNode.masking_ring`);
    its names and key material are read from this call's roster and
    directory.
    """
    if positions is not None and size is None:
        raise ProtocolError("windowed masking needs the global size")
    try:
        if positions is None:
            name_at, size = roster, len(roster)
            position = roster.index(node.name)
        else:
            position = positions[node.name]
            name_at = dict(zip(positions.values(), positions))
    except (ValueError, KeyError):
        raise ProtocolError(
            f"cell {node.name!r} is not on the roster"
        ) from None
    degree = _effective_degree(size, neighbors)
    if degree is None and positions is not None:
        raise ProtocolError(
            "windowed masking needs a k-regular graph (neighbors < size-1)"
        )
    ring = node.masking_ring(position, size, degree)
    try:
        # Only the names the cell masks against are looked up.
        names = [name_at[at] for at in ring]
    except KeyError as missing:
        raise ProtocolError(
            f"no roster window entry for ring position {missing.args[0]}"
        ) from None
    peers = list(map(directory.get, names))
    if not all(peers):
        peers = [peer or _stub_peer(node, directory, name)
                 for peer, name in zip(peers, names)]
    return position, names, peers, ring


def _stub_peer(node: AggregationNode, directory: Directory,
               name: str) -> AggregationNode:
    """Key material for a ring peer absent from ``directory``.

    Preshared fleets can synthesize it for any name, so a peer absent
    from this cell's (possibly shard-local) directory still resolves;
    the stub is cached there for later rounds. Directory-issued nodes
    cannot (and must not — a missing name means no agreed edge).
    """
    if node._preshared is None:
        raise ProtocolError(f"no key material for roster member {name!r}")
    peer = directory[name] = AggregationNode.preshared(name, node._preshared)
    return peer


def masked_contribution(
    node: AggregationNode,
    directory: Directory,
    roster: Sequence[str],
    round_tag: str,
    value: int,
    neighbors: int | None = None,
    *,
    positions: dict[str, int] | None = None,
    size: int | None = None,
) -> int:
    """``encode_signed(value)`` plus this cell's pairwise masks.

    Signs follow roster position exactly as :class:`MaskedSum` follows
    node-list position — both call the one mask core,
    :meth:`AggregationNode.masked_ring` — so the masks of every
    online pair cancel in the coordinator's sum. A roster of one has
    no peers: the "mask" is just the field encoding.

    With ``positions``/``size`` the cell masks from a roster *window*
    (see :func:`_ring_peers`), bit-for-bit what the flat path computes
    over the full roster. The per-element scalar loop survives as
    :func:`masked_contribution_reference`.
    """
    position, names, peers, ring = _ring_peers(
        node, directory, roster, neighbors, positions, size
    )
    return node.masked_ring(
        position, names, peers, ring, round_tag,
        [shamir.encode_signed(value)],
    )[0]


def masked_contribution_reference(
    node: AggregationNode,
    directory: Directory,
    roster: Sequence[str],
    round_tag: str,
    value: int,
    neighbors: int | None = None,
) -> int:
    """Scalar reference for :func:`masked_contribution` (flat rosters).

    The historical per-element loop, kept as the oracle the batch
    kernels are pinned against in ``tests/test_kernels.py``.
    """
    order = {name: position for position, name in enumerate(roster)}
    if node.name not in order:
        raise ProtocolError(f"cell {node.name!r} is not on the roster")
    nodes = _roster_nodes(directory, roster)
    position = order[node.name]
    degree = _effective_degree(len(roster), neighbors)
    masked = shamir.encode_signed(value)
    for peer in _masking_peers(nodes, position, degree):
        mask = node.pairwise_mask(peer, round_tag)
        if position < order[peer.name]:
            masked = (masked + mask) % shamir.PRIME
        else:
            masked = (masked - mask) % shamir.PRIME
    return masked


def net_recovery_mask(
    node: AggregationNode,
    directory: Directory,
    roster: Sequence[str],
    round_tag: str,
    missing: list[str],
    neighbors: int | None = None,
    *,
    positions: dict[str, int] | None = None,
    size: int | None = None,
) -> int:
    """The survivor's net unmasking term for a set of missing cells.

    The coordinator adds this (mod PRIME) to its running total; see
    :meth:`AggregationNode.unmasking_vector`. Accepts the same
    ``positions``/``size`` window form as :func:`masked_contribution`.
    """
    position, _, peers, ring = _ring_peers(
        node, directory, roster, neighbors, positions, size
    )
    return node.unmasking_vector(
        position, list(zip(peers, ring)), round_tag, set(missing), 1
    )[0]


def net_recovery_mask_reference(
    node: AggregationNode,
    directory: Directory,
    roster: Sequence[str],
    round_tag: str,
    missing: list[str],
    neighbors: int | None = None,
) -> int:
    """Scalar reference for :func:`net_recovery_mask` (flat rosters)."""
    order = {name: position for position, name in enumerate(roster)}
    nodes = _roster_nodes(directory, roster)
    position = order[node.name]
    degree = _effective_degree(len(roster), neighbors)
    missing_set = set(missing)
    net = 0
    for peer in _masking_peers(nodes, position, degree):
        if peer.name not in missing_set:
            continue
        mask = node.pairwise_mask(peer, round_tag)
        if position < order[peer.name]:
            net = (net - mask) % shamir.PRIME
        else:
            net = (net + mask) % shamir.PRIME
    return net


# -- sealed record egress ----------------------------------------------------


def recipient_key(recipient: str, fleet_secret: bytes) -> bytes:
    """The AEAD key a fleet's cells share with one *recipient*.

    Derived from the fleet's group secret and the recipient name, so
    the coordinator (which holds neither) can forward sealed batches
    but never open them. Stands in for a per-recipient key agreement —
    the fleets here already share a group secret for masking keys.
    """
    return sha256(b"fq-recipient|" + fleet_secret + b"|" + recipient.encode())[
        :KEY_SIZE
    ]


def seal_records(key: bytes, rows: list[dict[str, Any]], tag: str,
                 sender: str) -> str:
    """Seal a record batch for the recipient; returns hex for the wire.

    The header binds the batch to this query and sender, so a
    coordinator cannot splice one query's records into another's
    release without failing authentication.
    """
    header = f"fq|{tag}|{sender}".encode()
    blob = aead.seal(
        key,
        json.dumps(rows, sort_keys=True).encode(),
        header=header,
        nonce_seed=header,
    )
    return blob.to_bytes().hex()


def open_records(key: bytes, blob_hex: str) -> list[dict[str, Any]]:
    """Recipient-side: verify and decrypt one cell's sealed batch.

    The hex is relayed by the untrusted coordinator, so a blob that is
    not hex at all raises :class:`IntegrityError`, as a truncated or
    forged one does: evidence of tampering, not a malformed request.
    """
    try:
        raw = bytes.fromhex(blob_hex)
    except (TypeError, ValueError) as exc:
        raise IntegrityError("sealed record batch is not hex") from exc
    blob = aead.SealedBlob.from_bytes(raw)
    return json.loads(aead.open_sealed(key, blob).decode())
