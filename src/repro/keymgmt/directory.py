"""The key directory: ring-edge agreement, epochs, membership.

Replaces the :meth:`AggregationNode.preshared` stopgap (one hashed
group secret = one fleet-wide class break) with per-edge agreed keys
and a lifecycle:

* **Agreement** runs only along the O(N·k) masking-ring edges the
  SecAgg graph actually uses — never the N² pairs. Each edge does one
  X3DH agreement over the cells' published prekey bundles
  (:mod:`repro.keymgmt.prekeys`), so a sleeping responder can be
  agreed-with asynchronously and completes its side when it wakes.
* **Epochs** ratchet every edge secret through a one-way chain:
  ``chain_0 = HKDF(SK, "km-chain|e")``, ``chain_{n+1} =
  SHA256("km-ratchet|" || chain_n)``, and the epoch's mask key is
  ``HKDF(chain, "km-mask")``. A leaked *mask key* unmasks nothing in
  any other epoch (it is one derivation off the chain); a leaked
  *chain* additionally exposes later epochs of that one edge but never
  earlier ones. Either way a compromise is contained by epoch and by
  edge — the E7/E11 class-break containment story, per epoch.
* **Membership** (join / leave / revoke) bumps the epoch and re-agrees
  the ring around the change, so a removed member's keys are excluded
  from every future epoch and a joiner cannot unmask past ones. A
  *revoked* name is additionally banned from re-enrolling.

The directory is trusted-cell-side infrastructure: in the paper's
model it runs inside secure hardware (the TDS "key server" of
arXiv:1509.03646), which is why it may hold member rings in the
in-process simulation. The untrusted-network half of the lifecycle —
rotation notices, acks, retry under churn — lives in
:mod:`repro.keymgmt.service`.

``agreement="hashed"`` keeps the directory's epoch/revocation
machinery but derives edge secrets from a group secret instead of
X3DH — the honest migration target for benches whose cost tables
would otherwise be dominated by modexp (e.g. E9c's complete-graph
sweeps), with the same lifecycle semantics.
"""

from __future__ import annotations

import random

from ..commons.aggregation import (
    AggregationNode,
    _effective_degree,
    _masking_positions,
)
from ..crypto.keys import KeyRing, generate_exchange_keypair
from ..crypto.primitives import hkdf, sha256
from ..errors import ConfigurationError, ProtocolError
from ..obs import get_default as _obs_default
from .prekeys import PrekeyBundle

_OBS = _obs_default()
_ENROLLMENTS = _OBS.metrics.counter(
    "keymgmt.enrollments", help="members enrolled in a key directory")
_AGREEMENTS = _OBS.metrics.counter(
    "keymgmt.agreements", help="ring-edge key agreements completed",
    labelnames=("mode",))
_ASYNC_COMPLETIONS = _OBS.metrics.counter(
    "keymgmt.async_completions",
    help="agreements completed by a responder after it came online")
_ROTATIONS = _OBS.metrics.counter(
    "keymgmt.rotations", help="epoch advances")
_REVOCATIONS = _OBS.metrics.counter(
    "keymgmt.revocations", help="members revoked")
_KEYS_ISSUED = _OBS.metrics.counter(
    "keymgmt.keys_issued", help="per-edge epoch mask keys issued to nodes")

AGREEMENT_X3DH = "x3dh"
AGREEMENT_HASHED = "hashed"


class EpochNode(AggregationNode):
    """An aggregation node masking from directory-issued epoch keys.

    Key material is a frozen snapshot: the per-ring-neighbor mask keys
    of one epoch. The directory issues a *fresh* node per epoch —
    reusing an old node after a rotation would serve stale masks out of
    its per-round cache.
    """

    def __init__(self, name: str, epoch: int,
                 epoch_keys: dict[str, bytes]) -> None:
        super().__init__(name, None)
        self.epoch = epoch
        self._epoch_keys = epoch_keys

    def _pairwise_key_for(self, peer: AggregationNode) -> bytes:
        key = self._epoch_keys.get(peer.name)
        if key is None:
            raise ProtocolError(
                f"cell {self.name!r} holds no epoch-{self.epoch} key for "
                f"{peer.name!r} (not a ring neighbor, or revoked)"
            )
        return key


class _Member:
    __slots__ = ("name", "ring", "bundle", "online", "chains")

    def __init__(self, name: str, ring: KeyRing | None,
                 bundle: PrekeyBundle | None) -> None:
        self.name = name
        self.ring = ring
        self.bundle = bundle
        self.online = True
        # peer name -> 32-byte edge chain, ratcheted to the current epoch.
        self.chains: dict[str, bytes] = {}


class KeyDirectory:
    """Key lifecycle authority for one fleet's masking ring."""

    def __init__(self, *, rng: random.Random, neighbors: int | None = 32,
                 agreement: str = AGREEMENT_X3DH,
                 group_secret: bytes | None = None) -> None:
        if agreement not in (AGREEMENT_X3DH, AGREEMENT_HASHED):
            raise ConfigurationError(f"unknown agreement mode {agreement!r}")
        if agreement == AGREEMENT_HASHED and group_secret is None:
            raise ConfigurationError(
                "hashed agreement needs an explicit group secret")
        if agreement == AGREEMENT_X3DH and group_secret is not None:
            raise ConfigurationError(
                "x3dh agreement takes no group secret")
        self.neighbors = neighbors
        self.agreement = agreement
        self._group_secret = group_secret
        self._rng = rng
        self.epoch = 0
        #: Bumped on every membership change and epoch advance; rotation
        #: notices carry it.
        self.generation = 0
        self.active = False
        self.revoked: set[str] = set()
        self._members: dict[str, _Member] = {}
        # (responder, initiator) -> (ephemeral public, epoch at agreement):
        # initiator-side agreements waiting for the responder to wake up.
        self._pending: dict[tuple[str, str], tuple[int, int]] = {}

    # -- roster ------------------------------------------------------------

    def roster(self) -> list[str]:
        """Active members, in enrollment order (the masking-ring order)."""
        return list(self._members)

    def is_online(self, name: str) -> bool:
        return self._member(name).online

    def pending_peers(self, name: str) -> list[str]:
        """Ring neighbors this member holds no completed chain for yet."""
        member = self._member(name)
        return [peer for peer in self._ring_peers(name)
                if peer not in member.chains]

    def _member(self, name: str) -> _Member:
        member = self._members.get(name)
        if member is None:
            if name in self.revoked:
                raise ProtocolError(f"member {name!r} is revoked")
            raise ProtocolError(f"unknown member {name!r}")
        return member

    def _positions(self) -> dict[str, int]:
        return {name: position for position, name in enumerate(self._members)}

    def _ring_peers(self, name: str,
                    names: list[str] | None = None,
                    positions: dict[str, int] | None = None) -> list[str]:
        """The names this member's masking edges touch, roster order.

        ``names``/``positions`` let bulk callers (``issue_all``) pay
        the roster walk once instead of per member.
        """
        if names is None:
            names = self.roster()
        degree = _effective_degree(len(names), self.neighbors)
        position = (positions[name] if positions is not None
                    else names.index(name))
        return [names[at]
                for at in _masking_positions(position, len(names), degree)]

    def edges(self) -> list[tuple[str, str]]:
        """Current ring edges as (lower-position, higher-position) names."""
        names = self.roster()
        degree = _effective_degree(len(names), self.neighbors)
        return [
            (name, names[at])
            for position, name in enumerate(names)
            for at in _masking_positions(position, len(names), degree)
            if position < at
        ]

    # -- membership events -------------------------------------------------

    def enroll(self, name: str, ring: KeyRing | None = None, *,
               online: bool = True) -> None:
        """Admit a member. Requires a key ring (and publishes its prekey
        bundle) in x3dh mode; hashed mode admits bare names.

        Before :meth:`activate`, enrollments batch — no agreement runs
        until the fleet is activated at epoch 0. After activation a
        join is a fleet event: the ring is re-agreed around the joiner
        and the epoch advances, so the joiner cannot unmask any round
        that predates it.
        """
        if name in self.revoked:
            raise ProtocolError(
                f"member {name!r} was revoked and cannot re-enroll")
        if name in self._members:
            raise ProtocolError(f"member {name!r} already enrolled")
        bundle = None
        if self.agreement == AGREEMENT_X3DH:
            if ring is None:
                raise ConfigurationError(
                    "x3dh agreement needs each member's key ring")
            bundle = PrekeyBundle.publish(name, ring)
            bundle.require_valid()
        member = _Member(name, ring, bundle)
        member.online = online
        self._members[name] = member
        self.generation += 1
        _ENROLLMENTS.inc()
        _OBS.events.emit("keymgmt.enroll", name=name, epoch=self.epoch,
                         active=self.active)
        if self.active:
            self._advance(reason="join")

    def activate(self) -> None:
        """Finish batch enrollment: agree every ring edge at epoch 0."""
        if self.active:
            raise ProtocolError("directory already activated")
        if len(self._members) < 2:
            raise ConfigurationError("a masking ring needs >= 2 members")
        self.active = True
        self.generation += 1
        with _OBS.tracer.span("keymgmt.activate",
                              members=len(self._members)):
            self._agree_missing_edges()

    def leave(self, name: str) -> None:
        """Voluntary departure: excluded from future epochs, may rejoin."""
        self._remove(name, reason="leave")

    def revoke(self, name: str) -> None:
        """Eject a member and ban the name from every future epoch."""
        self._remove(name, reason="revoke")
        self.revoked.add(name)
        _REVOCATIONS.inc()

    def _remove(self, name: str, reason: str) -> None:
        self._member(name)  # raises for unknown/revoked names
        del self._members[name]
        for member in self._members.values():
            member.chains.pop(name, None)
        for edge in [e for e in self._pending if name in e]:
            del self._pending[edge]
        self.generation += 1
        _OBS.events.emit("keymgmt.remove", name=name, reason=reason,
                         epoch=self.epoch)
        if self.active:
            self._advance(reason=reason)

    def set_online(self, name: str, online: bool) -> None:
        """Directory-visible presence; waking completes pending edges."""
        member = self._member(name)
        member.online = online
        if online and self.active:
            self._complete_pending(name)
            self._agree_missing_edges()

    # -- epochs ------------------------------------------------------------

    def advance_epoch(self) -> int:
        """Ratchet every edge chain one epoch forward; returns the new
        epoch. Old mask keys cannot be re-derived from the new chains
        (the ratchet is one-way), and nodes issued earlier keep masking
        at their own epoch — callers swap in freshly issued nodes."""
        if not self.active:
            raise ProtocolError("activate the directory before rotating")
        return self._advance(reason="rotate")

    def _advance(self, reason: str) -> int:
        self.epoch += 1
        self.generation += 1
        with _OBS.tracer.span("keymgmt.rotate", epoch=self.epoch,
                              reason=reason):
            for member in self._members.values():
                for peer, chain in member.chains.items():
                    # Each endpoint ratchets its own copy (as real cells
                    # would); the chains stay equal by construction.
                    member.chains[peer] = sha256(b"km-ratchet|" + chain)
            self._agree_missing_edges()
        _ROTATIONS.inc()
        _OBS.events.emit("keymgmt.epoch", epoch=self.epoch, reason=reason,
                         members=len(self._members))
        return self.epoch

    # -- agreement ---------------------------------------------------------

    def _agree_missing_edges(self) -> None:
        for low, high in self.edges():
            if high in self._members[low].chains:
                continue
            if (low, high) in self._pending or (high, low) in self._pending:
                continue
            self._agree_edge(low, high)

    def _agree_edge(self, a: str, b: str) -> None:
        if self.agreement == AGREEMENT_HASHED:
            low, high = sorted((a, b))
            secret = sha256(
                b"km-edge|" + self._group_secret
                + low.encode() + b"|" + high.encode()
            )[:16]
            chain = hkdf(secret, f"km-chain|{self.epoch}", 32)
            self._members[a].chains[b] = chain
            self._members[b].chains[a] = chain
            _AGREEMENTS.labels(mode=self.agreement).inc()
            return
        member_a, member_b = self._members[a], self._members[b]
        if member_a.online:
            initiator, responder = member_a, member_b
        elif member_b.online:
            initiator, responder = member_b, member_a
        else:
            # Both asleep: nothing can initiate; retried on wake-up.
            _OBS.events.emit("keymgmt.agree.deferred", edge=[a, b],
                             epoch=self.epoch)
            return
        eph_secret, eph_public = generate_exchange_keypair(self._rng)
        secret = initiator.ring.x3dh_initiate(
            responder.bundle.identity_public,
            responder.bundle.signed_prekey_public,
            eph_secret,
        )
        chain = hkdf(secret, f"km-chain|{self.epoch}", 32)
        initiator.chains[responder.name] = chain
        if responder.online:
            self._respond(responder, initiator, eph_public, self.epoch)
        else:
            self._pending[(responder.name, initiator.name)] = (
                eph_public, self.epoch)
        _AGREEMENTS.labels(mode=self.agreement).inc()

    def _respond(self, responder: _Member, initiator: _Member,
                 eph_public: int, agreed_epoch: int) -> None:
        secret = responder.ring.x3dh_respond(
            initiator.bundle.identity_public, eph_public)
        chain = hkdf(secret, f"km-chain|{agreed_epoch}", 32)
        for _ in range(self.epoch - agreed_epoch):
            chain = sha256(b"km-ratchet|" + chain)
        responder.chains[initiator.name] = chain

    def _complete_pending(self, name: str) -> None:
        ready = [edge for edge in self._pending if edge[0] == name]
        for edge in ready:
            eph_public, agreed_epoch = self._pending.pop(edge)
            initiator = self._members.get(edge[1])
            if initiator is None:
                continue  # initiator left/revoked while we slept
            self._respond(self._members[name], initiator, eph_public,
                          agreed_epoch)
            _ASYNC_COMPLETIONS.inc()

    # -- key issue ---------------------------------------------------------

    def issue_node(self, name: str) -> EpochNode:
        """A fresh masking node for the current epoch.

        Raises for revoked/unknown members and when any of the member's
        ring edges is still awaiting its asynchronous completion.
        """
        return self._issue(name, None, None)

    def _issue(self, name: str, names: list[str] | None,
               positions: dict[str, int] | None) -> EpochNode:
        member = self._member(name)
        if not self.active:
            raise ProtocolError("activate the directory before issuing keys")
        peers = self._ring_peers(name, names, positions)
        missing = [peer for peer in peers if peer not in member.chains]
        if missing:
            raise ProtocolError(
                f"member {name!r} has un-agreed ring edges: {missing}")
        epoch_keys = {
            peer: hkdf(member.chains[peer], "km-mask") for peer in peers
        }
        _KEYS_ISSUED.inc(len(epoch_keys))
        return EpochNode(name, self.epoch, epoch_keys)

    def issue_all(self) -> dict[str, EpochNode]:
        """Fresh nodes for the whole active roster."""
        names = self.roster()
        positions = self._positions()
        return {name: self._issue(name, names, positions) for name in names}
