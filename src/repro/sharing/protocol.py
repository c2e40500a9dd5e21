"""The secure sharing protocol between trusted cells.

"Practically, sharing data means sharing the associated metadata (so
that the recipient user can get the referenced data in the Cloud), the
cryptographic keys (so that her trusted cell can decrypt them) and the
sticky policy (so that her trusted cell can enforce the expected access
control rules)."

Protocol (owner cell O sharing object X with recipient cell R):

1. **Attestation handshake** — O challenges R with a fresh nonce and
   verifies the quote against its trust registry: only a *genuine*
   trusted cell (one that will enforce sticky policies) may receive
   keys.
2. **Policy extension** — O re-seals X as a new version whose sticky
   policy includes the recipient's grant, and pushes it to the vault.
3. **Offer** — O wraps X's data key for R (under their pairwise DH
   key), bundles ``(object id, version, vault key, wrapped key)`` into
   a :class:`ShareOffer`, seals the whole offer under the pairwise key
   and posts it to R's cloud mailbox. The cloud sees only ciphertext —
   it does not even learn *which* object is being shared.
4. **Accept** — R drains its mailbox, opens each offer, imports the
   wrapped key into its TEE, anchors the stated version (anti-
   rollback), and fetches + verifies the envelope from O's vault.

From then on R's *local* reference monitor enforces the sticky policy
for R's users: the grant, its conditions, obligations and use budget.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from ..core.cell import Session, TrustedCell
from ..crypto.aead import SealedBlob, open_sealed, seal
from ..errors import AccessDenied, CredentialError, ProtocolError
from ..infrastructure.cloud import CloudProvider
from ..policy.ucon import RIGHT_SHARE, Grant, UsagePolicy
from ..sync.vault import VaultClient


@dataclass(frozen=True)
class ShareOffer:
    """The sealed unit posted to the recipient's mailbox."""

    object_id: str
    version: int
    vault_key: str
    owner_cell: str
    wrapped_key: SealedBlob
    kind: str
    keywords: str

    def to_bytes(self) -> bytes:
        body = {
            "object_id": self.object_id,
            "version": self.version,
            "vault_key": self.vault_key,
            "owner_cell": self.owner_cell,
            "wrapped_key": self.wrapped_key.to_bytes().hex(),
            "kind": self.kind,
            "keywords": self.keywords,
        }
        return json.dumps(body, sort_keys=True).encode()

    @classmethod
    def from_bytes(cls, data: bytes) -> "ShareOffer":
        try:
            body: dict[str, Any] = json.loads(data.decode())
            return cls(
                object_id=body["object_id"],
                version=body["version"],
                vault_key=body["vault_key"],
                owner_cell=body["owner_cell"],
                wrapped_key=SealedBlob.from_bytes(bytes.fromhex(body["wrapped_key"])),
                kind=body["kind"],
                keywords=body["keywords"],
            )
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise ProtocolError("malformed share offer") from exc


def _mailbox(cell_name: str) -> str:
    return f"inbox/{cell_name}"


class SharingPeer:
    """One cell's endpoint of the sharing protocol."""

    def __init__(self, cell: TrustedCell, cloud: CloudProvider) -> None:
        self.cell = cell
        self.cloud = cloud
        self.vault = VaultClient(cell, cloud)
        self.offers_sent = 0
        self.offers_accepted = 0

    # -- step 1: attestation handshake ---------------------------------------

    def verify_peer_is_genuine(self, peer: TrustedCell) -> None:
        """Challenge-response attestation before any key leaves the TEE."""
        nonce = self.cell.tee.keys.derive(f"nonce:{peer.name}:{self.cell.world.now}")
        quote = peer.attest(nonce)
        if not self.cell.registry.check_attestation(peer.name, quote, nonce):
            raise CredentialError(
                f"peer {peer.name!r} failed attestation; refusing to share"
            )

    # -- steps 2-3: share ------------------------------------------------------

    def share_object(
        self,
        session: Session,
        object_id: str,
        recipient_cell: TrustedCell,
        grant: Grant,
    ) -> ShareOffer:
        """Share an owned object with a recipient cell's users.

        ``grant`` names the recipient *users* (or required attributes)
        and the rights conferred; it is appended to the sticky policy.
        The session's subject must hold the ``share`` right.
        """
        self.verify_peer_is_genuine(recipient_cell)
        context = session.context()
        metadata = self.cell.object_metadata(object_id)
        envelope = self.cell.envelope_for(object_id)
        old_key = self.cell.tee.keys.key_for(object_id, metadata.version)
        payload, policy = envelope.open(old_key)
        decision = policy.evaluate(RIGHT_SHARE, context)
        if not decision.allowed:
            self.cell.audit.append(
                self.cell.world.now, context.subject, object_id, "share", False,
                reason=decision.reason,
            )
            raise AccessDenied(
                f"share of {object_id!r} denied for {context.subject!r}: "
                f"{decision.reason}"
            )
        extended = UsagePolicy(
            owner=policy.owner,
            grants=policy.grants + (grant,),
            conditions=policy.conditions,
            obligations=policy.obligations,
            max_uses=policy.max_uses,
        )
        new_metadata = self.cell.store_object(
            session,
            object_id,
            payload,
            policy=extended,
            kind=metadata.kind,
            keywords=metadata.keywords,
        )
        vault_key = self.vault.push(object_id)
        recipient_principal = recipient_cell.principal
        wrapped = self.cell.tee.keys.wrap_object_key(
            object_id, new_metadata.version, recipient_principal.exchange_public
        )
        offer = ShareOffer(
            object_id=object_id,
            version=new_metadata.version,
            vault_key=vault_key,
            owner_cell=self.cell.name,
            wrapped_key=wrapped,
            kind=metadata.kind,
            keywords=metadata.keywords,
        )
        pairwise = self.cell.tee.keys.pairwise_key(recipient_principal.exchange_public)
        sealed_offer = seal(
            pairwise,
            offer.to_bytes(),
            header=b"share-offer",
            nonce_seed=f"{object_id}:{new_metadata.version}:{recipient_cell.name}".encode(),
        )
        self.cloud.post_message(
            _mailbox(recipient_cell.name), self.cell.name, sealed_offer.to_bytes()
        )
        self.cell.audit.append(
            self.cell.world.now, context.subject, object_id, "share", True,
            reason=f"to {recipient_cell.name} v{new_metadata.version}",
        )
        self.offers_sent += 1
        return offer

    def revoke_grants(
        self, session: Session, object_id: str, subject: str
    ) -> int:
        """Remove every grant naming ``subject`` and re-seal a new version.

        Honest semantics (the fundamental limit of any DRM-like
        scheme): envelopes *already delivered* to a recipient cell keep
        working under their sticky policy — revocation cannot recall
        bits. What it does guarantee is that every **future** fetch
        from the vault yields the new policy: the new version is pushed
        and, thanks to version anchoring, a recipient that has seen the
        revocation offer (or any newer version) can no longer be served
        the stale envelope by the cloud. Returns the number of grants
        removed.
        """
        context = session.context()
        metadata = self.cell.object_metadata(object_id)
        envelope = self.cell.envelope_for(object_id)
        key = self.cell.tee.keys.key_for(object_id, metadata.version)
        payload, policy = envelope.open(key)
        if context.subject != policy.owner:
            self.cell.audit.append(
                self.cell.world.now, context.subject, object_id, "revoke",
                False, reason="only the owner revokes",
            )
            raise AccessDenied(
                f"only the owner may revoke grants on {object_id!r}"
            )
        kept = tuple(
            grant for grant in policy.grants if subject not in grant.subjects
        )
        removed = len(policy.grants) - len(kept)
        stripped = UsagePolicy(
            owner=policy.owner,
            grants=kept,
            conditions=policy.conditions,
            obligations=policy.obligations,
            max_uses=policy.max_uses,
        )
        self.cell.store_object(
            session, object_id, payload, policy=stripped,
            kind=metadata.kind, keywords=metadata.keywords,
        )
        self.vault.push(object_id)
        self.cell.audit.append(
            self.cell.world.now, context.subject, object_id, "revoke", True,
            reason=f"{removed} grant(s) for {subject}",
        )
        return removed

    # -- step 4: accept -----------------------------------------------------------

    def accept_shares(self) -> list[str]:
        """Drain the mailbox and import every valid offer.

        Returns the imported object ids. Malformed or undecryptable
        offers raise: silently dropping a share would hide an attack.
        """
        imported = []
        for sender, message in self.cloud.fetch_messages(_mailbox(self.cell.name)):
            sender_principal = self.cell.registry.principal(sender)
            pairwise = self.cell.tee.keys.pairwise_key(
                sender_principal.exchange_public
            )
            offer = ShareOffer.from_bytes(
                open_sealed(pairwise, SealedBlob.from_bytes(message))
            )
            if offer.owner_cell != sender:
                raise ProtocolError(
                    f"offer claims owner {offer.owner_cell!r} but came from "
                    f"{sender!r}"
                )
            self.cell.tee.keys.unwrap_object_key(
                offer.wrapped_key, sender_principal.exchange_public
            )
            self.vault.anchor_version(offer.object_id, offer.version)
            envelope = self.vault.verified_fetch(
                offer.object_id, owner_cell=offer.owner_cell
            )
            self.cell.import_envelope(
                envelope, kind=offer.kind, keywords=offer.keywords
            )
            self.cell.audit.append(
                self.cell.world.now, sender, offer.object_id, "accept-share", True
            )
            self.offers_accepted += 1
            imported.append(offer.object_id)
        return imported


def introduce_cells(*cells: TrustedCell) -> None:
    """Enroll every cell's principal in every other cell's registry.

    Stands in for the out-of-band introduction (QR code, manufacturer
    directory) that lets cells recognise each other as genuine.
    """
    for cell in cells:
        for other in cells:
            if other is not cell:
                cell.registry.enroll_principal(other.principal)
