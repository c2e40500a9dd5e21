"""Key hierarchy and key management for trusted cells.

Design goals taken directly from the paper:

* "Cryptographic keys never leave the trusted cells tamper-resistant
  memory" — the :class:`KeyRing` exposes *operations* (seal, unwrap,
  sign), and raw key bytes only leave it wrapped under another key.
* "a successful attack on a (small set of) trusted cells cannot
  degenerate in breaking class attack" — every cell has its own master
  secret, and every object has its own key derived from it, so a
  breached cell exposes only keys that cell legitimately held.
  (Experiment E7 ablates this by giving all cells the same master.)
* "master secrets must be restorable in case of crash/loss of a trusted
  cell" — the master secret can be escrowed as Shamir shares.

Key derivation tree::

    master_secret
      |-- "sign"                  -> Schnorr signing key seed
      |-- "exchange"              -> Diffie-Hellman exchange secret
      |-- "prekey"                -> signed-prekey secret (X3DH agreement)
      |-- "audit"                 -> audit-log MAC key
      |-- "object:<id>:<version>" -> per-object data key
"""

from __future__ import annotations

import random

from ..errors import ConfigurationError, KeyError_
from . import shamir
from .aead import SealedBlob, open_sealed, seal
from .primitives import KEY_SIZE, hkdf, sha256
from .signing import G, P, Q, SigningKey, VerifyKey

_GROUP_BYTES = (P.bit_length() + 7) // 8


def prekey_signing_bytes(signed_prekey_public: int) -> bytes:
    """The domain-tagged message a cell signs over its prekey element."""
    return b"x3dh-prekey|" + signed_prekey_public.to_bytes(_GROUP_BYTES, "big")


def generate_exchange_keypair(rng: random.Random) -> tuple[int, int]:
    """A fresh ephemeral DH pair ``(secret, public)`` for X3DH initiation."""
    secret = int.from_bytes(rng.randbytes(32), "big") % Q or 1
    return secret, pow(G, secret, P)


def _x3dh_key(dh1: int, dh2: int, dh3: int) -> bytes:
    """Fold the three X3DH shared elements into one symmetric key."""
    return sha256(
        b"x3dh|"
        + dh1.to_bytes(_GROUP_BYTES, "big")
        + dh2.to_bytes(_GROUP_BYTES, "big")
        + dh3.to_bytes(_GROUP_BYTES, "big")
    )[:KEY_SIZE]


def _require_group_element(value: int, what: str) -> None:
    if not 1 < value < P:
        raise ConfigurationError(f"{what} out of range")


class KeyRing:
    """All cryptographic secrets of one trusted cell.

    Instances are meant to live inside the cell's tamper-resistant
    memory (the hardware layer accounts for their footprint); no method
    returns the master secret or a derived private key in the clear.
    """

    def __init__(self, master_secret: bytes) -> None:
        if len(master_secret) != KEY_SIZE:
            raise ConfigurationError(
                f"master secret must be {KEY_SIZE} bytes, got {len(master_secret)}"
            )
        self._master = master_secret
        self._signing_key = SigningKey.from_seed(hkdf(master_secret, "sign"))
        exchange_seed = hkdf(master_secret, "exchange", 32)
        self._exchange_secret = int.from_bytes(exchange_seed, "big") % Q or 1
        # The signed-prekey secret is derived lazily on first use: most
        # rings never take part in X3DH agreement, and the derivation
        # counts against the keyed-derivation oracle.
        self._prekey_secret_cache: int | None = None
        # ``g^x`` is public; computed once, on first read, since every
        # fresh pairwise agreement reads the peer's.
        self._exchange_public_cache: int | None = None
        # Keys imported from other cells through the sharing protocol,
        # indexed by (object_id, version).
        self._imported: dict[tuple[str, int], bytes] = {}

    # -- identity ----------------------------------------------------------

    @classmethod
    def generate(cls, rng: random.Random) -> "KeyRing":
        """A fresh key ring with a random master secret."""
        return cls(rng.randbytes(KEY_SIZE))

    @property
    def verify_key(self) -> VerifyKey:
        """This cell's public signature-verification key."""
        return self._signing_key.public_key()

    @property
    def exchange_public(self) -> int:
        """This cell's public Diffie-Hellman element ``g^x``."""
        if self._exchange_public_cache is None:
            self._exchange_public_cache = pow(G, self._exchange_secret, P)
        return self._exchange_public_cache

    def fingerprint(self) -> bytes:
        """Stable public identifier of this key ring."""
        return self.verify_key.fingerprint()

    # -- signing -------------------------------------------------------------

    def sign(self, message: bytes):
        """Sign ``message`` with the cell's certification key."""
        return self._signing_key.sign(message)

    # -- derived symmetric keys ------------------------------------------

    def derive(self, purpose: str) -> bytes:
        """Derive a purpose-bound symmetric key.

        Exposed for internal platform layers (audit MACs, policy
        binding); applications should use the higher-level methods.
        """
        return hkdf(self._master, purpose)

    def object_key(self, object_id: str, version: int) -> bytes:
        """The data key for one version of one owned object."""
        return hkdf(self._master, f"object:{object_id}:{version}")

    # -- pairwise keys and key wrapping ------------------------------------

    def pairwise_key(self, peer_exchange_public: int) -> bytes:
        """Shared symmetric key with the peer holding the given DH element."""
        if not 1 < peer_exchange_public < P:
            raise ConfigurationError("peer exchange element out of range")
        shared = pow(peer_exchange_public, self._exchange_secret, P)
        size = (P.bit_length() + 7) // 8
        return sha256(b"pairwise" + shared.to_bytes(size, "big"))[:KEY_SIZE]

    # -- X3DH-style asynchronous agreement ---------------------------------

    def _prekey_secret(self) -> int:
        if self._prekey_secret_cache is None:
            seed = hkdf(self._master, "prekey", 32)
            self._prekey_secret_cache = int.from_bytes(seed, "big") % Q or 1
        return self._prekey_secret_cache

    @property
    def signed_prekey_public(self) -> int:
        """This cell's public signed-prekey element ``g^spk``.

        Published in a prekey bundle so peers can complete a key
        agreement while this cell is offline (the X3DH pattern); the
        bundle carries a Schnorr signature over this element so a
        directory cannot substitute its own prekey.
        """
        return pow(G, self._prekey_secret(), P)

    def sign_prekey(self):
        """The Schnorr signature binding the prekey to this identity."""
        return self._signing_key.sign(
            prekey_signing_bytes(self.signed_prekey_public)
        )

    def x3dh_initiate(
        self,
        peer_identity_public: int,
        peer_signed_prekey_public: int,
        ephemeral_secret: int,
    ) -> bytes:
        """Initiator side of an X3DH agreement against a peer's bundle.

        ``peer_identity_public`` is the peer's long-term DH element
        (:attr:`exchange_public`); the ephemeral secret comes from
        :func:`generate_exchange_keypair` and its public half must be
        delivered to the peer so :meth:`x3dh_respond` can run — the
        peer needs nothing else, so it may be offline right now.
        """
        _require_group_element(peer_identity_public, "peer identity element")
        _require_group_element(peer_signed_prekey_public, "peer prekey element")
        dh1 = pow(peer_signed_prekey_public, self._exchange_secret, P)
        dh2 = pow(peer_identity_public, ephemeral_secret, P)
        dh3 = pow(peer_signed_prekey_public, ephemeral_secret, P)
        return _x3dh_key(dh1, dh2, dh3)

    def x3dh_respond(
        self,
        initiator_identity_public: int,
        initiator_ephemeral_public: int,
    ) -> bytes:
        """Responder side: same key as the initiator's, computed later."""
        _require_group_element(
            initiator_identity_public, "initiator identity element")
        _require_group_element(
            initiator_ephemeral_public, "initiator ephemeral element")
        dh1 = pow(initiator_identity_public, self._prekey_secret(), P)
        dh2 = pow(initiator_ephemeral_public, self._exchange_secret, P)
        dh3 = pow(initiator_ephemeral_public, self._prekey_secret(), P)
        return _x3dh_key(dh1, dh2, dh3)

    def wrap_object_key(
        self, object_id: str, version: int, peer_exchange_public: int
    ) -> SealedBlob:
        """Wrap an owned object key for a specific peer cell.

        The wrapped key can transit the untrusted infrastructure: only
        the peer can unwrap it, and the (object_id, version) binding in
        the header is authenticated.
        """
        key = self.key_for(object_id, version)
        header = f"keywrap:{object_id}:{version}".encode()
        return seal(
            self.pairwise_key(peer_exchange_public),
            key,
            header=header,
            nonce_seed=header,
        )

    def unwrap_object_key(
        self, blob: SealedBlob, peer_exchange_public: int
    ) -> tuple[str, int]:
        """Import a wrapped object key received from a peer.

        Returns the (object_id, version) the key now unlocks. The key
        itself stays inside the ring.
        """
        key = open_sealed(self.pairwise_key(peer_exchange_public), blob)
        try:
            prefix, _, rest = blob.header.decode().partition(":")
            # object ids may themselves contain ':', so take the
            # version from the right
            object_id, _, version_text = rest.rpartition(":")
            if prefix != "keywrap" or not object_id:
                raise ValueError("bad prefix")
            version = int(version_text)
        except ValueError as exc:
            raise KeyError_(f"malformed key-wrap header: {blob.header!r}") from exc
        self._imported[(object_id, version)] = key
        return object_id, version

    def key_for(self, object_id: str, version: int) -> bytes:
        """The data key for an object, owned or imported.

        Owned objects take priority: derivation is deterministic so an
        owner never depends on the imported table for its own data.
        Raises :class:`KeyError_` if the object was shared with us but
        the key was never imported.
        """
        imported = self._imported.get((object_id, version))
        if imported is not None:
            return imported
        return self.object_key(object_id, version)

    def has_imported_key(self, object_id: str, version: int) -> bool:
        """True iff a foreign key for this object version was imported."""
        return (object_id, version) in self._imported

    def forget_imported_key(self, object_id: str, version: int) -> None:
        """Drop an imported key (e.g. after a usage right is exhausted)."""
        self._imported.pop((object_id, version), None)

    @property
    def imported_key_count(self) -> int:
        return len(self._imported)

    # -- escrow / recovery -------------------------------------------------

    def export_master_shares(
        self, guardians: int, threshold: int, rng: random.Random
    ) -> list[list[shamir.Share]]:
        """Shamir-split the master secret for escrow among guardians."""
        return shamir.split_bytes(self._master, guardians, threshold, rng)

    @classmethod
    def restore_from_shares(cls, shares: list[list[shamir.Share]]) -> "KeyRing":
        """Rebuild a lost cell's key ring from at-least-threshold escrow
        shares. Imported keys are *not* restored (peers must re-share)."""
        master = shamir.reconstruct_bytes(shares)
        if len(master) != KEY_SIZE:
            raise KeyError_("escrow reconstruction produced an invalid master secret")
        return cls(master)

    # -- breach model hook ---------------------------------------------------

    def _dump_for_breach(self) -> dict[str, object]:
        """Everything a *physical* attacker extracts from a breached cell.

        Only the attack model (:mod:`repro.attacks`) may call this; it
        models the paper's admission that "even secure hardware can be
        breached, though at very high cost".
        """
        return {
            "master_secret": self._master,
            "imported_keys": dict(self._imported),
        }
