"""Tests for the key hierarchy: KeyRing, wrapping, escrow."""

import random

import pytest

from repro.crypto import KeyRing
from repro.crypto.signing import G, P
from repro.errors import ConfigurationError, IntegrityError, KeyError_


def make_ring(seed=1):
    return KeyRing.generate(random.Random(seed))


class TestKeyRingBasics:
    def test_master_secret_length_enforced(self):
        with pytest.raises(ConfigurationError):
            KeyRing(b"short")

    def test_same_master_same_keys(self):
        master = bytes(range(16))
        assert KeyRing(master).object_key("o", 1) == KeyRing(master).object_key("o", 1)

    def test_distinct_rings_distinct_keys(self):
        assert make_ring(1).object_key("o", 1) != make_ring(2).object_key("o", 1)

    def test_object_keys_distinct_per_object_and_version(self):
        ring = make_ring()
        assert ring.object_key("a", 1) != ring.object_key("b", 1)
        assert ring.object_key("a", 1) != ring.object_key("a", 2)

    def test_purpose_derivation_separated(self):
        ring = make_ring()
        assert ring.derive("audit") != ring.derive("policy")

    def test_sign_verify(self):
        ring = make_ring()
        signature = ring.sign(b"certified aggregate")
        assert ring.verify_key.verify(b"certified aggregate", signature)

    def test_fingerprints_distinct(self):
        assert make_ring(1).fingerprint() != make_ring(2).fingerprint()


class TestPairwiseAndWrapping:
    def test_pairwise_keys_agree(self):
        alice, bob = make_ring(1), make_ring(2)
        assert alice.pairwise_key(bob.exchange_public) == bob.pairwise_key(
            alice.exchange_public
        )

    def test_exchange_public_computed_once(self):
        """``g^x`` is public and fixed: one modexp per ring, not one per
        read (a recomputed int this large is a new object each time)."""
        ring = make_ring()
        assert ring.exchange_public is ring.exchange_public
        assert ring.exchange_public == pow(G, ring._exchange_secret, P)

    def test_pairwise_keys_distinct_per_pair(self):
        alice, bob, carol = make_ring(1), make_ring(2), make_ring(3)
        assert alice.pairwise_key(bob.exchange_public) != alice.pairwise_key(
            carol.exchange_public
        )

    def test_bad_peer_element_rejected(self):
        with pytest.raises(ConfigurationError):
            make_ring().pairwise_key(0)

    def test_wrap_unwrap_roundtrip(self):
        alice, bob = make_ring(1), make_ring(2)
        wrapped = alice.wrap_object_key("photo-1", 3, bob.exchange_public)
        object_id, version = bob.unwrap_object_key(wrapped, alice.exchange_public)
        assert (object_id, version) == ("photo-1", 3)
        assert bob.key_for("photo-1", 3) == alice.object_key("photo-1", 3)

    def test_wrap_unwrap_with_colons_in_object_id(self):
        alice, bob = make_ring(1), make_ring(2)
        tricky = "series-archive:power@86400"
        wrapped = alice.wrap_object_key(tricky, 2, bob.exchange_public)
        object_id, version = bob.unwrap_object_key(wrapped, alice.exchange_public)
        assert (object_id, version) == (tricky, 2)
        assert bob.key_for(tricky, 2) == alice.object_key(tricky, 2)

    def test_wrapped_key_useless_to_third_party(self):
        alice, bob, eve = make_ring(1), make_ring(2), make_ring(3)
        wrapped = alice.wrap_object_key("photo-1", 3, bob.exchange_public)
        with pytest.raises(IntegrityError):
            eve.unwrap_object_key(wrapped, alice.exchange_public)

    def test_header_tamper_detected(self):
        from repro.crypto import SealedBlob

        alice, bob = make_ring(1), make_ring(2)
        wrapped = alice.wrap_object_key("photo-1", 3, bob.exchange_public)
        forged = SealedBlob(
            b"keywrap:other-object:3", wrapped.nonce, wrapped.ciphertext, wrapped.tag
        )
        with pytest.raises(IntegrityError):
            bob.unwrap_object_key(forged, alice.exchange_public)

    def test_owner_key_takes_priority_over_imported(self):
        alice, bob = make_ring(1), make_ring(2)
        wrapped = bob.wrap_object_key("shared", 1, alice.exchange_public)
        alice.unwrap_object_key(wrapped, bob.exchange_public)
        # for an object alice does NOT own, imported key is used
        assert alice.key_for("shared", 1) == bob.object_key("shared", 1)

    def test_forget_imported_key(self):
        alice, bob = make_ring(1), make_ring(2)
        wrapped = bob.wrap_object_key("shared", 1, alice.exchange_public)
        alice.unwrap_object_key(wrapped, bob.exchange_public)
        assert alice.has_imported_key("shared", 1)
        alice.forget_imported_key("shared", 1)
        assert not alice.has_imported_key("shared", 1)
        # key_for now falls back to alice's own derivation, which differs
        assert alice.key_for("shared", 1) != bob.object_key("shared", 1)

    def test_imported_key_count(self):
        alice, bob = make_ring(1), make_ring(2)
        assert alice.imported_key_count == 0
        for version in range(3):
            wrapped = bob.wrap_object_key("o", version, alice.exchange_public)
            alice.unwrap_object_key(wrapped, bob.exchange_public)
        assert alice.imported_key_count == 3


class TestEscrow:
    def test_restore_from_threshold_shares(self):
        ring = make_ring()
        shares = ring.export_master_shares(5, 3, random.Random(9))
        restored = KeyRing.restore_from_shares(shares[:3])
        assert restored.object_key("o", 1) == ring.object_key("o", 1)
        assert restored.fingerprint() == ring.fingerprint()

    def test_restore_from_any_subset(self):
        ring = make_ring()
        shares = ring.export_master_shares(5, 3, random.Random(9))
        restored = KeyRing.restore_from_shares([shares[0], shares[2], shares[4]])
        assert restored.fingerprint() == ring.fingerprint()

    def test_below_threshold_restores_garbage_or_fails(self):
        ring = make_ring()
        shares = ring.export_master_shares(5, 3, random.Random(9))
        try:
            restored = KeyRing.restore_from_shares(shares[:2])
        except (KeyError_, Exception):
            return  # reconstruction detected inconsistency: acceptable
        assert restored.fingerprint() != ring.fingerprint()

    def test_imported_keys_not_restored(self):
        alice, bob = make_ring(1), make_ring(2)
        wrapped = bob.wrap_object_key("shared", 1, alice.exchange_public)
        alice.unwrap_object_key(wrapped, bob.exchange_public)
        shares = alice.export_master_shares(3, 2, random.Random(9))
        restored = KeyRing.restore_from_shares(shares[:2])
        assert restored.imported_key_count == 0


class TestBreachModel:
    def test_breach_dump_contains_master_and_imported(self):
        alice, bob = make_ring(1), make_ring(2)
        wrapped = bob.wrap_object_key("shared", 7, alice.exchange_public)
        alice.unwrap_object_key(wrapped, bob.exchange_public)
        dump = alice._dump_for_breach()
        assert len(dump["master_secret"]) == 16
        assert ("shared", 7) in dump["imported_keys"]
