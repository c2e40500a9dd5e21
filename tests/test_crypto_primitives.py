"""Tests for crypto primitives: XTEA, CTR, HMAC, HKDF, AEAD."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import (
    BLOCK_SIZE,
    KEY_SIZE,
    SealedBlob,
    ctr_crypt,
    hkdf,
    hmac_sha256,
    open_sealed,
    seal,
    sha256,
    verify_hmac,
    xtea_decrypt_block,
    xtea_encrypt_block,
)
from repro.crypto.primitives import (
    HmacKey,
    counter_stream,
    ctr_keystream,
    hmac_invocations,
)
from repro.errors import ConfigurationError, IntegrityError

KEY = bytes(range(16))
OTHER_KEY = bytes(range(1, 17))


class TestXtea:
    def test_roundtrip(self):
        block = b"ABCDEFGH"
        assert xtea_decrypt_block(KEY, xtea_encrypt_block(KEY, block)) == block

    def test_known_vector(self):
        # Published XTEA test vector: all-zero key and plaintext.
        key = bytes(16)
        block = bytes(8)
        assert xtea_encrypt_block(key, block).hex() == "dee9d4d8f7131ed9"

    def test_known_vector_sequential(self):
        # Second widely used vector: sequential key/plaintext bytes.
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        block = bytes.fromhex("4142434445464748")
        assert xtea_encrypt_block(key, block).hex() == "497df3d072612cb5"

    def test_wrong_key_size_rejected(self):
        with pytest.raises(ConfigurationError):
            xtea_encrypt_block(b"short", bytes(8))

    def test_wrong_block_size_rejected(self):
        with pytest.raises(ConfigurationError):
            xtea_encrypt_block(KEY, bytes(7))
        with pytest.raises(ConfigurationError):
            xtea_decrypt_block(KEY, bytes(9))

    def test_different_keys_differ(self):
        block = bytes(8)
        assert xtea_encrypt_block(KEY, block) != xtea_encrypt_block(OTHER_KEY, block)

    @given(st.binary(min_size=8, max_size=8), st.binary(min_size=16, max_size=16))
    def test_roundtrip_property(self, block, key):
        assert xtea_decrypt_block(key, xtea_encrypt_block(key, block)) == block


class TestCtr:
    def test_crypt_is_involution(self):
        data = b"the quick brown fox jumps over the lazy dog"
        nonce = b"\x00\x01\x02\x03"
        assert ctr_crypt(KEY, nonce, ctr_crypt(KEY, nonce, data)) == data

    def test_empty_data(self):
        assert ctr_crypt(KEY, bytes(4), b"") == b""

    def test_keystream_length_exact(self):
        for length in (0, 1, 7, 8, 9, 100):
            assert len(ctr_keystream(KEY, bytes(4), length)) == length

    def test_keystream_prefix_stable(self):
        long = ctr_keystream(KEY, bytes(4), 64)
        short = ctr_keystream(KEY, bytes(4), 10)
        assert long[:10] == short

    def test_different_nonces_differ(self):
        a = ctr_keystream(KEY, b"\x00\x00\x00\x00", 32)
        b = ctr_keystream(KEY, b"\x00\x00\x00\x01", 32)
        assert a != b

    def test_bad_nonce_size_rejected(self):
        with pytest.raises(ConfigurationError):
            ctr_crypt(KEY, b"\x00", b"data")

    @given(st.binary(max_size=200), st.binary(min_size=16, max_size=16),
           st.binary(min_size=4, max_size=4))
    def test_involution_property(self, data, key, nonce):
        assert ctr_crypt(key, nonce, ctr_crypt(key, nonce, data)) == data


class TestMacAndKdf:
    def test_hmac_verifies(self):
        tag = hmac_sha256(KEY, b"message")
        assert verify_hmac(KEY, b"message", tag)

    def test_hmac_rejects_wrong_message(self):
        tag = hmac_sha256(KEY, b"message")
        assert not verify_hmac(KEY, b"other", tag)

    def test_hmac_rejects_wrong_key(self):
        tag = hmac_sha256(KEY, b"message")
        assert not verify_hmac(OTHER_KEY, b"message", tag)

    def test_sha256_known_value(self):
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_hkdf_purpose_separation(self):
        assert hkdf(KEY, "a") != hkdf(KEY, "b")

    def test_hkdf_deterministic(self):
        assert hkdf(KEY, "purpose") == hkdf(KEY, "purpose")

    def test_hkdf_lengths(self):
        for length in (1, 16, 32, 33, 100):
            assert len(hkdf(KEY, "p", length)) == length

    def test_hkdf_invalid_length_rejected(self):
        with pytest.raises(ConfigurationError):
            hkdf(KEY, "p", 0)

    def test_hkdf_long_output_prefix_differs_from_short(self):
        # expand construction: longer request extends, first bytes match
        assert hkdf(KEY, "p", 64)[:16] == hkdf(KEY, "p", 16)


class TestHmacKey:
    """The keyed state is bit-for-bit ``hmac_sha256`` and counts alike."""

    MESSAGES = (b"", b"mask|utility|load-forecast", b"m" * 63, b"m" * 64,
                b"m" * 65, bytes(range(256)) * 40)

    @pytest.mark.parametrize("length", [0, 16, 32, 64, 65, 200])
    def test_tags_equal_hmac_sha256(self, length):
        key = bytes((7 * index + length) % 256 for index in range(length))
        keyed = HmacKey(key)
        for message in self.MESSAGES:
            assert keyed.tag(message) == hmac_sha256(key, message)

    def test_one_key_tags_many_messages_independently(self):
        keyed = HmacKey(KEY)
        first = keyed.tag(b"round-1")
        assert keyed.tag(b"round-2") == hmac_sha256(KEY, b"round-2")
        assert keyed.tag(b"round-1") == first  # no state leaks between tags

    def test_every_tag_counts_once_on_the_derivation_oracle(self):
        before = hmac_invocations()
        keyed = HmacKey(KEY)
        assert hmac_invocations() == before  # absorbing the key is free
        for count, message in enumerate(self.MESSAGES, start=1):
            keyed.tag(message)
            assert hmac_invocations() == before + count

    @given(key=st.binary(max_size=150), message=st.binary(max_size=300))
    def test_equivalence_property(self, key, message):
        assert HmacKey(key).tag(message) == hmac_sha256(key, message)


class TestAead:
    def test_roundtrip(self):
        blob = seal(KEY, b"secret payload", header=b"meta")
        assert open_sealed(KEY, blob) == b"secret payload"

    def test_header_is_authenticated_not_encrypted(self):
        blob = seal(KEY, b"payload", header=b"policy-bytes")
        assert blob.header == b"policy-bytes"
        tampered = SealedBlob(b"other-policy", blob.nonce, blob.ciphertext, blob.tag)
        with pytest.raises(IntegrityError):
            open_sealed(KEY, tampered)

    def test_ciphertext_tamper_detected(self):
        blob = seal(KEY, b"payload")
        flipped = bytes([blob.ciphertext[0] ^ 1]) + blob.ciphertext[1:]
        tampered = SealedBlob(blob.header, blob.nonce, flipped, blob.tag)
        with pytest.raises(IntegrityError):
            open_sealed(KEY, tampered)

    def test_wrong_key_detected(self):
        blob = seal(KEY, b"payload")
        with pytest.raises(IntegrityError):
            open_sealed(OTHER_KEY, blob)

    def test_ciphertext_differs_from_plaintext(self):
        blob = seal(KEY, b"a long enough plaintext to check")
        assert blob.ciphertext != b"a long enough plaintext to check"

    def test_distinct_nonce_seeds_distinct_ciphertexts(self):
        a = seal(KEY, b"same", nonce_seed=b"1")
        b = seal(KEY, b"same", nonce_seed=b"2")
        assert a.ciphertext != b.ciphertext

    def test_serialization_roundtrip(self):
        blob = seal(KEY, b"payload", header=b"h")
        assert SealedBlob.from_bytes(blob.to_bytes()) == blob

    def test_truncated_serialization_rejected(self):
        data = seal(KEY, b"payload").to_bytes()
        with pytest.raises(IntegrityError):
            SealedBlob.from_bytes(data[:-1])
        with pytest.raises(IntegrityError):
            SealedBlob.from_bytes(data + b"x")

    def test_size_accounting(self):
        blob = seal(KEY, b"payload", header=b"hh")
        assert blob.size == len(blob.to_bytes())

    @given(st.binary(max_size=300), st.binary(max_size=50),
           st.binary(min_size=16, max_size=16))
    def test_roundtrip_property(self, plaintext, header, key):
        blob = seal(key, plaintext, header=header)
        assert open_sealed(key, blob) == plaintext
        assert SealedBlob.from_bytes(blob.to_bytes()) == blob


class TestCounterStream:
    SEED = sha256(b"counter-stream-seed")

    def test_block_zero_is_the_seed(self):
        assert counter_stream(self.SEED, 32) == self.SEED
        assert counter_stream(self.SEED, 16) == self.SEED[:16]

    def test_prefix_stability(self):
        long = counter_stream(self.SEED, 200)
        for length in (0, 1, 31, 32, 33, 64, 199):
            assert counter_stream(self.SEED, length) == long[:length]

    def test_blocks_are_counter_mode_sha256(self):
        stream = counter_stream(self.SEED, 96)
        assert stream[32:64] == sha256(self.SEED + (1).to_bytes(4, "big"))
        assert stream[64:96] == sha256(self.SEED + (2).to_bytes(4, "big"))

    def test_distinct_seeds_diverge(self):
        other = sha256(b"another-seed")
        assert counter_stream(self.SEED, 64) != counter_stream(other, 64)

    def test_expansion_is_unkeyed(self):
        before = hmac_invocations()
        counter_stream(self.SEED, 1024)
        assert hmac_invocations() - before == 0

    def test_bad_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            counter_stream(b"short", 8)
        with pytest.raises(ConfigurationError):
            counter_stream(self.SEED, -1)


class TestHmacInstrumentation:
    def test_counter_is_monotone(self):
        before = hmac_invocations()
        hmac_sha256(KEY, b"one")
        hmac_sha256(KEY, b"two")
        assert hmac_invocations() == before + 2
