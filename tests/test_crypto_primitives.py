"""Tests for crypto primitives: XTEA, CTR, HMAC, HKDF, AEAD."""

import time

import pytest
from hypothesis import example, given, settings
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


def keystream_reference(key, nonce, length):
    """One :func:`xtea_encrypt_block` per counter block, then truncate."""
    blocks = (length + BLOCK_SIZE - 1) // BLOCK_SIZE
    stream = b"".join(
        xtea_encrypt_block(key, nonce + counter.to_bytes(4, "big"))
        for counter in range(blocks)
    )
    return stream[:length]


def crypt_reference(key, nonce, data):
    """Byte-wise XOR with the reference keystream."""
    stream = keystream_reference(key, nonce, len(data))
    return bytes(a ^ b for a, b in zip(data, stream))


def extreme_or_random(size):
    """All-0x00 and all-0xFF (the largest carries in every lane), or random."""
    return st.one_of(
        st.sampled_from([bytes(size), b"\xff" * size]),
        st.binary(min_size=size, max_size=size),
    )


#: Every length up to 8 blocks, plus exactly 1, 2 and 4,097 blocks.
LENGTHS = st.one_of(
    st.integers(min_value=0, max_value=64),
    st.sampled_from([BLOCK_SIZE, 2 * BLOCK_SIZE, 4097 * BLOCK_SIZE]),
)

#: Computed with the per-block keystream loop the lanes replaced:
#: ``ctr_keystream(bytes(range(16)), bytes.fromhex("fffffffe"), 1024)``.
KEYSTREAM_1KIB = bytes.fromhex("""
    540113dbd84dc9de1c263b5167679478aff9ece98ddc1af298cb8e33a6004635
    dd9e53a7f8d240f573386752c51f25cf6fda6739faee1cca40d78c29ff316c65
    e0a5e0ad3a64b25b2bb73899be7b90bf96d094b90e7f9b1a2a3c1f608ab22e5c
    0715a0ae9c478c47f953a5271e40bb7f4211759bebd4cf8a27a7e200e702cfbc
    a9253ae3dedd591bd54f43fb2d495e1b543a174b62be71e13fc7d8ad4ffa2e5b
    af2674e73e0065d1f33f2142f8ad3b8b87fa54da740668fab38673bf690d1fdd
    15b1b0ffed0c9bd6971b367833e3d38712c57e6f8bd8e0722c7ff4406e02ba2f
    48564124b6ea65fc7cf825053789fafa57953b79927ba86f1b12765d33a5a4ad
    3d6a4b360efe6a780e373e40a5acffab7d5809e2e32ad01e446518eeece91948
    5cbc338d67bb8b55d3337e582cde81b014ccd83dd91c2844f11e5a80197d6cb4
    3d16d7d10534ff3d5bb33c427a73bc00e0ded984ab40ab7a9db6bcf450b3e17e
    7c3eac9a0a10e0bdedea8a2aa5c8564123a27227cf18bf3b325b8102a36938d8
    94e97fd4e9794695bfd782931f801e12710896e3f4eae178823416e93e03f963
    e140a4d8ffb034239cf3cb3bd83570543dbd558e9b9d1093320f8ae80510db66
    ef0db41e156bfb0d3a439e5b0eff7f75ceb26eeae6e99c15a2a65c1f9eff4470
    221b5a53170f073c98cefc09cadc889583d30f215e7fe264f5141c26a9cc3f63
    6dcb5cff336a978c12820518721715b3e318ef2c48780656e546ed42c683bc2f
    b6e341163ea8c8dfd195ec29a5ece35a5bfd5cf9bd1b332e4bf684f02e87e867
    afe6d1526a8a56945c6e9ac65ec8ddb78e22bded080e005ea3689cf323564b34
    2697fb131b00f1ac701466fcc5b0d6eadfa49843f0b6e22c1b9a18b0b96a4705
    e3e1a67b89b5463ccc3566a9a61ffd15dc332ddefe4d02cebaa3ac37cf015086
    e0d5c7050359f93d509838afb9555e1e8b4d7d19b694d2131577d843c17f1889
    47ff5598e5b89530b8b0838a230c792a065920e61062fe11209d4326ac31f98f
    e64aa9799f48d2a9585dc1d051e21460d6155fe590405290dbbe98bf758ea271
    1bddb2f0e0002d37b28017ed9e8469d5e9a29cc4f69e7bb60455f5fdff09c5bc
    389d07421c6522c82f7e4cdbc0d4cf283558a74def703b3f5d4232175e661052
    c6873e0d28c04a9f7f5d65c55de0dd615d50438c95faadbf67066e7263498f1a
    bc114695497a6576690401035bdacb303083c3d1657d90716027facf99538843
    9f2a2097616ea16412d6cc24be584a9a97d992a802c1efe10d2481889e782ccb
    6b03bd50bb5d8bc572a6dd780d68fb826085df71dd806274d75b88e6296e32be
    b616afffc6774430540f361896d318bd086b25e50cc5b1cb6af42df3e64f6e69
    d3d86461e80f829aaf3858c0d06580a5fdfaab71a2753adcf5bceb942b60bc9d
""")

#: ``seal(bytes(range(16)), bytes(range(112)), b"policy:kanon",
#: b"round-7").to_bytes()`` under the same per-block loop: a sealed
#: batch the size a kanon egress sends.
SEALED_112B = bytes.fromhex("""
    0000000c706f6c6963793a6b616e6f6e0000000495691e5a000000709173b94d
    baa4caeb6f688bcb7650e006b61e868b8518621fdc3b82a814d3eb63f1171916
    c3e5b669dea9bac81eb0b03ba92970c50d57bca43d98f951e9f7e21afe599d35
    8a855ce64071b5e85cd8503e0933ef1d83fc66e46ea36612f06d8a58b587dfb9
    dd82c54b27a1c0bad816264b00000020e93c92bb0659f8cb6d5dddf871281e90
    ba40d604132da7476451cc2a9c8702a4
""")


class TestCtrLanes:
    """The lane-parallel keystream against references that do not use it."""

    @settings(deadline=None)
    @given(extreme_or_random(KEY_SIZE), extreme_or_random(4), LENGTHS)
    @example(bytes(KEY_SIZE), bytes(4), 4097 * BLOCK_SIZE)
    @example(b"\xff" * KEY_SIZE, b"\xff" * 4, 4097 * BLOCK_SIZE)
    def test_keystream_equals_per_block_reference(self, key, nonce, length):
        assert ctr_keystream(key, nonce, length) == keystream_reference(key, nonce, length)

    @settings(deadline=None)
    @given(extreme_or_random(KEY_SIZE), extreme_or_random(4), LENGTHS,
           st.randoms(use_true_random=False))
    def test_crypt_equals_bytewise_xor_reference(self, key, nonce, length, rng):
        data = rng.randbytes(length)
        assert ctr_crypt(key, nonce, data) == crypt_reference(key, nonce, data)

    def test_known_answer_keystream(self):
        stream = ctr_keystream(bytes(range(16)), bytes.fromhex("fffffffe"), 1024)
        assert stream == KEYSTREAM_1KIB

    def test_known_answer_sealed_blob(self):
        blob = seal(bytes(range(16)), bytes(range(112)), b"policy:kanon", b"round-7")
        assert blob.to_bytes() == SEALED_112B

    def test_counter_overflow_rejected_before_any_work(self):
        start = time.perf_counter()
        with pytest.raises(ConfigurationError):
            ctr_keystream(KEY, bytes(4), (2**32 + 1) * BLOCK_SIZE)
        assert time.perf_counter() - start < 1.0

    def test_bad_key_size_rejected(self):
        with pytest.raises(ConfigurationError):
            ctr_keystream(b"short", bytes(4), 8)


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

    # RFC 4231 HMAC-SHA256 known answers: test cases 1, 2 and 6 (a
    # 131-byte key, longer than the block, is hashed first).
    RFC_4231 = (
        (b"\x0b" * 20, b"Hi There",
         "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
        (b"Jefe", b"what do ya want for nothing?",
         "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
        (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
         "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    )

    @pytest.mark.parametrize("key,message,expected", RFC_4231,
                             ids=["case-1", "case-2", "case-6"])
    def test_rfc_4231_known_answers(self, key, message, expected):
        assert HmacKey(key).tag(message).hex() == expected
        assert HmacKey.tag_many([HmacKey(key)], message)[0].hex() == expected

    @pytest.mark.parametrize("lengths", [(), (0, 16, 32, 64, 65, 200)])
    def test_tag_many_equals_hmac_sha256_per_key(self, lengths):
        keys = [bytes((11 * index + length) % 256 for index in range(length))
                for length in lengths]
        for message in self.MESSAGES:
            expected = [hmac_sha256(key, message) for key in keys]
            assert HmacKey.tag_many([HmacKey(key) for key in keys], message) == expected

    @pytest.mark.parametrize("count", [0, 1, 32])
    def test_tag_many_counts_once_per_key(self, count):
        before = hmac_invocations()
        keys = [HmacKey(bytes([index]) * 16) for index in range(count)]
        assert hmac_invocations() == before  # absorbing keys is free
        HmacKey.tag_many(keys, b"mask|round")
        assert hmac_invocations() == before + count


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
