"""Low-level cryptographic primitives.

These are *real algorithms with toy deployment parameters*, suitable for
a simulation platform: experiments measure protocol structure (who can
decrypt what, what tampering is detected, how many bytes cross a
boundary), not cryptanalytic strength.

.. warning::
   Nothing in this module is hardened (no constant-time arithmetic, no
   side-channel resistance). Do **not** use it to protect real data.

Contents:

* XTEA block cipher (64-bit block, 128-bit key, 64 rounds) and a CTR
  mode keystream built on it.
* HMAC-SHA256 (delegating to the standard library), and the same tag
  from a key whose padded blocks are absorbed once (:class:`HmacKey`).
* HKDF-style key derivation.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import struct
from collections.abc import Sequence

from ..errors import ConfigurationError
from ..obs import get_default as _obs_default

_MASK32 = 0xFFFFFFFF
_XTEA_DELTA = 0x9E3779B9
_XTEA_ROUNDS = 32  # 32 cycles = 64 Feistel rounds, the standard choice
_CTR_MAX_BLOCKS = 1 << 32  # the 4-byte counter's range

BLOCK_SIZE = 8  # bytes
KEY_SIZE = 16  # bytes
MAC_SIZE = 32  # bytes (full SHA-256 tag)


def _key_schedule(key: bytes) -> tuple[int, int, int, int]:
    if len(key) != KEY_SIZE:
        raise ConfigurationError(f"XTEA key must be {KEY_SIZE} bytes, got {len(key)}")
    return (
        int.from_bytes(key[0:4], "big"),
        int.from_bytes(key[4:8], "big"),
        int.from_bytes(key[8:12], "big"),
        int.from_bytes(key[12:16], "big"),
    )


def xtea_encrypt_block(key: bytes, block: bytes) -> bytes:
    """Encrypt a single 8-byte block with XTEA."""
    if len(block) != BLOCK_SIZE:
        raise ConfigurationError(f"XTEA block must be {BLOCK_SIZE} bytes")
    k = _key_schedule(key)
    v0 = int.from_bytes(block[0:4], "big")
    v1 = int.from_bytes(block[4:8], "big")
    total = 0
    for _round in range(_XTEA_ROUNDS):
        v0 = (v0 + ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ (total + k[total & 3]))) & _MASK32
        total = (total + _XTEA_DELTA) & _MASK32
        v1 = (
            v1 + ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ (total + k[(total >> 11) & 3]))
        ) & _MASK32
    return v0.to_bytes(4, "big") + v1.to_bytes(4, "big")


def xtea_decrypt_block(key: bytes, block: bytes) -> bytes:
    """Decrypt a single 8-byte block with XTEA."""
    if len(block) != BLOCK_SIZE:
        raise ConfigurationError(f"XTEA block must be {BLOCK_SIZE} bytes")
    k = _key_schedule(key)
    v0 = int.from_bytes(block[0:4], "big")
    v1 = int.from_bytes(block[4:8], "big")
    total = (_XTEA_DELTA * _XTEA_ROUNDS) & _MASK32
    for _round in range(_XTEA_ROUNDS):
        v1 = (
            v1 - ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ (total + k[(total >> 11) & 3]))
        ) & _MASK32
        total = (total - _XTEA_DELTA) & _MASK32
        v0 = (v0 - ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ (total + k[total & 3]))) & _MASK32
    return v0.to_bytes(4, "big") + v1.to_bytes(4, "big")


def ctr_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """CTR-mode keystream of ``length`` bytes under ``key`` / ``nonce``.

    The counter block is ``nonce (4 bytes) || counter (4 bytes)``; a
    nonce must never be reused with the same key (the envelope layer
    guarantees this by deriving a fresh key per object version), and
    the 4-byte counter caps one keystream at 2**32 blocks.

    Every counter block is encrypted in one pass: block ``i`` is a
    64-bit lane of one Python integer per XTEA word (block 0 in the
    most significant lane, so the words unpack with one big-endian
    ``to_bytes``), and each Feistel half-round is a few big-integer
    operations over all lanes. A lane holds a 32-bit word and every
    intermediate stays below 2**38, so no carry leaves its lane. The
    ``>> 5`` does pull the next lane's low 5 bits into bits 59-63, but
    carries only move up and bits 38-58 stay clear, so they never reach
    the low 32 bits and the half-round's ``& low32`` drops them. The
    bytes are :func:`xtea_encrypt_block`'s on each counter block, which
    stays as the per-block reference.
    """
    if len(nonce) != 4:
        raise ConfigurationError("CTR nonce must be 4 bytes")
    if length < 0:
        raise ConfigurationError("keystream length must be non-negative")
    n_blocks = (length + BLOCK_SIZE - 1) // BLOCK_SIZE
    if n_blocks > _CTR_MAX_BLOCKS:
        raise ConfigurationError(
            f"keystream of {length} bytes needs {n_blocks} counter blocks; "
            f"the 4-byte counter allows {_CTR_MAX_BLOCKS}"
        )
    k = _key_schedule(key)
    ones = int.from_bytes(b"\x00\x00\x00\x00\x00\x00\x00\x01" * n_blocks, "big")
    low32 = _MASK32 * ones
    v0 = int.from_bytes(nonce, "big") * ones
    v1 = int.from_bytes(struct.pack(f">{n_blocks}Q", *range(n_blocks)), "big")
    total = 0
    for _round in range(_XTEA_ROUNDS):
        ka = (total + k[total & 3]) * ones
        total = (total + _XTEA_DELTA) & _MASK32
        kb = (total + k[(total >> 11) & 3]) * ones
        v0 = (v0 + ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ ka)) & low32
        v1 = (v1 + ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ kb)) & low32
    return ((v0 << 32) | v1).to_bytes(n_blocks * BLOCK_SIZE, "big")[:length]


def ctr_crypt(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Encrypt or decrypt ``data`` in CTR mode (the operation is its own
    inverse)."""
    stream = ctr_keystream(key, nonce, len(data))
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(
        len(data), "big"
    )


# The HMAC call count lives in the process-default metrics registry
# (``crypto.hmac.calls``), not in a module global, so the test suite's
# observability reset fixture clears it between tests instead of
# letting it bleed across them. ``always=True``: it is a protocol-cost
# oracle (benches and tests assert exact deltas), so it keeps counting
# even when observability is disabled — the cost is one attribute
# increment, same as the global it replaced.
_HMAC_CALLS = _obs_default().metrics.counter(
    "crypto.hmac.calls",
    help="keyed HMAC-SHA256 invocations (aggregation derivation oracle)",
    always=True,
)


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 tag of ``message`` under ``key``."""
    _HMAC_CALLS.value += 1
    return _hmac.new(key, message, hashlib.sha256).digest()


# RFC 2104's two pads as ``bytes.translate`` tables (the standard
# library ``hmac`` module's ``trans_36`` / ``trans_5C``): XOR-ing a
# padded key with a pad is one C call.
_SHA256_BLOCK = 64  # bytes
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))


class HmacKey:
    """HMAC-SHA256 under one key, for many messages.

    :func:`hmac_sha256` re-hashes both padded-key blocks on every call
    (four SHA-256 compressions for a short message). A long-lived key
    — a ring edge's pairwise key, tagged once per round — is absorbed
    here once, into two SHA-256 states: the RFC 2104 inner
    (K ⊕ ipad) and outer (K ⊕ opad) blocks, a key longer than the
    64-byte block hashed first, a shorter one zero-padded. A tag
    copies both states and pays only the two compressions that depend
    on the message, all in ``hashlib`` C calls. Tags are
    :func:`hmac_sha256`'s (the standard library ``hmac`` module, the
    oracle that pins this one), and every tag counts once on
    ``crypto.hmac.calls``, so the derivation oracle cannot tell the
    two apart.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        if len(key) > _SHA256_BLOCK:
            key = hashlib.sha256(key).digest()
        key = key.ljust(_SHA256_BLOCK, b"\0")
        self._inner = hashlib.sha256(key.translate(_IPAD))
        self._outer = hashlib.sha256(key.translate(_OPAD))

    def tag(self, message: bytes) -> bytes:
        """HMAC-SHA256 tag of ``message`` under this key."""
        return HmacKey.tag_many((self,), message)[0]

    @staticmethod
    def tag_many(keys: Sequence[HmacKey], message: bytes) -> list[bytes]:
        """The tag of ``message`` under each of ``keys``, in order —
        ``len(keys)`` HMACs, counted on ``crypto.hmac.calls`` at once."""
        _HMAC_CALLS.value += len(keys)
        tags = []
        for key in keys:
            inner = key._inner.copy()
            inner.update(message)
            outer = key._outer.copy()
            outer.update(inner.digest())
            tags.append(outer.digest())
        return tags


def hmac_invocations() -> int:
    """Count of :func:`hmac_sha256` calls and :class:`HmacKey` tags
    (backward-compatible shim).

    Instrumentation hook for the aggregation benchmarks and tests:
    snapshot it before and after a protocol run to count how many key
    derivations the run performed. HMAC is the only keyed primitive on
    the aggregation hot path, so the delta *is* the derivation count.
    Now backed by the ``crypto.hmac.calls`` counter in the default
    :mod:`repro.obs` registry; resets when that registry resets.
    """
    return int(_HMAC_CALLS.value)


def verify_hmac(key: bytes, message: bytes, tag: bytes) -> bool:
    """Constant-time comparison of an HMAC tag."""
    return _hmac.compare_digest(hmac_sha256(key, message), tag)


def sha256(data: bytes) -> bytes:
    """SHA-256 digest."""
    return hashlib.sha256(data).digest()


def counter_stream(seed: bytes, length: int) -> bytes:
    """Counter-mode expansion of a 32-byte seed into ``length`` bytes.

    Block 0 is the seed itself; block ``n`` (n >= 1) is
    ``SHA256(seed || n_be32)``. The caller derives the seed with one
    keyed HMAC (e.g. per (pair, round) in the aggregation layer) and
    then expands it into as many field elements as the round needs, so
    the number of *keyed* derivations stays independent of the vector
    width. Asking for a longer stream later re-yields the same prefix.
    """
    if len(seed) != 32:
        raise ConfigurationError(f"counter-stream seed must be 32 bytes, got {len(seed)}")
    if length < 0:
        raise ConfigurationError("keystream length must be non-negative")
    if length <= 32:
        return seed[:length]
    blocks = [seed]
    produced = 32
    counter = 1
    while produced < length:
        blocks.append(hashlib.sha256(seed + counter.to_bytes(4, "big")).digest())
        produced += 32
        counter += 1
    return b"".join(blocks)[:length]


def hkdf(master: bytes, info: str, length: int = KEY_SIZE) -> bytes:
    """Simplified HKDF-expand: derive ``length`` bytes bound to ``info``.

    Used throughout the key hierarchy so that every purpose (object
    encryption, policy binding, audit MAC, ...) gets an independent key
    from one master secret.
    """
    if length <= 0 or length > 255 * 32:
        raise ConfigurationError("invalid derived key length")
    output = b""
    previous = b""
    counter = 1
    while len(output) < length:
        previous = hmac_sha256(master, previous + info.encode() + bytes([counter]))
        output += previous
        counter += 1
    return output[:length]
