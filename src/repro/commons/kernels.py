"""Array-backed batch kernels for the secure-aggregation hot loops.

The mask algebra of :mod:`repro.commons.aggregation` and the fedquery
egress gate is pure per-element field arithmetic: expand a keystream,
fold each 16-byte chunk into GF(2^127 - 1), add or subtract it from a
running total mod PRIME. Done one element at a time (one slice, one
``int.from_bytes``, one ``%`` per element, one ``%`` per accumulation
step) that is the dominant pure-Python cost of a round at large N.

This module batches those three steps over whole rosters:

* :func:`expand_streams` — counter-mode keystream expansion for *many*
  seeds in one call (the per-block SHA-256 stays in C either way; the
  batching is in the single buffer assembly and the single fold pass);
* :func:`fold_elements` — 16-byte chunks of one contiguous buffer to
  field elements in one pass.  The 128-bit reduction is a vectorized
  Mersenne fold over two 64-bit NumPy lanes (2^127 ≡ 1 mod PRIME, so
  ``x mod PRIME`` is a shift, a mask and one conditional subtract —
  no per-element big-int ``%``);
* :func:`accumulate` / :func:`signed_accumulate` /
  :func:`accumulate_columns` — modular accumulation with a *single*
  reduction at the end instead of one ``%`` per element (``sum`` runs
  in C over Python ints; congruence is preserved exactly).

Every kernel is **bit-for-bit identical** to the scalar reference path
(:func:`expand_stream_reference`, pinned by
``tests/test_kernels.py``).  The scalar implementations remain the
correctness oracle; the batch kernels are the production path.
"""

from __future__ import annotations

import numpy as _np

from ..crypto import shamir
from ..crypto.primitives import counter_stream

PRIME = shamir.PRIME

_ELEMENT_BYTES = 16  # one field element consumes 16 keystream bytes
_MASK63 = (1 << 63) - 1


# -- keystream expansion -----------------------------------------------------


def expand_stream_reference(seed: bytes, count: int) -> list[int]:
    """Scalar reference: one seed to ``count`` field elements.

    This is exactly the historical per-element loop of
    :meth:`AggregationNode.mask_elements` — slice 16 bytes, big-endian
    ``int.from_bytes``, reduce mod PRIME — kept as the oracle the
    batch kernels are pinned against.
    """
    stream = counter_stream(seed, count * _ELEMENT_BYTES)
    return [
        int.from_bytes(stream[offset:offset + _ELEMENT_BYTES], "big")
        % shamir.PRIME
        for offset in range(0, count * _ELEMENT_BYTES, _ELEMENT_BYTES)
    ]


def fold_elements(buffer: bytes) -> list[int]:
    """Fold a buffer of concatenated 16-byte chunks into field elements.

    Vectorized Mersenne reduction: with ``PRIME = 2^127 - 1`` and a
    chunk ``x = hi·2^64 + lo`` (``hi``, ``lo`` unsigned 64-bit),

        x = (hi >> 63)·2^127 + (hi & (2^63-1))·2^64 + lo
          ≡ (hi >> 63) + y  (mod PRIME),   y = (hi & (2^63-1))·2^64 + lo

    where ``y <= PRIME``, so the result needs at most one subtract.
    The shift/mask runs across the whole buffer in NumPy; only the
    final 128-bit assembly touches Python ints.
    """
    if len(buffer) % _ELEMENT_BYTES:
        raise ValueError("buffer must be a whole number of 16-byte elements")
    if not buffer:
        return []
    lanes = _np.frombuffer(buffer, dtype=">u8").reshape(-1, 2)
    carry = (lanes[:, 0] >> 63).tolist()
    hi = (lanes[:, 0] & _MASK63).tolist()
    lo = lanes[:, 1].tolist()
    out = []
    for h, l, c in zip(hi, lo, carry):
        value = ((h << 64) | l) + c
        out.append(value - PRIME if value >= PRIME else value)
    return out


def expand_streams(seeds: list[bytes], count: int) -> list[int]:
    """Batch keystream expansion: ``count`` elements for every seed.

    One buffer assembly plus one :func:`fold_elements` pass replaces
    the per-seed, per-element scalar loop.  Returns one flat
    *seed-major* list — seed ``i``'s elements are
    ``flat[i * count:(i + 1) * count]`` — which is what a round's mask
    record keeps; bit-for-bit the concatenation of
    ``expand_stream_reference(seed, count)`` over ``seeds``.
    """
    if count < 0:
        raise ValueError("element count must be non-negative")
    length = count * _ELEMENT_BYTES
    return fold_elements(
        b"".join(counter_stream(seed, length) for seed in seeds))


# -- modular accumulation ----------------------------------------------------


def accumulate(values, start: int = 0) -> int:
    """``(start + Σ values) mod PRIME`` with a single final reduction.

    Python's ``sum`` loops in C over arbitrary-precision ints, so this
    is both the fastest and the simplest correct form; congruence
    makes it bit-for-bit equal to reducing after every addition.
    """
    return (start + sum(values)) % PRIME


def signed_accumulate(base: int, plus, minus) -> int:
    """``(base + Σ plus − Σ minus) mod PRIME`` in one reduction."""
    return (base + sum(plus) - sum(minus)) % PRIME


def accumulate_columns(
    base: list[int],
    plus_rows: list[list[int]],
    minus_rows: list[list[int]],
) -> list[int]:
    """Column-wise signed accumulation for vector (histogram) rounds.

    ``base`` is the starting vector; every row in ``plus_rows`` is
    added component-wise and every row in ``minus_rows`` subtracted,
    mod PRIME, with one reduction per component instead of one per
    (row, component) pair.
    """
    width = len(base)
    plus_cols = zip(*plus_rows, strict=True) if plus_rows else [()] * width
    minus_cols = zip(*minus_rows, strict=True) if minus_rows else [()] * width
    try:  # the strict zips check every row against ``width`` in C
        return [
            signed_accumulate(value, plus, minus)
            for value, plus, minus in zip(
                base, plus_cols, minus_cols, strict=True)
        ]
    except ValueError:
        raise ValueError(
            "row width does not match the base vector") from None
