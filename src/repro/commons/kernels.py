"""Batch kernels for the secure-aggregation hot loops.

The mask algebra of :mod:`repro.commons.aggregation` and the fedquery
egress gate is pure per-element field arithmetic: expand a keystream,
fold each 16-byte chunk into GF(2^127 - 1), add or subtract it from a
running total mod PRIME. This module does each step once per call
over a whole round:

* :func:`expand_streams` — counter-mode keystream expansion for *many*
  seeds in one call, folded in one comprehension. The per-block
  SHA-256 stays in C; a stream that fits in one 32-byte block (a
  width-1 or width-2 round) is the seed's own prefix, so it is read
  off the seed with no stream built;
* :func:`fold_elements` — the same fold over one contiguous buffer of
  16-byte chunks: a slice, a big-endian ``int.from_bytes`` and one
  ``% PRIME`` per chunk, the reference's arithmetic. It replaced a
  NumPy Mersenne fold (two 64-bit lanes, shift, mask, then a Python
  loop reassembling every 128-bit value) that bought nothing at the
  widths rounds ask. Through :func:`expand_streams`, best of 60
  interleaved runs on a shared 2-vCPU Xeon host: 32 seeds at width 1
  (a numeric round's k = 32 ring) 8.9 µs against 15.5 µs; 32 seeds at
  width 16 (a histogram) 252 against 243 µs; 400 seeds × 64, 13.3
  against 13.6 ms. NumPy stays a dependency of the package, for the
  store's columnar pages;
* :func:`accumulate` / :func:`signed_accumulate` /
  :func:`accumulate_columns` — modular accumulation with a *single*
  reduction at the end instead of one ``%`` per element (``sum`` runs
  in C over Python ints; congruence is preserved exactly).

Every kernel is **bit-for-bit identical** to the scalar reference path
(:func:`expand_stream_reference`, pinned by ``tests/test_kernels.py``).
The scalar implementation remains the correctness oracle; the batch
kernels are the production path.
"""

from __future__ import annotations

from ..crypto import shamir
from ..crypto.primitives import counter_stream

PRIME = shamir.PRIME

_ELEMENT_BYTES = 16  # one field element consumes 16 keystream bytes
_SEED_BYTES = 32  # a counter stream's block 0


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
    """Fold a buffer of concatenated 16-byte chunks into field elements:
    the reference's arithmetic, one pass over the whole buffer."""
    if len(buffer) % _ELEMENT_BYTES:
        raise ValueError("buffer must be a whole number of 16-byte elements")
    return _fold([buffer], len(buffer))


def expand_streams(seeds: list[bytes], count: int) -> list[int]:
    """Batch keystream expansion: ``count`` elements for every seed.

    One comprehension over every seed's stream. Returns one flat
    *seed-major* list — seed ``i``'s elements are
    ``flat[i * count:(i + 1) * count]`` — which is what a round's mask
    record keeps; bit-for-bit the concatenation of
    ``expand_stream_reference(seed, count)`` over ``seeds``.
    """
    if count < 0:
        raise ValueError("element count must be non-negative")
    length = count * _ELEMENT_BYTES
    # Block 0 of a counter stream is its seed, so a stream that fits in
    # one block is read off the seed itself: nothing to expand.
    if length > _SEED_BYTES:
        seeds = [counter_stream(seed, length) for seed in seeds]
    return _fold(seeds, length)


def _fold(streams: list[bytes], length: int) -> list[int]:
    """The first ``length`` bytes of every stream, stream-major, as
    16-byte big-endian chunks reduced mod PRIME."""
    offsets = range(0, length, _ELEMENT_BYTES)
    from_bytes = int.from_bytes
    return [
        from_bytes(stream[at:at + _ELEMENT_BYTES], "big") % PRIME
        for stream in streams for at in offsets
    ]


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
