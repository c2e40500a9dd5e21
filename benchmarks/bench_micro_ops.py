"""Micro-benchmarks of the platform's hot operations.

These complement the experiment benches with classic pytest-benchmark
timings: the per-operation costs that bound what a real low-end cell
could sustain (sealing, signing, policy-checked reads, masked-sum
rounds, embedded queries).

Two of the rows are *tracked*: :func:`measure_encode_decode` (scalar vs
columnar record codec) and :func:`measure_hmac_per_page` (per-frame vs
page-bundled AEAD HMAC counts) feed the ``columnar`` section of
``BENCH_store.json`` via ``bench_store_scale.py``, whose claim rows
(checked by its tier-1 smoke and ``tools/bench_gate.py``) fail when
they regress.
"""

import math
import random
import time

import pytest

from repro.commons import AggregationNode, MaskedSum
from repro.core import TrustedCell
from repro.crypto import KeyRing, open_sealed, seal
from repro.hardware import SMARTPHONE, FlashTimings, NandFlash
from repro.policy import DataEnvelope, private_policy
from repro.sim import World
from repro.store import Catalog, Eq, Query

KEY = bytes(range(16))
PAYLOAD = b"x" * 1024


@pytest.fixture(scope="module")
def ring():
    return KeyRing.generate(random.Random(1))


def test_seal_1kb(benchmark):
    benchmark(seal, KEY, PAYLOAD)


def test_open_1kb(benchmark):
    blob = seal(KEY, PAYLOAD)
    benchmark(open_sealed, KEY, blob)


def test_sign(benchmark, ring):
    benchmark(ring.sign, b"certified aggregate")


def test_verify(benchmark, ring):
    signature = ring.sign(b"certified aggregate")
    verify_key = ring.verify_key
    benchmark(verify_key.verify, b"certified aggregate", signature)


def test_envelope_roundtrip(benchmark):
    policy = private_policy("alice")

    def roundtrip():
        envelope = DataEnvelope.create(KEY, "object", 1, PAYLOAD, policy)
        envelope.open(KEY)

    benchmark(roundtrip)


def test_policy_checked_read(benchmark):
    world = World(seed=1)
    cell = TrustedCell(world, "bench-cell", SMARTPHONE)
    cell.register_user("alice", "pin")
    session = cell.login("alice", "pin")
    cell.store_object(session, "doc", PAYLOAD)
    benchmark(cell.read_object, session, "doc")


def test_store_put(benchmark):
    flash = NandFlash(
        FlashTimings(page_size=4096, pages_per_block=128,
                     read_page_us=12.0, write_page_us=120.0,
                     erase_block_us=1000.0),
        capacity_bytes=64 * 1024 * 1024,
    )
    catalog = Catalog(flash)
    items = catalog.collection("items")
    counter = iter(range(10**9))

    def put():
        index = next(counter)
        items.insert(f"item-{index}", {"kind": "photo", "created_at": index})

    benchmark(put)


def test_indexed_query_1000_records(benchmark):
    flash = NandFlash(
        FlashTimings(page_size=4096, pages_per_block=128,
                     read_page_us=12.0, write_page_us=120.0,
                     erase_block_us=1000.0),
        capacity_bytes=64 * 1024 * 1024,
    )
    catalog = Catalog(flash)
    items = catalog.collection("items")
    items.create_hash_index("kind")
    for index in range(1000):
        items.insert(f"item-{index}", {"kind": f"kind-{index % 20}", "n": index})
    catalog.store.flush()
    query = Query("items", where=Eq("kind", "kind-7"))
    benchmark(catalog.query, query)


def test_keyword_search_1000_records(benchmark):
    from repro.store import HasKeyword

    flash = NandFlash(
        FlashTimings(page_size=4096, pages_per_block=128,
                     read_page_us=12.0, write_page_us=120.0,
                     erase_block_us=1000.0),
        capacity_bytes=64 * 1024 * 1024,
    )
    catalog = Catalog(flash)
    documents = catalog.collection("documents")
    documents.create_keyword_index("caption")
    words = ["beach", "family", "work", "energy", "travel", "music"]
    for index in range(1000):
        caption = " ".join(words[(index + offset) % len(words)]
                           for offset in range(3))
        documents.insert(f"d{index}", {"caption": caption})
    catalog.store.flush()
    query = Query("documents", where=HasKeyword("caption", ("beach", "family")))
    benchmark(catalog.query, query)


def test_hash_join_500x500(benchmark):
    from repro.store import JoinQuery, execute_join

    flash = NandFlash(
        FlashTimings(page_size=4096, pages_per_block=128,
                     read_page_us=12.0, write_page_us=120.0,
                     erase_block_us=1000.0),
        capacity_bytes=64 * 1024 * 1024,
    )
    catalog = Catalog(flash)
    left = catalog.collection("receipts")
    right = catalog.collection("visits")
    for index in range(500):
        left.insert(f"r{index}", {"person": f"p{index % 50}", "amount": index})
        right.insert(f"v{index}", {"person": f"p{index % 50}", "code": index})
    catalog.store.flush()
    join = JoinQuery("receipts", "visits", "person", "person")
    benchmark(execute_join, catalog, join)


# -- tracked micro-op rows ----------------------------------------------------
#
# Plain functions (no pytest-benchmark) so bench_store_scale.py can
# import and run them inside its report. Timings interleave
# the scalar and columnar sides per repetition and keep the best of
# each, which is the only stable protocol on a loaded host.


def _meter_like_records(count: int, seed: int = 7) -> list[dict]:
    rng = random.Random(seed)
    return [
        {"t": 1_000_000 + index, "w": round(rng.uniform(0.0, 3000.0), 1)}
        for index in range(count)
    ]


def measure_encode_decode(count: int = 8192, reps: int = 5) -> dict:
    """Scalar vs columnar record codec over a day-trace-shaped batch.

    Both directions are pinned bit-for-bit: ``encode_records`` must
    produce exactly the per-record ``encode_record`` payloads, and the
    ``decode_page`` batch must materialize to the per-record
    ``decode_record`` rows.
    """
    from repro.store.encoding import (
        decode_page,
        decode_record,
        encode_record,
        encode_records,
    )

    records = _meter_like_records(count)
    encode_scalar = encode_columnar = math.inf
    decode_scalar = decode_columnar = math.inf
    payloads_scalar: list[bytes] = []
    payloads_columnar: list[bytes] = []
    rows_scalar: list[dict] = []
    batch = None
    for _ in range(reps):
        started = time.perf_counter()
        payloads_scalar = [encode_record(record) for record in records]
        encode_scalar = min(encode_scalar, time.perf_counter() - started)

        started = time.perf_counter()
        payloads_columnar = encode_records(records)
        encode_columnar = min(encode_columnar, time.perf_counter() - started)

        started = time.perf_counter()
        rows_scalar = [decode_record(payload) for payload in payloads_scalar]
        decode_scalar = min(decode_scalar, time.perf_counter() - started)

        started = time.perf_counter()
        batch = decode_page(payloads_columnar)
        decode_columnar = min(decode_columnar, time.perf_counter() - started)

    encode_identical = payloads_columnar == payloads_scalar
    decode_identical = [
        batch.row(index) for index in range(batch.count)
    ] == rows_scalar
    return {
        "records": count,
        "encode_ns_scalar": round(encode_scalar / count * 1e9, 1),
        "encode_ns_columnar": round(encode_columnar / count * 1e9, 1),
        "encode_speedup": round(encode_scalar / encode_columnar, 2),
        "decode_ns_scalar": round(decode_scalar / count * 1e9, 1),
        "decode_ns_columnar": round(decode_columnar / count * 1e9, 1),
        "decode_speedup": round(decode_scalar / decode_columnar, 2),
        "encode_bit_for_bit": encode_identical,
        "decode_rows_identical": decode_identical,
    }


def measure_hmac_per_page(frames_per_page: int = 45,
                          frame_bytes: int = 38) -> dict:
    """Keyed-HMAC count for a page's worth of frames: per-frame seals
    vs one ``seal_frames`` bundle.

    One AEAD pass costs exactly four HMAC invocations (two subkey
    derivations, nonce, tag) regardless of plaintext size, so the
    bundle must count 4 where per-frame sealing counts 4·N — the
    ``crypto.hmac.calls`` ledger is the witness, not a wall clock.
    """
    from repro.crypto.aead import open_frames, seal_frames
    from repro.crypto.primitives import hmac_invocations

    frames = [
        bytes([index % 251]) * frame_bytes for index in range(frames_per_page)
    ]
    before = hmac_invocations()
    for index, frame in enumerate(frames):
        seal(KEY, frame, header=b"frame", nonce_seed=str(index).encode())
    per_frame_hmacs = hmac_invocations() - before

    before = hmac_invocations()
    blob = seal_frames(KEY, frames, header=b"page", nonce_seed=b"page-0")
    bundle_hmacs = hmac_invocations() - before

    return {
        "frames_per_page": frames_per_page,
        "per_frame_hmacs": per_frame_hmacs,
        "bundle_hmacs": bundle_hmacs,
        "collapse_factor": round(per_frame_hmacs / bundle_hmacs, 1),
        "roundtrip_identical": open_frames(KEY, blob) == frames,
    }


def test_encode_decode_tracked_row():
    row = measure_encode_decode(count=2048, reps=2)
    assert row["encode_bit_for_bit"]
    assert row["decode_rows_identical"]
    assert row["encode_ns_columnar"] > 0 and row["decode_ns_columnar"] > 0


def test_hmac_per_page_tracked_row():
    row = measure_hmac_per_page()
    assert row["per_frame_hmacs"] == 4 * row["frames_per_page"]
    assert row["bundle_hmacs"] == 4
    assert row["collapse_factor"] == row["frames_per_page"]
    assert row["roundtrip_identical"]


def test_masked_sum_20_nodes(benchmark):
    rng = random.Random(2)
    nodes = [AggregationNode.standalone(f"n-{i}", rng) for i in range(20)]
    values = {node.name: 100 for node in nodes}
    protocol = MaskedSum()
    protocol.run(nodes, values)  # warm the pairwise-key caches
    counter = iter(range(10**9))

    def one_round():
        protocol.run(nodes, values, round_tag=f"round-{next(counter)}")

    benchmark(one_round)
