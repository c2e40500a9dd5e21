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
from repro.commons.aggregation import ring_neighbor_positions
from repro.core import TrustedCell
from repro.crypto import KeyRing, open_sealed, seal
from repro.fedquery import gate
from repro.fedquery.gate import open_records, seal_records
from repro.hardware import SMART_TOKEN, SMARTPHONE, FlashTimings, NandFlash
from repro.policy import DataEnvelope, private_policy
from repro.sim import World
from repro.store import Aggregate, Between, Catalog, Eq, Query

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


#: A ``records-kanon`` cell's batch: two projected rows, ~110 B of JSON —
#: the size each seal on the kanon egress covers (~14 CTR blocks).
KANON_ROWS = [
    {"qi_age": 41, "qi_zip": 75013, "sector": "health"},
    {"qi_age": 29, "qi_zip": 75020, "sector": "retail"},
]


def test_seal_records_kanon_batch(benchmark):
    blob_hex = benchmark(seal_records, KEY, KANON_ROWS, "q-kanon", "cell-0000")
    assert open_records(KEY, blob_hex) == KANON_ROWS


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


def test_warm_fleet_cell_sum_4_hours(benchmark):
    """A fleet cell's exact query on a warm page cache: 24 hourly rows
    and a profile row on tiny flash under a one-block cache, the last
    3 records still in the write buffer, summing a 4-hour window."""
    from repro.fedquery import build_fleet
    from repro.infrastructure.network import Network

    world = World(seed=1)
    fleet = build_fleet(world, Network(world), 3)
    catalog = fleet.catalogs[fleet.roster[0]]  # the indexed layout
    query = Query("energy", where=Between("hour", 8, 11),
                  aggregates=[Aggregate("sum", "watts")])
    catalog.query(query)  # keep the rows it decodes
    result = benchmark(catalog.query, query)
    assert result.plan == "range:hour"


def test_warm_sum_3600_rows(benchmark):
    """An hour of 1 Hz meter rows, every page of it resident in the
    page cache: the warm aggregate gathers each chunk from kept rows."""
    from repro.workloads.energy import HouseholdSimulator

    records = HouseholdSimulator(
        random.Random(2013), sample_period=1).simulate_day(0).records()
    page = SMART_TOKEN.flash.page_size
    catalog = Catalog(NandFlash(SMART_TOKEN.flash, capacity_bytes=1024 * page),
                      page_cache_bytes=128 * page)
    meter = catalog.collection("meter")
    meter.create_ordered_index("t")
    meter.insert_many(records[:7200])
    query = Query("meter", where=Between("t", 1800, 5399),
                  aggregates=[Aggregate("sum", "w")])
    catalog.query(query)  # keep the rows it decodes
    result = benchmark(catalog.query, query)
    assert result.plan == "range:t" and len(result.rows) == 1


def _decoded_meter_chunk(count: int):
    """A fresh ``decode_page`` batch of ``count`` ``{slot, t, w}`` rows
    (numeric views, no Python values yet), as pytest-benchmark setup
    arguments: every round builds its rows from a cold batch."""
    from repro.store.encoding import decode_page, encode_record

    payloads = [encode_record({"slot": index % 48, "t": 1_000_000 + index,
                               "w": index / 8}) for index in range(count)]
    return lambda: ((decode_page(payloads),), {})


def test_column_batch_rows_2048x3(benchmark):
    """A full scan's chunk: every row of 2,048 three-field records."""
    rows = benchmark.pedantic(lambda batch: batch.rows(), rounds=100,
                              setup=_decoded_meter_chunk(2048))
    assert len(rows) == 2048


def test_column_batch_rows_at_4_of_22(benchmark):
    """A fleet cell's exact query: 4 hits in its 22-row chunk, the
    shape a zone-map or scan plan hands ``rows_at`` hundreds of times
    per federated query."""
    rows = benchmark.pedantic(lambda batch: batch.rows_at([2, 9, 10, 17]),
                              rounds=2000, setup=_decoded_meter_chunk(22))
    assert [row["slot"] for row in rows] == [2, 9, 10, 17]


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


def _preshared_roster(size: int) -> tuple[list[str], dict]:
    names = [f"cell-{position:04d}" for position in range(size)]
    return names, {name: AggregationNode.preshared(name, b"micro-ops")
                   for name in names}


def test_masked_contribution_400_cells_k32(benchmark):
    """One cell's ring-masked contribution, the shape a flat fedquery
    op pays once per cell: 32 fresh (pair, round) seeds, one element
    each. Every call takes a fresh round tag — a reused tag hits the
    mask memo and times a lookup, not a derivation."""
    names, directory = _preshared_roster(400)
    node = directory[names[200]]
    tags: list[str] = []

    def one_contribution():
        tags.append(f"round-{len(tags)}")
        return gate.masked_contribution(
            node, directory, names, tags[-1], 4242, neighbors=32)

    one_contribution()  # warm the pairwise keys
    masked = benchmark(one_contribution)
    # The scalar oracle on its own nodes, so it reads no memo the
    # batch call wrote.
    _, oracle = _preshared_roster(400)
    assert masked == gate.masked_contribution_reference(
        oracle[names[200]], oracle, names, tags[-1], 4242, neighbors=32)


def test_masked_contribution_400_cells_k32_windowed(benchmark):
    """The same contribution in the tree's shape: the cell holds only
    its ring window (its 32 neighbors and itself) with their global
    ``positions`` and the global roster ``size``, as a regional
    coordinator's plan ships it. Fresh round tag per call; the result
    must be the flat path's."""
    names, directory = _preshared_roster(400)
    node = directory[names[200]]
    window = sorted(ring_neighbor_positions(200, 400, 32) + [200])
    roster = [names[at] for at in window]
    positions = {names[at]: at for at in window}
    tags: list[str] = []

    def one_contribution():
        tags.append(f"round-{len(tags)}")
        return gate.masked_contribution(
            node, directory, roster, tags[-1], 4242, neighbors=32,
            positions=positions, size=400)

    one_contribution()  # warm the pairwise keys
    masked = benchmark(one_contribution)
    _, flat = _preshared_roster(400)
    assert masked == gate.masked_contribution(
        flat[names[200]], flat, names, tags[-1], 4242, neighbors=32)
