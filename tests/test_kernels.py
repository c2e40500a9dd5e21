"""Batch-kernel equivalence: vectorized paths vs the scalar reference.

The batch kernels of :mod:`repro.commons.kernels` (and the batch mask
paths built on them in :mod:`repro.commons.aggregation` and
:mod:`repro.fedquery.gate`) must be **bit-for-bit** identical to the
historical scalar loops — these are property-style sweeps across
seeds, roster sizes, masking degrees, dropout patterns, and both the
scalar-sum and histogram shapes.
"""

import hashlib
import hmac
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commons import aggregation, kernels
from repro.commons.aggregation import (
    AggregationNode,
    MaskedSum,
    masked_histogram,
    ring_neighbor_positions,
)
from repro.commons.async_aggregation import AsyncMaskedAggregation
from repro.crypto import primitives, shamir
from repro.errors import ProtocolError
from repro.faults.retry import RetryPolicy
from repro.fedquery import (
    TRANSFORM_EXACT,
    CellQueryAgent,
    Coordinator,
    FedQuerySpec,
    ValueSource,
    gate,
)
from repro.infrastructure import CloudProvider
from repro.infrastructure.network import Network
from repro.obs import get_default
from repro.sim import World

SECRET = b"kernel-equivalence-secret"


def _seeds(rng, count):
    return [rng.randbytes(32) for _ in range(count)]


def _fleet(size, secret=SECRET, prefix="kc"):
    names = [f"{prefix}-{index:04d}" for index in range(size)]
    directory = {
        name: AggregationNode.preshared(name, secret) for name in names
    }
    return names, directory


class TestKeystreamKernels:
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 64, 257])
    def test_expand_streams_matches_reference(self, count):
        rng = random.Random(count * 31 + 5)
        seeds = _seeds(rng, 9)
        flat = kernels.expand_streams(seeds, count)
        # One flat seed-major list: seed i's elements are the i-th run
        # of ``count``.
        assert [flat[at * count:(at + 1) * count]
                for at in range(len(seeds))] == [
            kernels.expand_stream_reference(seed, count) for seed in seeds
        ]
        assert len(flat) == len(seeds) * count

    @pytest.mark.parametrize("seed", range(8))
    def test_fold_elements_matches_bigint_mod(self, seed):
        rng = random.Random(seed)
        chunks = [rng.randbytes(16) for _ in range(100)]
        # Force the reduction edges: all-ones (>= PRIME twice over),
        # exactly PRIME, PRIME - 1, and zero.
        chunks += [
            b"\xff" * 16,
            shamir.PRIME.to_bytes(16, "big"),
            (shamir.PRIME - 1).to_bytes(16, "big"),
            b"\x00" * 16,
        ]
        buffer = b"".join(chunks)
        assert kernels.fold_elements(buffer) == [
            int.from_bytes(chunk, "big") % shamir.PRIME for chunk in chunks
        ]

    def test_fold_elements_rejects_ragged_buffers(self):
        with pytest.raises(ValueError):
            kernels.fold_elements(b"\x00" * 17)

    def test_counter_stream_prefix_stability(self):
        # Batch expansion relies on longer streams re-yielding the same
        # prefix; pin that contract here next to its consumers.
        seed = bytes(range(32))
        assert primitives.counter_stream(seed, 96)[:48] == \
            primitives.counter_stream(seed, 48)


class TestAccumulateKernels:
    @pytest.mark.parametrize("seed", range(6))
    def test_accumulate_matches_stepwise_mod(self, seed):
        rng = random.Random(seed)
        values = [rng.randrange(shamir.PRIME) for _ in range(200)]
        expected = 7
        for value in values:
            expected = (expected + value) % shamir.PRIME
        assert kernels.accumulate(values, start=7) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_signed_accumulate_matches_stepwise_mod(self, seed):
        rng = random.Random(100 + seed)
        plus = [rng.randrange(shamir.PRIME) for _ in range(50)]
        minus = [rng.randrange(shamir.PRIME) for _ in range(67)]
        base = rng.randrange(shamir.PRIME)
        expected = base
        for value in plus:
            expected = (expected + value) % shamir.PRIME
        for value in minus:
            expected = (expected - value) % shamir.PRIME
        assert kernels.signed_accumulate(base, plus, minus) == expected

    def test_accumulate_columns_matches_componentwise(self):
        rng = random.Random(42)
        width = 11
        base = [rng.randrange(shamir.PRIME) for _ in range(width)]
        plus = [[rng.randrange(shamir.PRIME) for _ in range(width)]
                for _ in range(5)]
        minus = [[rng.randrange(shamir.PRIME) for _ in range(width)]
                 for _ in range(3)]
        result = kernels.accumulate_columns(base, plus, minus)
        for column in range(width):
            expected = base[column]
            for row in plus:
                expected = (expected + row[column]) % shamir.PRIME
            for row in minus:
                expected = (expected - row[column]) % shamir.PRIME
            assert result[column] == expected

    def test_accumulate_columns_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            kernels.accumulate_columns([0, 0], [[1, 2, 3]], [])

    def test_accumulate_columns_empty_rows(self):
        base = [3, 5, 7]
        assert kernels.accumulate_columns(base, [], []) == base


class TestBatchMaskDerivation:
    def test_mask_elements_many_matches_scalar_and_hmac_count(self):
        names, directory = _fleet(12)
        node = directory[names[0]]
        peers = [directory[name] for name in names[1:]]
        scalar_node = AggregationNode.preshared(names[0], SECRET)
        before = primitives.hmac_invocations()
        batch = node.mask_elements_many(peers, "round-A", 3)
        batch_calls = primitives.hmac_invocations() - before
        before = primitives.hmac_invocations()
        scalar = [
            scalar_node.mask_elements(peer, "round-A", 3) for peer in peers
        ]
        scalar_calls = primitives.hmac_invocations() - before
        assert batch == scalar
        assert batch_calls == scalar_calls == len(peers)

    def test_mask_elements_many_reuses_round_cache(self):
        names, directory = _fleet(6)
        node = directory[names[0]]
        peers = [directory[name] for name in names[1:]]
        node.mask_elements_many(peers, "round-B", 2)
        before = primitives.hmac_invocations()
        widened = node.mask_elements_many(peers, "round-B", 5)
        assert primitives.hmac_invocations() == before  # cached seeds
        assert [row[:2] for row in widened] == \
            node.mask_elements_many(peers, "round-B", 2)

    def test_half_warm_cache_rows_stay_aligned_with_peers(self):
        names, directory = _fleet(13)
        node = directory[names[0]]
        peers = [directory[name] for name in names[1:]]
        # Warm every other peer (one of them wider than asked below, one
        # narrower), so cached and fresh rows interleave.
        node.mask_elements_many(peers[0::4], "round-C", 6)
        node.mask_elements_many(peers[2::4], "round-C", 1)
        scalar_node = AggregationNode.preshared(names[0], SECRET)
        scalar = [
            scalar_node.mask_elements(peer, "round-C", 3) for peer in peers
        ]
        before = primitives.hmac_invocations()
        rows = node.mask_elements_many(peers, "round-C", 3)
        assert rows == scalar
        # Only the cold half pays a keyed derivation; the narrow rows
        # re-expand from their cached seed.
        assert primitives.hmac_invocations() - before == len(peers[1::2])
        shuffled = peers[::-1]
        assert node.mask_elements_many(shuffled, "round-C", 3) == scalar[::-1]

    def test_mask_rows_counter_tells_derived_from_cached(self):
        rows_metric = get_default().metrics.get("agg.mask_rows")
        names, directory = _fleet(9)
        node = directory[names[0]]
        peers = [directory[name] for name in names[1:]]
        node.mask_elements_many(peers[:3], "round-D", 2)
        assert rows_metric.snapshot()["labels"] == {
            "cached": 0, "derived": 3}
        node.mask_elements_many(peers, "round-D", 2)
        assert rows_metric.snapshot()["labels"] == {
            "cached": 3, "derived": 3 + 5}
        node.mask_elements_many(peers, "round-D", 4)  # wider: seeds cached
        assert rows_metric.snapshot()["labels"] == {
            "cached": 3 + 8, "derived": 8}
        assert rows_metric.snapshot()["labels"]["derived"] == \
            primitives.hmac_invocations()


# -- the per-round mask record, as a state machine ---------------------------

MEMO_TAGS = ["t0", "t1", "t2", "t3", "t4"]
MEMO_PEERS = 6
MEMO_BOUND = 3  # rounds resident, patched in: five tags force eviction

_peer = st.integers(0, MEMO_PEERS - 1)
_tag = st.sampled_from(MEMO_TAGS)
_width = st.integers(1, 64)
_memo_ops = st.lists(st.one_of(
    st.tuples(st.just("many"), _tag,
              st.lists(_peer, unique=True, max_size=MEMO_PEERS), _width),
    st.tuples(st.just("one"), _tag, _peer, _width),
    st.tuples(st.just("pair"), _tag, _peer, st.integers(0, 63)),
    st.tuples(st.just("flush"), _tag),
    st.tuples(st.just("flush-all")),
), max_size=40)


class _MemoModel:
    """What the memo must hold: round tag -> peers touched, oldest
    round first, at most ``MEMO_BOUND`` rounds. ``caching=False``
    models a ``cache_masks=False`` node: nothing is ever held."""

    def __init__(self, caching):
        self.caching = caching
        self.rounds = {}
        self.evicted = 0

    def touch(self, tag, names):
        """The names among ``names`` touched for the first time."""
        held = self.rounds.get(tag)
        if held is None:
            held = set()
            if self.caching:
                self.rounds[tag] = held
                if len(self.rounds) > MEMO_BOUND:
                    del self.rounds[next(iter(self.rounds))]
                    self.evicted += 1
        first = [name for name in names if name not in held]
        held.update(first)
        return first


class TestRoundMaskRecord:
    """Random interleavings of every way into the mask memo, against a
    model of it and the scalar expansion of an independently derived
    seed."""

    @staticmethod
    def _seed(node, peer, tag):
        # Standard-library HMAC: the oracle must not move the counter
        # the property reads.
        return hmac.new(node._pairwise_key_for(peer),
                        f"mask|{tag}".encode(), hashlib.sha256).digest()

    @pytest.mark.parametrize("caching", [True, False])
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(ops=_memo_ops)
    def test_interleavings_match_the_model(self, caching, ops):
        metrics = get_default().metrics
        rows_metric = metrics.get("agg.mask_rows")
        evicted_metric = metrics.get("agg.mask_rounds_evicted")
        names, directory = _fleet(MEMO_PEERS + 1, prefix="memo")
        node = AggregationNode.preshared(
            names[0], SECRET, cache_masks=caching)
        peers = [directory[name] for name in names[1:]]
        model = _MemoModel(caching)
        evicted_before = evicted_metric.snapshot()["value"]
        bound = aggregation.MASK_ROUNDS_RESIDENT_MAX
        aggregation.MASK_ROUNDS_RESIDENT_MAX = MEMO_BOUND
        try:
            for op in ops:
                self._step(node, peers, model, rows_metric, op)
        finally:
            aggregation.MASK_ROUNDS_RESIDENT_MAX = bound
        assert evicted_metric.snapshot()["value"] - evicted_before \
            == model.evicted
        assert list(node._mask_cache) == list(model.rounds)
        assert metrics.get("agg.mask_rounds_resident").snapshot()["value"] \
            <= MEMO_BOUND

    def _step(self, node, peers, model, rows_metric, op):
        kind = op[0]
        if kind == "flush":
            node.flush_masks(op[1])
            model.rounds.pop(op[1], None)
            return
        if kind == "flush-all":
            node.flush_masks()
            model.rounds.clear()
            return
        tag = op[1]
        asked = [peers[at] for at in (op[2] if kind == "many" else [op[2]])]
        first = model.touch(tag, [peer.name for peer in asked])
        hmacs = primitives.hmac_invocations()
        rows = dict(rows_metric.snapshot().get(
            "labels", {"cached": 0, "derived": 0}))
        if kind == "many":
            got = node.mask_elements_many(asked, tag, op[3])
            width = op[3]
            rows["derived"] += len(first)
            rows["cached"] += len(asked) - len(first)
        elif kind == "one":
            got = [node.mask_elements(asked[0], tag, op[3])]
            width = op[3]
        else:
            got = [[node.pairwise_mask(asked[0], tag, op[3])]]
            width = op[3] + 1
        expected = [
            kernels.expand_stream_reference(self._seed(node, peer, tag), width)
            for peer in asked
        ]
        if kind == "pair":
            expected = [[expected[0][-1]]]
        assert got == expected
        # One keyed derivation per first touch and no other; only the
        # batch call counts rows, and a node that keeps nothing never
        # answers ``cached``.
        assert primitives.hmac_invocations() - hmacs == len(first)
        assert rows_metric.snapshot().get(
            "labels", {"cached": 0, "derived": 0}) == rows
        if not model.caching:
            assert rows["cached"] == 0

    def test_late_recovery_of_an_evicted_round_rederives_bit_for_bit(
            self, monkeypatch):
        """Masks are a pure function of the pairwise key and the round
        tag: a survivor whose memo has dropped the round answers its
        recovery with the same term, for one HMAC per edge to the
        missing."""
        monkeypatch.setattr(aggregation, "MASK_ROUNDS_RESIDENT_MAX", 2)
        names, _ = _fleet(9, prefix="late")
        rows_metric = get_default().metrics.get("agg.mask_rows")
        missing = {names[4], names[5]}

        def survivors(evict):
            nodes = [AggregationNode.preshared(name, SECRET)
                     for name in names]
            out = []
            for position, node in enumerate(nodes):
                if node.name in missing:
                    continue
                peers = aggregation._positioned_peers(nodes, position, 4)
                published = node.masked_vector(position, peers, "late", [7])
                if evict:
                    for filler in ("f1", "f2"):
                        node.masked_vector(position, peers, filler, [0])
                    assert "late" not in node._mask_cache
                before = dict(rows_metric.snapshot()["labels"])
                net = node.unmasking_vector(
                    position, peers, "late", missing, 1)
                after = rows_metric.snapshot()["labels"]
                edges = sum(peer.name in missing for peer, _ in peers)
                out.append((published, net, edges,
                            after["derived"] - before["derived"],
                            after["cached"] - before["cached"]))
            return out

        kept, evicted = survivors(evict=False), survivors(evict=True)
        assert [row[:2] for row in kept] == [row[:2] for row in evicted]
        assert all(derived == 0 and cached == edges
                   for _, _, edges, derived, cached in kept)
        assert all(derived == edges and cached == 0
                   for _, _, edges, derived, cached in evicted)
        assert sum(edges for _, _, edges, _, _ in evicted) > 0
        total = kernels.accumulate_columns(
            [0], [row[0] for row in evicted] + [row[1] for row in evicted], [])
        assert total == [shamir.encode_signed(7 * 7)]


# Roster sizes exercising every graph shape: the 2-cell pair, the
# smallest odd ring, k+1 (the ring that closes into the complete
# graph), a comfortable ring, and the big one.
ROSTERS = [2, 3, 9, 40, 1000]


class TestGateKernelEquivalence:
    @pytest.mark.parametrize("size", ROSTERS)
    @pytest.mark.parametrize("neighbors", [None, 8])
    def test_masked_contribution_matches_reference(self, size, neighbors):
        names, directory = _fleet(size)
        rng = random.Random(size)
        sample = names if size <= 40 else rng.sample(names, 12)
        for name in sample:
            value = rng.randrange(-10_000, 10_000)
            assert gate.masked_contribution(
                directory[name], directory, names, "tag-eq", value,
                neighbors=neighbors,
            ) == gate.masked_contribution_reference(
                directory[name], directory, names, "tag-eq", value,
                neighbors=neighbors,
            )

    @pytest.mark.parametrize("size", ROSTERS)
    @pytest.mark.parametrize("dropouts", [1, 3, "all-but-one"])
    def test_net_recovery_mask_matches_reference(self, size, dropouts):
        if dropouts == "all-but-one":
            missing_count = size - 1
        else:
            missing_count = min(dropouts, max(size - 1, 1))
        names, directory = _fleet(size)
        rng = random.Random(size * 7 + missing_count)
        missing = rng.sample(names, missing_count)
        survivors = [name for name in names if name not in set(missing)]
        sample = survivors if len(survivors) <= 40 \
            else rng.sample(survivors, 8)
        for name in sample:
            assert gate.net_recovery_mask(
                directory[name], directory, names, "tag-rec", missing,
                neighbors=8,
            ) == gate.net_recovery_mask_reference(
                directory[name], directory, names, "tag-rec", missing,
                neighbors=8,
            )

    @pytest.mark.parametrize("size", [10, 40, 1000])
    def test_windowed_equals_flat_contribution(self, size):
        """The hierarchical window path is bit-for-bit the flat path."""
        names, directory = _fleet(size)
        positions = {name: index for index, name in enumerate(names)}
        rng = random.Random(size + 1)
        sample = names if size <= 40 else rng.sample(names, 12)
        for name in sample:
            value = rng.randrange(-5_000, 5_000)
            flat = gate.masked_contribution(
                directory[name], directory, names, "tag-win", value,
                neighbors=8,
            )
            # The window carries only the cell's ring neighborhood.
            window = ring_neighbor_positions(positions[name], size, 8)
            window.append(positions[name])
            window_positions = {names[entry]: entry for entry in window}
            windowed = gate.masked_contribution(
                directory[name], {name: directory[name]},
                sorted(window_positions), "tag-win", value,
                neighbors=8, positions=window_positions, size=size,
            )
            assert windowed == flat

    def test_windowed_recovery_equals_flat(self):
        size = 60
        names, directory = _fleet(size)
        rng = random.Random(9)
        missing = rng.sample(names, 4)
        positions = {name: index for index, name in enumerate(names)}
        for name in names:
            if name in set(missing):
                continue
            flat = gate.net_recovery_mask(
                directory[name], directory, names, "tag-wrec", missing,
                neighbors=8,
            )
            window = ring_neighbor_positions(positions[name], size, 8)
            window.append(positions[name])
            window_positions = {names[entry]: entry for entry in window}
            windowed = gate.net_recovery_mask(
                directory[name], {name: directory[name]},
                sorted(window_positions), "tag-wrec", missing,
                neighbors=8, positions=window_positions, size=size,
            )
            assert windowed == flat

    def test_windowed_requires_k_regular_graph(self):
        names, directory = _fleet(4)
        positions = {name: index for index, name in enumerate(names)}
        with pytest.raises(Exception):
            gate.masked_contribution(
                directory[names[0]], directory, names, "tag-bad", 1,
                neighbors=None, positions=positions, size=4,
            )

    @pytest.mark.parametrize("windowed", [False, True])
    def test_outsider_node_is_rejected_by_both_functions(self, windowed):
        """One resolution path, one "not on the roster" check: the
        recovery side used to leak a bare ``KeyError`` on flat rosters."""
        names, directory = _fleet(8)
        outsider = AggregationNode.preshared("zz", SECRET)
        form = {}
        if windowed:
            form = {"positions": {name: at for at, name in enumerate(names)},
                    "size": len(names)}
        with pytest.raises(ProtocolError, match="not on the roster"):
            gate.masked_contribution(
                outsider, directory, names, "tag-out", 1, neighbors=4, **form)
        with pytest.raises(ProtocolError, match="not on the roster"):
            gate.net_recovery_mask(
                outsider, directory, names, "tag-out", [names[0]],
                neighbors=4, **form)

    def test_ring_peer_without_key_material_is_rejected(self):
        """A non-preshared node cannot synthesize a peer's keys. Only
        the k ring peers whose keys are actually used are looked up, so
        it is a missing *peer* that raises — a roster member outside
        the cell's ring is never resolved and may be absent."""
        rng = random.Random(3)
        names = [f"dh-{index}" for index in range(8)]
        directory = {
            name: AggregationNode.standalone(name, rng) for name in names
        }
        node = directory[names[0]]
        # k=2: dh-0 masks against dh-1 and dh-7 only.
        beyond_the_ring = dict(directory)
        del beyond_the_ring[names[4]]
        assert gate.masked_contribution(
            node, beyond_the_ring, names, "tag-dh", 5, neighbors=2,
        ) == gate.masked_contribution_reference(
            node, directory, names, "tag-dh", 5, neighbors=2,
        )
        missing_peer = dict(directory)
        del missing_peer[names[1]]
        with pytest.raises(ProtocolError, match="no key material"):
            gate.masked_contribution(
                node, missing_peer, names, "tag-dh", 5, neighbors=2)
        with pytest.raises(ProtocolError, match="no key material"):
            gate.net_recovery_mask(
                node, missing_peer, names, "tag-dh", [names[1]], neighbors=2)


def _window(names, name, size, degree):
    """The hierarchical plan's roster window for ``name``: its ring
    neighbors plus itself, with their global positions."""
    position = names.index(name)
    window = sorted(ring_neighbor_positions(position, size, degree)
                    + [position])
    return [names[at] for at in window], {names[at]: at for at in window}


class TestRingResolution:
    """The error and stub paths of the gate's one roster->peer
    resolution, on the flat and the windowed roster forms."""

    def test_window_missing_a_ring_position_names_it(self):
        names, directory = _fleet(40)
        node = directory[names[20]]
        roster, positions = _window(names, names[20], 40, 8)
        del positions[names[23]]
        roster.remove(names[23])
        with pytest.raises(ProtocolError,
                           match="no roster window entry for ring position 23$"):
            gate.masked_contribution(
                node, directory, roster, "tag-hole", 5, neighbors=8,
                positions=positions, size=40)
        with pytest.raises(ProtocolError, match="ring position 23$"):
            gate.net_recovery_mask(
                node, directory, roster, "tag-hole", [names[19]],
                neighbors=8, positions=positions, size=40)

    def test_a_failed_resolution_leaves_no_row_in_the_memo(self):
        names, directory = _fleet(40)
        node = directory[names[20]]
        roster, positions = _window(names, names[20], 40, 8)
        del positions[names[17]]
        before = primitives.hmac_invocations()
        with pytest.raises(ProtocolError, match="ring position 17$"):
            gate.masked_contribution(
                node, directory, roster, "tag-clean", 5, neighbors=8,
                positions=positions, size=40)
        assert primitives.hmac_invocations() == before
        record = node._mask_cache.get("tag-clean")
        assert record is None or not record.rows
        # The repaired window then masks bit-for-bit like the flat path.
        _, positions = _window(names, names[20], 40, 8)
        assert gate.masked_contribution(
            node, {}, roster, "tag-clean", 5, neighbors=8,
            positions=positions, size=40,
        ) == gate.masked_contribution_reference(
            AggregationNode.preshared(names[20], SECRET),
            _fleet(40)[1], names, "tag-clean", 5, neighbors=8)

    @pytest.mark.parametrize("windowed", [False, True])
    def test_missing_preshared_peer_gets_a_cached_stub(self, windowed):
        names, full = _fleet(40)
        name = names[0]  # the ring wraps: peers at both ends of the roster
        node = full[name]
        directory = {name: node}
        form = {}
        roster = names
        if windowed:
            roster, positions = _window(names, name, 40, 8)
            form = {"positions": positions, "size": 40}
        expected = gate.masked_contribution_reference(
            AggregationNode.preshared(name, SECRET), _fleet(40)[1], names,
            "tag-stub", 9, neighbors=8)
        assert gate.masked_contribution(
            node, directory, roster, "tag-stub", 9, neighbors=8, **form,
        ) == expected
        ring = [names[at] for at in ring_neighbor_positions(0, 40, 8)]
        assert sorted(directory) == sorted(ring + [name])
        stubs = {peer: directory[peer] for peer in ring}
        assert all(stub.name == peer and stub is not full[peer]
                   for peer, stub in stubs.items())
        # Later rounds resolve the cached stubs, not fresh ones.
        gate.net_recovery_mask(
            node, directory, roster, "tag-stub", [ring[0]], neighbors=8,
            **form)
        assert all(directory[peer] is stub for peer, stub in stubs.items())


def _expected_vector(names, name, tag, base, degree, missing=None):
    """Component-wise scalar oracle of ``masked_vector`` (or, with
    ``missing``, of ``unmasking_vector``) on fresh nodes: stdlib-HMAC
    seeds and the reference expansion, one element at a time."""
    nodes = {peer: AggregationNode.preshared(peer, SECRET) for peer in names}
    node, position = nodes[name], names.index(name)
    out = list(base)
    for at in ring_neighbor_positions(position, len(names), degree):
        peer = nodes[names[at]]
        if missing is not None and peer.name not in missing:
            continue
        sign = 1 if position < at else -1
        if missing is not None:
            sign = -sign
        for component in range(len(out)):
            out[component] = (out[component] + sign * node.pairwise_mask(
                peer, tag, component)) % shamir.PRIME
    return out


class TestWidenedRecordReads:
    """The mask core reads the round record by its stride — the widest
    width asked of the round so far — not by the width it is asked
    now: a record widened by an earlier width-5 ask must answer later
    narrower asks bit for bit, half of its peers cached and half
    fresh."""

    SIZE, DEGREE, TAG = 30, 8, "tag-wide"

    def _half_warm(self):
        names, directory = _fleet(self.SIZE)
        name = names[11]
        node = directory[name]
        position = names.index(name)
        peers = [(directory[names[at]], at) for at in
                 ring_neighbor_positions(position, self.SIZE, self.DEGREE)]
        # Widen: half the ring asked at width 5 first.
        node.masked_vector(position, peers[::2], self.TAG, [0] * 5)
        record = node._mask_cache[self.TAG]
        assert record.width == 5 and len(record.rows) == len(peers[::2])
        return names, directory, node, position, peers

    def test_narrow_contributions_read_the_wide_record(self):
        names, directory, node, position, peers = self._half_warm()
        value = 1234
        before = primitives.hmac_invocations()
        masked = gate.masked_contribution(
            node, directory, names, self.TAG, value, neighbors=self.DEGREE)
        # Only the cold half paid a keyed derivation.
        assert primitives.hmac_invocations() - before == len(peers[1::2])
        assert masked == gate.masked_contribution_reference(
            AggregationNode.preshared(names[11], SECRET), _fleet(self.SIZE)[1],
            names, self.TAG, value, neighbors=self.DEGREE)
        assert node._mask_cache[self.TAG].width == 5
        base = [shamir.encode_signed(value), 7]
        assert node.masked_vector(position, peers, self.TAG, base) == \
            _expected_vector(names, names[11], self.TAG, base, self.DEGREE)

    def test_narrow_unmasking_reads_the_wide_record(self):
        names, directory, node, position, peers = self._half_warm()
        missing = [names[at] for _, at in peers[:3]] + [names[0]]
        assert gate.net_recovery_mask(
            node, directory, names, self.TAG, missing, neighbors=self.DEGREE,
        ) == gate.net_recovery_mask_reference(
            AggregationNode.preshared(names[11], SECRET), _fleet(self.SIZE)[1],
            names, self.TAG, missing, neighbors=self.DEGREE)
        assert node.unmasking_vector(
            position, peers, self.TAG, set(missing), 2,
        ) == _expected_vector(names, names[11], self.TAG, [0, 0],
                              self.DEGREE, missing=set(missing))


def _masked_round(size, neighbors, dropouts, seed, width=None):
    """One masked round (batch path) checked against the plain sum."""
    rng = random.Random(seed)
    names = [f"ms-{index}" for index in range(size)]
    nodes = [AggregationNode.preshared(name, SECRET) for name in names]
    dropped = set(rng.sample(names, dropouts)) if dropouts else set()
    online = {name for name in names if name not in dropped}
    if width is None:
        values = {name: rng.randrange(-500, 500) for name in names}
        result = MaskedSum(neighbors=neighbors).run(
            nodes, values, online=online, round_tag=f"r{seed}"
        )
        assert shamir.decode_signed(result.total) == sum(
            values[name] for name in online
        )
    else:
        bucket_of = {name: rng.randrange(width) for name in names}
        counts, _ = masked_histogram(
            nodes, bucket_of, width, online=online,
            round_tag=f"h{seed}", neighbors=neighbors,
        )
        assert counts == [
            sum(1 for name in online if bucket_of[name] == column)
            for column in range(width)
        ]


class TestMaskedSumShapes:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("size,neighbors,dropouts", [
        (2, None, 0), (3, None, 1), (9, 8, 0), (12, 4, 3), (40, 8, 5),
    ])
    def test_sum_shape_is_exact(self, size, neighbors, dropouts, seed):
        _masked_round(size, neighbors, dropouts, seed)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("size,neighbors,dropouts", [
        (3, None, 0), (10, 4, 2), (24, 8, 4),
    ])
    def test_histogram_shape_is_exact(self, size, neighbors, dropouts, seed):
        _masked_round(size, neighbors, dropouts, seed, width=6)


class TestOneMaskCoreAcrossTransports:
    """The same nodes, values, round tag and dropout set through every
    masked transport: each one publishes element-for-element what the
    scalar gate reference computes, because each one calls the one
    mask core (``AggregationNode.masked_vector``/``unmasking_vector``).
    Every cell holds the value 1, so a one-bucket histogram carries the
    same contributions as the three sum transports."""

    SIZE = 9
    ROUND_TAG = "pin|one-core"  # the Coordinator's "<recipient>|<purpose>"

    def _nodes(self, names):
        # Fresh nodes per transport: no transport may lean on a mask
        # cache another one warmed.
        return [AggregationNode.preshared(name, SECRET) for name in names]

    def _async(self, names, values, dropped, neighbors):
        world = World(seed=17)
        cloud = CloudProvider(world)
        wake_times = {
            name: [] if name in dropped else [100 + at, 5000 + at]
            for at, name in enumerate(names)
        }
        protocol = AsyncMaskedAggregation(
            world, cloud, self._nodes(names), values,
            round_tag=self.ROUND_TAG, deadline=3600, wake_times=wake_times,
            neighbors=neighbors,
        )
        # Read the mailboxes the way the untrusted cloud sees them.
        posted = {"contrib": {}, "recovery": {}}
        post = cloud.post_message

        def recording_post(mailbox, sender, payload):
            body = json.loads(payload.decode())
            posted[mailbox.rsplit("/", 1)[1]][sender] = body
            post(mailbox, sender, payload)

        cloud.post_message = recording_post
        protocol.start()
        world.loop.run_until(10_000)
        assert protocol.result.complete
        return (
            {name: body["masked"] for name, body in posted["contrib"].items()},
            {name: body["net_mask"]
             for name, body in posted["recovery"].items()},
            protocol.result.total,
        )

    def _coordinator(self, names, dropped, neighbors):
        world = World(seed=17)
        network = Network(world)
        nodes = self._nodes(names)
        directory = {node.name: node for node in nodes}
        for node in nodes:
            CellQueryAgent(
                world, network, node.name, node, ValueSource(1.0),
                purposes={"one-core"}, directory=directory,
            )
        for name in dropped:
            network.set_online(name, False)
        coordinator = Coordinator(
            world, network, neighbors=neighbors, collect_timeout_s=10,
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=2.0,
                                     jitter=0.0),
        )
        spec = FedQuerySpec(
            recipient="pin", purpose="one-core", transform=TRANSFORM_EXACT,
            collection="member", min_cohort=1,
        )
        result = coordinator.run(spec, names, round_tag=self.ROUND_TAG)
        records = coordinator.journal.records()
        return (
            {r["from"]: r["payload"]["masked"]
             for r in records if r["type"] == "partial"},
            {r["from"]: r["net_mask"]
             for r in records if r["type"] == "mask"},
            result.field_total,
        )

    @pytest.mark.parametrize("neighbors", [None, 4])
    @pytest.mark.parametrize("dropouts", [0, 2])
    def test_every_transport_publishes_the_reference_elements(
            self, neighbors, dropouts):
        rng = random.Random(100 + dropouts)
        names = [f"pin-{index}" for index in range(self.SIZE)]
        dropped = set(rng.sample(names, dropouts))
        survivors = [name for name in names if name not in dropped]
        online = set(survivors)
        values = {name: 1 for name in names}

        oracle = {node.name: node for node in self._nodes(names)}
        expected = {
            name: gate.masked_contribution_reference(
                oracle[name], oracle, names, self.ROUND_TAG, 1,
                neighbors=neighbors)
            for name in survivors
        }
        expected_recovery = {
            name: gate.net_recovery_mask_reference(
                oracle[name], oracle, names, self.ROUND_TAG, sorted(dropped),
                neighbors=neighbors)
            for name in survivors
        } if dropped else {}
        expected_total = shamir.encode_signed(len(survivors))
        in_order = [expected[name] for name in survivors]

        summed = MaskedSum(neighbors=neighbors).run(
            self._nodes(names), values, online=online,
            round_tag=self.ROUND_TAG)
        assert summed.aggregator_view == in_order

        counts, histogram = masked_histogram(
            self._nodes(names), {name: 0 for name in names}, 1,
            online=online, round_tag=self.ROUND_TAG, neighbors=neighbors)
        assert histogram.aggregator_view == [[e] for e in in_order]

        async_masked, async_recovery, async_total = self._async(
            names, values, dropped, neighbors)
        assert async_masked == expected
        assert async_recovery == expected_recovery

        fq_masked, fq_recovery, fq_total = self._coordinator(
            names, dropped, neighbors)
        assert fq_masked == expected
        assert fq_recovery == expected_recovery

        assert summed.total == async_total == fq_total == expected_total
        assert counts == [len(survivors)]
        assert shamir.encode_signed(histogram.total) == expected_total
        # The repaired total is the published elements plus the summed
        # recovery terms — the term the aggregator *adds*.
        assert kernels.accumulate(
            list(expected.values()) + list(expected_recovery.values())
        ) == expected_total
