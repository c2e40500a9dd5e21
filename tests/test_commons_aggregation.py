"""Tests for secure aggregation protocols."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commons import (
    AggregationNode,
    CleartextSum,
    MaskedSum,
    ShamirSum,
    masked_histogram,
    ring_neighbor_positions,
)
from repro.crypto import shamir
from repro.crypto.primitives import hmac_invocations
from repro.errors import ConfigurationError, ProtocolError


def make_nodes(count, seed=1):
    rng = random.Random(seed)
    return [AggregationNode.standalone(f"cell-{i}", rng) for i in range(count)]


def values_for(nodes, values):
    return {node.name: value for node, value in zip(nodes, values)}


class TestCleartextBaseline:
    def test_sum(self):
        nodes = make_nodes(4)
        result = CleartextSum().run(nodes, values_for(nodes, [10, 20, 30, 40]))
        assert shamir.decode_signed(result.total) == 100
        assert result.messages == 4

    def test_leaks_individuals(self):
        nodes = make_nodes(3)
        result = CleartextSum().run(nodes, values_for(nodes, [1, 2, 3]))
        assert result.aggregator_view == [1, 2, 3]  # full leakage

    def test_dropout_simply_missing(self):
        nodes = make_nodes(3)
        result = CleartextSum().run(
            nodes, values_for(nodes, [1, 2, 3]), online={"cell-0", "cell-2"}
        )
        assert shamir.decode_signed(result.total) == 4
        assert result.dropped == 1


class TestMaskedSum:
    def test_correct_total(self):
        nodes = make_nodes(5)
        result = MaskedSum().run(nodes, values_for(nodes, [5, 10, 15, 20, 25]))
        assert shamir.decode_signed(result.total) == 75
        assert result.rounds == 1

    def test_negative_values(self):
        nodes = make_nodes(3)
        result = MaskedSum().run(nodes, values_for(nodes, [-10, 4, 3]))
        assert shamir.decode_signed(result.total) == -3

    def test_aggregator_view_hides_individuals(self):
        nodes = make_nodes(4)
        values = [7, 7, 7, 7]
        result = MaskedSum().run(nodes, values_for(nodes, values))
        # equal inputs must yield (overwhelmingly) unequal masked views
        assert len(set(result.aggregator_view)) == 4
        for masked in result.aggregator_view:
            assert masked not in values

    def test_dropout_recovery(self):
        nodes = make_nodes(6)
        values = values_for(nodes, [1, 2, 3, 4, 5, 6])
        result = MaskedSum().run(
            nodes, values, online={"cell-0", "cell-1", "cell-3", "cell-5"}
        )
        assert shamir.decode_signed(result.total) == 1 + 2 + 4 + 6
        assert result.dropped == 2
        assert result.rounds == 2

    def test_recovery_costs_extra_messages(self):
        nodes = make_nodes(6)
        values = values_for(nodes, [1] * 6)
        clean = MaskedSum().run(nodes, values)
        with_dropout = MaskedSum().run(
            nodes, values, online={n.name for n in nodes[:4]}
        )
        assert with_dropout.messages > clean.messages

    def test_single_node_rejected(self):
        nodes = make_nodes(1)
        with pytest.raises(ConfigurationError):
            MaskedSum().run(nodes, values_for(nodes, [1]))

    def test_all_dropped_rejected(self):
        nodes = make_nodes(3)
        with pytest.raises(ProtocolError):
            MaskedSum().run(nodes, values_for(nodes, [1, 2, 3]), online=set())

    def test_round_tags_give_fresh_masks(self):
        nodes = make_nodes(2)
        values = values_for(nodes, [9, 1])
        view_a = MaskedSum().run(nodes, values, round_tag="day-1").aggregator_view
        view_b = MaskedSum().run(nodes, values, round_tag="day-2").aggregator_view
        assert view_a != view_b  # mask reuse would leak value deltas

    def test_mean(self):
        nodes = make_nodes(4)
        result = MaskedSum().run(nodes, values_for(nodes, [10, 20, 30, 40]))
        assert result.mean == 25.0

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(st.integers(min_value=-10**9, max_value=10**9),
                 min_size=2, max_size=8),
        st.data(),
    )
    def test_total_matches_online_sum_property(self, values, data):
        nodes = make_nodes(len(values))
        online_mask = data.draw(
            st.lists(st.booleans(), min_size=len(values), max_size=len(values))
        )
        online = {
            node.name for node, keep in zip(nodes, online_mask) if keep
        }
        if not online:
            online = {nodes[0].name}
        result = MaskedSum().run(nodes, values_for(nodes, values), online=online)
        expected = sum(
            value for node, value in zip(nodes, values) if node.name in online
        )
        assert shamir.decode_signed(result.total) == expected


class TestShamirSum:
    def test_correct_total(self):
        nodes = make_nodes(7)
        protocol = ShamirSum(committee_size=5, threshold=3, rng=random.Random(2))
        result = protocol.run(nodes, values_for(nodes, list(range(7))))
        assert shamir.decode_signed(result.total) == sum(range(7))
        assert result.rounds == 2

    def test_tolerates_committee_dropout(self):
        nodes = make_nodes(5)
        protocol = ShamirSum(committee_size=5, threshold=3, rng=random.Random(2))
        result = protocol.run(
            nodes,
            values_for(nodes, [10] * 5),
            committee_online={0, 2, 4},
        )
        assert shamir.decode_signed(result.total) == 50

    def test_below_threshold_committee_fails(self):
        nodes = make_nodes(5)
        protocol = ShamirSum(committee_size=5, threshold=3, rng=random.Random(2))
        with pytest.raises(ProtocolError):
            protocol.run(
                nodes, values_for(nodes, [1] * 5), committee_online={0, 1}
            )

    def test_contributor_dropout(self):
        nodes = make_nodes(4)
        protocol = ShamirSum(committee_size=3, threshold=2, rng=random.Random(2))
        result = protocol.run(
            nodes, values_for(nodes, [1, 2, 3, 4]),
            online={"cell-1", "cell-3"},
        )
        assert shamir.decode_signed(result.total) == 6
        assert result.dropped == 2

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            ShamirSum(committee_size=3, threshold=4)

    def test_message_count_scales_with_committee(self):
        nodes = make_nodes(10)
        small = ShamirSum(committee_size=3, threshold=2, rng=random.Random(2))
        large = ShamirSum(committee_size=9, threshold=5, rng=random.Random(2))
        values = values_for(nodes, [1] * 10)
        assert small.run(nodes, values).messages < large.run(nodes, values).messages


def preshared_nodes(count, secret=b"test-group"):
    return [
        AggregationNode.preshared(f"cell-{i}", secret) for i in range(count)
    ]


class TestMaskKeystream:
    """The per-(pair, round) seed + counter-mode expansion."""

    def test_both_ends_agree(self):
        a, b = make_nodes(2)
        for component in range(5):
            assert a.pairwise_mask(b, "r", component) == b.pairwise_mask(
                a, "r", component
            )

    def test_expansion_prefix_is_stable(self):
        a, b = preshared_nodes(2)
        short = a.mask_elements(b, "r", 3)
        long = a.mask_elements(b, "r", 10)
        assert long[:3] == short

    def test_one_derivation_covers_all_components(self):
        a, b = preshared_nodes(2)
        before = hmac_invocations()
        a.mask_elements(b, "wide", 64)
        assert hmac_invocations() - before == 1

    def test_cached_round_costs_nothing(self):
        a, b = preshared_nodes(2)
        a.mask_elements(b, "r", 8)
        before = hmac_invocations()
        a.mask_elements(b, "r", 8)
        a.pairwise_mask(b, "r", 5)
        assert hmac_invocations() - before == 0

    def test_flush_masks_forces_rederivation(self):
        a, b = preshared_nodes(2)
        a.mask_elements(b, "r", 2)
        a.flush_masks("r")
        before = hmac_invocations()
        a.mask_elements(b, "r", 2)
        assert hmac_invocations() - before == 1

    def test_flush_of_one_round_leaves_the_others_cached(self):
        a, b, c = preshared_nodes(3)
        for round_tag in ("r", "s"):
            a.mask_elements_many([b, c], round_tag, 2)
        kept = a.mask_elements_many([b, c], "s", 2)
        a.flush_masks("r")
        a.flush_masks("never-masked")  # nothing to drop, no error
        before = hmac_invocations()
        assert a.mask_elements_many([b, c], "s", 2) == kept
        assert hmac_invocations() - before == 0
        a.mask_elements_many([b, c], "r", 2)
        assert hmac_invocations() - before == 2

    def test_peer_without_key_material_leaves_no_trace(self):
        """Every fresh key is resolved before any seed is tagged: a
        keyless peer after a good one raises with no HMAC paid and no
        row kept, so the good peer's seed is derived afresh later."""
        a, b = make_nodes(2)
        keyless = AggregationNode("keyless", None)
        before = hmac_invocations()
        with pytest.raises(AttributeError):
            a.mask_elements_many([b, keyless], "r", 1)
        assert hmac_invocations() == before
        rows = a.mask_elements_many([b], "r", 1)
        assert hmac_invocations() - before == 1
        same_keys_as_a = make_nodes(2)[0]
        assert rows == [same_keys_as_a.mask_elements(b, "r", 1)]

    def test_masks_differ_across_components_and_rounds(self):
        a, b = preshared_nodes(2)
        elements = a.mask_elements(b, "r1", 16)
        assert len(set(elements)) == 16
        assert a.mask_elements(b, "r2", 16) != elements


class TestRingGraph:
    def test_neighbor_positions_symmetric(self):
        size, degree = 11, 4
        for position in range(size):
            for neighbor in ring_neighbor_positions(position, size, degree):
                assert position in ring_neighbor_positions(
                    neighbor, size, degree
                )

    def test_degree(self):
        assert len(ring_neighbor_positions(0, 10, 4)) == 4
        assert ring_neighbor_positions(0, 10, 4) == [1, 2, 8, 9]

    def test_odd_degree_rejected(self):
        with pytest.raises(ConfigurationError):
            MaskedSum(neighbors=3)
        with pytest.raises(ConfigurationError):
            MaskedSum(neighbors=0)

    def test_protocol_label(self):
        assert MaskedSum().name_with_params == "masked"
        assert MaskedSum(neighbors=8).name_with_params == "masked(k=8)"


class TestScalingEquivalence:
    """The sparse graph and the keystream cache must never change the
    answer — byte-identical totals to the complete-graph path."""

    def test_k_regular_matches_complete_total(self):
        values = [5, -3, 11, 0, 42, 7, -9, 2, 18, 1]
        nodes = preshared_nodes(len(values))
        complete = MaskedSum().run(nodes, values_for(nodes, values))
        sparse = MaskedSum(neighbors=4).run(
            nodes, values_for(nodes, values), round_tag="sparse"
        )
        assert sparse.total == complete.total
        assert shamir.decode_signed(sparse.total) == sum(values)

    def test_k_regular_matches_complete_with_dropouts(self):
        values = list(range(12))
        nodes = preshared_nodes(len(values))
        online = {n.name for i, n in enumerate(nodes) if i % 3}
        complete = MaskedSum().run(
            nodes, values_for(nodes, values), online=online
        )
        sparse = MaskedSum(neighbors=6).run(
            nodes, values_for(nodes, values), online=online, round_tag="s2"
        )
        assert sparse.total == complete.total
        assert sparse.dropped == complete.dropped == 4
        assert sparse.rounds == 2
        # sparse recovery reveals only dropped *neighbor* edges
        assert sparse.messages < complete.messages

    def test_degree_at_least_roster_closes_into_complete_graph(self):
        values = [4, 8, 15, 16, 23]
        nodes = preshared_nodes(len(values))
        complete = MaskedSum().run(nodes, values_for(nodes, values))
        clamped = MaskedSum(neighbors=16).run(nodes, values_for(nodes, values))
        # same graph, same seeds: the published views are byte-identical
        assert clamped.aggregator_view == complete.aggregator_view
        assert clamped.total == complete.total

    def test_histogram_k_regular_matches_complete_with_dropouts(self):
        nodes = preshared_nodes(15)
        buckets = {n.name: i % 4 for i, n in enumerate(nodes)}
        online = {n.name for i, n in enumerate(nodes) if i not in (2, 9)}
        complete_counts, complete_acc = masked_histogram(
            nodes, buckets, bucket_count=4, online=online, round_tag="h1"
        )
        sparse_counts, sparse_acc = masked_histogram(
            nodes, buckets, bucket_count=4, online=online, round_tag="h2",
            neighbors=4,
        )
        assert sparse_counts == complete_counts
        assert sparse_acc.protocol == "masked-histogram(k=4)"
        assert sparse_acc.bytes < complete_acc.bytes

    def test_dropout_recovery_reuses_cached_masks(self):
        nodes = preshared_nodes(10)
        values = values_for(nodes, [1] * 10)
        online = {n.name for n in nodes[:7]}
        before = hmac_invocations()
        result = MaskedSum().run(nodes, values, online=online)
        derivations = hmac_invocations() - before
        # one seed per (survivor, peer) edge; the recovery round answers
        # from the cache with zero fresh derivations
        assert derivations == 7 * 9
        assert result.rounds == 2
        assert shamir.decode_signed(result.total) == 7

    def test_histogram_hmac_bound_at_n200_b24(self):
        """Acceptance criterion: <= N^2 + N*dropped derivations at
        N=200, B=24 (the seed path performed N^2*B)."""
        size, bucket_count = 200, 24
        nodes = preshared_nodes(size, secret=b"bound-group")
        buckets = {n.name: i % bucket_count for i, n in enumerate(nodes)}
        online = {n.name for i, n in enumerate(nodes) if i % 40 != 0}
        dropped = size - len(online)
        before = hmac_invocations()
        counts, accounting = masked_histogram(
            nodes, buckets, bucket_count=bucket_count, online=online
        )
        derivations = hmac_invocations() - before
        assert derivations <= size * size + size * dropped
        assert accounting.dropped == dropped
        assert sum(counts) == len(online)


class TestPresharedNodes:
    def test_totals_exact(self):
        nodes = preshared_nodes(6)
        result = MaskedSum().run(nodes, values_for(nodes, [1, 2, 3, 4, 5, 6]))
        assert shamir.decode_signed(result.total) == 21

    def test_distinct_pairs_get_distinct_keys(self):
        a, b, c = preshared_nodes(3)
        assert a._pairwise_key_for(b) != a._pairwise_key_for(c)
        assert a._pairwise_key_for(b) == b._pairwise_key_for(a)

    def test_node_without_keys_or_secret_rejected(self):
        a = AggregationNode("bare-a", None)
        b = AggregationNode("bare-b", None)
        with pytest.raises(ConfigurationError):
            a.pairwise_mask(b, "r")


class TestMaskedHistogram:
    def test_counts_correct(self):
        nodes = make_nodes(6)
        buckets = {node.name: i % 3 for i, node in enumerate(nodes)}
        counts, accounting = masked_histogram(nodes, buckets, bucket_count=3)
        assert counts == [2, 2, 2]
        assert accounting.total == 6

    def test_dropout_recovery(self):
        nodes = make_nodes(5)
        buckets = {node.name: 0 for node in nodes}
        online = {node.name for node in nodes[:3]}
        counts, accounting = masked_histogram(
            nodes, buckets, bucket_count=2, online=online
        )
        assert counts == [3, 0]
        assert accounting.dropped == 2

    def test_bucket_out_of_range_rejected(self):
        nodes = make_nodes(2)
        with pytest.raises(ConfigurationError):
            masked_histogram(nodes, {n.name: 5 for n in nodes}, bucket_count=3)

    def test_zero_buckets_rejected(self):
        nodes = make_nodes(2)
        with pytest.raises(ConfigurationError):
            masked_histogram(nodes, {n.name: 0 for n in nodes}, bucket_count=0)

    def test_aggregator_view_holds_masked_vectors(self):
        nodes = make_nodes(5)
        buckets = {n.name: i % 2 for i, n in enumerate(nodes)}
        online = {n.name for n in nodes[:4]}
        counts, accounting = masked_histogram(
            nodes, buckets, bucket_count=2, online=online
        )
        # one published vector per survivor, one component per bucket
        assert len(accounting.aggregator_view) == 4
        assert all(len(vector) == 2 for vector in accounting.aggregator_view)
        # the vectors are masked: no survivor's plain unit vector shows
        assert all(
            set(vector) != {0, 1} for vector in accounting.aggregator_view
        )
        # but their sum (after recovery) is exactly what was published
        assert sum(counts) == 4
