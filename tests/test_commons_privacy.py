"""Tests for DP mechanisms, k-anonymity, and the commons coordinator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commons import (
    TRANSFORM_DP,
    TRANSFORM_EXACT,
    TRANSFORM_KANON,
    AggregationNode,
    CommonsCoordinator,
    CommonsMember,
    GlobalQuery,
    central_dp_sum,
    distinct_sensitive_values,
    distributed_dp_sum,
    dp_mean_absolute_error,
    gamma_noise_share,
    is_k_anonymous,
    k_anonymize,
    laplace_noise,
    laplace_scale,
    mondrian_partition,
    ncp,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.sim import SeedSequence


class TestLaplace:
    def test_scale_formula(self):
        assert laplace_scale(sensitivity=2.0, epsilon=0.5) == 4.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            laplace_scale(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            laplace_scale(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            laplace_noise(random.Random(1), -1.0)

    def test_noise_statistics(self):
        rng = random.Random(42)
        draws = [laplace_noise(rng, scale=2.0) for _ in range(20_000)]
        mean = sum(draws) / len(draws)
        # Laplace(0, b): mean 0, variance 2b^2 = 8
        variance = sum((draw - mean) ** 2 for draw in draws) / len(draws)
        assert abs(mean) < 0.1
        assert variance == pytest.approx(8.0, rel=0.1)

    def test_central_dp_sum_close_for_large_epsilon(self):
        rng = random.Random(1)
        release = central_dp_sum([1.0] * 100, 1.0, 100.0, rng)
        assert release == pytest.approx(100.0, abs=1.0)


class TestDistributedNoise:
    def test_gamma_shares_sum_to_laplace(self):
        """Sum of n Gamma(1/n) differences matches Laplace variance."""
        rng = random.Random(7)
        participants = 20
        scale = 3.0
        totals = []
        for _ in range(4000):
            totals.append(
                sum(
                    gamma_noise_share(rng, participants, scale)
                    for _ in range(participants)
                )
            )
        mean = sum(totals) / len(totals)
        variance = sum((t - mean) ** 2 for t in totals) / len(totals)
        assert abs(mean) < 0.25
        assert variance == pytest.approx(2 * scale * scale, rel=0.15)

    def test_distributed_sum_accuracy_matches_central(self):
        rng = random.Random(3)
        values = [float(i % 10) for i in range(200)]
        true_sum = sum(values)
        central_error = dp_mean_absolute_error(
            true_sum,
            lambda r: central_dp_sum(values, 1.0, 1.0, r),
            trials=300,
            rng=rng,
        )
        distributed_error = dp_mean_absolute_error(
            true_sum,
            lambda r: distributed_dp_sum(values, 1.0, 1.0, r),
            trials=300,
            rng=rng,
        )
        assert distributed_error == pytest.approx(central_error, rel=0.3)

    def test_error_decreases_with_epsilon(self):
        rng = random.Random(5)
        values = [1.0] * 50
        loose = dp_mean_absolute_error(
            50.0, lambda r: central_dp_sum(values, 1.0, 0.1, r), 200, rng
        )
        tight = dp_mean_absolute_error(
            50.0, lambda r: central_dp_sum(values, 1.0, 10.0, r), 200, rng
        )
        assert tight < loose

    def test_invalid_dropout_rejected(self):
        with pytest.raises(ConfigurationError):
            distributed_dp_sum([1.0], 1.0, 1.0, random.Random(1), dropout_rate=1.0)

    def test_zero_participants_rejected(self):
        with pytest.raises(ConfigurationError):
            gamma_noise_share(random.Random(1), 0, 1.0)


def patient_records(count=60, seed=2):
    rng = random.Random(seed)
    diseases = ["flu", "diabetes", "asthma", "none"]
    return [
        {
            "qi_age": rng.randint(18, 90),
            "qi_zip": rng.randint(75000, 75020),
            "disease": rng.choice(diseases),
        }
        for _ in range(count)
    ]


class TestKAnonymity:
    def test_partitions_respect_k(self):
        records = patient_records()
        for k in (2, 5, 10):
            partitions = mondrian_partition(records, ["qi_age", "qi_zip"], k)
            assert all(len(partition) >= k for partition in partitions)
            assert sum(len(partition) for partition in partitions) == len(records)

    def test_released_set_is_k_anonymous(self):
        records = patient_records()
        for k in (2, 5, 10):
            released = k_anonymize(records, ["qi_age", "qi_zip"], ["disease"], k)
            assert is_k_anonymous(released, k)
            assert len(released) == len(records)

    def test_sensitive_values_untouched(self):
        records = patient_records()
        released = k_anonymize(records, ["qi_age", "qi_zip"], ["disease"], 5)
        original = sorted(record["disease"] for record in records)
        kept = sorted(record.sensitive["disease"] for record in released)
        assert kept == original

    def test_ranges_cover_originals(self):
        records = patient_records(count=40)
        partitions = mondrian_partition(records, ["qi_age"], 4)
        for partition in partitions:
            ages = [record["qi_age"] for record in partition]
            assert max(ages) - min(ages) >= 0

    def test_information_loss_grows_with_k(self):
        records = patient_records(count=100)
        losses = [
            ncp(
                k_anonymize(records, ["qi_age", "qi_zip"], ["disease"], k),
                records,
                ["qi_age", "qi_zip"],
            )
            for k in (2, 5, 20, 50)
        ]
        assert losses == sorted(losses)
        assert losses[0] < losses[-1]

    def test_k1_is_lossless(self):
        records = patient_records(count=30)
        released = k_anonymize(records, ["qi_age"], ["disease"], 1)
        # with k=1 every record can sit alone; ranges may still be loose
        # where duplicates exist but loss must be (near) zero for
        # distinct values
        assert is_k_anonymous(released, 1)

    def test_too_few_records_rejected(self):
        with pytest.raises(ConfigurationError):
            mondrian_partition(patient_records(count=3), ["qi_age"], 5)

    def test_non_numeric_qi_rejected(self):
        records = [{"qi_name": "alice", "disease": "flu"}] * 10
        with pytest.raises(ConfigurationError):
            mondrian_partition(records, ["qi_name"], 2)

    def test_l_diversity_statistic(self):
        records = patient_records(count=80)
        released = k_anonymize(records, ["qi_age", "qi_zip"], ["disease"], 10)
        diversity = distinct_sensitive_values(released, "disease")
        assert all(count >= 1 for count in diversity.values())


class TestCommonsCoordinator:
    def make_population(self, count=10, seed=4, opted=0.8):
        rng = random.Random(seed)
        members = []
        for i in range(count):
            node = AggregationNode.standalone(f"home-{i}", rng)
            members.append(
                CommonsMember(
                    node=node,
                    value=float(i),
                    record={
                        "qi_age": 20 + i,
                        "qi_zip": 75000 + i % 5,
                        "disease": "flu" if i % 2 else "none",
                    },
                    opted_in_purposes=(
                        {"census", "epidemiology"} if rng.random() < opted else set()
                    ),
                )
            )
        return members

    def test_exact_aggregate(self):
        members = self.make_population(opted=1.0)
        coordinator = CommonsCoordinator(members)
        result = coordinator.run(
            GlobalQuery("utility", "census", TRANSFORM_EXACT)
        )
        assert result.value == sum(range(10))
        assert result.opted_out == 0

    def test_opt_out_respected(self):
        members = self.make_population(opted=1.0)
        members[0].opted_in_purposes.clear()
        members[1].opted_in_purposes.clear()
        coordinator = CommonsCoordinator(members)
        result = coordinator.run(GlobalQuery("utility", "census", TRANSFORM_EXACT))
        assert result.opted_out == 2
        assert result.value == sum(range(2, 10))

    def test_offline_members_counted(self):
        members = self.make_population(opted=1.0)
        members[3].online = False
        coordinator = CommonsCoordinator(members)
        result = coordinator.run(GlobalQuery("utility", "census", TRANSFORM_EXACT))
        assert result.offline == 1
        assert result.value == sum(range(10)) - 3

    def test_dp_aggregate_is_noisy_but_close(self):
        members = self.make_population(count=30, opted=1.0)
        coordinator = CommonsCoordinator(members)
        result = coordinator.run(
            GlobalQuery("institute", "census", TRANSFORM_DP, epsilon=5.0, scale=1000)
        )
        true_total = sum(member.value for member in members)
        assert result.value != true_total
        assert result.value == pytest.approx(true_total, abs=10.0)

    def test_kanon_release(self):
        members = self.make_population(count=20, opted=1.0)
        coordinator = CommonsCoordinator(members)
        result = coordinator.run(
            GlobalQuery("institute", "epidemiology", TRANSFORM_KANON, k=4)
        )
        assert result.records is not None
        assert is_k_anonymous(result.records, 4)

    def test_no_participants_raises(self):
        members = self.make_population(opted=0.0)
        coordinator = CommonsCoordinator(members)
        with pytest.raises(ProtocolError):
            coordinator.run(GlobalQuery("x", "census", TRANSFORM_EXACT))

    def test_unknown_transform_rejected(self):
        with pytest.raises(ConfigurationError):
            GlobalQuery("x", "census", "magic")

    def test_empty_population_rejected(self):
        with pytest.raises(ConfigurationError):
            CommonsCoordinator([], seeds=SeedSequence(1))
