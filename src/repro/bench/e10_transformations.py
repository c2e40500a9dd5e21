"""E10 — the shared commons' transformations: anonymization and DP.

Operationalizes: "her data suffers appropriate transformations (e.g.,
anonymization, output perturbation) depending on the trustworthiness of
the recipient(s)". Two sweeps on an epidemiology-style workload
(disease vs diet, the paper's "cross-analyzing diseases and
alimentation"):

* k-anonymity: information loss (NCP) vs k, plus utility of the
  released records for the diabetes-vs-sweets analysis;
* differential privacy: mean absolute error vs epsilon, central noise
  vs the distributed Gamma-share mechanism the cells actually use.
"""

from __future__ import annotations

import random

from ..commons.anonymize import is_k_anonymous, k_anonymize, ncp
from ..commons.dp import central_dp_sum, distributed_dp_sum, dp_mean_absolute_error
from ..workloads.records import assign_disease, generate_receipts, sweets_share
from .claims import Claim
from .tables import Table, where


def _population(size: int, seed: int) -> list[dict]:
    rng = random.Random(seed)
    people = []
    for index in range(size):
        disease = assign_disease(rng)
        receipts = generate_receipts(rng, days=60, disease=disease)
        people.append(
            {
                "qi_age": rng.randint(18, 90),
                "qi_zip": rng.randint(75000, 75019),
                "disease": disease,
                "sweets_share": sweets_share(receipts),
            }
        )
    return people


def run(seed: int = 0, population: int = 300) -> list[Table]:
    people = _population(population, seed)
    records = [
        {"qi_age": p["qi_age"], "qi_zip": p["qi_zip"], "disease": p["disease"]}
        for p in people
    ]

    kanon_table = Table(
        title="E10: k-anonymity - information loss vs k",
        columns=["k", "NCP information loss", "k-anonymous"],
    )
    for k in (2, 5, 10, 25, 50):
        released = k_anonymize(records, ["qi_age", "qi_zip"], ["disease"], k)
        kanon_table.add_row(
            k,
            ncp(released, records, ["qi_age", "qi_zip"]),
            is_k_anonymous(released, k),
        )

    # The epidemiology signal: do diabetics buy fewer sweets?
    diabetic = [p["sweets_share"] for p in people if p["disease"] == "diabetes"]
    healthy = [p["sweets_share"] for p in people if p["disease"] == "none"]
    signal = Table(
        title="E10a: epidemiology utility - sweets share by condition",
        columns=["group", "n", "mean sweets share"],
    )
    signal.add_row("diabetes", len(diabetic),
                   sum(diabetic) / len(diabetic) if diabetic else float("nan"))
    signal.add_row("none", len(healthy),
                   sum(healthy) / len(healthy) if healthy else float("nan"))

    dp_table = Table(
        title="E10b: DP aggregate error vs epsilon (sum of sweets shares)",
        columns=["epsilon", "central MAE", "distributed MAE",
                 "relative error % (distributed)"],
    )
    values = [p["sweets_share"] for p in people]
    true_sum = sum(values)
    rng = random.Random(seed + 1)
    for epsilon in (0.1, 0.5, 1.0, 5.0):
        central = dp_mean_absolute_error(
            true_sum,
            lambda r, e=epsilon: central_dp_sum(values, 1.0, e, r),
            trials=200, rng=rng,
        )
        distributed = dp_mean_absolute_error(
            true_sum,
            lambda r, e=epsilon: distributed_dp_sum(values, 1.0, e, r),
            trials=200, rng=rng,
        )
        dp_table.add_row(
            epsilon, central, distributed, distributed / true_sum * 100
        )
    dp_table.add_note("distributed noise: per-cell Gamma shares summing to "
                      "Laplace; no trusted central noise adder exists")

    # -- order statistics without revealing values ----------------------------
    from ..commons.aggregation import AggregationNode
    from ..commons.quantiles import secure_quantiles

    rng_q = random.Random(seed + 2)
    nodes = [
        AggregationNode.standalone(f"q-{i}", rng_q) for i in range(len(people))
    ]
    share_values = {
        node.name: person["sweets_share"]
        for node, person in zip(nodes, people)
    }
    quantile_table = Table(
        title="E10c: secure quantiles of sugary-spend share "
              "(masked histogram, 32 buckets)",
        columns=["quantile", "secure estimate", "true value",
                 "error <= half bucket"],
    )
    estimates, accounting = secure_quantiles(
        nodes, share_values, [0.25, 0.5, 0.75], low=0.0, high=1.0, buckets=32,
        neighbors=32,  # the fleet's ring degree; no dropouts, sums exact
    )
    ordered = sorted(share_values.values())
    half_bucket = 1.0 / 32 / 2
    for q in (0.25, 0.5, 0.75):
        import math

        rank = max(0, math.ceil(q * len(ordered)) - 1)
        truth = ordered[rank]
        quantile_table.add_row(
            q, estimates[q], truth, abs(estimates[q] - truth) <= half_bucket + 1e-9
        )
    quantile_table.add_note(
        f"{accounting.messages} masked messages; no individual value revealed"
    )
    return [kanon_table, signal, dp_table, quantile_table]


def _steps_where(table: int, column: str, broken):
    """The keys at which ``broken(previous, value)`` flags ``column``."""
    def read(tables: list[Table]) -> list:
        rows = tables[table]
        keys, values = rows.column(rows.columns[0]), rows.column(column)
        return [key for key, before, after in zip(keys[1:], values, values[1:])
                if broken(before, after)]
    return read


def _worst_mode_gap(tables: list[Table]) -> float:
    """Distributed vs central DP error, relative to the central error."""
    dp = tables[2]
    return max(abs(central - distributed) / max(central, 1e-9)
               for central, distributed in
               zip(dp.column("central MAE"), dp.column("distributed MAE")))


def _sweets_gap(tables: list[Table]) -> float:
    """Diabetics' mean sweets share minus everyone else's."""
    share = {row[0]: row[2] for row in tables[1].rows}
    return share["diabetes"] - share["none"]


CLAIMS = (
    Claim("secure quantiles land within half a bucket", "shared commons",
          "count", where(3, lambda row: not row["error <= half bucket"]),
          "==", []),
    Claim("information loss never falls as k grows", "shared commons",
          "count", _steps_where(0, "NCP information loss",
                                lambda before, after: before > after + 1e-9),
          "==", []),
    Claim("every release is k-anonymous", "shared commons", "count",
          where(0, lambda row: not row["k-anonymous"]), "==", []),
    Claim("the release keeps the epidemiology signal", "shared commons",
          "count", _sweets_gap, "<", 0),
    Claim("central DP error never grows with epsilon", "shared commons",
          "count", _steps_where(2, "central MAE",
                                lambda before, after: before < after),
          "==", []),
    Claim("distributed noise within 50 % of central", "shared commons",
          "count", _worst_mode_gap, "<", 0.5),
)
