"""Shared commons: an epidemiology study over 200 households.

A public-health institute wants to cross-analyze disease and diet (the
paper's epidemiology example). Households opt in per purpose; their
cells participate in two ways, chosen by recipient trustworthiness:

* a *differentially private aggregate* (mean sugary-spending share),
  computed with masked summation plus distributed Gamma noise — the
  institute never sees an individual value;
* a *k-anonymized record release* for the trusted research registry.

Run:  python examples/community_survey.py
"""

import random

from repro.commons import (
    TRANSFORM_DP,
    TRANSFORM_KANON,
    AggregationNode,
    CommonsCoordinator,
    CommonsMember,
    GlobalQuery,
    is_k_anonymous,
    ncp,
)
from repro.sim import SeedSequence
from repro.workloads import assign_disease, generate_receipts, sweets_share


def main() -> None:
    rng = random.Random(11)
    members = []
    for index in range(200):
        disease = assign_disease(rng)
        receipts = generate_receipts(rng, days=60, disease=disease)
        members.append(
            CommonsMember(
                node=AggregationNode.standalone(f"home-{index}", rng),
                value=sweets_share(receipts),
                record={
                    "qi_age": rng.randint(18, 90),
                    "qi_zip": rng.randint(75000, 75019),
                    "disease": disease,
                },
                opted_in_purposes=(
                    {"epidemiology"} if rng.random() < 0.85 else set()
                ),
                online=rng.random() < 0.95,
            )
        )
    coordinator = CommonsCoordinator(members, seeds=SeedSequence(11))

    # -- DP aggregate for the (less trusted) open-data portal -----------------
    query = GlobalQuery("open-data-portal", "epidemiology", TRANSFORM_DP,
                        epsilon=1.0, scale=10_000)
    result = coordinator.run(query)
    true_total = sum(m.value for m in members
                     if "epidemiology" in m.opted_in_purposes and m.online)
    print(f"participants: {result.participants} "
          f"(opted out: {result.opted_out}, offline: {result.offline})")
    print(f"DP total sugary share: {result.value:.2f} "
          f"(true {true_total:.2f}, epsilon=1)")
    print(f"protocol: {result.aggregation.protocol}, "
          f"{result.aggregation.messages} messages, "
          f"{result.aggregation.bytes} bytes")

    # -- k-anonymized records for the trusted registry --------------------------
    release = coordinator.run(
        GlobalQuery("research-registry", "epidemiology", TRANSFORM_KANON, k=10)
    )
    originals = [dict(m.record) for m in members
                 if "epidemiology" in m.opted_in_purposes and m.online]
    print(f"released {len(release.records)} records, "
          f"10-anonymous: {is_k_anonymous(release.records, 10)}, "
          f"NCP loss: {ncp(release.records, originals, ['qi_age', 'qi_zip']):.3f}")

    # The study's finding survives the anonymization:
    by_disease: dict[str, list[float]] = {}
    for member in members:
        if "epidemiology" in member.opted_in_purposes and member.online:
            by_disease.setdefault(member.record["disease"], []).append(member.value)
    for disease in ("diabetes", "none"):
        values = by_disease.get(disease, [])
        mean = sum(values) / len(values) if values else float("nan")
        print(f"mean sugary share | {disease:<9}: {mean:.3f}")


if __name__ == "__main__":
    main()
