"""Experiment harness: one runner per derived experiment (E1-E15).

Each ``eNN_*`` module exposes ``run(...) -> list[Table]`` producing the
rows quoted in ``EXPERIMENTS.md``, and ``CLAIMS``: the paper's
qualitative claims over those tables as :class:`~.claims.Claim` rows,
which :func:`check` evaluates; each verdict's ``line()`` reads e.g.
``PASS  E6  threat model  count  a central breach leaks 100x more at
every budget: live 2500 (>= 100)``. ``benchmarks/bench_experiments.py``
runs every experiment, writes its tables to ``benchmarks/results/`` and
asserts its rows.
"""

from . import (
    e01_figure1,
    e02_granularity,
    e03_butler,
    e04_social_game,
    e05_peak_shaving,
    e06_breach_economics,
    e07_class_breaking,
    e08_embedded_query,
    e09_secure_aggregation,
    e10_transformations,
    e11_adversary_detection,
    e12_usage_control,
    e13_resilience,
    e14_fedquery,
    e15_standing,
)
from .claims import Verdict, evaluate
from .tables import Table, print_tables

ALL_EXPERIMENTS = {
    "E1": e01_figure1,
    "E2": e02_granularity,
    "E3": e03_butler,
    "E4": e04_social_game,
    "E5": e05_peak_shaving,
    "E6": e06_breach_economics,
    "E7": e07_class_breaking,
    "E8": e08_embedded_query,
    "E9": e09_secure_aggregation,
    "E10": e10_transformations,
    "E11": e11_adversary_detection,
    "E12": e12_usage_control,
    "E13": e13_resilience,
    "E14": e14_fedquery,
    "E15": e15_standing,
}


def check(module, tables: list[Table]) -> list[Verdict]:
    """Every claim row of experiment ``module`` over its live tables."""
    name = next(key for key, value in ALL_EXPERIMENTS.items()
                if value is module)
    return evaluate(name, module.CLAIMS, tables)


__all__ = ["Table", "print_tables", "ALL_EXPERIMENTS", "check"]
