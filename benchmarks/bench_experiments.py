"""Every experiment E1-E15, run once under pytest-benchmark.

The experiments are deterministic end-to-end simulations: wall-clock is
reported for orientation, the *tables* are the result. Each run prints
its tables, saves them as ``benchmarks/results/<module>.txt`` and holds
them to the experiment's claim rows (:func:`repro.bench.check`); a
failure prints each failing row's line.
"""

import pathlib

import pytest

from repro.bench import ALL_EXPERIMENTS, check

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.mark.parametrize("name", list(ALL_EXPERIMENTS))
def test_experiment(benchmark, name):
    module = ALL_EXPERIMENTS[name]
    tables = benchmark.pedantic(module.run, rounds=1, iterations=1)
    rendered = "\n\n".join(table.render() for table in tables)
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = module.__name__.rpartition(".")[2]
    (RESULTS_DIR / f"{stem}.txt").write_text(rendered + "\n")
    print()
    print(rendered)
    failed = [verdict.line() for verdict in check(module, tables)
              if not verdict.ok]
    assert not failed, "\n".join(failed)
