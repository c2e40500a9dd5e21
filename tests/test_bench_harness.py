"""Tests for the bench harness: tables, and fast experiment smoke runs.

The slow experiments run under ``pytest benchmarks/``; the quick ones
are smoke-tested here too so that a plain ``pytest tests/`` exercises
the experiment code paths.
"""

import pytest

from repro.bench import ALL_EXPERIMENTS, Table, check
from repro.bench import (
    e01_figure1,
    e06_breach_economics,
    e07_class_breaking,
    e08_embedded_query,
    e12_usage_control,
)
from repro.bench.claims import BOUNDED, CONCEPTS, Claim
from repro.errors import ConfigurationError


class TestTable:
    def test_add_row_and_render(self):
        table = Table("demo", ["name", "value"])
        table.add_row("a", 1.5)
        table.add_row("b", 12345.0)
        rendered = table.render()
        assert "== demo ==" in rendered
        assert "1.500" in rendered
        assert "12,345" in rendered

    def test_row_arity_checked(self):
        table = Table("demo", ["a", "b"])
        with pytest.raises(ConfigurationError):
            table.add_row(1)

    def test_column_access(self):
        table = Table("demo", ["name", "value"])
        table.add_row("a", 1)
        table.add_row("b", 2)
        assert table.column("value") == [1, 2]
        with pytest.raises(ConfigurationError):
            table.column("missing")

    def test_bool_rendering(self):
        table = Table("demo", ["ok"])
        table.add_row(True)
        table.add_row(False)
        rendered = table.render()
        assert "yes" in rendered and "no" in rendered

    def test_nan_rendering(self):
        table = Table("demo", ["x"])
        table.add_row(float("nan"))
        assert "-" in table.render()

    def test_notes(self):
        table = Table("demo", ["x"])
        table.add_note("context matters")
        assert "note: context matters" in table.render()

    def test_empty_table_renders(self):
        assert "== empty ==" in Table("empty", ["a"]).render()


class TestExperimentCatalog:
    def test_catalog_is_contiguous(self):
        assert list(ALL_EXPERIMENTS) == [f"E{i}" for i in range(1, 16)]

    def test_every_experiment_has_run_and_checker(self):
        for module in ALL_EXPERIMENTS.values():
            assert callable(module.run)
            assert module.CLAIMS, module.__name__
            for claim in module.CLAIMS:
                assert isinstance(claim, Claim)
                assert claim.layer in CONCEPTS, claim.name
                assert claim.clock in ("count", "sim", "device"), claim.name
                assert claim.rule in BOUNDED, claim.name


class TestFastExperimentSmoke:
    """The quick experiments, asserted end to end in the unit suite."""

    def test_e01(self):
        tables = e01_figure1.run(seed=1)
        assert all(verdict.ok for verdict in check(e01_figure1, tables))

    def test_e06(self):
        tables = e06_breach_economics.run()
        assert all(verdict.ok
                   for verdict in check(e06_breach_economics, tables))

    def test_e07(self):
        tables = e07_class_breaking.run(cells=4, objects_per_cell=2)
        table = tables[0]
        shared_one = [row for row in table.rows
                      if row[0] == "shared-master" and row[1] == 1]
        assert shared_one[0][4] == 100.0

    def test_e08(self):
        tables = e08_embedded_query.run(records=300)
        # smaller scale: just structural checks
        assert tables[0].column("plan")
        assert all(energy > 0 for energy in tables[0].column("energy uJ"))

    def test_e12(self):
        tables = e12_usage_control.run(subjects=5, attempts_per_subject=12)
        values = dict(zip(tables[0].column("measure"), tables[0].column("value")))
        assert values["reads granted"] == 50


class TestClaimRowsBite:
    """Doctor one cell of a real table: exactly the row over it fails,
    and its line names the experiment, the paper concept and the clock."""

    @pytest.mark.parametrize("name, kwargs, at, value, row, concept, clock", [
        ("E1", {"seed": 1}, (1, 4, 1), False, "terminal keeps no residue",
         "secure usage", "count"),
        ("E6", {}, (0, 0, 3), 99.0,
         "a central breach leaks 100x more at every budget", "threat model",
         "count"),
        ("E7", {}, (0, 2, 4), 37.5,
         "per-cell keys expose only the breached cells' share",
         "threat model", "count"),
        ("E8", {}, (2, 1, 1), 60.0, "incremental GC pays off on churn",
         "secure private store", "device"),
    ])
    def test_a_doctored_cell_fails_exactly_its_row(
            self, name, kwargs, at, value, row, concept, clock):
        module = ALL_EXPERIMENTS[name]
        tables = module.run(**kwargs)
        assert all(verdict.ok for verdict in check(module, tables))
        table, index, column = at
        tables[table].rows[index][column] = value
        failed = [verdict for verdict in check(module, tables)
                  if not verdict.ok]
        assert [verdict.claim.name for verdict in failed] == [row]
        line = failed[0].line()
        assert line.startswith(f"FAIL  {name} ")
        assert f" {concept} " in line and f" {clock} " in line
