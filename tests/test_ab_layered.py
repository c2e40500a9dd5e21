"""``tools/ab_layered.py``: medians, win counts and bound verdicts from
canned run results — no benchmark runs inside tier-1."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "ab_layered", ROOT / "tools" / "ab_layered.py")
ab_layered = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_layered)

BENCHMARK = {
    "end_to_end": [
        {"name": "ops_per_s", "unit": "op/s", "better": "higher",
         "bound": 0.15},
        {"name": "op_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.20},
    ],
}


def _run(seed, ops_per_s, op_p50_ms, failed=0, correct=True):
    return {
        "seed": seed, "correct": correct, "attempted": 40, "failed": failed,
        "metrics": {
            "ops_per_s": {"value": ops_per_s, "unit": "op/s"},
            "op_p50_ms": {"value": op_p50_ms, "unit": "ms"},
        },
    }


def _results(parent, change):
    """``parent`` / ``change``: lists of (ops_per_s, op_p50_ms)."""
    return {"flat_quiet": {
        "parent": [_run(seed, *pair) for seed, pair in enumerate(parent, 1)],
        "change": [_run(seed, *pair) for seed, pair in enumerate(change, 1)],
    }}


PARENT = [(5.0, 180), (5.2, 176), (5.4, 170), (5.1, 178), (5.3, 172),
          (5.5, 168), (5.0, 182), (5.2, 175), (5.6, 166), (5.3, 171)]


def _rows(change):
    rows = ab_layered.summarise(_results(PARENT, change), BENCHMARK)
    return {row["metric"]: row for row in rows}


class TestSummarise:
    def test_medians_quartiles_and_ratio(self):
        change = [(ops * 1.2, p50 / 1.2) for ops, p50 in PARENT]
        row = _rows(change)["ops_per_s"]
        assert row["workload"] == "flat_quiet"
        assert row["parent_median"] == pytest.approx(5.25)
        assert row["parent_q1"] == pytest.approx(5.125)
        assert row["parent_q3"] == pytest.approx(5.375)
        assert row["change_median"] == pytest.approx(6.3)
        assert row["ratio"] == pytest.approx(1.2)
        assert row["parent_runs"] == [ops for ops, _ in PARENT]

    def test_a_clear_win_is_a_gain_in_both_directions_of_better(self):
        rows = _rows([(ops * 1.2, p50 / 1.2) for ops, p50 in PARENT])
        for name in ("ops_per_s", "op_p50_ms"):
            assert (rows[name]["better"], rows[name]["pairs"]) == (10, 10)
            assert rows[name]["verdict"] == "gain"
            assert rows[name]["worse_by"] < 0

    def test_ties_count_for_neither_side(self):
        change = [(ops, p50) for ops, p50 in PARENT[:4]] + [
            (ops * 1.1, p50) for ops, p50 in PARENT[4:]]
        rows = _rows(change)
        assert rows["ops_per_s"]["better"] == 6
        assert rows["op_p50_ms"]["better"] == 0
        assert rows["op_p50_ms"]["verdict"] == "ok"

    def test_eight_wins_of_ten_is_not_a_gain(self):
        change = [(ops * 1.2, p50) for ops, p50 in PARENT[:8]] + [
            (ops * 0.99, p50) for ops, p50 in PARENT[8:]]
        row = _rows(change)["ops_per_s"]
        assert row["better"] == 8 and row["verdict"] == "ok"

    def test_nine_wins_inside_the_parent_spread_is_not_a_gain(self):
        change = [(ops + 0.1, p50) for ops, p50 in PARENT[:9]] + [
            (PARENT[9][0] - 0.1, PARENT[9][1])]
        row = _rows(change)["ops_per_s"]
        assert row["better"] == 9
        assert row["change_median"] - row["parent_median"] < 0.25
        assert row["verdict"] == "ok"

    def test_worse_inside_the_bound_is_ok_outside_is_regressed(self):
        inside = _rows([(ops * 0.9, p50 * 1.1) for ops, p50 in PARENT])
        assert inside["ops_per_s"]["verdict"] == "ok"
        assert inside["ops_per_s"]["worse_by"] == pytest.approx(0.1)
        outside = _rows([(ops * 0.8, p50 * 1.3) for ops, p50 in PARENT])
        assert outside["ops_per_s"]["verdict"] == "regressed"
        assert outside["op_p50_ms"]["verdict"] == "regressed"
        assert outside["op_p50_ms"]["worse_by"] == pytest.approx(0.3)

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        noisy_parent = [(3.0, 170), (8.0, 170), (4.0, 170), (7.0, 170),
                        (5.0, 170), (6.0, 170)]
        change = [(4.5, 170)] * 6
        rows = ab_layered.summarise(
            _results(noisy_parent, change), BENCHMARK)
        assert rows[0]["verdict"] == "unresolved"
        flagged = ab_layered.flags(rows)
        assert len(flagged) == 1 and "unresolved" in flagged[0]

    def test_a_median_inside_the_bound_does_not_resolve_a_wide_spread(self):
        noisy_parent = [(3.0, 170), (8.0, 170), (4.0, 170), (7.0, 170),
                        (5.0, 170), (6.0, 170)]
        same_median = [(5.5, 170)] * 6
        row = ab_layered.summarise(
            _results(noisy_parent, same_median), BENCHMARK)[0]
        assert row["worse_by"] == pytest.approx(0.0)
        assert row["verdict"] == "unresolved"

    def test_a_wide_spread_is_resolved_when_every_run_reads_better(self):
        lopsided_parent = [(1.0, 170)] * 3 + [(5.0, 170)] * 2 + [
            (5.1, 170)] * 3
        row = ab_layered.summarise(
            _results(lopsided_parent, [(5.2, 170)] * 8), BENCHMARK)[0]
        assert row["parent_q3"] - row["parent_q1"] > 0.15 * 5.0
        assert row["verdict"] == "ok"  # 8/8, but inside the parent's IQR


class TestReport:
    def test_table_is_the_changes_md_format(self):
        rows = ab_layered.summarise(
            _results(PARENT, [(o * 1.2, p / 1.2) for o, p in PARENT]),
            BENCHMARK)
        table = ab_layered.format_table(rows).splitlines()
        assert table[0] == ("| workload | metric | parent | change | ratio "
                            "| better | parent runs | change runs |")
        assert table[2].startswith(
            "| flat_quiet | ops_per_s | 5.25 (5.12–5.38) | 6.3 | 1.200 "
            "| 10/10 | 5 5.2 5.4 ")
        assert len(table) == 2 + len(rows)

    def test_regressions_and_failed_runs_are_flagged(self):
        results = _results(PARENT, [(o * 0.8, p) for o, p in PARENT])
        results["flat_quiet"]["change"][3]["failed"] = 2
        results["flat_quiet"]["parent"][0]["correct"] = False
        rows = ab_layered.summarise(results, BENCHMARK)
        assert ab_layered.flags(rows) == [
            "flat_quiet ops_per_s: regressed (+20.0% vs bound 15%)"]
        assert ab_layered.failures(results) == [
            "flat_quiet parent seed 1: failed 0/40, correct False",
            "flat_quiet change seed 4: failed 2/40, correct True",
        ]

    def test_a_clean_comparison_raises_no_flag(self):
        results = _results(PARENT, PARENT)
        assert ab_layered.flags(
            ab_layered.summarise(results, BENCHMARK)) == []
        assert ab_layered.failures(results) == []

    def test_reads_the_repos_benchmark_declaration(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [metric["name"] for metric in declared["end_to_end"]]
        results = {"flat_quiet": {
            side: [{"seed": 1, "correct": True, "attempted": 1, "failed": 0,
                    "metrics": {name: {"value": 1.0} for name in names}}]
            for side in ("parent", "change")}}
        rows = ab_layered.summarise(results, declared)
        assert [row["metric"] for row in rows] == names
        assert {row["verdict"] for row in rows} == {"ok"}


def _traced(**values):
    """A canned ``--trace 1`` result: per-layer metrics only."""
    units = {"log_store.get_ms": "ms", "network.send_self_ms": "ms",
             "flash.device_ms": "dev_ms", "catalog.plan_share.index": "ratio",
             "log_store.ram_bytes": "B"}
    return {"correct": True, "attempted": 100, "failed": 0, "metrics": {
        name: {"value": value, "unit": units.get(name, "count")}
        for name, value in values.items()}}


class TestLayers:
    PARENT = _traced(**{
        "log_store.get_ms": 36.9, "encoding.decode_record_calls": 6132.0,
        "flash.page_reads": 569.17, "flash.device_ms": 14.229,
        "catalog.plan_share.index": 0.778, "network.send_self_ms": 0.5,
        "page_cache.evictions": 56789, "sim.loop_self_ms": 0.0,
        "log_store.ram_bytes": 8572924,
    })

    def test_only_differing_metrics_are_listed_with_their_ratio(self):
        change = _traced(**{
            **{name: metric["value"]
               for name, metric in self.PARENT["metrics"].items()},
            "log_store.get_ms": 0.0369, "encoding.decode_record_calls": 15.33,
            "network.send_self_ms": 0.4,
        })
        rows = ab_layered.layer_rows(self.PARENT, change)
        assert [row["metric"] for row in rows] == [
            "log_store.get_ms", "encoding.decode_record_calls",
            "network.send_self_ms"]
        assert rows[0]["ratio"] == pytest.approx(0.001)
        assert (rows[1]["parent"], rows[1]["change"]) == (6132.0, 15.33)
        # *_calls is host-clock-free; a wall time under network.* is not
        assert [row["clock_free"] for row in rows] == [False, True, False]
        report = ab_layered.format_layers("store_query", rows).splitlines()
        assert report[0] == (
            f"layers: store_query --trace 1 --seed {ab_layered.LAYERS_SEED}")
        assert report[3] == "| log_store.get_ms | ms | 36.9 | 0.0369 | 0.001 |"
        assert report[-1] == ("MOVED store_query encoding.decode_record_calls"
                              ": 6132.0 -> 15.33")

    def test_device_time_and_plan_shares_are_counters_that_must_not_move(self):
        change = _traced(**{
            **{name: metric["value"]
               for name, metric in self.PARENT["metrics"].items()},
            "flash.device_ms": 14.3, "catalog.plan_share.index": 0.7,
            "page_cache.evictions": 56790, "log_store.ram_bytes": 1,
        })
        rows = ab_layered.layer_rows(self.PARENT, change)
        assert len(rows) == 4 and all(row["clock_free"] for row in rows)

    def test_write_amplification_and_sim_latency_are_clock_free_too(self):
        units = {"harness.flash_bytes_per_user_byte": "ratio",
                 "harness.sim_latency_s": "sim_s", "harness.raw_wall_s": "s"}

        def traced(*values):
            return {"metrics": {
                name: {"value": value, "unit": unit}
                for (name, unit), value in zip(units.items(), values)}}

        rows = ab_layered.layer_rows(
            traced(9.80, 0.25, 13.2), traced(3.67, 0.26, 7.1))
        assert [(row["metric"], row["clock_free"]) for row in rows] == [
            ("harness.flash_bytes_per_user_byte", True),
            ("harness.sim_latency_s", True),
            ("harness.raw_wall_s", False)]
        assert ab_layered.format_layers("store_ingest", rows).splitlines()[-2:] \
            == ["MOVED store_ingest harness.flash_bytes_per_user_byte: "
                "9.8 -> 3.67",
                "MOVED store_ingest harness.sim_latency_s: 0.25 -> 0.26"]

    def test_identical_runs_report_nothing_moved(self):
        rows = ab_layered.layer_rows(self.PARENT, self.PARENT)
        assert rows == []
        assert ab_layered.format_layers("flat_quiet", rows).splitlines()[-1] \
            == "host-clock-free counters: none moved (flat_quiet)"

    def test_a_zero_parent_value_and_a_missing_metric_do_not_crash(self):
        change = _traced(**{"sim.loop_self_ms": 0.25})
        (row,) = ab_layered.layer_rows(self.PARENT, change)
        assert row["metric"] == "sim.loop_self_ms"
        assert row["ratio"] != row["ratio"]  # NaN: nothing to divide by
        assert "nan" in ab_layered.format_layers("flat_quiet", [row])
