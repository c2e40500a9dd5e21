"""``benchmarks/claims.py``: the rules, the row checks and the failure
line, on canned reports — no bench runs here."""

import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_claims", ROOT / "benchmarks" / "claims.py")
claims = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = claims  # dataclasses resolve their module by name
_spec.loader.exec_module(claims)
Claim = claims.Claim

TRACKED = {
    "benchmark": "toy_scale",
    "wall_seconds": 2.0,
    "records": 1000,
    "device_rate": 100.0,
    "exact": True,
    "matrix": {"pinned": True, "rows": 3},
}


def _live(**changes):
    return {**TRACKED, "records": 100, "wall_seconds": 0.2, **changes}


@pytest.fixture
def tracked_path(tmp_path):
    path = tmp_path / "BENCH_toy.json"
    path.write_text(json.dumps(TRACKED))
    return path


def _per_record(report):
    return report["wall_seconds"] / report["records"]


ROWS = (
    Claim("wall per record", "log store/page codec", "host", _per_record,
          "ratio", 10),
    Claim("device rate", "log store/page codec", "device",
          lambda r: r["device_rate"], "band", 1.5),
    Claim("matrix equals tracked", "coordinator + journal", "count",
          lambda r: r["matrix"], "same"),
    Claim("exact", "egress gate/mask kernels", "count",
          lambda r: r["exact"], "=="),
)


def _verdicts(report, tracked_path):
    return {verdict.claim.name: verdict
            for verdict in claims.evaluate(ROWS, report, tracked_path)}


class TestVerdicts:
    def test_a_healthy_report_passes_every_row(self, tracked_path):
        verdicts = _verdicts(_live(), tracked_path)
        assert all(verdict.ok for verdict in verdicts.values())
        claims.assert_claims(ROWS, _live(), tracked_path)

    def test_a_failing_row_names_bench_layer_and_clock(self, tracked_path):
        slow = _live(wall_seconds=0.2 * 11)  # 11x the tracked per-record cost
        verdict = _verdicts(slow, tracked_path)["wall per record"]
        assert not verdict.ok
        line = verdict.line()
        assert line.startswith("FAIL")
        for part in ("toy", "log store/page codec", "host",
                     "wall per record", "ratio 10x"):
            assert part in line
        with pytest.raises(AssertionError, match="toy .*host"):
            claims.assert_claims(ROWS, slow, tracked_path)

    def test_band_fails_either_way(self, tracked_path):
        for rate in (60.0, 160.0):
            assert not _verdicts(_live(device_rate=rate),
                                 tracked_path)["device rate"].ok
        assert _verdicts(_live(device_rate=140.0),
                         tracked_path)["device rate"].ok

    def test_same_names_the_keys_that_differ(self, tracked_path):
        flipped = _live(matrix={"pinned": False, "rows": 3})
        verdict = _verdicts(flipped, tracked_path)["matrix equals tracked"]
        assert not verdict.ok
        assert "['pinned']" in verdict.detail

    def test_bounded_rule_reads_each_named_side(self, tracked_path):
        def row(sides):
            return Claim("records", "log store/page codec", "count",
                         lambda r: r["records"], ">=", 500, sides=sides)

        def ok(sides):
            return claims.evaluate((row(sides),), _live(), tracked_path)[0].ok

        assert not ok("live") and ok("tracked") and not ok("both")

    def test_a_missing_field_fails_its_row(self, tracked_path):
        report = _live()
        del report["exact"]
        verdict = _verdicts(report, tracked_path)["exact"]
        assert not verdict.ok and "KeyError" in verdict.detail

    def test_another_bench_s_tracked_file_is_refused(self, tracked_path):
        with pytest.raises(ValueError, match="not the tracked file"):
            claims.evaluate(ROWS, _live(benchmark="other"), tracked_path)


class TestTheClockSetsTheRule:
    def _row(self, clock, rule, tolerance=True, why=""):
        return Claim("row", "catalog/plan", clock, lambda r: 0, rule,
                     tolerance, why=why)

    @pytest.mark.parametrize("clock", ["count", "sim"])
    def test_an_inexact_count_or_sim_row_must_say_why(self, clock):
        with pytest.raises(ValueError, match="must say why"):
            self._row(clock, "ratio", 2)
        self._row(clock, "ratio", 2, why="drifts with sampling density")

    def test_a_device_row_is_held_by_a_band(self):
        with pytest.raises(ValueError, match="band"):
            self._row("device", "ratio", 2)

    def test_a_host_row_allows_at_most_10x(self):
        with pytest.raises(ValueError, match="10x"):
            self._row("host", "ratio", 20)
        with pytest.raises(ValueError, match="10x"):
            self._row("host", "same")

    def test_layers_and_clocks_come_from_the_taxonomy(self):
        with pytest.raises(ValueError, match="layer"):
            Claim("row", "storage", "count", lambda r: 0, "==")
        with pytest.raises(ValueError, match="clock"):
            Claim("row", "catalog/plan", "wall", lambda r: 0, "==")
