"""Tests for the spec-grid experiment runner and CSV export."""

import csv
import io

import pytest

from repro.analysis import run_cell, run_grid, write_csv
from repro.scenarios import ScenarioSpec


def cell(name="demo", rho="1/2", R=2, horizon=1200, labels=None):
    return ScenarioSpec(
        algorithm="ca-arrow", n=3, max_slot=R, schedule="worst", rho=rho,
        horizon=horizon, name=name, labels=labels or {"rho": rho},
    )


class TestRunCell:
    def test_produces_measurements(self):
        result = run_cell(cell())
        assert result.name == "demo"
        assert result.metrics.delivered > 0
        assert result.stable
        assert result.peak_backlog >= result.metrics.backlog

    def test_labels_copied(self):
        result = run_cell(cell(labels={"rho": "1/2", "variant": "x"}))
        assert result.labels == {"rho": "1/2", "variant": "x"}

    def test_fresh_state_per_run(self):
        spec = cell()
        first = run_cell(spec)
        second = run_cell(spec)
        assert first.metrics.delivered == second.metrics.delivered


class TestRunGrid:
    def test_runs_all_cells_in_order(self):
        results = run_grid([cell(name="a", rho="1/4"), cell(name="b", rho="1/2")])
        assert [r.name for r in results] == ["a", "b"]
        assert results[0].metrics.delivered < results[1].metrics.delivered


class TestWriteCsv:
    def test_round_trips_through_csv(self, tmp_path):
        results = run_grid([cell(name="a", rho="1/4"), cell(name="b", rho="1/2")])
        path = tmp_path / "grid.csv"
        write_csv(results, str(path))
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert rows[0]["name"] == "a"
        assert int(rows[0]["delivered"]) > 0
        assert rows[0]["stable"] == "1"
        assert "throughput_cost" in rows[0]

    def test_union_header_across_heterogeneous_labels(self, tmp_path):
        results = [
            run_cell(cell(name="a", labels={"x": "1"})),
            run_cell(cell(name="b", labels={"y": "2"})),
        ]
        path = tmp_path / "grid.csv"
        write_csv(results, str(path))
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            assert "x" in reader.fieldnames and "y" in reader.fieldnames

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], str(tmp_path / "none.csv"))
