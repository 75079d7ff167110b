"""Tests for the execution engine: pool, cache, and bench diff.

Covers the engine's contract surface: deterministic sharding
(parallel == serial, element for element), content-addressed cache
hits that skip re-execution, stride passthrough from ``run_grid``,
and the ``repro bench diff`` verdicts (identical / changed / missing).
"""

import io
import json
import pickle
from fractions import Fraction

import pytest

from repro.analysis import run_cell, run_grid, run_grid_report
from repro.exec import (
    MISS,
    ResultCache,
    canonical_key,
    diff_results,
    fingerprint,
    fork_available,
    resolve_jobs,
    run_tasks,
)
from repro.obs import ProgressReporter
from repro.scenarios import ALGORITHMS, RegistryEntry, ScenarioSpec


def cell(name="demo", rho="1/2", R=2, horizon=900, labels=None):
    return ScenarioSpec(
        algorithm="ca-arrow", n=3, max_slot=R, schedule="worst", rho=rho,
        horizon=horizon, name=name, labels=labels or {"rho": rho},
    )


class TestPool:
    def test_serial_mode_for_jobs_one(self):
        run = run_tasks([lambda: 1, lambda: 2], jobs=1)
        assert run.values == [1, 2]
        assert run.mode == "serial"

    def test_parallel_matches_serial_order(self):
        tasks = [lambda k=k: k * k for k in range(7)]
        serial = run_tasks(tasks, jobs=1)
        parallel = run_tasks(tasks, jobs=3)
        assert parallel.values == serial.values == [k * k for k in range(7)]
        if fork_available():
            assert parallel.mode == "fork-pool"

    def test_single_task_stays_serial(self):
        run = run_tasks([lambda: "only"], jobs=4)
        assert run.mode == "serial"
        assert run.values == ["only"]

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1

    def test_worker_error_propagates(self):
        def boom():
            raise RuntimeError("worker failed")

        with pytest.raises(RuntimeError, match="worker failed"):
            run_tasks([boom], jobs=1)
        if fork_available():
            with pytest.raises(RuntimeError, match="worker failed"):
                run_tasks([boom, lambda: 1], jobs=2)

    def test_progress_ticks_per_task(self):
        stream = io.StringIO()
        reporter = ProgressReporter(
            every_events=1, min_interval_s=0.0, stream=stream
        )
        run_tasks([lambda: 1, lambda: 2, lambda: 3], jobs=1, progress=reporter)
        assert reporter.events == 3
        assert reporter.reports_emitted >= 1
        assert "3/3" in stream.getvalue()


class TestFingerprint:
    def test_equal_configs_equal_keys(self):
        payload = lambda: {"kind": "x", "rho": Fraction(1, 2), "horizon": 100}
        assert canonical_key(payload(), "s") == canonical_key(payload(), "s")

    def test_salt_changes_key(self):
        payload = {"kind": "x", "n": 4}
        assert canonical_key(payload, "a") != canonical_key(payload, "b")

    def test_fraction_exactness(self):
        assert fingerprint(Fraction(1, 3)) != fingerprint(1 / 3)
        assert fingerprint(Fraction(2, 6)) == fingerprint(Fraction(1, 3))

    def test_default_repr_objects_rejected(self):
        class Opaque:
            __slots__ = ()

        for value in (Opaque(), lambda: 1, {1, 2}, b"bytes"):
            with pytest.raises(TypeError):
                fingerprint({"obj": value})


class TestResultCache:
    def test_roundtrip_preserves_fractions(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        key = cache.key_for({"kind": "t", "value": 1})
        assert cache.get(key) is MISS
        cache.put(key, {"peak": Fraction(22, 7)})
        assert cache.get(key) == {"peak": Fraction(22, 7)}
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_invalidate_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        keys = [cache.key_for({"kind": "t", "value": k}) for k in range(3)]
        for key in keys:
            cache.put(key, key)
        assert cache.invalidate(keys[0])
        assert not cache.invalidate(keys[0])
        assert cache.get(keys[0]) is MISS
        assert cache.clear() == 2
        assert list(cache.entries()) == []

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="s")
        key = cache.key_for({"kind": "t"})
        cache.put(key, "fine")
        cache.path_for(key).write_bytes(b"not a pickle")
        assert cache.get(key) is MISS
        assert not cache.path_for(key).exists()


class TestGridEngine:
    def test_parallel_grid_equals_serial_elementwise(self):
        cells = [cell(name="a", rho="1/4"), cell(name="b", rho="1/2")]
        serial = run_grid(cells, jobs=1)
        parallel = run_grid(cells, jobs=2)
        assert len(parallel) == len(serial) == 2
        for left, right in zip(serial, parallel):
            # Frozen dataclasses: == compares every field, including the
            # exact-Fraction metrics that crossed the worker pipe.
            assert left == right

    def test_parallel_sweep_equals_serial(self):
        # A seed sweep is a grid over ``seed``: seeded randomness replays
        # exactly in forked workers.
        cells = [
            cell(name=f"seed{seed}").replace(
                algorithm="aloha", schedule="random", seed=seed
            )
            for seed in range(6)
        ]
        assert run_grid(cells, jobs=3) == run_grid(cells, jobs=1)

    def test_backlog_stride_passthrough(self):
        # Regression: run_grid used to drop backlog_stride on the floor.
        spec = cell(rho="9/10", horizon=1500)
        direct = run_cell(spec, backlog_stride=3)
        via_grid = run_grid([spec], backlog_stride=3)[0]
        assert via_grid == direct
        coarse = run_grid([spec], backlog_stride=500)[0]
        assert coarse.peak_backlog <= direct.peak_backlog

    def test_warm_cache_skips_execution(self, tmp_path, monkeypatch):
        builds = []
        ca_arrow = ALGORITHMS.get("ca-arrow")

        def counting(spec):
            builds.append(spec.name)
            return ca_arrow.builder(spec)

        monkeypatch.setitem(ALGORITHMS._entries, "test-counting", RegistryEntry(
            name="test-counting", builder=counting, meta=ca_arrow.meta,
        ))
        cache = ResultCache(tmp_path / "c", salt="pinned")
        cells = [
            cell(name=f"s{seed}", horizon=300).replace(
                algorithm="test-counting", seed=seed
            )
            for seed in (1, 2, 3)
        ]
        cold = run_grid_report(cells, jobs=1, cache=cache)
        assert builds == ["s1", "s2", "s3"]
        assert (cold.cache_hits, cold.cache_misses) == (0, 3)
        warm = run_grid_report(cells, jobs=1, cache=cache)
        assert builds == ["s1", "s2", "s3"]  # nothing re-ran
        assert (warm.cache_hits, warm.cache_misses) == (3, 0)
        assert warm.results == cold.results

    def test_warm_grid_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="pinned")
        cells = [cell(name="a", rho="1/4")]
        cold = run_grid_report(cells, cache=cache)
        warm = run_grid_report(cells, cache=cache)
        assert (cold.cache_hits, cold.cache_misses) == (0, 1)
        assert (warm.cache_hits, warm.cache_misses) == (1, 0)
        assert warm.results == cold.results

    def test_cell_results_pickle_exactly(self):
        result = run_cell(cell(horizon=600))
        assert pickle.loads(pickle.dumps(result)) == result


def write_report(directory, name, rows, wall_s=1.0):
    directory.mkdir(parents=True, exist_ok=True)
    document = {
        "name": name,
        "preamble": [f"{name} title"],
        "tables": [{"headers": ["n", "peak"], "rows": rows}],
        "meta": {"wall_s": wall_s, "jobs": 1},
    }
    (directory / f"{name}.json").write_text(json.dumps(document))


class TestBenchDiff:
    def test_identical_directories_are_clean(self, tmp_path):
        for d in ("old", "new"):
            write_report(tmp_path / d, "thm", [[2, 16], [4, 30]], wall_s=d == "new")
        report = diff_results(tmp_path / "old", tmp_path / "new")
        assert report.clean
        assert report.exit_code() == 0
        # meta drift is reported but never fatal
        assert report.entries[0].status == "identical"

    def test_changed_value_fails_and_is_located(self, tmp_path):
        write_report(tmp_path / "old", "thm", [[2, 16], [4, 30]])
        write_report(tmp_path / "new", "thm", [[2, 16], [4, 31]])
        report = diff_results(tmp_path / "old", tmp_path / "new")
        assert not report.clean
        assert report.exit_code() == 1
        assert report.entries[0].status == "changed"
        rendered = "\n".join(report.render())
        assert "30 -> 31" in rendered

    def test_missing_report_fails(self, tmp_path):
        write_report(tmp_path / "old", "thm", [[2, 16]])
        write_report(tmp_path / "old", "gone", [[1, 1]])
        write_report(tmp_path / "new", "thm", [[2, 16]])
        report = diff_results(tmp_path / "old", tmp_path / "new")
        assert report.exit_code() == 1
        assert {e.status for e in report.entries} == {"identical", "missing"}

    def test_added_report_does_not_fail(self, tmp_path):
        write_report(tmp_path / "old", "thm", [[2, 16]])
        write_report(tmp_path / "new", "thm", [[2, 16]])
        write_report(tmp_path / "new", "extra", [[1, 1]])
        report = diff_results(tmp_path / "old", tmp_path / "new")
        assert report.clean


class TestCliSurface:
    def test_bench_diff_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        write_report(tmp_path / "old", "thm", [[2, 16]])
        write_report(tmp_path / "new", "thm", [[2, 16]])
        assert main(
            ["bench", "diff", str(tmp_path / "old"), str(tmp_path / "new")]
        ) == 0
        write_report(tmp_path / "new", "thm", [[2, 17]])
        assert main(
            ["bench", "diff", str(tmp_path / "old"), str(tmp_path / "new")]
        ) == 1
        assert "16 -> 17" in capsys.readouterr().out

    def test_bench_diff_rejects_missing_directory(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["bench", "diff", str(tmp_path / "nope"), str(tmp_path)])

    def test_grid_command_runs_and_caches(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "grid", "--algorithms", "ca-arrow", "--rhos", "1/2",
            "--n", "3", "--horizon", "600",
            "--cache-dir", str(tmp_path / "cache"),
            "--csv", str(tmp_path / "grid.csv"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "1 hit" not in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "1 hit" in warm
        assert (tmp_path / "grid.csv").exists()

    def test_cache_info_and_clear(self, tmp_path, capsys):
        from repro.cli import main

        cache = ResultCache(tmp_path / "c", salt="s")
        cache.put(cache.key_for({"kind": "t"}), 1)
        assert main(["cache", "info", "--cache-dir", str(tmp_path / "c")]) == 0
        assert "entries: 1" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path / "c")]) == 0
        assert "1" in capsys.readouterr().out
        assert list(cache.entries()) == []


class TestDiffTolerance:
    """Relative tolerance for numeric cells (the perf-smoke contract)."""

    def test_within_tolerance_is_clean(self, tmp_path):
        write_report(tmp_path / "old", "perf", [[2, 100.0], [4, 200.0]])
        write_report(tmp_path / "new", "perf", [[2, 110.0], [4, 180.0]])
        assert diff_results(tmp_path / "old", tmp_path / "new",
                            tolerance=0.25).clean

    def test_integer_cells_stay_exact(self, tmp_path):
        # Event counts and sizes are identities: a 10% drift fails at
        # any tolerance, while the float beside it may wobble.
        write_report(tmp_path / "old", "perf", [[100, 3.0]])
        write_report(tmp_path / "new", "perf", [[110, 3.3]])
        report = diff_results(tmp_path / "old", tmp_path / "new",
                              tolerance=0.25)
        assert not report.clean
        assert report.entries[0].drift_count == 1
        assert "100 -> 110" in "\n".join(report.render())

    def test_beyond_tolerance_fails(self, tmp_path):
        write_report(tmp_path / "old", "perf", [[2, 100]])
        write_report(tmp_path / "new", "perf", [[2, 126]])
        report = diff_results(tmp_path / "old", tmp_path / "new",
                              tolerance=0.25)
        assert not report.clean
        assert "100 -> 126" in "\n".join(report.render())

    def test_strings_and_bools_stay_exact(self, tmp_path):
        write_report(tmp_path / "old", "perf", [["ok", True, 10]])
        write_report(tmp_path / "new", "perf", [["OK", True, 10]])
        assert not diff_results(tmp_path / "old", tmp_path / "new",
                                tolerance=10.0).clean
        write_report(tmp_path / "new2", "perf", [["ok", False, 10]])
        assert not diff_results(tmp_path / "old", tmp_path / "new2",
                                tolerance=10.0).clean

    def test_old_zero_admits_only_zero(self, tmp_path):
        write_report(tmp_path / "old", "perf", [[0, 0]])
        write_report(tmp_path / "new", "perf", [[0, 1]])
        assert not diff_results(tmp_path / "old", tmp_path / "new",
                                tolerance=0.5).clean

    def test_default_stays_exact(self, tmp_path):
        write_report(tmp_path / "old", "perf", [[2, 100]])
        write_report(tmp_path / "new", "perf", [[2, 101]])
        assert not diff_results(tmp_path / "old", tmp_path / "new").clean

    def test_negative_tolerance_rejected(self, tmp_path):
        write_report(tmp_path / "old", "perf", [[2, 100]])
        with pytest.raises(ValueError):
            diff_results(tmp_path / "old", tmp_path / "old", tolerance=-0.1)

    def test_cli_tolerance_flag(self, tmp_path, capsys):
        from repro.cli import main

        write_report(tmp_path / "old", "perf", [[2, 100.0]])
        write_report(tmp_path / "new", "perf", [[2, 110.0]])
        assert main(["bench", "diff", str(tmp_path / "old"),
                     str(tmp_path / "new")]) == 1
        capsys.readouterr()
        assert main(["bench", "diff", "--tolerance", "0.25",
                     str(tmp_path / "old"), str(tmp_path / "new")]) == 0


class TestPerfSuite:
    """Unit-level checks of repro.exec.perf (full runs live in benchmarks/)."""

    def _tiny_case(self):
        from repro.exec.perf import PerfCase

        return PerfCase(name="tiny", algorithm="ca-arrow", n=3,
                        horizon=120, quick_horizon=120)

    def test_report_form_and_parity(self, tmp_path):
        from repro.exec.perf import run_perf, write_report as write_perf

        document = run_perf(cases=[self._tiny_case()], quick=True, repeats=1)
        assert document["name"] == "perf_core"
        case_table, speedup_table = document["tables"]
        assert case_table["rows"][0][0] == "tiny"
        assert case_table["rows"][0][-1] == "ok"
        assert speedup_table["headers"] == ["case", "speedup"]
        assert speedup_table["rows"] == [
            ["geomean", document["meta"]["geomean_speedup"]]
        ]
        assert isinstance(speedup_table["rows"][0][1], float)
        assert "speedup" in document["meta"]["throughput"]["tiny"]
        json_path, txt_path = write_perf(document, tmp_path)
        assert json.loads(json_path.read_text())["name"] == "perf_core"
        assert "speedup" in txt_path.read_text()

    def test_quick_and_full_share_row_shape(self):
        from repro.exec.perf import run_perf

        quick = run_perf(cases=[self._tiny_case()], quick=True, repeats=1)
        full = run_perf(cases=[self._tiny_case()], quick=False, repeats=1)
        assert [len(t["rows"]) for t in quick["tables"]] == \
            [len(t["rows"]) for t in full["tables"]]

    def test_observe_overhead_reports_ratios_per_case(self):
        from repro.exec.perf import (
            PerfCase,
            _measure_observe_overhead,
            render_report,
            run_perf,
        )

        observed = PerfCase(name="tiny-observed", algorithm="ca-arrow", n=3,
                            horizon=80, quick_horizon=60)
        probe = _measure_observe_overhead([observed], quick=True, repeats=1)
        assert probe["repeats"] == 5
        cell = probe["cases"]["tiny-observed"]
        assert cell["horizon"] == 60
        assert min(cell["bare_s"], cell["metrics_s"], cell["stream_s"]) > 0
        assert cell["metrics"] > 0 and cell["stream"] > 0
        assert isinstance(probe["metrics"], float)
        assert isinstance(probe["stream"], float)
        # A custom case list leaves the default observed runs out; the
        # report renders the probe when it is there.
        document = run_perf(cases=[self._tiny_case()], quick=True, repeats=1)
        assert document["meta"]["observe_overhead"] is None
        document["meta"]["observe_overhead"] = probe
        assert any(line.startswith("overall") for line in render_report(document))

    def test_cache_hit_reports_the_hit_and_the_relay(self):
        from repro.exec.perf import _measure_cache_hit, render_report, run_perf

        probe = _measure_cache_hit(repeats=1)
        assert (probe["repeats"], probe["cells"]) == (5, 12)
        assert probe["history"] is True
        assert min(probe["grid_s"], probe["reads_s"], probe["relay_s"],
                   probe["raw_s"]) > 0
        assert probe["records"] > 1000
        assert probe["relay_ratio"] == pytest.approx(
            probe["relay_s"] / probe["raw_s"], abs=0.02)
        # Like observe_overhead, a custom case list leaves it out.
        document = run_perf(cases=[self._tiny_case()], quick=True, repeats=1)
        assert document["meta"]["cache_hit"] is None
        document["meta"]["cache_hit"] = probe
        lines = render_report(document)
        assert any(line.startswith("replay of") for line in lines)

    def test_observe_cases_are_the_bundled_scenarios_at_a_quarter(self):
        import pathlib

        from repro.exec.perf import OBSERVE_CASES, _case_spec
        from repro.scenarios import load_spec

        root = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
        fields = ("algorithm", "n", "max_slot", "schedule", "rho", "burst",
                  "source", "seed", "faults")
        for case in OBSERVE_CASES:
            bundled = load_spec(root / f"{case.name}.json")
            spec = _case_spec(case)
            assert [getattr(spec, f) for f in fields] == \
                [getattr(bundled, f) for f in fields], case.name
            assert case.horizon == bundled.horizon // 4

    def test_fleet_win_policy_is_per_case(self):
        """Only cases with a ``win_min`` get a policed ``win`` cell, and
        the floor itself is printed next to it (exact-compare in CI)."""
        pytest.importorskip("numpy")
        from repro.exec.perf import PerfCase, run_perf

        fleet = [
            PerfCase(name="f-info", algorithm="rrw", n=8, schedule="sync",
                     horizon=60, quick_horizon=60),
            # An adaptive family, policed with a floor any machine meets:
            # this asserts the wiring (win_min -> win cell), not speed.
            PerfCase(name="f-policed", algorithm="ao-arrow", n=8,
                     schedule="sync", horizon=60, quick_horizon=60,
                     win_min=0.0001),
        ]
        document = run_perf(
            cases=[self._tiny_case()], quick=True, repeats=1,
            fleet_cases=fleet,
        )
        fleet_table = document["tables"][2]
        assert fleet_table["headers"][-2:] == ["win_min", "win"]
        rows = {row[0]: row for row in fleet_table["rows"]}
        assert rows["f-info"][-2:] == ["-", "-"]
        assert rows["f-policed"][-2] == ">=0.0001x"
        assert rows["f-policed"][-1] == "yes"
        # Both fleets sit below the batch crossover: the exact-compare
        # ``auto`` column records the object loop as auto's pick.
        auto = fleet_table["headers"].index("auto")
        assert [row[auto] for row in fleet_table["rows"]] == ["object"] * 2
