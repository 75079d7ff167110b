"""Tests for the persistent run-history index (:mod:`repro.obs.history`).

The contract: every request through :func:`repro.service.execute` and
every emitted bench table records one row — automatically, silently,
and without ever being able to fail the run that produced it — and the
rows read back with enough fidelity to answer "what ran, how was it
served, and where is the evidence".  The engine layer
(``run_grid_report``) records nothing.
"""

import os

import pytest

from repro.analysis import run_grid_report
from repro.exec import ResultCache
from repro.obs import RunHistory, default_db_path, history_enabled
from repro.obs.history import (
    record_completion,
    render_entries,
    render_entry,
)
from repro.scenarios import ScenarioSpec
from repro.service import RunOptions, RunRequest, execute


def cell(name="demo", rho="1/2", horizon=400):
    return ScenarioSpec(
        algorithm="ca-arrow", n=3, max_slot=2, schedule="worst", rho=rho,
        horizon=horizon, name=name,
    )


def grid_request(*names, **options):
    specs = tuple(
        ScenarioSpec(
            name=name, algorithm="ca-arrow", n=3, max_slot=2,
            schedule="worst", rho=rho, horizon=400,
        )
        for name, rho in zip(names, ("1/2", "7/10"))
    )
    return RunRequest(
        specs=specs, command="grid", options=RunOptions(**options)
    )


class TestRunHistory:
    def test_record_and_get(self, tmp_path):
        history = RunHistory(tmp_path / "h.db")
        run_id = history.record(
            "grid",
            "demo",
            cells=4,
            cache_hits=1,
            cache_misses=3,
            wall_s=1.25,
            jobs=2,
            mode="fork-pool",
            git_sha="abc123",
            health={"retries": 2},
            extra={"note": "hello"},
        )
        entry = history.get(run_id)
        assert (entry.kind, entry.name, entry.status) == ("grid", "demo", "ok")
        assert (entry.cells, entry.cache_hits) == (4, 1)
        assert entry.wall_s == pytest.approx(1.25)
        assert entry.health == {"retries": 2}
        assert entry.extra == {"note": "hello"}
        assert entry.disturbed()

    def test_served_from_classification(self, tmp_path):
        history = RunHistory(tmp_path / "h.db")
        cached = history.get(history.record("grid", "g", cells=2, cache_hits=2))
        executed = history.get(history.record("grid", "g", cells=2))
        mixed = history.get(history.record("grid", "g", cells=2, cache_hits=1))
        journal = history.get(
            history.record("grid", "g", cells=2, journal_hits=2)
        )
        assert cached.served_from == "cache"
        assert executed.served_from == "exec"
        assert mixed.served_from == "mixed"
        assert journal.served_from == "journal"

    def test_query_filters(self, tmp_path):
        history = RunHistory(tmp_path / "h.db")
        history.record("grid", "alpha")
        history.record("sweep", "beta", status="failed")
        history.record("bench", "alpha_table")
        assert [e.name for e in history.list()] == [
            "alpha_table", "beta", "alpha",
        ]  # newest first
        assert [e.name for e in history.query(kind="grid")] == ["alpha"]
        assert [e.name for e in history.query(name_like="ALPHA")] == [
            "alpha_table", "alpha",
        ]
        assert [e.name for e in history.query(status="failed")] == ["beta"]
        assert history.query(limit=1)[0].name == "alpha_table"
        with pytest.raises(ValueError):
            history.query(limit=0)

    def test_missing_db_reads_as_empty(self, tmp_path):
        history = RunHistory(tmp_path / "never-created.db")
        assert history.get(1) is None
        assert history.list() == []
        assert history.count() == 0
        assert not (tmp_path / "never-created.db").exists()  # reads don't create

    def test_record_completion_never_raises(self, tmp_path):
        # An unwritable path must yield None, not an exception.
        bad = tmp_path / "file-not-dir"
        bad.write_text("x")
        assert (
            record_completion("grid", "g", db_path=bad / "h.db") is None
        )

    def test_no_history_env_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_HISTORY", "1")
        assert not history_enabled()
        assert record_completion("grid", "g", db_path=tmp_path / "h.db") is None
        assert not (tmp_path / "h.db").exists()

    def test_default_db_honors_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_HISTORY_DB", "/tmp/somewhere.db")
        assert default_db_path() == "/tmp/somewhere.db"


class TestAutoRecording:
    def test_grid_records_next_to_its_cache(self, tmp_path):
        request = grid_request(
            "a", "b", cache=True, cache_dir=str(tmp_path / "cache")
        )
        first = execute(request)
        second = execute(request)
        history = RunHistory(tmp_path / "cache" / "history.db")
        entries = history.list()
        assert [e.served_from for e in entries] == ["cache", "exec"]
        assert all(e.kind == "grid" and e.cells == 2 for e in entries)
        assert entries[0].id == second.history_id
        assert entries[1].id == first.history_id
        assert entries[1].spec_hash == entries[0].spec_hash
        assert RunHistory().count() == 0  # nothing in the default db

    def test_uncached_grid_records_to_default_db(self, tmp_path):
        # conftest points REPRO_HISTORY_DB at tmp_path/history.db.
        result = execute(grid_request("demo"))
        entry = RunHistory().get(result.history_id)
        assert entry is not None and entry.kind == "grid"
        assert entry.name == "demo"
        assert os.environ["REPRO_HISTORY_DB"] == str(RunHistory().path)

    def test_history_false_disables(self, tmp_path, monkeypatch):
        """A grid runs with no row: the engine layer never records, and
        ``REPRO_NO_HISTORY`` turns off the row a request would write."""
        report = run_grid_report(
            [cell()], cache=ResultCache(tmp_path / "cache")
        )
        assert not hasattr(report, "history_id")
        assert not (tmp_path / "cache" / "history.db").exists()
        monkeypatch.setenv("REPRO_NO_HISTORY", "1")
        result = execute(
            grid_request("demo", cache=True, cache_dir=str(tmp_path / "cache"))
        )
        assert result.history_id is None
        assert not (tmp_path / "cache" / "history.db").exists()
        assert RunHistory().count() == 0

    def test_failed_grid_records_failed_status(self, tmp_path, monkeypatch):
        from repro.analysis import experiments

        def explode(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(experiments, "_execute_cell", explode)
        result = execute(grid_request("boom"))
        assert result.report.failures
        entry = RunHistory().get(result.history_id)
        assert (entry.status, entry.cells) == ("failed", 1)

    def test_bench_emit_records(self, tmp_path, monkeypatch):
        import importlib

        reporting = importlib.import_module("benchmarks.reporting")
        monkeypatch.setattr(reporting, "RESULTS_DIR", tmp_path / "results")
        reporting.emit(
            "demo_table",
            ["title"] + reporting.table(["a"], [[1]]),
            meta={"wall_s": 0.5, "jobs": 2, "mode": "fork-pool",
                  "cells": 3, "cache_hits": 3, "cache_misses": 0,
                  "custom": "kept"},
        )
        [entry] = RunHistory().list()
        assert (entry.kind, entry.name) == ("bench", "demo_table")
        assert entry.served_from == "cache"
        assert entry.wall_s == pytest.approx(0.5)
        assert entry.extra == {"custom": "kept"}
        assert entry.artifact_path.endswith("demo_table.json")


class TestRendering:
    def test_render_entries_table(self, tmp_path):
        history = RunHistory(tmp_path / "h.db")
        history.record("grid", "g", cells=2, cache_hits=2, wall_s=0.5,
                       health={"retries": 1})
        lines = render_entries(history.list())
        assert "served" in lines[0]
        assert any("cache" in line and "retries=1" in line for line in lines)

    def test_render_empty(self):
        assert render_entries([]) == ["(no recorded runs)"]

    def test_render_entry_detail(self, tmp_path):
        history = RunHistory(tmp_path / "h.db")
        run_id = history.record(
            "grid", "g", cells=2, trace_path="t.json", git_sha="abc"
        )
        text = "\n".join(render_entry(history.get(run_id)))
        assert "trace:        t.json" in text
        assert "git:          abc" in text


class TestQueryProvenanceFilters:
    def _seed(self, tmp_path):
        history = RunHistory(tmp_path / "h.db")
        history.record(
            "run", "batch-run",
            extra={"engine": "batch", "timebase": "lattice(1/2)"},
        )
        history.record(
            "run", "object-run",
            extra={"engine": "object", "timebase": "fraction"},
        )
        history.record(
            "grid", "mixed-grid", cells=2, cache_hits=2,
            extra={"engines": ["batch", "object"]},
        )
        history.record("grid", "exec-grid", cells=2, cache_hits=0)
        return history

    def test_engine_filter_matches_runs_and_grid_cells(self, tmp_path):
        history = self._seed(tmp_path)
        names = {e.name for e in history.query(engine="batch")}
        assert names == {"batch-run", "mixed-grid"}
        names = {e.name for e in history.query(engine="object")}
        assert names == {"object-run", "mixed-grid"}

    def test_engine_filter_matches_family_prefix(self, tmp_path):
        """Recorded engines carry the resolved program family; the
        bare family name matches both variants, the full value only its
        own."""
        history = RunHistory(tmp_path / "h.db")
        history.record(
            "run", "adaptive-run", extra={"engine": "batch(adaptive)"}
        )
        history.record(
            "run", "nonadaptive-run", extra={"engine": "batch(nonadaptive)"}
        )
        history.record(
            "grid", "adaptive-grid", cells=1,
            extra={"engines": ["batch(adaptive)"]},
        )
        history.record("run", "object-run", extra={"engine": "object"})
        names = {e.name for e in history.query(engine="batch")}
        assert names == {"adaptive-run", "nonadaptive-run", "adaptive-grid"}
        names = {e.name for e in history.query(engine="batch(adaptive)")}
        assert names == {"adaptive-run", "adaptive-grid"}
        names = {e.name for e in history.query(engine="batch(nonadaptive)")}
        assert names == {"nonadaptive-run"}

    def test_timebase_filter_matches_family_prefix(self, tmp_path):
        history = self._seed(tmp_path)
        entries = history.query(timebase="fraction")
        assert [e.name for e in entries] == ["object-run"]
        # "lattice(1/2)" is recorded with its pitch; the filter matches
        # the family name.
        entries = history.query(timebase="lattice")
        assert [e.name for e in entries] == ["batch-run"]

    def test_served_filter(self, tmp_path):
        history = self._seed(tmp_path)
        assert [e.name for e in history.query(served="cache")] == ["mixed-grid"]
        assert "exec-grid" in {e.name for e in history.query(served="exec")}

    def test_post_filter_scans_past_sql_limit(self, tmp_path):
        """One matching row buried under many non-matching newer ones."""
        history = RunHistory(tmp_path / "h.db")
        history.record("run", "needle", extra={"engine": "batch"})
        for index in range(30):
            history.record("run", f"hay-{index}",
                           extra={"engine": "object"})
        entries = history.query(engine="batch", limit=5)
        assert [e.name for e in entries] == ["needle"]

    def test_filters_compose_with_sql_clauses(self, tmp_path):
        history = self._seed(tmp_path)
        entries = history.query(kind="grid", served="cache")
        assert [e.name for e in entries] == ["mixed-grid"]
        assert history.query(kind="run", served="cache") == []


class TestHeldWriter:
    """``RunHistory.record`` writes through one connection per process
    and database path, opened again whenever it could be stale."""

    def test_rows_land_before_and_after_the_cache_is_cleared(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        db = tmp_path / "cache" / "history.db"
        first = RunHistory(db).record("grid", "before")
        cache.clear()  # removes history.db with the cache root
        assert not db.exists()
        second = RunHistory(db).record("grid", "after")
        assert [e.name for e in RunHistory(db).list()] == ["after"]
        assert (first, second) == (1, 1)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_writes_its_own_row(self, tmp_path):
        import sqlite3

        db = tmp_path / "h.db"
        RunHistory(db).record("run", "parent-before")
        pid = os.fork()
        if pid == 0:  # the child: exit without running pytest's teardown
            code = 1
            try:
                # SQLite forbids using the parent's connection here: the
                # child must open its own.
                opened = []
                connect = sqlite3.connect
                sqlite3.connect = lambda *a, **k: opened.append(a) or \
                    connect(*a, **k)
                RunHistory(db).record("run", "child")
                code = 0 if len(opened) == 1 else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        RunHistory(db).record("run", "parent-after")
        assert [e.name for e in RunHistory(db).list()] == \
            ["parent-after", "child", "parent-before"]

    def test_threads_share_the_connection(self, tmp_path):
        import sys
        import threading

        history = RunHistory(tmp_path / "h.db")
        ids = []

        def write(thread):
            for row in range(25):
                ids.append(history.record("run", f"t{thread}-{row}"))

        threads = [threading.Thread(target=write, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(set(ids)) == len(ids) == 200
        assert history.count() == 200

    def test_at_most_four_connections_are_held(self, tmp_path, monkeypatch):
        import sqlite3

        from repro.obs import history as history_module

        opened = []
        connect = sqlite3.connect

        def recording(*args, **kwargs):
            connection = connect(*args, **kwargs)
            opened.append(connection)
            return connection

        def is_open(connection):
            try:
                connection.total_changes
            except sqlite3.ProgrammingError:
                return False
            return True

        monkeypatch.setattr(history_module.sqlite3, "connect", recording)
        for index in range(50):
            RunHistory(tmp_path / f"h{index}.db").record("run", str(index))
        assert len(opened) == 50
        assert sum(map(is_open, opened)) <= 4
        assert all(RunHistory(tmp_path / f"h{index}.db").count() == 1
                   for index in range(50))

    def test_warm_requests_reuse_one_connection(self, tmp_path, monkeypatch):
        import sqlite3

        from repro.obs import history as history_module

        cache_dir = str(tmp_path / "cache")
        execute(grid_request("a", "b", cache=True, cache_dir=cache_dir))
        calls = []
        connect = sqlite3.connect

        def counting(*args, **kwargs):
            calls.append(args)
            return connect(*args, **kwargs)

        monkeypatch.setattr(history_module.sqlite3, "connect", counting)
        for _ in range(20):
            result = execute(
                grid_request("a", "b", cache=True, cache_dir=cache_dir)
            )
            assert result.served_from == "cache" and result.history_id
        monkeypatch.undo()
        assert len(calls) <= 1
        history = RunHistory(tmp_path / "cache" / "history.db")
        assert history.count() == 21
