"""Chaos tests for the fault-tolerant exec engine.

The contract under test: whatever the engine has to survive — worker
crashes, hung tasks, transient failures, torn cache writes, a fork
that stops working, a Ctrl-C mid-grid — the results that come out are
**bit-identical** to an undisturbed serial run, and everything the
recovery machinery did is visible in :class:`repro.exec.RunHealth`.

Faults are injected on a fixed schedule by :mod:`repro.exec.chaos`
(real ``os._exit`` crashes in forked workers, real sleeps for hangs),
so every recovery path here is exercised for real, deterministically.

``REPRO_CHAOS_JOBS`` widens the pool (CI runs the suite at 4).
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from repro.analysis import (
    grid_key,
    run_cell,
    run_grid,
    run_grid_report,
)
from repro.exec import (
    MISS,
    ChaosError,
    ChaosEvent,
    ChaosPlan,
    GridJournal,
    JournalMismatch,
    ResultCache,
    RunHealth,
    TaskError,
    TruncatingCache,
    backoff_delay,
    chaos_tasks,
    fork_available,
    run_tasks,
)
from repro.scenarios import ALGORITHMS, RegistryEntry, ScenarioSpec

CHAOS_JOBS = int(os.environ.get("REPRO_CHAOS_JOBS", "2"))

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork-based pool unavailable"
)


def cell(name="demo", rho="1/2", R=2, horizon=900, labels=None):
    return ScenarioSpec(
        algorithm="ca-arrow", n=3, max_slot=R, schedule="worst", rho=rho,
        horizon=horizon, name=name, labels=labels or {"rho": str(rho)},
    )


@pytest.fixture()
def failing_cell(monkeypatch):
    """Cells whose fleet builder raises (a registered algorithm, removed after)."""

    def explode(spec):
        raise ValueError("algorithms factory exploded")

    monkeypatch.setitem(ALGORITHMS._entries, "test-exploding", RegistryEntry(
        name="test-exploding", builder=explode,
        meta={"kind": "dynamic", "family": "test-exploding"},
    ))
    return lambda name="boom": cell(name=name).replace(algorithm="test-exploding")


def sim_tasks(count=5):
    """Real (small) simulation tasks plus their undisturbed results."""
    cells = [cell(name=f"c{i}", rho=Fraction(i + 1, count + 2)) for i in range(count)]
    tasks = [
        (lambda c: (lambda: run_cell(c)))(c) for c in cells
    ]
    baseline = [run_cell(c) for c in cells]
    return tasks, baseline


class TestBackoff:
    def test_deterministic_doubling_with_cap(self):
        assert [backoff_delay(0.05, a) for a in (1, 2, 3)] == [0.05, 0.1, 0.2]
        assert backoff_delay(0.5, 10) == 2.0
        assert backoff_delay(0.0, 3) == 0.0

    def test_run_tasks_validates_knobs(self):
        with pytest.raises(ValueError):
            run_tasks([lambda: 1], retries=-1)
        with pytest.raises(ValueError):
            run_tasks([lambda: 1], on_error="explode")


class TestRetriesSerial:
    def test_transient_failure_retried_to_success(self, tmp_path):
        tasks, baseline = sim_tasks(3)
        plan = ChaosPlan(events=(ChaosEvent("raise", index=1, attempts=1),))
        wrapped = chaos_tasks(tasks, plan, tmp_path / "chaos")
        run = run_tasks(wrapped, jobs=1, retries=2, backoff_base=0.001)
        assert run.values == baseline
        assert run.health.retries == 1
        assert run.health.failures == 0

    def test_exhausted_retries_capture_taskerror(self, tmp_path):
        tasks, baseline = sim_tasks(3)
        plan = ChaosPlan(events=(ChaosEvent("raise", index=1, attempts=5),))
        wrapped = chaos_tasks(tasks, plan, tmp_path / "chaos")
        run = run_tasks(
            wrapped, jobs=1, retries=1, backoff_base=0.001, on_error="capture"
        )
        error = run.values[1]
        assert isinstance(error, TaskError)
        assert error.index == 1
        assert error.attempts == 2
        assert error.kind == "error"
        assert error.error_type == "ChaosError"
        assert "injected failure" in error.message
        assert "ChaosError" in error.traceback_text
        # The siblings are untouched and still exact.
        assert run.values[0] == baseline[0]
        assert run.values[2] == baseline[2]
        assert run.health.failures == 1

    def test_default_mode_still_raises(self, tmp_path):
        plan = ChaosPlan(events=(ChaosEvent("raise", index=0, attempts=9),))
        wrapped = chaos_tasks([lambda: 1], plan, tmp_path / "chaos")
        with pytest.raises(ChaosError):
            run_tasks(wrapped, jobs=1, retries=1, backoff_base=0.001)


@needs_fork
class TestCrashRecovery:
    def test_crashed_worker_loses_only_its_task(self, tmp_path):
        tasks, baseline = sim_tasks(5)
        plan = ChaosPlan(
            events=(
                ChaosEvent("crash", index=1, attempts=1),
                ChaosEvent("crash", index=3, attempts=1),
            )
        )
        wrapped = chaos_tasks(tasks, plan, tmp_path / "chaos")
        run = run_tasks(
            wrapped, jobs=CHAOS_JOBS, retries=2, backoff_base=0.001
        )
        assert run.values == baseline  # bit-identical despite real crashes
        assert run.mode == "fork-pool"
        assert run.health.worker_crashes >= 2
        assert run.health.retries >= 2
        assert run.health.pool_respawns >= 1
        assert run.health.failures == 0
        assert run.health.disturbed

    def test_crash_beyond_budget_surfaces_as_taskerror(self, tmp_path):
        tasks, baseline = sim_tasks(3)
        plan = ChaosPlan(events=(ChaosEvent("crash", index=2, attempts=9),))
        wrapped = chaos_tasks(tasks, plan, tmp_path / "chaos")
        run = run_tasks(
            wrapped,
            jobs=CHAOS_JOBS,
            retries=1,
            backoff_base=0.001,
            on_error="capture",
        )
        error = run.values[2]
        assert isinstance(error, TaskError)
        assert error.kind == "crash"
        assert "87" in error.message  # CRASH_EXIT_CODE is visible
        assert run.values[:2] == baseline[:2]
        assert run.health.failures == 1

    def test_crash_in_raise_mode_aborts(self, tmp_path):
        tasks, _ = sim_tasks(2)
        plan = ChaosPlan(events=(ChaosEvent("crash", index=0, attempts=9),))
        wrapped = chaos_tasks(tasks, plan, tmp_path / "chaos")
        with pytest.raises(RuntimeError, match="crash"):
            run_tasks(wrapped, jobs=CHAOS_JOBS, retries=0)


@needs_fork
class TestTimeouts:
    def test_hung_task_is_killed_and_retried(self, tmp_path):
        tasks, baseline = sim_tasks(4)
        plan = ChaosPlan(
            events=(ChaosEvent("hang", index=2, attempts=1),), hang_s=30.0
        )
        wrapped = chaos_tasks(tasks, plan, tmp_path / "chaos")
        began = time.monotonic()
        run = run_tasks(
            wrapped,
            jobs=CHAOS_JOBS,
            task_timeout=1.0,
            retries=1,
            backoff_base=0.001,
        )
        assert time.monotonic() - began < 15.0  # nobody waited out the hang
        assert run.values == baseline
        assert run.health.timeouts >= 1
        assert run.health.retries >= 1
        assert run.health.failures == 0

    def test_timeout_beyond_budget_is_a_taskerror(self, tmp_path):
        tasks, baseline = sim_tasks(3)
        plan = ChaosPlan(
            events=(ChaosEvent("hang", index=0, attempts=9),), hang_s=30.0
        )
        wrapped = chaos_tasks(tasks, plan, tmp_path / "chaos")
        run = run_tasks(
            wrapped,
            jobs=CHAOS_JOBS,
            task_timeout=0.5,
            retries=0,
            on_error="capture",
        )
        error = run.values[0]
        assert isinstance(error, TaskError)
        assert error.kind == "timeout"
        assert "task_timeout" in error.message
        assert run.values[1:] == baseline[1:]


@needs_fork
class TestDegradedMode:
    def test_fork_failure_degrades_to_serial(self, monkeypatch, tmp_path):
        import repro.exec.pool as pool_mod

        def no_fork(context):
            raise OSError("fork: Resource temporarily unavailable")

        monkeypatch.setattr(pool_mod, "_spawn_worker", no_fork)
        tasks, baseline = sim_tasks(3)
        run = run_tasks(tasks, jobs=CHAOS_JOBS)
        assert run.values == baseline
        assert run.health.degraded
        assert run.health.failures == 0


class TestGridFailureSurface:
    def test_report_names_failed_cells(self, failing_cell):
        cells = [cell(name="ok-a"), failing_cell("boom"), cell(name="ok-b", rho="7/10")]
        report = run_grid_report(cells)
        assert [f.name for f in report.failures] == ["boom"]
        assert report.failures[0].error.error_type == "ValueError"
        assert [r.name for r in report.results] == ["ok-a", "ok-b"]
        assert report.health.failures == 1

    def test_run_grid_raises_with_cell_name(self, failing_cell):
        with pytest.raises(RuntimeError, match="boom"):
            run_grid([cell(name="fine"), failing_cell("boom")])


@needs_fork
class TestGridChaosParity:
    """The acceptance test: a grid disturbed by every chaos mode at once
    still produces results bit-identical to an undisturbed serial run."""

    def test_disturbed_grid_matches_undisturbed_serial(self, tmp_path):
        tasks, baseline = sim_tasks(6)
        plan = ChaosPlan(
            events=(
                ChaosEvent("crash", index=0, attempts=1),
                ChaosEvent("raise", index=2, attempts=2),
                ChaosEvent("hang", index=4, attempts=1),
            ),
            hang_s=30.0,
        )
        wrapped = chaos_tasks(tasks, plan, tmp_path / "chaos")
        run = run_tasks(
            wrapped,
            jobs=CHAOS_JOBS,
            task_timeout=2.0,
            retries=3,
            backoff_base=0.001,
        )
        assert run.values == baseline
        assert run.health.worker_crashes >= 1
        assert run.health.timeouts >= 1
        assert run.health.retries >= 3
        assert run.health.failures == 0

    def test_torn_cache_write_recovers_on_rerun(self, tmp_path):
        cells = [cell(name=f"g{i}", rho=Fraction(i + 1, 8)) for i in range(3)]
        baseline = run_grid(cells)
        torn = TruncatingCache(tmp_path / "cache", truncate_stores=(2,))
        first = run_grid_report(cells, cache=torn)
        assert first.results == baseline
        assert len(torn.torn_keys) == 1
        # The torn entry reads as a miss (and is dropped), the healthy
        # ones hit; the re-run recomputes exactly the torn cell.
        clean = ResultCache(tmp_path / "cache")
        second = run_grid_report(cells, cache=clean)
        assert second.results == baseline
        assert second.cache_hits == 2
        assert second.cache_misses == 1
        third = run_grid_report(cells, cache=clean)
        assert third.cache_hits == 3


class TestGridJournal:
    def test_round_trip_and_resume_skips_recorded_cells(self, tmp_path):
        cells = [cell(name=f"j{i}", rho=Fraction(i + 1, 6)) for i in range(4)]
        path = tmp_path / "grid.jsonl"
        first = run_grid_report(cells, journal=path)
        assert first.journal_hits == 0
        assert path.exists()
        resumed = run_grid_report(cells, journal=path, resume=True)
        assert resumed.journal_hits == 4
        assert resumed.results == first.results

    def test_partial_journal_recomputes_only_missing(self, tmp_path):
        cells = [cell(name=f"p{i}", rho=Fraction(i + 1, 6)) for i in range(4)]
        full = run_grid(cells)
        path = tmp_path / "grid.jsonl"
        with GridJournal(path) as journal:
            journal.start(grid_key(cells, 8), len(cells))
            journal.record(0, cells[0].name, full[0])
            journal.record(2, cells[2].name, full[2])
        report = run_grid_report(cells, journal=path, resume=True)
        assert report.journal_hits == 2
        assert report.results == full

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        cells = [cell(name=f"t{i}", rho=Fraction(i + 1, 6)) for i in range(3)]
        path = tmp_path / "grid.jsonl"
        run_grid_report(cells, journal=path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"index": 99, "name": "torn", "resu')  # no newline
        state = GridJournal(path).load()
        assert set(state.results) == {0, 1, 2}
        report = run_grid_report(cells, journal=path, resume=True)
        assert report.journal_hits == 3

    def test_journal_of_different_grid_is_rejected(self, tmp_path):
        path = tmp_path / "grid.jsonl"
        run_grid_report([cell(name="original")], journal=path)
        other = [cell(name="different", rho="7/10")]
        with pytest.raises(JournalMismatch):
            run_grid_report(other, journal=path, resume=True)
        # Without --resume the journal is simply overwritten.
        report = run_grid_report(other, journal=path)
        assert report.journal_hits == 0

    def test_journal_survives_failed_cells(self, tmp_path, failing_cell):
        cells = [cell(name="ok"), failing_cell("bad")]
        path = tmp_path / "grid.jsonl"
        report = run_grid_report(cells, journal=path)
        assert [f.name for f in report.failures] == ["bad"]
        state = GridJournal(path).load()
        assert set(state.results) == {0}  # only the completed cell


@needs_fork
class TestKeyboardInterrupt:
    def test_sigint_mid_grid_keeps_journal_and_resumes(self, tmp_path):
        repo = pathlib.Path(__file__).resolve().parents[1]
        journal = tmp_path / "grid.jsonl"
        args = [
            sys.executable, "-m", "repro", "grid",
            "--algorithms", "ca-arrow,ao-arrow",
            "--rhos", "3/10,1/2,7/10",
            "--n", "4", "--horizon", "6000",
            "--jobs", str(CHAOS_JOBS),
            "--no-cache",
            "--journal", str(journal),
        ]
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        proc = subprocess.Popen(
            args, cwd=repo, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            # Wait for at least one checkpointed cell, then interrupt.
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                state = GridJournal(journal).load()
                if state is not None and state.results:
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("no cell checkpointed within 120s")
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode == 0:
            pytest.skip("grid finished before SIGINT landed")
        assert proc.returncode != 0
        state = GridJournal(journal).load()
        assert state is not None and state.results  # completed cells kept

        # The follow-up --resume (same grid, same --jobs) completes,
        # reusing the journal.
        from repro.cli import main

        code = main(args[3:] + ["--resume"])
        assert code == 0
        final = GridJournal(journal).load()
        assert len(final.results) == 6


class TestCacheHardening:
    def test_scratch_names_are_process_and_call_unique(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        target = cache.path_for("ab" * 32)
        first = cache._scratch_for(target)
        second = cache._scratch_for(target)
        assert first != second
        assert str(os.getpid()) in first.name

    @needs_fork
    def test_concurrent_writers_leave_consistent_entries(self, tmp_path):
        import multiprocessing

        root = tmp_path / "cache"
        seed_cache = ResultCache(root)
        keys = [format(i, "02x") * 32 for i in range(4)]

        def hammer(worker_seed):
            cache = ResultCache(root)
            for round_no in range(25):
                key = keys[(worker_seed + round_no) % len(keys)]
                cache.put(key, {"key": key, "value": Fraction(1, 3)})
            return 0

        context = multiprocessing.get_context("fork")
        procs = [context.Process(target=hammer, args=(i,)) for i in range(4)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        for key in keys:
            value = seed_cache.get(key)
            assert value is not MISS
            assert value["key"] == key
        # No scratch files left behind by any writer.
        assert not list(root.rglob("*.tmp.*"))
        verification = seed_cache.verify()
        assert verification.clean
        assert verification.checked == len(keys)

    def test_corrupt_entry_reads_as_miss_and_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "cd" * 32
        cache.put(key, [Fraction(7, 3)])
        path = cache.path_for(key)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert cache.get(key) is MISS
        assert not path.exists()  # dropped, not left to fail again

    def test_verify_quarantines_corrupt_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        good, bad = "aa" * 32, "bb" * 32
        cache.put(good, "fine")
        cache.put(bad, "doomed")
        bad_path = cache.path_for(bad)
        bad_path.write_bytes(bad_path.read_bytes()[:10])
        verification = cache.verify()
        assert verification.checked == 2
        assert verification.ok == 1
        assert len(verification.quarantined) == 1
        assert not verification.clean
        assert not bad_path.exists()
        quarantined = verification.quarantined[0]
        assert quarantined.exists()
        assert "quarantine" in str(quarantined)
        # Quarantined files never masquerade as entries again.
        assert cache.get(bad) is MISS
        assert len(list(cache.entries())) == 1
        assert cache.get(good) == "fine"

    def test_truncating_cache_tears_scheduled_stores(self, tmp_path):
        cache = TruncatingCache(tmp_path / "cache", truncate_stores=(1,))
        key = "ee" * 32
        cache.put(key, "value")
        assert cache.torn_keys == [key]
        assert cache.get(key) is MISS
        cache.put(key, "value")  # store #2 is not scheduled: intact
        assert cache.get(key) == "value"

    def test_lock_is_reentrant_per_operation(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with cache.lock():
            pass  # acquire/release cycles cleanly
        cache.put("ff" * 32, "v")
        assert cache.clear() == 1


class TestCLI:
    def test_cache_verify_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "cache"
        cache = ResultCache(root)
        cache.put("ab" * 32, "ok-value")
        assert main(["cache", "verify", "--cache-dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "1 ok, 0 quarantined" in out

        path = cache.path_for("ab" * 32)
        path.write_bytes(path.read_bytes()[:7])
        assert main(["cache", "verify", "--cache-dir", str(root)]) == 1
        captured = capsys.readouterr()
        assert "1 quarantined" in captured.out
        assert "quarantined:" in captured.err

    def test_grid_journal_resume_via_cli(self, tmp_path, capsys):
        from repro.cli import main

        journal = tmp_path / "grid.jsonl"
        base = [
            "grid", "--algorithms", "ca-arrow", "--rhos", "3/10,1/2",
            "--n", "3", "--horizon", "1200", "--no-cache",
            "--journal", str(journal),
        ]
        assert main(base) == 0
        out = capsys.readouterr().out
        assert f"journal: {journal}" in out
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "(2 cells resumed)" in out

    @needs_fork
    def test_grid_timeout_failures_exit_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        # Two cells: a single-task run would fold to the serial path,
        # where a running task cannot be preempted by the timeout.
        code = main([
            "grid", "--algorithms", "ca-arrow", "--rhos", "1/2,7/10",
            "--n", "4", "--horizon", "200000", "--no-cache",
            "--jobs", "2", "--task-timeout", "0.05",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED cells" in captured.err
        assert "ca-arrow@rho=1/2" in captured.err
        assert "health:" in captured.out
        assert "timeouts=" in captured.out
