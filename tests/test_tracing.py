"""Tests for the flight recorder (:mod:`repro.obs.tracing`).

The contract: with no tracer active nothing is recorded (and nothing
is paid — the serial-path cost is separately policed by the
``exec_overhead`` perf probe); with one active, every span the
taxonomy in docs/tracing.md promises shows up with correct
parent/child structure across the fork boundary, the Chrome export
carries the fields Perfetto needs, and attempt spans reconcile
*exactly* with the :class:`repro.exec.RunHealth` ledger of the same
run — retries and timeouts included.
"""

import json

import pytest

from repro.algorithms import CAArrow
from repro.analysis import ExperimentCell, run_grid_report
from repro.arrivals import UniformRate
from repro.exec import (
    ChaosEvent,
    ChaosPlan,
    chaos_tasks,
    fork_available,
    run_tasks,
)
from repro.obs import (
    Tracer,
    activate,
    current_tracer,
    deactivate,
    load_trace,
    render_trace_summary,
    summarize_trace,
)
from repro.timing import worst_case_for

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork-based pool unavailable"
)


@pytest.fixture
def tracer(tmp_path):
    """An active tracer, deactivated (and cleaned up) after the test."""
    tracer = activate(Tracer(spool_dir=tmp_path / "spool"))
    yield tracer
    deactivate()
    tracer.close()


def cell(name="demo", rho="1/2", horizon=400):
    n = 3
    return ExperimentCell(
        name=name,
        algorithms=lambda: {i: CAArrow(i, n, 2) for i in range(1, n + 1)},
        slot_adversary=lambda: worst_case_for(2),
        arrival_source=lambda: UniformRate(
            rho=rho, targets=[1, 2, 3], assumed_cost=2
        ),
        max_slot_length=2,
        horizon=horizon,
    )


class TestTracerCore:
    def test_off_by_default(self):
        assert current_tracer() is None

    def test_activate_deactivate(self, tmp_path):
        tracer = Tracer(spool_dir=tmp_path)
        assert activate(tracer) is tracer
        assert current_tracer() is tracer
        deactivate()
        assert current_tracer() is None

    def test_span_nesting_links_parents(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        spans = tracer.spans()
        by_name = {s["name"]: s for s in spans}
        assert by_name["inner"]["parent"] == outer.id
        assert by_name["outer"]["parent"] is None
        assert inner.id != outer.id

    def test_begin_end_explicit_form(self, tracer):
        span = tracer.begin("attempt", tid=3, task=3, attempt=1)
        tracer.end(span, outcome="ok", retried=False)
        [record] = tracer.spans()
        assert record["tid"] == 3
        assert record["args"] == {
            "task": 3, "attempt": 1, "outcome": "ok", "retried": False,
        }
        assert record["dur"] >= 0

    def test_tid_lane_inherited_by_children(self, tracer):
        with tracer.span("pool"):
            with tracer.span("task", tid=7):
                with tracer.span("cell"):
                    pass
        by_name = {s["name"]: s for s in tracer.spans()}
        assert by_name["pool"]["tid"] == 0
        assert by_name["task"]["tid"] == 7
        assert by_name["cell"]["tid"] == 7  # lane sticks for the subtree

    def test_add_span_with_explicit_timing(self, tracer):
        ts = tracer.now_us()
        tracer.add_span("attempt", ts=ts, dur=123, tid=1, outcome="timeout")
        [record] = tracer.spans()
        assert (record["ts"], record["dur"]) == (ts, 123)
        assert record["args"]["outcome"] == "timeout"

    def test_set_merges_attributes(self, tracer):
        with tracer.span("grid", cells=2) as span:
            span.set(mode="serial")
        [record] = tracer.spans()
        assert record["args"] == {"cells": 2, "mode": "serial"}


class TestChromeExport:
    def test_required_event_fields(self, tracer, tmp_path):
        with tracer.span("grid", cells=1):
            pass
        path = tracer.export_chrome(tmp_path / "out.json", cleanup=False)
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        [meta] = [e for e in events if e["ph"] == "M"]
        assert meta["name"] == "process_name"
        assert meta["args"]["name"] == "repro"
        [event] = [e for e in events if e["ph"] == "X"]
        for field in ("name", "cat", "ts", "dur", "pid", "tid", "args"):
            assert field in event, field
        assert event["ts"] == 0  # re-based to start at zero
        assert event["args"]["span"]  # ids embedded for tree rebuilds
        assert event["args"]["parent"] is None

    def test_load_trace_roundtrip(self, tracer, tmp_path):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        path = tracer.export_chrome(tmp_path / "out.json", cleanup=False)
        events = load_trace(path)
        assert {e["name"] for e in events} == {"outer", "inner"}

    def test_load_trace_rejects_non_traces(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("not json at all")
        with pytest.raises(ValueError):
            load_trace(bogus)
        bogus.write_text('{"some": "json"}')
        with pytest.raises(ValueError):
            load_trace(bogus)


class TestPoolTracing:
    @needs_fork
    def test_worker_spans_cross_the_fork_boundary(self, tracer, tmp_path):
        run = run_tasks([lambda i=i: i * i for i in range(4)], jobs=2)
        assert run.values == [0, 1, 4, 9]
        spans = tracer.spans()
        names = sorted({s["name"] for s in spans})
        assert names == ["attempt", "pool", "pool.dispatch", "task", "worker"]
        parent_pid = {s["name"]: s["pid"] for s in spans}["pool"]
        task_pids = {s["pid"] for s in spans if s["name"] == "task"}
        assert task_pids and parent_pid not in task_pids
        # Worker-side spans parent to the pool span opened pre-fork.
        pool_id = [s for s in spans if s["name"] == "pool"][0]["id"]
        assert all(
            s["parent"] == pool_id for s in spans if s["name"] == "task"
        )

    def test_serial_pool_traces_attempts(self, tracer):
        run = run_tasks([lambda: 1, lambda: 2], jobs=1)
        assert run.values == [1, 2]
        spans = tracer.spans()
        attempts = [s for s in spans if s["name"] == "attempt"]
        assert [a["args"]["outcome"] for a in attempts] == ["ok", "ok"]
        assert all(a["args"]["retried"] is False for a in attempts)

    @needs_fork
    def test_chaos_attempts_reconcile_with_health(self, tracer, tmp_path):
        plan = ChaosPlan(
            events=(
                ChaosEvent("raise", index=1),   # first attempt errors
                ChaosEvent("hang", index=2),    # first attempt times out
            ),
            hang_s=30.0,
        )
        tasks = chaos_tasks(
            [lambda i=i: i + 10 for i in range(4)], plan, tmp_path / "chaos"
        )
        run = run_tasks(tasks, jobs=2, task_timeout=2.0, retries=1)
        assert run.values == [10, 11, 12, 13]
        deactivate()
        path = tracer.export_chrome(tmp_path / "chaos.json", cleanup=False)
        summary = summarize_trace(path)
        # The trace *is* the health ledger, attempt by attempt.
        assert summary["retries"] == run.health.retries == 2
        assert summary["timeouts"] == run.health.timeouts == 1
        assert summary["errors"] == 1
        # A retried task shows as sibling attempts with increasing numbers.
        hung = [a for a in summary["attempts"] if a["task"] == 2]
        assert [(a["attempt"], a["outcome"]) for a in hung] == [
            (1, "timeout"), (2, "ok"),
        ]
        assert [a["retried"] for a in hung] == [True, False]
        lines = "\n".join(render_trace_summary(summary))
        assert "retry/timeout timeline" in lines


class TestGridTracing:
    @needs_fork
    def test_grid_cell_sim_nesting(self, tracer, tmp_path):
        report = run_grid_report(
            [cell(name="a"), cell(name="b", rho="7/10")],
            jobs=2,
        )
        assert not report.failures
        spans = tracer.spans()
        by_id = {s["id"]: s for s in spans}
        grids = [s for s in spans if s["name"] == "grid"]
        assert len(grids) == 1
        cells = [s for s in spans if s["name"] == "cell"]
        assert sorted(c["args"]["cell"] for c in cells) == ["a", "b"]
        for cell_span in cells:
            task = by_id[cell_span["parent"]]
            assert task["name"] == "task"
            pool = by_id[task["parent"]]
            assert pool["name"] == "pool"
            assert by_id[pool["parent"]]["name"] == "grid"
        phases = [s for s in spans if s["name"].startswith("sim.")]
        assert {s["name"] for s in phases} == {
            "sim.adversary", "sim.algorithm", "sim.channel",
        }
        cell_ids = {c["id"] for c in cells}
        assert all(s["parent"] in cell_ids for s in phases)
        assert all(s["args"]["aggregate"] is True for s in phases)

    @needs_fork
    def test_chaos_grid_attempts_reconcile_with_health(self, tracer, tmp_path):
        """The acceptance check: a grid disturbed by a transient failure
        and a hung cell leaves a trace whose attempt spans reconcile
        exactly with the grid's RunHealth counters."""
        state = tmp_path / "state"
        state.mkdir()

        def flaky(name, kind):
            def algorithms():
                import os
                import time

                path = os.path.join(state, f"{name}.attempts")
                fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
                try:
                    os.write(fd, b"x")
                    attempt = os.fstat(fd).st_size
                finally:
                    os.close(fd)
                if attempt == 1:
                    if kind == "raise":
                        raise RuntimeError("injected transient failure")
                    time.sleep(30)  # kind == "hang": blow the task timeout
                return {i: CAArrow(i, 3, 2) for i in range(1, 4)}

            base = cell(name=name)
            return ExperimentCell(
                name=name,
                algorithms=algorithms,
                slot_adversary=base.slot_adversary,
                arrival_source=base.arrival_source,
                max_slot_length=2,
                horizon=400,
            )

        report = run_grid_report(
            [cell(name="ok"), flaky("flaky", "raise"), flaky("hung", "hang")],
            jobs=2,
            task_timeout=2.0,
            retries=1,
        )
        assert not report.failures
        deactivate()
        path = tracer.export_chrome(tmp_path / "grid-chaos.json", cleanup=False)
        summary = summarize_trace(path)
        assert summary["retries"] == report.health.retries == 2
        assert summary["timeouts"] == report.health.timeouts == 1
        assert summary["errors"] == 1
        by_task = {}
        for attempt in summary["attempts"]:
            by_task.setdefault(attempt["task"], []).append(attempt)
        disturbed = {
            task: [(a["attempt"], a["outcome"]) for a in attempts]
            for task, attempts in by_task.items()
            if len(attempts) > 1
        }
        assert sorted(disturbed.values()) == [
            [(1, "error"), (2, "ok")],
            [(1, "timeout"), (2, "ok")],
        ]

    def test_traced_wide_cell_stays_on_batch(self, tracer):
        """A traced ``engine="auto"`` grid keeps a wide cell on the batch
        kernel; only the object-loop cell gets ``sim.*`` spans."""
        pytest.importorskip("numpy")
        from repro.scenarios import ScenarioSpec

        wide = ExperimentCell.from_spec(ScenarioSpec(
            algorithm="rrw", n=1000, rho="1/2", schedule="sync", horizon=20,
            name="wide",
        ))
        report = run_grid_report([wide, cell(name="narrow")], engine="auto")
        assert [r.engine for r in report.results] == ["batch", "object"]
        spans = tracer.spans()
        cells = {s["args"]["cell"]: s["id"] for s in spans if s["name"] == "cell"}
        phase_parents = {
            s["parent"] for s in spans if s["name"].startswith("sim.")
        }
        assert phase_parents == {cells["narrow"]}

    def test_traced_results_identical_to_untraced(self, tracer):
        cells = [cell(name="a"), cell(name="b", rho="7/10")]
        traced = run_grid_report(cells)
        deactivate()
        untraced = run_grid_report(cells)
        assert [r.metrics.delivered for r in traced.results] == [
            r.metrics.delivered for r in untraced.results
        ]
        assert [r.stable for r in traced.results] == [
            r.stable for r in untraced.results
        ]
