"""Declarative experiment grids with parallel execution and CSV export.

The benches and the CLI share this thin layer.  An experiment *cell*
is a :class:`~repro.scenarios.ScenarioSpec`: one algorithm against one
slot adversary and arrival process at some (n, R, rho, b), run to the
spec's horizon.  A *grid* is a list of specs, each yielding the same
measurement record.  Cells are independent, so a grid runs on the
:mod:`repro.exec` process pool — ``run_grid(specs, jobs=4)`` is
bit-identical to ``jobs=1``, just faster — and completed cells can be
memoized in a content-addressed :class:`repro.exec.ResultCache`, keyed
by each spec's canonical JSON, so re-running an unchanged grid is
near-instant.  Results serialize to CSV so downstream analysis
(spreadsheets, notebooks) needs nothing from this package.  See
``docs/experiments.md`` for the full workflow.

A minimal end-to-end run:

>>> from repro.scenarios import ScenarioSpec
>>> spec = ScenarioSpec(name="demo", algorithm="rrw", n=2, max_slot=1,
...                     schedule="sync", rho="1/2", horizon=120)
>>> result = run_cell(spec)
>>> (result.name, result.stable, result.metrics.delivered > 0)
('demo', True, True)
"""

from __future__ import annotations

import contextlib
import csv
import functools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence

from ..core.simulator import Simulator
from ..core.trace import Trace
from ..exec.cache import (
    MISS,
    ResultCache,
    canonical_key,
    code_salt,
    fingerprint,
)
from ..exec.pool import run_tasks
from ..exec.resilience import GridJournal, RunHealth, TaskError
from ..obs.profiling import PhaseProfiler, ProgressReporter
from ..obs.tracing import Span, Tracer, current_tracer
from .metrics import RunMetrics, collect_metrics, setstate_by_field
from .stability import assess_stability

if TYPE_CHECKING:
    # Annotations only: the scenario layer imports the algorithms,
    # which import this package.
    from ..scenarios import ScenarioSpec


@setstate_by_field
@dataclass(frozen=True, slots=True)
class CellResult:
    """Measurements of one cell run.

    ``engine``/``timebase`` record which run loop and internal time
    representation actually executed the cell (resolved, not
    requested) so perf-table diffs stay attributable;
    ``engine_described`` further splits batch cells into
    ``batch(adaptive)`` / ``batch(nonadaptive)`` by the matched vector
    program family.  All three are excluded from :meth:`as_row` — the
    observable measurements are bit-identical across engines, and the
    CSV schema stays stable.
    """

    name: str
    labels: Dict[str, str]
    metrics: RunMetrics
    stable: bool
    peak_backlog: int
    engine: str = "object"
    timebase: str = ""
    engine_described: str = ""

    def as_row(self) -> Dict[str, object]:
        """Flatten into a CSV-ready dictionary."""
        row: Dict[str, object] = {"name": self.name}
        row.update(self.labels)
        row.update(
            {
                "horizon": str(self.metrics.horizon),
                "delivered": self.metrics.delivered,
                "backlog": self.metrics.backlog,
                "peak_backlog": self.peak_backlog,
                "stable": int(self.stable),
                "collisions": self.metrics.collisions,
                "control_transmissions": self.metrics.control_transmissions,
                "throughput_cost": float(self.metrics.throughput_cost),
                "mean_latency": (
                    float(self.metrics.mean_latency)
                    if self.metrics.mean_latency is not None
                    else ""
                ),
            }
        )
        return row


def emit_phase_spans(
    tracer: Tracer, parent: Span, profiler: PhaseProfiler
) -> None:
    """Bridge a :class:`PhaseProfiler` into aggregate child spans.

    The profiler holds per-phase *totals*, not intervals, so the spans
    are laid out consecutively from the parent's start — they show
    attribution (how the parent's wall clock divides across
    adversary/channel/algorithm), not real timelines; each carries
    ``aggregate=True`` so readers can tell.
    """
    cursor = parent.ts
    for phase in sorted(profiler.seconds):
        duration_us = int(profiler.seconds[phase] * 1e6)
        tracer.add_span(
            f"sim.{phase}",
            ts=cursor,
            dur=duration_us,
            parent=parent.id,
            calls=profiler.calls[phase],
            aggregate=True,
        )
        cursor += duration_us


def trace_profiler(sim: Simulator) -> Optional[PhaseProfiler]:
    """The profiler behind a traced run's ``sim.*`` spans, or ``None``.

    Per-phase timers exist only in the object loop.  The profiler is
    attached after engine resolution, so it never demotes a run: a run
    that resolved to the batch kernel is traced without ``sim.*`` spans.
    A run that already carries a profiler (``--profile``) reuses it.
    """
    if sim.engine != "object":
        return None
    if sim.profiler is None:
        sim.profiler = PhaseProfiler()
    return sim.profiler


def _execute_cell(
    spec: ScenarioSpec, backlog_stride: int, engine: str = "auto"
) -> CellResult:
    """Run one cell.

    With a tracer active the run is wrapped in a ``cell`` span, and a
    cell on the object loop gets its phase totals as ``sim.*`` child
    spans (see :func:`trace_profiler`).
    """
    tracer = current_tracer()
    if tracer is None:
        return _execute_cell_impl(spec, backlog_stride, engine)
    with tracer.span("cell", cell=spec.name) as span:
        result = _execute_cell_impl(spec, backlog_stride, engine, span)
        span.set(
            stable=result.stable,
            delivered=result.metrics.delivered,
            engine=result.engine,
        )
        return result


def _execute_cell_impl(
    spec: ScenarioSpec,
    backlog_stride: int,
    engine: str = "auto",
    span: Optional[Span] = None,
) -> CellResult:
    trace = Trace(backlog_stride=backlog_stride)
    sim = spec.build(trace=trace, engine=engine)
    profiler = trace_profiler(sim) if span is not None else None
    sim.run(until_time=spec.horizon)
    if profiler is not None:
        emit_phase_spans(current_tracer(), span, profiler)
    samples = trace.backlog_series()
    samples.append((sim.now, sim.total_backlog))
    verdict = assess_stability(samples, spec.horizon, tolerance=5)
    return CellResult(
        name=spec.name,
        labels=dict(spec.labels),
        metrics=collect_metrics(sim),
        stable=verdict.stable,
        peak_backlog=trace.max_backlog,
        engine=sim.engine,
        timebase=sim.timebase.describe(),
        engine_described=sim.engine_described,
    )


def run_cell(
    spec: ScenarioSpec, backlog_stride: int = 8, *, engine: str = "auto"
) -> CellResult:
    """Execute one cell and collect its measurements.

    >>> from repro.scenarios import ScenarioSpec
    >>> spec = ScenarioSpec(name="demo", algorithm="rrw", n=2, max_slot=1,
    ...                     schedule="sync", rho="1/2", horizon=120)
    >>> result = run_cell(spec, backlog_stride=4)
    >>> (result.name, result.stable, result.peak_backlog >= result.metrics.backlog)
    ('demo', True, True)
    """
    return _execute_cell(spec, backlog_stride, engine)


def _cell_payload(spec: ScenarioSpec, backlog_stride: int) -> Dict[str, Any]:
    """The cache identity of one cell run (see ``repro.exec.cache``).

    A cell is keyed by its spec's canonical JSON, which is stable
    across processes and across edits to the code that built the spec.
    The fields beside ``spec`` repeat parts of it; they stay so that
    existing cache entries and journals keep their keys.
    """
    return {
        "kind": "scenario-cell",
        "name": spec.name,
        "labels": spec.labels,
        "spec": spec.__cache_form__(),
        "max_slot_length": spec.max_slot,
        "horizon": spec.horizon,
        "backlog_stride": backlog_stride,
    }


@dataclass(frozen=True, slots=True)
class CellFailure:
    """One grid cell that exhausted its retry budget."""

    index: int
    name: str
    error: TaskError

    def summary(self) -> str:
        return (
            f"{self.name}: [{self.error.kind}] {self.error.error_type}: "
            f"{self.error.message} (after {self.error.attempts} attempt(s))"
        )


@dataclass(slots=True)
class GridReport:
    """Results of one grid run plus how they were obtained.

    ``journal_hits`` counts cells restored from a resume journal (never
    re-executed); ``failures`` names every cell that failed for good;
    ``health`` is the engine's resilience ledger for the run.
    """

    results: List[CellResult]
    jobs: int
    mode: str
    wall_s: float
    cache_hits: int = 0
    cache_misses: int = 0
    journal_hits: int = 0
    failures: List[CellFailure] = field(default_factory=list)
    health: RunHealth = field(default_factory=RunHealth)


def grid_key(specs: Sequence[ScenarioSpec], backlog_stride: int) -> str:
    """Content identity of a whole grid — what a resume journal binds to.

    Folds in the code salt, so a journal written by different sources
    (whose results could differ) is never resumed from.
    """
    parts = [
        fingerprint(_cell_payload(spec, backlog_stride)) for spec in specs
    ]
    return canonical_key({"grid": parts}, salt=code_salt())


def run_grid_report(
    specs: Sequence[ScenarioSpec],
    backlog_stride: int = 8,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressReporter] = None,
    task_timeout: Optional[float] = None,
    retries: int = 0,
    journal: "Optional[GridJournal | str]" = None,
    resume: bool = False,
    engine: str = "auto",
) -> GridReport:
    """Run a grid and report results plus execution/caching facts.

    The engine behind :func:`run_grid`; use this form when you want
    wall time, cache hit counts, failures or the run's health alongside
    the results.  Results are always in cell order, whatever ``jobs`` is.

    Fault tolerance: ``task_timeout``/``retries`` bound each cell's
    attempts (see :func:`repro.exec.run_tasks`); a cell that fails for
    good lands in ``report.failures`` by name instead of aborting its
    siblings.  ``journal`` checkpoints every completed cell to an
    append-only JSONL file as it finishes; with ``resume=True`` the
    journal's recorded cells are restored and only missing ones are
    recomputed — :class:`~repro.exec.JournalMismatch` is raised if the
    journal belongs to a different grid.

    With a tracer active the whole run is wrapped in a ``grid`` span.
    Nothing here writes run history: :func:`repro.service.execute`
    records one row per grid request.
    """
    specs = list(specs)
    tracer = current_tracer()
    with (
        tracer.span("grid", cells=len(specs), backlog_stride=backlog_stride)
        if tracer is not None
        else contextlib.nullcontext()
    ) as span:
        report = _run_grid_report(
            specs,
            backlog_stride,
            jobs=jobs,
            cache=cache,
            progress=progress,
            task_timeout=task_timeout,
            retries=retries,
            journal=journal,
            resume=resume,
            engine=engine,
        )
        if span is not None:
            span.set(
                mode=report.mode,
                cache_hits=report.cache_hits,
                cache_misses=report.cache_misses,
                journal_hits=report.journal_hits,
                failures=len(report.failures),
            )
    return report


def _run_grid_report(
    specs: List[ScenarioSpec],
    backlog_stride: int = 8,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressReporter] = None,
    task_timeout: Optional[float] = None,
    retries: int = 0,
    journal: "Optional[GridJournal | str]" = None,
    resume: bool = False,
    engine: str = "auto",
) -> GridReport:
    """The engine behind :func:`run_grid_report` (which adds the span)."""
    started = time.perf_counter()
    results: List[Optional[CellResult]] = [None] * len(specs)
    keys: List[Optional[str]] = [None] * len(specs)
    pending: List[int] = []
    hits = 0
    journal_hits = 0

    if isinstance(journal, (str, Path)):
        journal = GridJournal(journal)
    recorded: Dict[int, Any] = {}
    if journal is not None:
        recorded = journal.start(
            grid_key(specs, backlog_stride), len(specs), resume=resume
        )

    for index, spec in enumerate(specs):
        value = recorded.get(index)
        if isinstance(value, CellResult):
            results[index] = value
            journal_hits += 1
            continue
        if cache is not None:
            keys[index] = cache.key_for(_cell_payload(spec, backlog_stride))
            value = cache.get(keys[index])
            if value is not MISS:
                results[index] = value
                hits += 1
                if journal is not None:
                    journal.record(index, spec.name, value)
                continue
        pending.append(index)

    tasks = [
        functools.partial(_execute_cell, specs[index], backlog_stride, engine)
        for index in pending
    ]

    def checkpoint(slot: int, value: Any) -> None:
        """Persist each finished cell the moment it lands (crash-safe)."""
        if isinstance(value, TaskError):
            return
        index = pending[slot]
        if cache is not None:
            cache.put(keys[index], value)
        if journal is not None:
            journal.record(index, specs[index].name, value)

    try:
        run = run_tasks(
            tasks,
            jobs=jobs,
            progress=progress,
            label="cells",
            task_timeout=task_timeout,
            retries=retries,
            on_error="capture",
            on_result=checkpoint,
        )
    finally:
        if journal is not None:
            journal.close()

    failures: List[CellFailure] = []
    for slot, index in enumerate(pending):
        value = run.values[slot]
        if isinstance(value, TaskError):
            failures.append(
                CellFailure(index=index, name=specs[index].name, error=value)
            )
            continue
        results[index] = value
    return GridReport(
        results=[result for result in results if result is not None],
        jobs=run.jobs,
        mode=run.mode,
        wall_s=time.perf_counter() - started,
        cache_hits=hits,
        cache_misses=len(pending) if cache is not None else 0,
        journal_hits=journal_hits,
        failures=failures,
        health=run.health,
    )


def run_grid(
    specs: Sequence[ScenarioSpec],
    backlog_stride: int = 8,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressReporter] = None,
    task_timeout: Optional[float] = None,
    retries: int = 0,
    journal: "Optional[GridJournal | str]" = None,
    resume: bool = False,
    engine: str = "auto",
) -> List[CellResult]:
    """Run every cell; results in cell order (deterministic runs).

    ``backlog_stride`` is passed through to every cell's
    :class:`~repro.core.trace.Trace`.  ``jobs`` fans the grid out on
    the :mod:`repro.exec` process pool — bit-identical results, less
    wall time.  ``cache`` memoizes completed cells content-addressed by
    their specs.  ``task_timeout``/``retries``/``journal``/``resume``
    are forwarded to :func:`run_grid_report`; unlike the report form,
    this list form raises if any cell still failed after its retries —
    a shorter result list must never pass silently.

    >>> from repro.scenarios import ScenarioSpec
    >>> spec = ScenarioSpec(name="demo", algorithm="rrw", n=2, max_slot=1,
    ...                     schedule="sync", rho="1/2", horizon=120)
    >>> [r.name for r in run_grid([spec])]
    ['demo']
    >>> run_grid([spec], backlog_stride=4) == [run_cell(spec, 4)]
    True
    """
    report = run_grid_report(
        specs,
        backlog_stride,
        jobs=jobs,
        cache=cache,
        progress=progress,
        task_timeout=task_timeout,
        retries=retries,
        journal=journal,
        resume=resume,
        engine=engine,
    )
    if report.failures:
        detail = "; ".join(f.summary() for f in report.failures)
        raise RuntimeError(
            f"grid: {len(report.failures)} cell(s) failed: {detail}"
        )
    return report.results


def write_csv(results: Iterable[CellResult], path: str) -> None:
    """Serialize results; the header is the union of all row keys.

    >>> import os, tempfile
    >>> from repro.scenarios import ScenarioSpec
    >>> spec = ScenarioSpec(algorithm="rrw", n=2, max_slot=1,
    ...                     schedule="sync", rho="1/2", horizon=120)
    >>> target = os.path.join(tempfile.mkdtemp(), "grid.csv")
    >>> write_csv([run_cell(spec)], target)
    >>> open(target).readline().startswith("name,horizon,delivered")
    True
    """
    rows = [result.as_row() for result in results]
    if not rows:
        raise ValueError("no results to write")
    fieldnames: List[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
