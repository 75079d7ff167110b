"""Declarative experiment grids with parallel execution and CSV export.

The benches and the CLI share this thin layer: an experiment *cell* is
a named recipe (algorithms x slot adversary x workload x horizon); a
*grid* is a list of cells, each yielding the same measurement record.
Cells are independent, so a grid runs on the :mod:`repro.exec` process
pool — ``run_grid(cells, jobs=4)`` is bit-identical to ``jobs=1``,
just faster — and completed cells can be memoized in a
content-addressed :class:`repro.exec.ResultCache` so re-running an
unchanged grid is near-instant.  Results serialize to CSV so
downstream analysis (spreadsheets, notebooks) needs nothing from this
package.  See ``docs/experiments.md`` for the full workflow.

A minimal end-to-end run:

>>> from repro.algorithms import RRW
>>> from repro.arrivals import UniformRate
>>> from repro.timing import Synchronous
>>> cell = ExperimentCell(
...     name="demo",
...     algorithms=lambda: {1: RRW(1, 2), 2: RRW(2, 2)},
...     slot_adversary=Synchronous,
...     arrival_source=lambda: UniformRate(
...         rho="1/2", targets=[1, 2], assumed_cost=1
...     ),
...     max_slot_length=1,
...     horizon=120,
... )
>>> result = run_cell(cell)
>>> (result.name, result.stable, result.metrics.delivered > 0)
('demo', True, True)

(The function doctests below use ``_demo_cell()``, a module-level
factory for exactly this cell, because every docstring runs in its
own namespace.)
"""

from __future__ import annotations

import csv
import functools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
)

from ..core.simulator import Simulator
from ..core.station import StationAlgorithm
from ..core.timebase import TimeLike, as_time
from ..core.trace import Trace
from ..exec.cache import (
    MISS,
    ResultCache,
    UncacheableValue,
    canonical_key,
    code_salt,
    fingerprint,
)
from ..exec.pool import run_tasks
from ..exec.resilience import GridJournal, RunHealth, TaskError
from ..obs.profiling import PhaseProfiler, ProgressReporter
from ..obs.tracing import Span, Tracer, current_tracer
from .metrics import RunMetrics, collect_metrics
from .stability import assess_stability


@dataclass(frozen=True, slots=True)
class ExperimentCell:
    """One runnable configuration.

    Factories (not instances) so that every run starts fresh and grids
    stay trivially re-runnable.  Cells built from a declarative
    :class:`~repro.scenarios.ScenarioSpec` (via :meth:`from_spec`)
    additionally carry the spec, which the result cache uses to key the
    cell by canonical JSON instead of callable bytecode.
    """

    name: str
    algorithms: Callable[[], Dict[int, StationAlgorithm]]
    slot_adversary: Callable[[], object]
    arrival_source: Callable[[], Optional[object]]
    max_slot_length: TimeLike
    horizon: TimeLike
    #: Free-form key=value labels copied into the result row.
    labels: Dict[str, str] = field(default_factory=dict)
    #: The declarative spec this cell was built from, when there is one.
    spec: Optional[object] = None

    @classmethod
    def from_spec(
        cls,
        spec,
        *,
        name: Optional[str] = None,
        labels: Optional[Dict[str, str]] = None,
    ) -> "ExperimentCell":
        """A cell whose factories (and cache identity) come from ``spec``.

        ``name`` and ``labels`` default to the spec's own; explicit
        ``labels`` are merged over them.
        """
        merged = dict(spec.labels)
        if labels:
            merged.update(labels)
        return cls(
            name=name if name is not None else spec.name,
            algorithms=spec.build_fleet,
            slot_adversary=spec.build_schedule,
            arrival_source=spec.build_source,
            max_slot_length=spec.max_slot,
            horizon=spec.horizon,
            labels=merged,
            spec=spec,
        )


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


def _demo_cell() -> ExperimentCell:
    """The cheap two-station cell the doctests run (see module docstring)."""
    from ..algorithms import RRW
    from ..arrivals import UniformRate
    from ..timing import Synchronous

    return ExperimentCell(
        name="demo",
        algorithms=lambda: {1: RRW(1, 2), 2: RRW(2, 2)},
        slot_adversary=Synchronous,
        arrival_source=lambda: UniformRate(
            rho="1/2", targets=[1, 2], assumed_cost=1
        ),
        max_slot_length=1,
        horizon=120,
    )


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
    cell: ExperimentCell, backlog_stride: int, engine: str = "auto"
) -> CellResult:
    """Run one cell.

    With a tracer active the run is wrapped in a ``cell`` span, and a
    cell on the object loop gets its phase totals as ``sim.*`` child
    spans (see :func:`trace_profiler`).
    """
    tracer = current_tracer()
    if tracer is None:
        return _execute_cell_impl(cell, backlog_stride, engine)
    with tracer.span("cell", cell=cell.name) as span:
        result = _execute_cell_impl(cell, backlog_stride, engine, span)
        span.set(
            stable=result.stable,
            delivered=result.metrics.delivered,
            engine=result.engine,
        )
        return result


def _execute_cell_impl(
    cell: ExperimentCell,
    backlog_stride: int,
    engine: str = "auto",
    span: Optional[Span] = None,
) -> CellResult:
    trace = Trace(backlog_stride=backlog_stride)
    sim = Simulator(
        cell.algorithms(),
        cell.slot_adversary(),
        max_slot_length=cell.max_slot_length,
        arrival_source=cell.arrival_source(),
        trace=trace,
        engine=engine,
    )
    profiler = trace_profiler(sim) if span is not None else None
    horizon = as_time(cell.horizon)
    sim.run(until_time=horizon)
    if profiler is not None:
        emit_phase_spans(current_tracer(), span, profiler)
    samples = trace.backlog_series()
    samples.append((sim.now, sim.total_backlog))
    verdict = assess_stability(samples, horizon, tolerance=5)
    return CellResult(
        name=cell.name,
        labels=dict(cell.labels),
        metrics=collect_metrics(sim),
        stable=verdict.stable,
        peak_backlog=trace.max_backlog,
        engine=sim.engine,
        timebase=sim.timebase.describe(),
        engine_described=sim.engine_described,
    )


def run_cell(
    cell: ExperimentCell, backlog_stride: int = 8, *, engine: str = "auto"
) -> CellResult:
    """Execute one cell and collect its measurements.

    >>> result = run_cell(_demo_cell(), backlog_stride=4)
    >>> (result.name, result.stable, result.peak_backlog >= result.metrics.backlog)
    ('demo', True, True)
    """
    return _execute_cell(cell, backlog_stride, engine)


def _cell_payload(cell: ExperimentCell, backlog_stride: int) -> Dict[str, Any]:
    """The cache identity of one cell run (see ``repro.exec.cache``).

    Spec-backed cells are keyed by the spec's canonical JSON — stable
    across processes and across cosmetic edits to calling code.  Cells
    wired from closures keep the bytecode-fingerprint path.
    """
    if cell.spec is not None:
        return {
            "kind": "scenario-cell",
            "name": cell.name,
            "labels": cell.labels,
            "spec": cell.spec.__cache_form__(),
            "max_slot_length": as_time(cell.max_slot_length),
            "horizon": as_time(cell.horizon),
            "backlog_stride": backlog_stride,
        }
    return {
        "kind": "experiment-cell",
        "name": cell.name,
        "labels": cell.labels,
        "algorithms": cell.algorithms,
        "slot_adversary": cell.slot_adversary,
        "arrival_source": cell.arrival_source,
        "max_slot_length": as_time(cell.max_slot_length),
        "horizon": as_time(cell.horizon),
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


def grid_key(cells: Sequence[ExperimentCell], backlog_stride: int) -> str:
    """Content identity of a whole grid — what a resume journal binds to.

    Folds in the code salt, so a journal written by different sources
    (whose results could differ) is never resumed from.  Cells whose
    configuration cannot be fingerprinted degrade to (index, name,
    labels) identity — weaker, but still catches shape changes.
    """
    parts: List[Any] = []
    for index, cell in enumerate(cells):
        try:
            parts.append(fingerprint(_cell_payload(cell, backlog_stride)))
        except (UncacheableValue, RecursionError):
            parts.append(
                {"index": index, "name": cell.name, "labels": cell.labels}
            )
    return canonical_key({"grid": parts}, salt=code_salt())


def run_grid_report(
    cells: Sequence[ExperimentCell],
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
    cells = list(cells)
    tracer = current_tracer()
    if tracer is None:
        report = _run_grid_report(
            cells,
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
    else:
        with tracer.span(
            "grid", cells=len(cells), backlog_stride=backlog_stride
        ) as span:
            report = _run_grid_report(
                cells,
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
            span.set(
                mode=report.mode,
                cache_hits=report.cache_hits,
                cache_misses=report.cache_misses,
                journal_hits=report.journal_hits,
                failures=len(report.failures),
            )
    return report


def _run_grid_report(
    cells: List[ExperimentCell],
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
    results: List[Optional[CellResult]] = [None] * len(cells)
    keys: List[Optional[str]] = [None] * len(cells)
    pending: List[int] = []
    hits = 0
    journal_hits = 0

    if isinstance(journal, (str, Path)):
        journal = GridJournal(journal)
    recorded: Dict[int, Any] = {}
    if journal is not None:
        recorded = journal.start(
            grid_key(cells, backlog_stride), len(cells), resume=resume
        )

    for index, cell in enumerate(cells):
        value = recorded.get(index)
        if isinstance(value, CellResult):
            results[index] = value
            journal_hits += 1
            continue
        if cache is not None:
            try:
                keys[index] = cache.key_for(_cell_payload(cell, backlog_stride))
            except (UncacheableValue, RecursionError):
                keys[index] = None
            if keys[index] is not None:
                value = cache.get(keys[index])
                if value is not MISS:
                    results[index] = value
                    hits += 1
                    if journal is not None:
                        journal.record(index, cell.name, value)
                    continue
        pending.append(index)

    tasks = [
        functools.partial(_execute_cell, cells[index], backlog_stride, engine)
        for index in pending
    ]

    def checkpoint(slot: int, value: Any) -> None:
        """Persist each finished cell the moment it lands (crash-safe)."""
        if isinstance(value, TaskError):
            return
        index = pending[slot]
        if cache is not None and keys[index] is not None:
            cache.put(keys[index], value)
        if journal is not None:
            journal.record(index, cells[index].name, value)

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
                CellFailure(index=index, name=cells[index].name, error=value)
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
    cells: Sequence[ExperimentCell],
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
    :class:`~repro.core.trace.Trace` (it used to be silently dropped).
    ``jobs`` fans the grid out on the :mod:`repro.exec` process pool —
    bit-identical results, less wall time.  ``cache`` memoizes
    completed cells content-addressed by their configuration.
    ``task_timeout``/``retries``/``journal``/``resume`` are forwarded
    to :func:`run_grid_report`; unlike the report form, this list form
    raises if any cell still failed after its retries — a shorter
    result list must never pass silently.

    >>> [r.name for r in run_grid([_demo_cell()])]
    ['demo']
    >>> run_grid([_demo_cell()], backlog_stride=4) == [run_cell(_demo_cell(), 4)]
    True
    """
    report = run_grid_report(
        cells,
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
    >>> target = os.path.join(tempfile.mkdtemp(), "grid.csv")
    >>> write_csv([run_cell(_demo_cell())], target)
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
