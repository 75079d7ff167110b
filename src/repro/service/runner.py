"""Resolve and execute a :class:`~repro.service.RunRequest`.

:func:`plan` turns a request into a :class:`RunPlan` — the request
plus everything resolved against the local environment: the
:class:`~repro.exec.ResultCache` instance, the journal path (including
the cache-adjacent ``--resume`` default), the grid cells.  :func:`execute`
runs the plan on the :mod:`repro.exec` engine and returns a uniform
:class:`RunResult` envelope whatever the command was: metrics,
manifest, :class:`~repro.exec.RunHealth`, history id, artifact/trace
paths, cache/journal provenance.  ``execute`` is also the one writer of
run history: :func:`record_history` turns each finished result into
exactly one row.

Two things are deliberately *not* managed here:

* **Tracing** — a run executes under whatever
  :func:`~repro.obs.current_tracer` is active.  Transports own the
  tracer lifecycle (the CLI's ``--trace`` context manager, a daemon's
  ambient tracer); ``options.trace`` is still recorded as provenance.
* **Rendering** — the result carries everything the CLI prints
  (including pre-rendered metric/profile lines) but prints nothing
  itself; the golden fixtures pin the CLI's rendering of these fields
  byte-for-byte.

Failures follow the scenario layer's convention:
:class:`~repro.core.errors.ConfigurationError` for anything wrong with
the request, :class:`~repro.exec.JournalMismatch` for a foreign resume
journal; transports translate those to their own error surface.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import time
from dataclasses import dataclass
from typing import IO, Any, Dict, Optional, Sequence, Tuple, Union

from ..analysis import abs_slot_upper_bound, collect_metrics, write_csv
from ..analysis.experiments import (
    ExperimentCell,
    GridReport,
    emit_phase_spans,
    run_grid_report,
    trace_profiler,
)
from ..analysis.metrics import RunMetrics
from ..core import Trace
from ..core.errors import ConfigurationError
from ..exec import ResultCache
from ..exec.resilience import RunHealth
from ..obs import (
    JsonlRunWriter,
    PhaseProfiler,
    ProbeBus,
    ProgressReporter,
    RunManifest,
    SimulationMetrics,
    current_tracer,
    git_sha,
    record_completion,
)
from ..obs.history import served_from
from ..scenarios import ALGORITHMS, ScenarioSpec
from .request import RunRequest

__all__ = ["RunPlan", "RunResult", "execute", "plan"]

PathLike = Union[str, pathlib.Path]


def _spec_hash(specs: Sequence[ScenarioSpec]) -> Optional[str]:
    """A stable short hash of the specs' canonical forms (history key).

    A single spec hashes its own canonical form, so a run and a
    one-cell grid of the same scenario share a hash.
    """
    try:
        forms = [spec.canonical() for spec in specs]
        canonical = json.dumps(
            forms[0] if len(forms) == 1 else forms, sort_keys=True, default=str
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
    except Exception:
        return None


@dataclass(frozen=True)
class RunPlan:
    """A request resolved against the local environment, ready to run."""

    request: RunRequest
    #: The grid's result cache, or None when caching is off.
    cache: Optional[ResultCache] = None
    #: The journal path in effect (the ``--resume`` default applied).
    journal: Optional[str] = None
    #: One cell per spec, in spec order (grid command only).
    cells: Tuple[ExperimentCell, ...] = ()


@dataclass
class RunResult:
    """The uniform envelope every executed request returns.

    ``command``-specific payloads (``metrics`` for a run, ``report``
    for a grid, ``sst`` for a solve) are optional; the provenance
    fields — wall time, engine, cache/journal counters, history id,
    artifact paths — are always populated when they apply.
    """

    command: str
    name: str
    status: str
    wall_s: float
    engine: str = ""
    timebase: str = ""
    engine_detail: str = ""
    #: The engine with its program family (``batch(adaptive)`` ...).
    engine_described: str = ""
    metrics: Optional[RunMetrics] = None
    manifest: Optional[Dict[str, Any]] = None
    report: Optional[GridReport] = None
    health: Optional[RunHealth] = None
    history_id: Optional[int] = None
    artifact_path: Optional[pathlib.Path] = None
    trace_path: Optional[str] = None
    csv_path: Optional[str] = None
    journal_path: Optional[str] = None
    cache_hits: int = 0
    cache_misses: int = 0
    journal_hits: int = 0
    #: Pre-rendered ``--metrics`` / ``--profile`` report lines.
    metrics_lines: Tuple[str, ...] = ()
    profile_lines: Tuple[str, ...] = ()
    #: SST payload: solved_at / winner / max_slots / bound.
    sst: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def served_from(self) -> str:
        """Provenance: ``cache`` / ``journal`` / ``mixed`` / ``exec``."""
        cells = len(self.report.results) if self.report is not None else 1
        return served_from(cells, self.cache_hits, self.journal_hits)

    def envelope(self) -> Dict[str, Any]:
        """A JSON-safe summary (the daemon's trailing service record)."""
        body: Dict[str, Any] = {
            "command": self.command,
            "name": self.name,
            "status": self.status,
            "wall_s": round(self.wall_s, 6),
            "served_from": self.served_from,
            "history_id": self.history_id,
        }
        if self.engine:
            body["engine"] = self.engine
            body["timebase"] = self.timebase
        if self.metrics is not None:
            body["delivered"] = self.metrics.delivered
            body["backlog"] = self.metrics.backlog
            body["collisions"] = self.metrics.collisions
        if self.report is not None:
            body["cells"] = len(self.report.results)
            body["cache_hits"] = self.cache_hits
            body["cache_misses"] = self.cache_misses
            body["journal_hits"] = self.journal_hits
            body["failures"] = len(self.report.failures)
        if self.sst is not None:
            body["sst"] = {
                key: (str(value) if value is not None else None)
                if key in ("solved_at", "bound")
                else value
                for key, value in self.sst.items()
            }
        if self.health is not None and self.health.disturbed:
            body["health"] = self.health.as_dict()
        if self.artifact_path is not None:
            body["artifact_path"] = str(self.artifact_path)
        for key, value in (
            ("trace_path", self.trace_path),
            ("csv_path", self.csv_path),
            ("journal_path", self.journal_path),
        ):
            if value:
                body[key] = value
        return body


def plan(request: RunRequest) -> RunPlan:
    """Resolve a request against the local environment.

    Pure resolution, no execution: validates command/spec fit (an SST
    request must name an SST algorithm), instantiates the result
    cache, applies the resume-journal default, and builds the grid
    cells.  Raises :class:`~repro.core.errors.ConfigurationError` on
    anything unresolvable.
    """
    options = request.options
    if request.command == "sst":
        spec = request.spec
        if spec.algorithm not in ALGORITHMS.names(kind="sst"):
            raise ConfigurationError(
                f"specs[0].algorithm: {spec.algorithm!r} is not an SST "
                f"algorithm (use {' | '.join(ALGORITHMS.names(kind='sst'))})"
            )
    cache = None
    journal = options.journal
    cells: Tuple[ExperimentCell, ...] = ()
    if request.command == "grid":
        if options.cache:
            cache = ResultCache(options.cache_dir)
        if journal is None and options.resume:
            # --resume with no explicit path uses the cache-adjacent
            # default the previous (journalled) run would have written.
            journal = str(
                pathlib.Path(options.cache_dir) / "grid-journal.jsonl"
            )
        cells = tuple(
            ExperimentCell.from_spec(spec) for spec in request.specs
        )
    return RunPlan(request=request, cache=cache, journal=journal, cells=cells)


def execute(
    request: RunRequest,
    *,
    artifact_stream: Optional[IO[str]] = None,
    history_db: Optional[PathLike] = None,
) -> RunResult:
    """Run a request end to end and return its :class:`RunResult`.

    ``artifact_stream`` streams the run's JSONL artifact (manifest,
    event records, summary) to an open text stream *instead of* the
    ``options.emit_jsonl`` path — the daemon's incremental-streaming
    hook.  The finished request is recorded as one run-history row
    (see :func:`record_history`); ``history_db`` overrides where (the
    daemon records into its cache-adjacent index).
    """
    resolved = plan(request)
    if request.command == "grid":
        result = _execute_grid(resolved)
    elif request.command == "sst":
        result = _execute_sst(resolved)
    else:
        result = _execute_run(resolved, artifact_stream)
    result.history_id = record_history(request, result, history_db)
    return result


def record_history(
    request: RunRequest,
    result: RunResult,
    history_db: Optional[PathLike] = None,
    *,
    kind: Optional[str] = None,
) -> Optional[int]:
    """Write the one run-history row of a finished request.

    ``kind`` defaults to the command (``run``/``grid``/``sst``); the
    daemon passes ``"serve"`` for what :func:`execute` never sees —
    artifact-cache replays and run submissions that failed mid-stream.
    The row lands in ``history_db``, else next to a cached grid's
    cache, else in the default database.  Best-effort: returns the row
    id, or ``None`` (see :func:`repro.obs.record_completion`).
    """
    options = request.options
    if history_db is None and request.command == "grid" and options.cache:
        history_db = pathlib.Path(options.cache_dir) / "history.db"
    report = result.report
    counts: Dict[str, Any] = {"jobs": 1, "mode": "serial"}
    if kind == "serve":
        counts.update(cells=1, cache_hits=result.cache_hits, mode="daemon")
        extra: Dict[str, Any] = {
            "command": request.command,
            "engine": result.engine,
            "timebase": result.timebase,
        }
    elif report is not None:
        counts.update(
            cells=len(request.specs),
            cache_hits=result.cache_hits,
            cache_misses=result.cache_misses,
            journal_hits=result.journal_hits,
            jobs=report.jobs,
            mode=report.mode,
            health=report.health.as_dict(),
        )
        extra = {"engines": sorted(
            {r.engine_described or r.engine for r in report.results if r.engine}
        )}
    else:
        extra = {"engine": result.engine_described, "timebase": result.timebase}
        if result.metrics is not None:
            extra.update(delivered=result.metrics.delivered,
                         backlog=result.metrics.backlog)
        if result.sst is not None:
            extra.update(solved=result.ok, max_slots=result.sst["max_slots"])
    return record_completion(
        kind or request.command,
        result.name,
        db_path=history_db,
        status=result.status,
        wall_s=result.wall_s,
        spec_hash=_spec_hash(request.specs),
        git_sha=git_sha(),
        artifact_path=result.artifact_path or result.csv_path,
        trace_path=result.trace_path,
        extra=extra,
        **counts,
    )


def _execute_run(
    plan_: RunPlan, artifact_stream: Optional[IO[str]]
) -> RunResult:
    """One spec, one simulator — the body behind ``repro run``."""
    request = plan_.request
    options = request.options
    spec = request.spec
    emitting = bool(options.emit_jsonl) or artifact_stream is not None
    observing = options.metrics or emitting or options.progress
    bus = ProbeBus() if observing else None
    sim_metrics = None
    writer = None
    if options.metrics or emitting:
        sim_metrics = SimulationMetrics()
        sim_metrics.attach(bus)
    profiler = PhaseProfiler() if options.profile else None
    sim = spec.build(
        trace=Trace(backlog_stride=8), probes=bus, profiler=profiler,
        timebase=options.timebase,
        engine=options.engine,
    )
    tracer = current_tracer()
    if tracer is not None:
        # The trace's sim.* spans, on the object loop only (reported as
        # profile lines only under --profile).
        profiler = trace_profiler(sim)
    manifest = None
    if emitting:
        manifest = RunManifest.create(
            spec=spec.canonical(),
            command="run",
            algorithm=spec.algorithm,
            n=spec.n,
            max_slot_length=spec.max_slot,
            rho=spec.rho,
            burst=spec.burst,
            schedule=spec.schedule_display(),
            seed=spec.seed,
            horizon=str(spec.horizon),
            engine=sim.engine,
            timebase=sim.timebase.describe(),
        )
        try:
            if artifact_stream is not None:
                writer = JsonlRunWriter(
                    stream=artifact_stream, manifest=manifest,
                    metrics=sim_metrics,
                ).attach(bus)
            else:
                writer = JsonlRunWriter(
                    options.emit_jsonl, manifest, metrics=sim_metrics
                ).attach(bus)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot write {options.emit_jsonl!r}: {exc}"
            ) from None
    if options.progress:
        # The user picked the cadence explicitly; don't rate-limit it away.
        ProgressReporter(
            every_events=options.progress, min_interval_s=0.0
        ).attach(bus)
    started = time.perf_counter()
    run_span = None
    if tracer is not None:
        run_span = tracer.begin(
            "run", scenario=spec.name, algorithm=spec.algorithm,
            engine=sim.engine,
        )
    try:
        sim.run(until_time=spec.horizon)
    except BaseException:
        if writer is not None:
            writer.flush()  # the records emitted before the failure
        raise
    if run_span is not None:
        if profiler is not None:
            emit_phase_spans(tracer, run_span, profiler)
        tracer.end(run_span, horizon=str(spec.horizon))
    wall_s = time.perf_counter() - started
    if writer is not None:
        writer.close(sim=sim)
    return RunResult(
        command="run",
        name=spec.name,
        status="ok",
        wall_s=wall_s,
        engine=sim.engine,
        timebase=sim.timebase.describe(),
        engine_detail=sim.engine_detail or "",
        engine_described=sim.engine_described,
        metrics=collect_metrics(sim),
        manifest=manifest.to_record() if manifest is not None else None,
        artifact_path=writer.path if writer is not None else None,
        trace_path=options.trace,
        metrics_lines=(
            tuple(sim_metrics.render())
            if sim_metrics is not None and options.metrics
            else ()
        ),
        profile_lines=(
            tuple(profiler.render())
            if profiler is not None and options.profile
            else ()
        ),
    )


def _execute_grid(plan_: RunPlan) -> RunResult:
    """A cell grid on the exec pool — the body behind ``repro grid``."""
    request = plan_.request
    options = request.options
    progress = None
    if options.progress:
        progress = ProgressReporter(every_events=1, min_interval_s=1.0)
    report = run_grid_report(
        list(plan_.cells),
        backlog_stride=options.backlog_stride,
        jobs=options.jobs,
        cache=plan_.cache,
        progress=progress,
        task_timeout=options.task_timeout,
        retries=options.retries,
        journal=plan_.journal,
        resume=options.resume,
        engine=options.engine,
    )
    csv_path = None
    if options.csv:
        write_csv(report.results, options.csv)
        csv_path = options.csv
    return RunResult(
        command="grid",
        name=request.specs[0].name if len(request.specs) == 1 else (
            f"{request.specs[0].name}..{request.specs[-1].name}"
        ),
        status="failed" if report.failures else "ok",
        wall_s=report.wall_s,
        report=report,
        health=report.health,
        trace_path=options.trace,
        csv_path=csv_path,
        journal_path=plan_.journal,
        cache_hits=report.cache_hits,
        cache_misses=report.cache_misses,
        journal_hits=report.journal_hits,
    )


def _execute_sst(plan_: RunPlan) -> RunResult:
    """Leader election / SST — the body behind ``repro sst``."""
    request = plan_.request
    options = request.options
    spec = request.spec
    sim = spec.build(timebase=options.timebase, engine=options.engine)
    fleet = {i: sim.algorithm(i) for i in sim.station_ids}
    started = time.perf_counter()
    solved_at = sim.run_until_success(max_events=options.max_events)
    if solved_at is not None:
        # Run on until every station knows the outcome.  A forced batch
        # kernel refuses per-event ``stop_when`` checks, so it steps one
        # event at a time instead (same stopping event either way).
        def done(_sim: Any) -> bool:
            return all(a.is_done for a in fleet.values())

        limit = sim.events_processed + 100_000
        if options.engine == "batch":
            while sim.events_processed < limit:
                sim.run(max_events=sim.events_processed + 1)
                if done(sim):
                    break
        else:
            sim.run(max_events=limit, stop_when=done)
    wall_s = time.perf_counter() - started
    winners = [
        i for i, a in fleet.items() if getattr(a, "outcome", None) == "won"
    ]
    return RunResult(
        command="sst",
        name=spec.name,
        status="ok" if solved_at is not None else "failed",
        wall_s=wall_s,
        engine=sim.engine,
        timebase=sim.timebase.describe(),
        engine_described=sim.engine_described,
        sst={
            "solved_at": solved_at,
            "winner": winners[0] if winners else None,
            "max_slots": sim.max_slots_elapsed(),
            "bound": abs_slot_upper_bound(spec.n, spec.max_slot),
        },
    )
