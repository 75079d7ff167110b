"""Observability: probes, metrics, run artifacts, profiling.

The window into a running simulation.  Four layers, composable but
independently usable:

* :mod:`repro.obs.probes` — the :class:`ProbeBus` and its four event
  types; the simulator fires them at named hook points with near-zero
  cost when nobody listens.
* :mod:`repro.obs.metrics` — counters / gauges / histograms in
  a :class:`MetricsRegistry`, plus :class:`SimulationMetrics`, the
  built-in instrument pack (slot-length distribution, feedback mix,
  queue occupancy, collisions, events/sec).
* :mod:`repro.obs.artifacts` — :class:`RunManifest` + streaming JSONL
  export (:class:`JsonlRunWriter`) and the :func:`load_run` /
  :func:`summarize_run` readers behind ``repro stats``.
* :mod:`repro.obs.profiling` — :class:`PhaseProfiler` (wall time per
  simulator phase) and :class:`ProgressReporter` (periodic status lines
  for long stability runs).
* :mod:`repro.obs.tracing` — the flight recorder: a :class:`Tracer`
  of hierarchical spans across the fork boundary, exported as Chrome
  trace-event JSON (Perfetto-loadable) behind ``--trace``.
* :mod:`repro.obs.history` — the persistent run-history index
  (:class:`RunHistory`, SQLite under ``.repro-cache/history.db``)
  behind ``repro history list/show/query``.

Quickstart::

    from repro.obs import ProbeBus, SimulationMetrics, JsonlRunWriter, RunManifest

    bus = ProbeBus()
    metrics = SimulationMetrics()
    metrics.attach(bus)
    writer = JsonlRunWriter("run.jsonl", RunManifest.create(algorithm="ao-arrow"),
                            metrics=metrics).attach(bus)
    sim = Simulator(..., probes=bus)
    sim.run(until_time=1_000_000)
    writer.close(sim=sim)
    print("\\n".join(metrics.render()))
"""

from .artifacts import (
    JsonlRunWriter,
    RunArtifact,
    RunManifest,
    git_sha,
    load_run,
    render_summary,
    summarize_run,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SimulationMetrics,
)
from .probes import (
    PROBE_EVENTS,
    ArrivalEvent,
    CollisionEvent,
    DeliveryEvent,
    ProbeBus,
    SlotEndEvent,
)
from .history import (
    HistoryEntry,
    RunHistory,
    default_db_path,
    history_enabled,
    record_completion,
)
from .profiling import PhaseProfiler, ProgressReporter
from .tracing import (
    Span,
    Tracer,
    activate,
    current_tracer,
    deactivate,
    load_trace,
    render_trace_summary,
    summarize_trace,
)

__all__ = [
    "ArrivalEvent",
    "CollisionEvent",
    "Counter",
    "DeliveryEvent",
    "Gauge",
    "HistoryEntry",
    "Histogram",
    "JsonlRunWriter",
    "MetricsRegistry",
    "PROBE_EVENTS",
    "PhaseProfiler",
    "ProbeBus",
    "ProgressReporter",
    "RunArtifact",
    "RunHistory",
    "RunManifest",
    "SimulationMetrics",
    "SlotEndEvent",
    "Span",
    "Tracer",
    "activate",
    "current_tracer",
    "deactivate",
    "default_db_path",
    "git_sha",
    "history_enabled",
    "load_run",
    "load_trace",
    "record_completion",
    "render_summary",
    "render_trace_summary",
    "summarize_run",
    "summarize_trace",
]
