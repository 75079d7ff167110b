"""Per-layer instrumentation, installed from outside the program.

The benchmark never edits ``src/``: it wraps the public functions and
methods of each ``repro`` module at class or module level, in its own
process and before any fork, so pool workers inherit the wrappers; the
serving daemon installs them through ``perfbench/daemon.py``.

Two kinds of wrapper exist:

* the **event counter** (both runs): ``Simulator.run`` and
  ``Simulator.run_until_success`` add the slot-end events and channel
  counters each outermost call executed.  It costs one wrapper call per
  simulation, not per event.
* the **layer timers** (traced run only): every wrapped call pushes a
  frame; on exit its duration is charged to the caller's frame, so each
  layer accumulates *self* time (duration minus wrapped callees).
  Coarse layers also keep a span ``(layer, start, end, id, parent id,
  request id)``; per-event layers keep only totals.

Each process writes its totals and spans to ``<spool>/<pid>.json``
(pool workers after every grid cell, the daemon when it is stopped);
:func:`account` merges them into one wall-clock account.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import weakref
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Every per-layer metric the traced run emits, with its unit.
PER_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("scenarios.build_s", "s"),
    ("scenarios.build_calls", "count"),
    ("core.batch.run_s", "s"),
    ("core.batch.step_s", "s"),
    ("core.batch.lengths_s", "s"),
    ("core.batch.ticks", "count"),
    ("core.batch.width", "events/tick"),
    ("core.simulator.run_s", "s"),
    ("core.simulator.events", "count"),
    ("algorithms.step_s", "s"),
    ("algorithms.step_calls", "count"),
    ("timing.slot_length_s", "s"),
    ("timing.slot_length_calls", "count"),
    ("arrivals.pump_s", "s"),
    ("arrivals.pump_calls", "count"),
    ("core.channel.feedback_s", "s"),
    ("core.channel.feedback_calls", "count"),
    ("core.channel.begin_tx_s", "s"),
    ("core.channel.begin_tx_calls", "count"),
    ("core.channel.success_ratio", "ratio"),
    ("obs.metrics_s", "s"),
    ("obs.artifacts_s", "s"),
    ("obs.artifacts_bytes", "bytes"),
    ("exec.pool.run_tasks_s", "s"),
    ("exec.pool.busy_ratio", "ratio"),
    ("exec.pool.wait_s", "s"),
    ("exec.cache.get_s", "s"),
    ("exec.cache.get_calls", "count"),
    ("exec.cache.hit_ratio", "ratio"),
    ("exec.cache.put_s", "s"),
    ("exec.cache.put_calls", "count"),
    ("exec.cache.put_bytes", "bytes"),
    ("obs.history.record_s", "s"),
    ("obs.history.record_calls", "count"),
    ("service.plan_s", "s"),
    ("service.execute_s", "s"),
    ("service.server.handle_s", "s"),
    ("service.transport_s", "s"),
    ("analysis.cell_s", "s"),
    ("residual_s", "s"),
    ("core.engine.batch_requests", "count"),
    ("core.engine.object_requests", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("error_rate", "ratio"),
)

#: Layers whose self times make up the wall-clock account.  Their
#: ``_s`` metrics plus ``residual_s`` add up to ``trace.wall_s``.
ACCOUNT_LAYERS = (
    "scenarios.build", "core.batch.run", "core.batch.step",
    "core.batch.lengths", "core.simulator.run", "algorithms.step",
    "timing.slot_length", "arrivals.pump", "core.channel.feedback",
    "core.channel.begin_tx", "obs.metrics", "obs.artifacts",
    "exec.pool.wait", "exec.cache.get", "exec.cache.put",
    "obs.history.record", "service.plan", "service.execute",
    "service.server.handle", "service.transport", "analysis.cell",
)

_EVENTS = "core.simulator.events"


class Recorder:
    """Per-process layer totals, counters and spans.

    Totals are updated without a lock: a closed-loop client keeps at
    most one request in flight, so at most one thread of a process runs
    wrapped code at a time.
    """

    def __init__(self, spool_dir: str, role: str) -> None:
        self.spool_dir = spool_dir
        self.role = role
        self.main_pid = os.getpid()
        self._local = threading.local()
        #: Nesting depth of the counted run methods (``run_until_success``
        #: calls ``run``); only the outermost call counts.
        self._run_depth = threading.local()
        self.inflight = 0
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.spans: List[Tuple[str, float, float, int, Optional[int], Any]] = []
        self.request_id: Any = None
        self._ids = itertools.count(1)
        self._seen: "weakref.WeakKeyDictionary[Any, Tuple[int, int]]" = (
            weakref.WeakKeyDictionary()
        )

    def _after_fork(self) -> None:
        # The forking thread's open frames belong to the parent.
        self._reset()
        self._local.stack = []
        self._run_depth.value = 0
        self.role = "worker"

    def clear(self) -> None:
        """Forget every total, count and span (the warm-up's)."""
        self._reset()

    @property
    def forked(self) -> bool:
        return os.getpid() != self.main_pid

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrappers ---------------------------------------------------------

    def timed(self, layer: str, fn: Callable, span: bool = False) -> Callable:
        """``fn`` with its self time charged to ``layer``."""
        local = self._local
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span_parent = parent[2] if parent is not None else None
            span_id = next(recorder._ids) if span else span_parent
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = perf_counter()
                stack.pop()
                duration = ended - started
                totals, counted = recorder.self_s, recorder.calls
                totals[layer] = totals.get(layer, 0.0) + duration - frame[1]
                if parent is None or parent[0] != layer:
                    counted[layer] = counted.get(layer, 0) + 1
                if parent is not None:
                    parent[1] += duration
                if span:
                    recorder.spans.append((layer, started, ended, span_id,
                                           span_parent, recorder.request_id))

        return wrapper

    def counted(self, name: str, fn: Callable,
                amount: Optional[Callable[..., int]] = None) -> Callable:
        """``fn`` counting its calls (or ``amount(*args)``) under ``name``."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            recorder.count(name, 1 if amount is None else amount(*args))
            return fn(*args, **kwargs)

        return wrapper

    def counting_run(self, fn: Callable) -> Callable:
        """A ``Simulator`` run method that counts the events it executed."""
        recorder = self
        depth = self._run_depth

        @functools.wraps(fn)
        def wrapper(sim: Any, *args: Any, **kwargs: Any) -> Any:
            if getattr(depth, "value", 0):
                return fn(sim, *args, **kwargs)  # nested: counted outside
            depth.value = 1
            before = sim.events_processed
            try:
                return fn(sim, *args, **kwargs)
            finally:
                depth.value = 0
                recorder.count(_EVENTS, sim.events_processed - before)
                stats = sim.channel.stats
                seen_tx, seen_ok = recorder._seen.get(sim, (0, 0))
                recorder.count("core.channel.transmissions",
                               stats.transmissions - seen_tx)
                recorder.count("core.channel.successes",
                               stats.successes - seen_ok)
                recorder._seen[sim] = (stats.transmissions, stats.successes)

        return wrapper

    # -- spooling ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        from repro.obs.tracing import current_tracer

        counts = dict(self.counts)
        if current_tracer() is not None:
            counts["guard.tracer_active"] = 1
        return {"pid": os.getpid(), "role": self.role,
                "self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": counts, "spans": list(self.spans)}

    def flush(self) -> None:
        """Write this process's snapshot to its spool file (atomically)."""
        path = os.path.join(self.spool_dir, f"{os.getpid()}.json")
        partial = path + ".tmp"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(partial, path)


# -- installation -----------------------------------------------------------

def _repro_modules() -> List[Any]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _repro_classes() -> Iterable[type]:
    for module in _repro_modules():
        for value in list(vars(module).values()):
            if inspect.isclass(value) and value.__module__ == module.__name__:
                yield value


def _patch_function(original: Callable, replacement: Callable) -> None:
    """Rebind ``original`` to ``replacement`` in every repro module.

    Functions imported by name (``from .runner import execute``) live in
    several module namespaces; each one is rebound.
    """
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_methods(cls: type, names: Iterable[str],
                   wrap: Callable[[Callable], Callable]) -> None:
    for name in names:
        value = cls.__dict__.get(name)
        if inspect.isfunction(value):
            setattr(cls, name, wrap(value))


def _import_program() -> None:
    """Import every module whose code the wrappers must reach."""
    import repro.algorithms  # noqa: F401
    import repro.analysis.experiments  # noqa: F401
    import repro.arrivals  # noqa: F401
    import repro.core.batch  # noqa: F401
    import repro.core.batch_adaptive  # noqa: F401
    import repro.exec  # noqa: F401
    import repro.faults  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.scenarios  # noqa: F401
    import repro.service  # noqa: F401
    import repro.service.client  # noqa: F401
    import repro.service.server  # noqa: F401
    import repro.timing  # noqa: F401


def _cell_wrapper(recorder: Recorder, fn: Callable) -> Callable:
    """Spool a pool worker's totals after each grid cell it ran.

    The spool is written before the worker replies, because the parent
    may stop the worker as soon as it has the result.
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        try:
            return fn(*args, **kwargs)
        finally:
            if recorder.forked:
                recorder.flush()

    return wrapper


def install_counter(recorder: Recorder) -> None:
    """The event counter alone (what the untraced run carries)."""
    _import_program()
    from repro.analysis import experiments
    from repro.core.simulator import Simulator

    _patch_methods(Simulator, ("run", "run_until_success"),
                   recorder.counting_run)
    original = experiments._execute_cell
    _patch_function(original, _cell_wrapper(recorder, original))


def install_layers(recorder: Recorder) -> None:
    """The event counter plus every layer timer (the traced run)."""
    _import_program()
    from repro.analysis import experiments
    from repro.core.batch import AlgorithmProgram, BatchKernel, ScheduleProgram
    from repro.core.channel import Channel
    from repro.core.simulator import Simulator
    from repro.exec.cache import MISS, ResultCache
    from repro.exec import pool
    from repro.obs import history
    from repro.obs.artifacts import JsonlRunWriter
    from repro.obs.metrics import SimulationMetrics
    from repro.obs.probes import ProbeBus
    from repro.obs.profiling import PhaseProfiler
    from repro.obs.tracing import Tracer
    from repro.scenarios.spec import ScenarioSpec
    from repro.service import client, runner, server

    timed = recorder.timed

    def layer(name: str, span: bool = False) -> Callable[[Callable], Callable]:
        return lambda fn: timed(name, fn, span)

    # Service and transport.
    _patch_function(runner.execute, timed("service.execute", runner.execute, True))
    _patch_function(runner.plan, timed("service.plan", runner.plan, True))
    _patch_function(client.submit_request,
                    timed("service.submit", client.submit_request, True))
    handle = timed("service.server.handle", server.ServiceHandler.do_POST, True)

    def do_post(self: Any) -> None:
        recorder.inflight += 1
        try:
            handle(self)
        finally:
            recorder.inflight -= 1

    server.ServiceHandler.do_POST = do_post
    _patch_methods(server._TeeStream, ("write",), lambda fn: recorder.counted(
        "obs.artifacts_bytes", fn, lambda _self, text: len(text)))

    # Spec build and the two run loops.
    _patch_methods(ScenarioSpec, ("build",), layer("scenarios.build", True))
    _patch_methods(Simulator, ("run", "run_until_success"),
                   lambda fn: timed("core.simulator.run",
                                    recorder.counting_run(fn), True))
    _patch_methods(BatchKernel, ("run",), layer("core.batch.run", True))
    _patch_methods(BatchKernel, ("_process_tick",), lambda fn: recorder.counted(
        "core.batch.ticks", recorder.counted(
            "core.batch.events", fn, lambda _self, _tick, m: len(m))))
    _patch_methods(BatchKernel, ("_feedback",), layer("core.channel.feedback"))
    _patch_methods(Channel, ("feedback_for",), layer("core.channel.feedback"))
    _patch_methods(Channel, ("begin_transmission",), layer("core.channel.begin_tx"))
    for cls in list(_repro_classes()):
        if issubclass(cls, AlgorithmProgram):
            _patch_methods(cls, ("step",), layer("core.batch.step"))
        if issubclass(cls, ScheduleProgram):
            _patch_methods(cls, ("lengths",), layer("core.batch.lengths"))
        _patch_methods(cls, ("on_slot_end", "first_action"),
                       layer("algorithms.step"))
        _patch_methods(cls, ("next_slot_length",), layer("timing.slot_length"))
        _patch_methods(cls, ("arrivals_until",), layer("arrivals.pump"))

    # Observation, pool, cache, history.
    _patch_methods(SimulationMetrics,
                   ("_on_slot_end", "_on_collision", "_on_arrival",
                    "_on_delivery", "snapshot", "render"),
                   layer("obs.metrics"))
    _patch_methods(JsonlRunWriter,
                   ("__init__", "_on_slot_end", "_on_arrival", "_on_delivery",
                    "_on_collision", "close"),
                   layer("obs.artifacts"))
    _patch_function(pool.run_tasks,
                    timed("exec.pool.run_tasks", pool.run_tasks, True))
    cell = timed("analysis.cell", experiments._execute_cell, True)
    _patch_function(experiments._execute_cell, _cell_wrapper(recorder, cell))
    _patch_function(history.record_completion,
                    timed("obs.history.record", history.record_completion, True))

    get = timed("exec.cache.get", ResultCache.get, True)
    put = timed("exec.cache.put", ResultCache.put, True)

    def cache_get(self: Any, key: str) -> Any:
        value = get(self, key)
        if value is not MISS:
            recorder.count("exec.cache.hits")
        return value

    def cache_put(self: Any, key: str, value: Any) -> None:
        put(self, key, value)
        recorder.count("exec.cache.put_bytes", self.path_for(key).stat().st_size)

    ResultCache.get, ResultCache.put = cache_get, cache_put

    # The engine guard: none of these may be built by the benchmark.
    for cls, name in ((PhaseProfiler, "guard.phase_profilers"),
                      (ProbeBus, "guard.probe_buses"),
                      (Tracer, "guard.tracers")):
        _patch_methods(cls, ("__init__",),
                       lambda fn, name=name: recorder.counted(name, fn))


# -- merging ---------------------------------------------------------------

def _union(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _measure(intervals: Iterable[Tuple[float, float]]) -> float:
    return sum(end - start for start, end in intervals)


def _overlap(a: List[Tuple[float, float]], b: List[Tuple[float, float]]) -> float:
    """Total length of the intersection of two disjoint-sorted lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        start, end = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if end > start:
            total += end - start
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def account(client: Dict[str, Any], others: List[Dict[str, Any]],
            wall_s: float, jobs: int) -> Dict[str, float]:
    """Merge per-process snapshots into one wall-clock account.

    * Client and daemon self times count as they are: the client blocks
      while the daemon serves its request.  ``service.transport`` is the
      client's round-trip time minus the daemon's handler time.
    * Pool workers run in parallel while the client waits in
      ``run_tasks``.  The wait time during which at least one worker ran
      a cell (and the client ran nothing else) is shared among the
      workers' layers in proportion to their self times; the rest of the
      wait is ``exec.pool.wait``.
    * ``residual`` is the traced wall minus every accounted self time.
    """
    daemons = [snap for snap in others if snap["role"] == "daemon"]
    workers = [snap for snap in others if snap["role"] == "worker"]
    out: Dict[str, float] = {}

    def add(totals: Dict[str, float], scale: float = 1.0) -> None:
        for name, value in totals.items():
            out[name] = out.get(name, 0.0) + value * scale

    add(client["self_s"])
    for snap in daemons:
        add(snap["self_s"])
    daemon_total = sum(sum(s["self_s"].values()) for s in daemons)
    out["service.transport"] = out.pop("service.submit", 0.0) - daemon_total

    cells = _union((start, end) for snap in workers
                   for name, start, end, *_ in snap["spans"]
                   if name == "analysis.cell")
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, _id, parent, _req in client["spans"]:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    covered = 0.0
    pool_wall = 0.0
    run_tasks_wall = 0.0
    for name, start, end, span_id, _parent, _req in client["spans"]:
        if name != "exec.pool.run_tasks":
            continue
        run_tasks_wall += end - start
        busy = _union((max(s, start), min(e, end)) for s, e in cells
                      if e > start and s < end)
        if not busy:
            continue
        pool_wall += end - start
        own = _union(children.get(span_id, []))
        covered += _measure(busy) - _overlap(busy, own)
    worker_busy = sum(sum(s["self_s"].values()) for s in workers)
    if worker_busy:
        for snap in workers:
            add(snap["self_s"], covered / worker_busy)
    out["exec.pool.wait"] = out.pop("exec.pool.run_tasks", 0.0) - covered
    out["exec.pool.run_tasks_wall"] = run_tasks_wall
    out["exec.pool.busy_ratio"] = (
        worker_busy / (jobs * pool_wall) if pool_wall else 0.0
    )
    out["residual"] = wall_s - sum(out.get(name, 0.0) for name in ACCOUNT_LAYERS)
    return out


def layer_metrics(client: Dict[str, Any], others: List[Dict[str, Any]],
                  wall_s: float, jobs: int) -> Dict[str, float]:
    """The per-layer metric values of one traced round (engine counts,
    overhead and error rate are added by the caller)."""
    snaps = [client] + others
    calls: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    for snap in snaps:
        for name, value in snap["calls"].items():
            calls[name] = calls.get(name, 0) + value
        for name, value in snap["counts"].items():
            counts[name] = counts.get(name, 0) + value
    acc = account(client, others, wall_s, jobs)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: Dict[str, float] = {}
    for name in ACCOUNT_LAYERS:
        metrics[f"{name}_s"] = acc.get(name, 0.0)
    for name in ("scenarios.build", "algorithms.step", "timing.slot_length",
                 "arrivals.pump", "core.channel.feedback",
                 "core.channel.begin_tx", "exec.cache.get", "exec.cache.put",
                 "obs.history.record"):
        metrics[f"{name}_calls"] = calls.get(name, 0)
    metrics.update({
        "core.batch.ticks": counts.get("core.batch.ticks", 0),
        "core.batch.width": ratio(counts.get("core.batch.events", 0),
                                  counts.get("core.batch.ticks", 0)),
        "core.simulator.events": counts.get(_EVENTS, 0),
        "core.channel.success_ratio": ratio(
            counts.get("core.channel.successes", 0),
            counts.get("core.channel.transmissions", 0)),
        "obs.artifacts_bytes": counts.get("obs.artifacts_bytes", 0),
        "exec.pool.run_tasks_s": acc["exec.pool.run_tasks_wall"],
        "exec.pool.busy_ratio": acc["exec.pool.busy_ratio"],
        "exec.cache.hit_ratio": ratio(counts.get("exec.cache.hits", 0),
                                      calls.get("exec.cache.get", 0)),
        "exec.cache.put_bytes": counts.get("exec.cache.put_bytes", 0),
        "residual_s": acc["residual"],
        "trace.wall_s": wall_s,
    })
    metrics["_guard"] = {name: value for name, value in counts.items()
                         if name.startswith("guard.")}
    return metrics
