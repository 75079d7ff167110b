"""Fault-tolerant process-pool task execution with deterministic reassembly.

Every experiment grid in this repository is embarrassingly parallel:
cells are independent simulations that share no state.  This module
turns a list of zero-argument task callables into a list of results,
either serially or across a pool of forked workers, with one hard
guarantee: **the output is bit-identical regardless of ``jobs``**.

Determinism comes from two rules:

1. *Deterministic sharding* — tasks are identified by their submission
   index; whatever order workers finish in (and however many times a
   task had to be retried), results are re-assembled in submission
   order, so ``jobs=4`` output equals ``jobs=1`` output
   element-for-element (exact :class:`~fractions.Fraction` values
   included — they pickle losslessly).
2. *No shared mutable state* — each task runs in a forked child that
   inherits the parent's memory and returns a single picklable value.
   Tasks must not rely on side effects in the parent.

The pool uses the ``fork`` start method so task *closures* (lambdas,
or the grid's partials over a spec) never need to be pickled: workers
inherit the task list via fork and are sent only integer indices.  On
platforms without fork (Windows, some macOS configurations) — or when
``jobs=1`` — execution falls back to a plain serial loop with the
same semantics.

Fault tolerance (see ``docs/robustness.md`` for the failure model):

* **Per-task wall-clock timeouts** — ``task_timeout`` kills a worker
  whose task overruns the budget (pool mode only; serial execution
  cannot preempt) and re-dispatches or fails the task.
* **Bounded retries with deterministic backoff** — ``retries`` extra
  attempts per task, spaced by :func:`~repro.exec.resilience.backoff_delay`
  (exponential, jitter-free).
* **Worker-crash recovery** — a worker that dies mid-task (OOM kill,
  segfault, ``os._exit``) loses only that task: the parent detects the
  death via the process sentinel, forks a replacement, and
  re-dispatches the unfinished index.  No ``BrokenProcessPool``, no
  lost siblings.
* **Graceful degradation** — if forking replacement workers keeps
  failing and no workers remain, the engine finishes the remaining
  tasks serially in-process (``health.degraded``) rather than abort.
* **Failure capture** — with ``on_error="capture"``, a task that
  exhausts its attempts yields a :class:`~repro.exec.TaskError` in its
  result slot; the default ``"raise"`` aborts the run like a plain
  loop would.

Everything the recovery machinery did is reported in
:class:`~repro.exec.RunHealth` on the returned :class:`PoolRun`.

Worker-side observability: each task may build its own
:class:`repro.obs.SimulationMetrics` pack and fold its snapshot into
the returned value.  The parent reports progress through the existing
rate-limited :class:`repro.obs.ProgressReporter` via its :meth:`tick`
hook, and an ``on_result`` hook fires in the parent as each task
completes — the grid journal checkpoints through it.
"""

from __future__ import annotations

import heapq
import multiprocessing
import multiprocessing.connection
import os
import pickle
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.profiling import ProgressReporter
from ..obs.tracing import current_tracer
from .resilience import RunHealth, TaskError, backoff_delay

#: Task list the forked workers inherit; only indices cross the pipe.
_FORK_TASKS: Optional[Sequence[Callable[[], Any]]] = None

#: How many consecutive fork failures before degrading to serial.
_SPAWN_ATTEMPTS = 3

#: Default base for the deterministic exponential retry backoff.
DEFAULT_BACKOFF_S = 0.05


def fork_available() -> bool:
    """Whether the deterministic fork-based pool can run here."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``jobs`` request: ``None``/``0`` means all cores."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = all cores), got {jobs}")
    return jobs


def _portable_error(exc: BaseException) -> Tuple[Any, str, str, str]:
    """An exception as it can cross the pipe: (object-or-None, type, msg, tb)."""
    text = traceback.format_exc()
    try:
        pickle.dumps(exc)
        carried: Any = exc
    except Exception:
        carried = None
    return carried, type(exc).__name__, str(exc), text


def _worker_loop(conn) -> None:
    """Child body: execute dispatched task indices until told to stop."""
    assert _FORK_TASKS is not None, "worker forked without a task list"
    tracer = current_tracer()  # inherited through fork; usually None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        index = message
        span = (
            tracer.begin("task", tid=index, task=index)
            if tracer is not None
            else None
        )
        try:
            reply = ("ok", index, _FORK_TASKS[index]())
        except BaseException as exc:
            reply = ("err", index, _portable_error(exc))
            if span is not None:
                span.set(outcome="error")
        if span is not None:
            span.args.setdefault("outcome", "ok")
            tracer.end(span)
            # Spool before replying: once the parent has the result it
            # may kill this worker at any moment (timeout, teardown).
            tracer.flush()
        try:
            conn.send(reply)
        except Exception as exc:
            # The *value* would not pickle — report that as the failure.
            conn.send(("err", index, _portable_error(exc)))


class _Worker:
    """Parent-side handle for one forked worker process."""

    __slots__ = (
        "process", "conn", "index", "attempt", "deadline",
        "dispatch_ts", "spawn_ts", "ordinal",
    )

    def __init__(self, context) -> None:
        parent_conn, child_conn = multiprocessing.Pipe()
        self.spawn_ts = time.perf_counter_ns() // 1000
        self.process = context.Process(
            target=_worker_loop, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.index: Optional[int] = None
        self.attempt = 0
        self.deadline: Optional[float] = None
        self.dispatch_ts = 0
        self.ordinal = 0

    @property
    def busy(self) -> bool:
        return self.index is not None

    def dispatch(
        self, index: int, attempt: int, task_timeout: Optional[float]
    ) -> None:
        self.dispatch_ts = time.perf_counter_ns() // 1000
        self.conn.send(index)
        self.index = index
        self.attempt = attempt
        self.deadline = (
            time.monotonic() + task_timeout if task_timeout else None
        )

    def settle(self) -> None:
        self.index = None
        self.attempt = 0
        self.deadline = None

    def stop(self, graceful: bool) -> None:
        """Tear the worker down; ``graceful`` asks it to exit first."""
        if graceful and not self.busy and self.process.is_alive():
            try:
                self.conn.send(None)
            except Exception:
                pass
            self.process.join(timeout=1.0)
        if self.process.is_alive():
            try:
                self.process.kill()
            except Exception:  # pragma: no cover - already dead
                pass
            self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except Exception:  # pragma: no cover - defensive
            pass


def _spawn_worker(context) -> _Worker:
    """Fork one worker (separate function so tests can fail it on cue)."""
    return _Worker(context)


@dataclass(slots=True)
class PoolRun:
    """Outcome of one :func:`run_tasks` call.

    ``values`` is in submission order; with ``on_error="capture"`` a
    slot may hold a :class:`~repro.exec.TaskError` instead of a task's
    value.  ``health`` is the resilience ledger for the run.
    """

    values: List[Any]
    jobs: int
    mode: str  # "serial" | "fork-pool"
    wall_s: float
    health: RunHealth = field(default_factory=RunHealth)


def run_tasks(
    tasks: Sequence[Callable[[], Any]],
    jobs: int = 1,
    *,
    progress: Optional[ProgressReporter] = None,
    label: str = "tasks",
    task_timeout: Optional[float] = None,
    retries: int = 0,
    backoff_base: float = DEFAULT_BACKOFF_S,
    on_error: str = "raise",
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> PoolRun:
    """Run every task; return results re-assembled in submission order.

    ``jobs=1`` (the default) runs serially in-process.  ``jobs>1``
    runs on a fork-based worker pool when the platform supports it
    and falls back to serial otherwise — same results either way.
    ``jobs=0``/``None`` means one job per CPU core.

    ``task_timeout`` (seconds) bounds each attempt's wall clock (pool
    mode only — serial execution cannot preempt a running task);
    ``retries`` grants each task that many extra attempts after a
    failure, crash or timeout, spaced by deterministic exponential
    backoff from ``backoff_base``.  ``on_error="raise"`` (default)
    aborts on the first task that exhausts its attempts, re-raising
    the worker's exception when it could cross the pipe;
    ``on_error="capture"`` records a :class:`~repro.exec.TaskError` in
    the task's result slot and keeps going.

    ``progress``, when given, is ticked once per completed task; its
    rate limiting applies unchanged.  ``on_result(index, value)``
    fires in the parent as each task settles (completion order, not
    submission order) — callers checkpoint through it.

    When a tracer is active (see :mod:`repro.obs.tracing`) the whole
    call is wrapped in a ``pool`` span and every attempt, dispatch and
    worker lifetime is recorded; with tracing off the only cost is one
    module-global ``None`` check.
    """
    tracer = current_tracer()
    if tracer is None:
        return _run_tasks(
            tasks,
            jobs,
            progress=progress,
            label=label,
            task_timeout=task_timeout,
            retries=retries,
            backoff_base=backoff_base,
            on_error=on_error,
            on_result=on_result,
        )
    with tracer.span("pool", label=label) as span:
        run = _run_tasks(
            tasks,
            jobs,
            progress=progress,
            label=label,
            task_timeout=task_timeout,
            retries=retries,
            backoff_base=backoff_base,
            on_error=on_error,
            on_result=on_result,
        )
        span.set(
            tasks=len(run.values),
            jobs=run.jobs,
            mode=run.mode,
            retries=run.health.retries,
            timeouts=run.health.timeouts,
            crashes=run.health.worker_crashes,
            failures=run.health.failures,
            degraded=run.health.degraded,
        )
        return run


def _run_tasks(
    tasks: Sequence[Callable[[], Any]],
    jobs: int = 1,
    *,
    progress: Optional[ProgressReporter] = None,
    label: str = "tasks",
    task_timeout: Optional[float] = None,
    retries: int = 0,
    backoff_base: float = DEFAULT_BACKOFF_S,
    on_error: str = "raise",
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> PoolRun:
    """The engine behind :func:`run_tasks` (which adds the trace span)."""
    if on_error not in ("raise", "capture"):
        raise ValueError(
            f"on_error must be 'raise' or 'capture', got {on_error!r}"
        )
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    global _FORK_TASKS
    jobs = resolve_jobs(jobs)
    tasks = list(tasks)
    started = time.perf_counter()
    total = len(tasks)
    health = RunHealth()

    def describe(reporter: ProgressReporter) -> str:
        line = (
            f"[repro] {label} {reporter.events}/{total} done "
            f"rate={reporter.window_rate:.2f}/s"
        )
        disturbances = health.brief()
        return f"{line} | {disturbances}" if disturbances else line

    # Serial path: jobs=1, nothing to gain, no fork, or we *are* a
    # worker (nested run_tasks inside a task must not fork its own pool).
    if jobs == 1 or total <= 1 or not fork_available() or _FORK_TASKS is not None:
        values = _run_serial(
            tasks,
            range(total),
            retries=retries,
            backoff_base=backoff_base,
            on_error=on_error,
            on_result=on_result,
            progress=progress,
            describe=describe,
            health=health,
        )
        return PoolRun(
            values=values,
            jobs=1,
            mode="serial",
            wall_s=time.perf_counter() - started,
            health=health,
        )

    context = multiprocessing.get_context("fork")
    _FORK_TASKS = tasks
    try:
        values = _run_pool(
            tasks,
            context,
            max_workers=min(jobs, total),
            task_timeout=task_timeout,
            retries=retries,
            backoff_base=backoff_base,
            on_error=on_error,
            on_result=on_result,
            progress=progress,
            describe=describe,
            health=health,
        )
    finally:
        _FORK_TASKS = None
    return PoolRun(
        values=values,
        jobs=jobs,
        mode="fork-pool",
        wall_s=time.perf_counter() - started,
        health=health,
    )


def _run_serial(
    tasks: Sequence[Callable[[], Any]],
    indices: Sequence[int],
    *,
    retries: int,
    backoff_base: float,
    on_error: str,
    on_result: Optional[Callable[[int, Any], None]],
    progress: Optional[ProgressReporter],
    describe,
    health: RunHealth,
    values: Optional[List[Any]] = None,
) -> List[Any]:
    """In-process execution with the same retry/capture semantics.

    ``values`` lets the degraded path fill an existing result array;
    fresh serial runs allocate one.  Timeouts are not enforced here —
    a single thread cannot preempt the task it is running.
    """
    if values is None:
        values = [None] * len(tasks)
    tracer = current_tracer()
    for index in indices:
        attempt = 1
        while True:
            span = (
                tracer.begin("attempt", tid=index, task=index, attempt=attempt)
                if tracer is not None
                else None
            )
            try:
                value: Any = tasks[index]()
                if span is not None:
                    tracer.end(span, outcome="ok", retried=False)
                break
            except KeyboardInterrupt:
                if span is not None:
                    tracer.end(span, outcome="interrupted", retried=False)
                raise
            except Exception as exc:
                retrying = attempt <= retries
                if span is not None:
                    tracer.end(span, outcome="error", retried=retrying)
                if retrying:
                    health.retries += 1
                    time.sleep(backoff_delay(backoff_base, attempt))
                    attempt += 1
                    continue
                health.failures += 1
                if on_error == "raise":
                    raise
                value = TaskError(
                    index=index,
                    attempts=attempt,
                    kind="error",
                    error_type=type(exc).__name__,
                    message=str(exc),
                    traceback_text=traceback.format_exc(),
                )
                break
        values[index] = value
        if on_result is not None:
            on_result(index, value)
        if progress is not None:
            progress.tick(describe)
    return values


def _run_pool(
    tasks: Sequence[Callable[[], Any]],
    context,
    *,
    max_workers: int,
    task_timeout: Optional[float],
    retries: int,
    backoff_base: float,
    on_error: str,
    on_result: Optional[Callable[[int, Any], None]],
    progress: Optional[ProgressReporter],
    describe,
    health: RunHealth,
) -> List[Any]:
    """The resilient worker-pool loop (see module docstring)."""
    total = len(tasks)
    values: List[Any] = [None] * total
    done = [False] * total
    completed = 0
    todo: deque = deque((index, 1) for index in range(total))
    retry_heap: List[Tuple[float, int, int]] = []  # (ready_at, index, attempt)
    workers: List[_Worker] = []
    spawn_failures = 0
    need_respawn = 0
    spawn_ordinal = 0
    tracer = current_tracer()

    def trace_attempt(index: int, attempt: int, ts: int,
                      outcome: str, retried: bool) -> None:
        """Parent-side attempt span, dispatch → settle (worker may be dead)."""
        if tracer is not None and ts:
            tracer.add_span(
                "attempt",
                ts=ts,
                dur=tracer.now_us() - ts,
                tid=index,
                task=index,
                attempt=attempt,
                outcome=outcome,
                retried=retried,
            )

    def trace_worker_end(worker: _Worker) -> None:
        """Worker-lifetime span, drawn in the worker's own process lane."""
        if tracer is not None and worker.process.pid is not None:
            tracer.add_span(
                "worker",
                ts=worker.spawn_ts,
                dur=tracer.now_us() - worker.spawn_ts,
                pid=worker.process.pid,
                tid=0,
                ordinal=worker.ordinal,
            )

    def settle(index: int, value: Any) -> None:
        nonlocal completed
        if done[index]:  # pragma: no cover - defensive double-settle guard
            return
        done[index] = True
        completed += 1
        values[index] = value
        if on_result is not None:
            on_result(index, value)
        if progress is not None:
            progress.tick(describe)

    def failed(index: int, attempt: int, kind: str,
               error: Tuple[Any, str, str, str],
               dispatch_ts: int = 0) -> None:
        """A failed attempt: schedule a retry or settle the failure."""
        carried, type_name, message, tb_text = error
        trace_attempt(index, attempt, dispatch_ts, kind, attempt <= retries)
        if attempt <= retries:
            health.retries += 1
            ready_at = time.monotonic() + backoff_delay(backoff_base, attempt)
            heapq.heappush(retry_heap, (ready_at, index, attempt + 1))
            return
        health.failures += 1
        if on_error == "raise":
            if carried is not None:
                raise carried
            raise RuntimeError(
                f"task {index} failed after {attempt} attempt(s) "
                f"[{kind}] {type_name}: {message}\n{tb_text}".rstrip()
            )
        settle(
            index,
            TaskError(
                index=index,
                attempts=attempt,
                kind=kind,
                error_type=type_name,
                message=message,
                traceback_text=tb_text,
            ),
        )

    def retire(worker: _Worker, graceful: bool) -> None:
        nonlocal need_respawn
        trace_worker_end(worker)
        workers.remove(worker)
        worker.stop(graceful)
        need_respawn += 1

    def handle_reply(worker: _Worker, reply) -> None:
        status, index, payload = reply
        dispatch_ts = worker.dispatch_ts
        worker.settle()
        attempt = worker_attempts.pop(index, 1)
        if status == "ok":
            trace_attempt(index, attempt, dispatch_ts, "ok", False)
            settle(index, payload)
        else:
            failed(index, attempt, "error", payload, dispatch_ts)

    # Attempt numbers live parent-side (workers don't know them).
    worker_attempts: Dict[int, int] = {}

    try:
        while completed < total:
            now = time.monotonic()
            while retry_heap and retry_heap[0][0] <= now:
                _, index, attempt = heapq.heappop(retry_heap)
                todo.append((index, attempt))

            # Prune workers that died while idle (no task was lost, so
            # this is not a crash — just free the slot for a respawn).
            for worker in [
                w for w in workers if not w.busy and not w.process.is_alive()
            ]:
                retire(worker, graceful=False)

            # Dispatch: fill idle workers, spawning up to max_workers.
            while todo:
                worker = next(
                    (w for w in workers if not w.busy and w.process.is_alive()),
                    None,
                )
                if worker is None:
                    if len(workers) >= max_workers:
                        break
                    try:
                        worker = _spawn_worker(context)
                    except OSError:
                        spawn_failures += 1
                        if spawn_failures >= _SPAWN_ATTEMPTS and not workers:
                            # Fork is gone for good: finish serially.
                            health.degraded = True
                            _drain_serially(
                                tasks, todo, retry_heap, done,
                                retries=retries,
                                backoff_base=backoff_base,
                                on_error=on_error,
                                on_result=on_result,
                                progress=progress,
                                describe=describe,
                                health=health,
                                values=values,
                            )
                            return values
                        break
                    spawn_failures = 0
                    if need_respawn:
                        health.pool_respawns += 1
                        need_respawn -= 1
                    spawn_ordinal += 1
                    worker.ordinal = spawn_ordinal
                    if tracer is not None and worker.process.pid is not None:
                        tracer.worker_pids[worker.process.pid] = (
                            f"worker-{worker.ordinal}"
                        )
                    workers.append(worker)
                index, attempt = todo.popleft()
                worker_attempts[index] = attempt
                try:
                    worker.dispatch(index, attempt, task_timeout)
                except (BrokenPipeError, OSError):
                    # Died between fork and dispatch — put the task back.
                    health.worker_crashes += 1
                    todo.appendleft((index, attempt))
                    retire(worker, graceful=False)
                else:
                    if tracer is not None:
                        tracer.add_span(
                            "pool.dispatch",
                            ts=worker.dispatch_ts,
                            dur=tracer.now_us() - worker.dispatch_ts,
                            tid=index,
                            task=index,
                            attempt=attempt,
                            worker=worker.ordinal,
                        )

            busy = [w for w in workers if w.busy]
            if not busy:
                if retry_heap:
                    time.sleep(
                        max(0.0, retry_heap[0][0] - time.monotonic())
                    )
                    continue
                if todo:
                    # No worker could be spawned this round; try again.
                    time.sleep(0.01)
                    continue
                continue  # all settled; loop condition ends the run

            timeout = _wait_timeout(busy, retry_heap)
            waitables: List[Any] = [w.conn for w in busy]
            waitables.extend(w.process.sentinel for w in busy)
            ready = multiprocessing.connection.wait(waitables, timeout)
            ready_set = set(ready)

            for worker in list(busy):
                if worker.conn in ready_set:
                    try:
                        reply = worker.conn.recv()
                    except (EOFError, OSError):
                        # Died mid-send: treat like a crash below.
                        pass
                    else:
                        handle_reply(worker, reply)
                        continue
                if worker.process.sentinel in ready_set or not worker.process.is_alive():
                    if worker.conn.poll():
                        # Result landed just before the process died.
                        try:
                            handle_reply(worker, worker.conn.recv())
                            retire(worker, graceful=False)
                            continue
                        except (EOFError, OSError):
                            pass
                    health.worker_crashes += 1
                    index, attempt = worker.index, worker.attempt
                    dispatch_ts = worker.dispatch_ts
                    # Reap before reading the exit code — the sentinel
                    # fires before the process object knows it.
                    worker.process.join(timeout=1.0)
                    exitcode = worker.process.exitcode
                    retire(worker, graceful=False)
                    if index is not None:
                        worker_attempts.pop(index, None)
                        failed(
                            index,
                            attempt,
                            "crash",
                            (None, "WorkerCrash",
                             f"worker exited with code {exitcode}", ""),
                            dispatch_ts,
                        )

            if task_timeout is not None:
                now = time.monotonic()
                for worker in [w for w in workers if w.busy]:
                    if worker.deadline is not None and now >= worker.deadline:
                        health.timeouts += 1
                        index, attempt = worker.index, worker.attempt
                        dispatch_ts = worker.dispatch_ts
                        retire(worker, graceful=False)
                        worker_attempts.pop(index, None)
                        failed(
                            index,
                            attempt,
                            "timeout",
                            (None, "TaskTimeout",
                             f"exceeded task_timeout={task_timeout}s", ""),
                            dispatch_ts,
                        )
    except BaseException:
        # KeyboardInterrupt or a task failure in raise mode: tear the
        # pool down *promptly* — kill, don't wait for running cells.
        for worker in workers:
            trace_worker_end(worker)
            worker.stop(graceful=False)
        workers.clear()
        raise
    finally:
        for worker in workers:
            trace_worker_end(worker)
            worker.stop(graceful=True)
    return values


def _wait_timeout(
    busy: Sequence[_Worker], retry_heap: Sequence[Tuple[float, int, int]]
) -> Optional[float]:
    """Sleep until the nearest deadline or retry becomes due."""
    now = time.monotonic()
    horizon: Optional[float] = None
    for worker in busy:
        if worker.deadline is not None:
            horizon = (
                worker.deadline
                if horizon is None
                else min(horizon, worker.deadline)
            )
    if retry_heap:
        horizon = (
            retry_heap[0][0]
            if horizon is None
            else min(horizon, retry_heap[0][0])
        )
    if horizon is None:
        return None
    return max(0.0, horizon - now) + 0.001


def _drain_serially(
    tasks: Sequence[Callable[[], Any]],
    todo: deque,
    retry_heap: List[Tuple[float, int, int]],
    done: List[bool],
    *,
    retries: int,
    backoff_base: float,
    on_error: str,
    on_result,
    progress,
    describe,
    health: RunHealth,
    values: List[Any],
) -> None:
    """Degraded mode: finish every unfinished task in-process."""
    remaining = sorted(
        {index for index, _ in todo}
        | {index for _, index, _ in retry_heap}
        | {index for index, settled in enumerate(done) if not settled}
    )
    _run_serial(
        tasks,
        remaining,
        retries=retries,
        backoff_base=backoff_base,
        on_error=on_error,
        on_result=on_result,
        progress=progress,
        describe=describe,
        health=health,
        values=values,
    )
