"""Fault-tolerance primitives for the execution engine.

Adversarial grids run for hours, and their worst-case cells are
*designed* to be pathological — a single hung or OOM-killed worker
must not abort the whole run, and a Ctrl-C must not discard every
finished-but-unreported cell.  This module holds the
pieces the resilient engine is built from:

* :class:`RunHealth` — the structured bookkeeping block (retries,
  timeouts, worker crashes, pool respawns, degraded mode) that
  :func:`repro.exec.pool.run_tasks` fills in and grid reports /
  bench ``meta`` blocks carry.
* :class:`TaskError` — a worker failure *as a value*: when a caller
  opts into ``on_error="capture"``, a task that exhausts its retries
  yields a ``TaskError`` (index, attempts, traceback text) in its
  result slot instead of tearing down the run.
* :func:`backoff_delay` — deterministic exponential backoff.  No
  jitter on purpose: re-running a grid with the same failures sleeps
  the same schedule, so wall-time comparisons stay meaningful.
* :class:`GridJournal` — an append-only JSONL checkpoint of completed
  grid cells.  ``repro grid`` writes it as cells finish (flushed and
  fsynced per record, in the spirit of dnf's history/lock machinery),
  so an interrupted or crashed run resumes with ``repro grid
  --resume`` recomputing only the missing cells.

See ``docs/robustness.md`` for the failure model end-to-end.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from ..obs.tracing import current_tracer

__all__ = [
    "GridJournal",
    "JournalMismatch",
    "JournalState",
    "RunHealth",
    "TaskError",
    "backoff_delay",
]


@dataclass(slots=True)
class RunHealth:
    """What it took to complete a run — the resilience ledger.

    All-zero (and ``degraded=False``) means the run was undisturbed.
    ``retries`` counts re-dispatched attempts of any cause;
    ``timeouts``/``worker_crashes`` classify the causes; each
    ``pool_respawns`` is a replacement worker forked after a kill or
    crash; ``degraded`` is set when fork kept failing and the engine
    fell back to in-process serial execution; ``failures`` counts
    tasks that exhausted their retry budget.
    """

    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    pool_respawns: int = 0
    degraded: bool = False
    failures: int = 0

    def merge(self, other: "RunHealth") -> None:
        """Fold another run's ledger into this one (for multi-pool runs)."""
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.worker_crashes += other.worker_crashes
        self.pool_respawns += other.pool_respawns
        self.degraded = self.degraded or other.degraded
        self.failures += other.failures

    @property
    def disturbed(self) -> bool:
        """True when anything at all went wrong (or was retried)."""
        return bool(
            self.retries
            or self.timeouts
            or self.worker_crashes
            or self.pool_respawns
            or self.degraded
            or self.failures
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-native form for bench ``meta`` blocks and manifests."""
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "pool_respawns": self.pool_respawns,
            "degraded": self.degraded,
            "failures": self.failures,
        }

    def render(self) -> str:
        """One human-readable line for CLI output."""
        return (
            f"retries={self.retries} timeouts={self.timeouts} "
            f"crashes={self.worker_crashes} respawns={self.pool_respawns} "
            f"degraded={'yes' if self.degraded else 'no'} "
            f"failures={self.failures}"
        )

    def brief(self) -> str:
        """Only the nonzero counters, for live progress lines.

        Empty string when the run is undisturbed, so progress output
        stays byte-identical to the pre-health format in the common
        case.
        """
        parts = []
        if self.retries:
            parts.append(f"retries={self.retries}")
        if self.timeouts:
            parts.append(f"timeouts={self.timeouts}")
        if self.worker_crashes:
            parts.append(f"crashes={self.worker_crashes}")
        if self.pool_respawns:
            parts.append(f"respawns={self.pool_respawns}")
        if self.failures:
            parts.append(f"failures={self.failures}")
        if self.degraded:
            parts.append("degraded")
        return " ".join(parts)


@dataclass(frozen=True, slots=True)
class TaskError:
    """A task failure carried as a result value.

    ``kind`` is ``"error"`` (the task raised), ``"crash"`` (the worker
    process died mid-task) or ``"timeout"`` (the task exceeded the
    per-task wall-clock budget).  ``attempts`` is how many times the
    task was tried before giving up; ``traceback_text`` is the worker's
    formatted traceback when one exists (crashes and timeouts have
    none — the process was killed, not unwound).
    """

    index: int
    attempts: int
    kind: str
    error_type: str
    message: str
    traceback_text: str = ""

    def summary(self) -> str:
        return (
            f"task {self.index} failed after {self.attempts} attempt(s): "
            f"[{self.kind}] {self.error_type}: {self.message}"
        )


def backoff_delay(base: float, attempt: int, cap: float = 2.0) -> float:
    """Deterministic exponential backoff before re-trying ``attempt``.

    ``attempt`` is the 1-based attempt that just failed; the delay
    doubles per failure and saturates at ``cap`` seconds.  Determinism
    (no jitter) is deliberate — the engine's single writer per task
    means thundering herds cannot happen, and reproducible sleep
    schedules keep wall-time numbers comparable across runs.

    >>> [backoff_delay(0.05, a) for a in (1, 2, 3)]
    [0.05, 0.1, 0.2]
    >>> backoff_delay(0.5, 10)
    2.0
    """
    if base <= 0:
        return 0.0
    return min(cap, base * (2 ** (attempt - 1)))


class JournalMismatch(ValueError):
    """The journal on disk was written by a *different* grid."""


@dataclass(slots=True)
class JournalState:
    """Parsed contents of a grid journal file."""

    grid_key: str
    total: int
    results: Dict[int, Any] = field(default_factory=dict)
    names: Dict[int, str] = field(default_factory=dict)


class GridJournal:
    """Append-only JSONL checkpoint of completed grid cells.

    Layout: a header line identifying the grid (a content hash over
    every cell's configuration plus the code salt), then one record
    per completed cell.  Results are pickled (they carry exact
    :class:`~fractions.Fraction` values) and base64-wrapped so each
    record stays one JSON line.  Every record is flushed and fsynced —
    a SIGKILL can lose at most the cell in flight, and a torn final
    line is detected and dropped on load.
    """

    VERSION = 1

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._handle = None

    # -- reading ------------------------------------------------------

    def load(self) -> Optional[JournalState]:
        """Parse the journal; ``None`` when absent or headerless.

        Corrupt or torn lines end the parse: everything before them is
        trusted (records are append-only), everything after is not.
        """
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except (FileNotFoundError, OSError):
            return None
        if not lines:
            return None
        try:
            header = json.loads(lines[0])
            if header.get("kind") != "grid-journal":
                return None
            state = JournalState(
                grid_key=str(header["grid"]), total=int(header["cells"])
            )
        except (ValueError, KeyError, TypeError):
            return None
        for line in lines[1:]:
            try:
                record = json.loads(line)
                index = int(record["index"])
                value = pickle.loads(base64.b64decode(record["result"]))
            except Exception:
                break  # torn tail — nothing after it is trustworthy
            state.results[index] = value
            state.names[index] = str(record.get("name", ""))
        return state

    # -- writing ------------------------------------------------------

    def start(
        self, grid_key: str, total: int, *, resume: bool = False
    ) -> Dict[int, Any]:
        """Open the journal for appending; return already-recorded results.

        A fresh start truncates any previous journal.  ``resume=True``
        re-reads the existing journal, raises :class:`JournalMismatch`
        if it belongs to a different grid, compacts it (dropping any
        torn tail so appends stay line-aligned) and returns the results
        recorded so far.
        """
        recorded: Dict[int, Any] = {}
        names: Dict[int, str] = {}
        if resume:
            state = self.load()
            if state is not None:
                if state.grid_key != grid_key:
                    raise JournalMismatch(
                        f"{self.path}: journal belongs to a different grid "
                        f"(recorded {state.grid_key[:12]}…, this grid is "
                        f"{grid_key[:12]}…); pass a fresh --journal path or "
                        "drop --resume"
                    )
                recorded = state.results
                names = state.names
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w", encoding="utf-8")
        self._write_line(
            {
                "kind": "grid-journal",
                "version": self.VERSION,
                "grid": grid_key,
                "cells": total,
            }
        )
        for index in sorted(recorded):
            self._append(index, names.get(index, ""), recorded[index])
        return recorded

    def record(self, index: int, name: str, result: Any) -> None:
        """Checkpoint one completed cell (flushed and fsynced)."""
        if self._handle is None:
            raise RuntimeError("journal not started; call start() first")
        self._append(index, name, result)

    def _append(self, index: int, name: str, result: Any) -> None:
        tracer = current_tracer()
        if tracer is None:
            self._append_record(index, name, result)
            return
        with tracer.span("journal.append", index=index):
            self._append_record(index, name, result)

    def _append_record(self, index: int, name: str, result: Any) -> None:
        self._write_line(
            {
                "index": index,
                "name": name,
                "result": base64.b64encode(
                    pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
                ).decode("ascii"),
            }
        )

    def _write_line(self, record: Dict[str, Any]) -> None:
        assert self._handle is not None
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "GridJournal":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
