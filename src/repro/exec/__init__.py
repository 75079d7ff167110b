"""Execution engine: parallel task pools, result caching, bench diffs.

The layer between "a list of independent simulation configurations"
and "results, fast — and *despite failures*".  Five pieces,
composable but independently usable:

* :mod:`repro.exec.pool` — :func:`run_tasks`, a fork-based process
  pool with deterministic sharding: output is bit-identical whatever
  ``jobs`` is, because results are re-assembled in submission order
  and exact :class:`~fractions.Fraction` values pickle losslessly.
  Fault-tolerant: per-task wall-clock timeouts, bounded retries with
  deterministic backoff, worker-crash recovery (a dead worker loses
  only its own task), and graceful degradation to serial execution
  when fork keeps failing — all reported in a structured
  :class:`RunHealth` ledger.
* :mod:`repro.exec.cache` — :class:`ResultCache`, a content-addressed
  store under ``.repro-cache/`` keyed by a canonical fingerprint of
  each task's configuration (a grid cell's scenario spec) plus a hash
  of the ``repro`` sources (so editing code invalidates everything
  automatically).  Hardened:
  advisory inter-process locking, self-verifying digest entries, and
  a ``verify``/quarantine pass for corrupt files.
* :mod:`repro.exec.resilience` — the fault-tolerance primitives:
  :class:`RunHealth`, :class:`TaskError`, deterministic
  :func:`backoff_delay`, and :class:`GridJournal`, the append-only
  checkpoint behind ``repro grid --resume``.
* :mod:`repro.exec.chaos` — deterministic fault *injection* (worker
  crashes, hangs, torn cache writes) so the recovery paths above are
  proven, not hoped for.
* :mod:`repro.exec.diff` — :func:`diff_results`, the engine behind
  ``repro bench diff``: compares two ``benchmarks/results`` artifact
  directories table-by-table and fails on any value drift (an optional
  relative ``tolerance`` relaxes numeric cells for perf trajectories).
* :mod:`repro.exec.perf` — :func:`run_perf`, the core perf suite
  behind ``repro bench perf``: events/sec on the fraction vs
  tick-lattice timebase with inline parity assertions, plus the
  engine-bookkeeping overhead measurement CI polices.

The high-level entry point most callers want lives one layer up, in
:mod:`repro.analysis`: ``run_grid(specs, jobs=4, cache=...)`` delegates
here.  See
``docs/experiments.md`` for the end-to-end workflow and
``docs/robustness.md`` for the failure model.
"""

from .cache import (
    MISS,
    CacheVerification,
    ResultCache,
    canonical_key,
    code_salt,
    fingerprint,
)
from .chaos import (
    CRASH_EXIT_CODE,
    ChaosError,
    ChaosEvent,
    ChaosPlan,
    TruncatingCache,
    chaos_tasks,
)
from .diff import DiffReport, ReportDiff, diff_results, load_results
from .perf import DEFAULT_CASES, PerfCase, run_perf, write_report
from .pool import PoolRun, fork_available, resolve_jobs, run_tasks
from .resilience import (
    GridJournal,
    JournalMismatch,
    RunHealth,
    TaskError,
    backoff_delay,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "CacheVerification",
    "ChaosError",
    "ChaosEvent",
    "ChaosPlan",
    "DEFAULT_CASES",
    "DiffReport",
    "GridJournal",
    "JournalMismatch",
    "MISS",
    "PerfCase",
    "PoolRun",
    "ReportDiff",
    "ResultCache",
    "RunHealth",
    "TaskError",
    "TruncatingCache",
    "backoff_delay",
    "canonical_key",
    "chaos_tasks",
    "code_salt",
    "diff_results",
    "fingerprint",
    "fork_available",
    "load_results",
    "resolve_jobs",
    "run_perf",
    "run_tasks",
    "write_report",
]
