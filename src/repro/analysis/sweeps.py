"""Multi-seed statistical sweeps.

Randomized components (random slot schedules, Aloha, randomized SST)
need aggregation over seeds before their numbers mean anything.  A
sweep runs one measurement function across a seed range and reports
exact mean plus min/median/max — deliberately simple statistics that
stay exact (no float accumulation) and honest about tail behaviour.

Seeds are independent, so a sweep parallelizes on the
:mod:`repro.exec` process pool — ``sweep_seeds(measure, seeds,
jobs=4)`` returns exactly the samples (same :class:`~fractions.Fraction`
values, same order) a serial sweep would — and per-seed samples can be
memoized in a content-addressed :class:`repro.exec.ResultCache`.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..core.errors import ConfigurationError
from ..exec.cache import MISS, ResultCache, UncacheableValue
from ..exec.pool import run_tasks
from ..exec.resilience import RunHealth
from ..obs.profiling import ProgressReporter
from ..obs.tracing import current_tracer

Number = Union[int, Fraction]


@dataclass(frozen=True, slots=True)
class SweepStats:
    """Aggregate of one metric over a seed sweep.

    >>> stats = SweepStats([Fraction(1), Fraction(3), Fraction(8)])
    >>> (stats.count, stats.mean, stats.median, stats.spread)
    (3, Fraction(4, 1), Fraction(3, 1), Fraction(7, 1))
    """

    samples: List[Fraction]

    def __post_init__(self) -> None:
        if not self.samples:
            raise ConfigurationError("a sweep needs at least one sample")

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> Fraction:
        return sum(self.samples, Fraction(0)) / len(self.samples)

    @property
    def minimum(self) -> Fraction:
        return min(self.samples)

    @property
    def maximum(self) -> Fraction:
        return max(self.samples)

    @property
    def median(self) -> Fraction:
        ordered = sorted(self.samples)
        middle = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[middle]
        return (ordered[middle - 1] + ordered[middle]) / 2

    @property
    def spread(self) -> Fraction:
        """Max minus min — the honest tail-width indicator."""
        return self.maximum - self.minimum

    def row(self) -> str:
        return (
            f"n={self.count} mean={float(self.mean):.2f} "
            f"min={float(self.minimum):.2f} med={float(self.median):.2f} "
            f"max={float(self.maximum):.2f}"
        )


def _measure_one(measure: Callable[[int], Number], seed: int) -> Fraction:
    """One sample, normalized to an exact Fraction (worker body)."""
    return Fraction(measure(seed))


@dataclass(slots=True)
class SweepReport:
    """A sweep's statistics plus how they were obtained."""

    stats: "SweepStats"
    jobs: int
    mode: str
    wall_s: float
    cache_hits: int = 0
    cache_misses: int = 0
    health: RunHealth = field(default_factory=RunHealth)


def sweep_seeds_report(
    measure: Callable[[int], Number],
    seeds: Sequence[int],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressReporter] = None,
    task_timeout: Optional[float] = None,
    retries: int = 0,
) -> SweepReport:
    """Like :func:`sweep_seeds` but also reports execution facts.

    ``task_timeout`` and ``retries`` bound each seed's attempts — see
    :func:`repro.exec.run_tasks` for the exact semantics.  With a
    tracer active the run is wrapped in a ``sweep`` span.  A sweep
    writes no run history: only requests through
    :func:`repro.service.execute` are recorded.
    """
    seeds = list(seeds)
    tracer = current_tracer()
    if tracer is None:
        report = _sweep_seeds_report(
            measure,
            seeds,
            jobs=jobs,
            cache=cache,
            progress=progress,
            task_timeout=task_timeout,
            retries=retries,
        )
    else:
        with tracer.span("sweep", seeds=len(seeds)) as span:
            report = _sweep_seeds_report(
                measure,
                seeds,
                jobs=jobs,
                cache=cache,
                progress=progress,
                task_timeout=task_timeout,
                retries=retries,
            )
            span.set(mode=report.mode, cache_hits=report.cache_hits)
    return report


def _sweep_seeds_report(
    measure: Callable[[int], Number],
    seeds: Sequence[int],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressReporter] = None,
    task_timeout: Optional[float] = None,
    retries: int = 0,
) -> SweepReport:
    """The engine behind :func:`sweep_seeds_report`."""
    seeds = list(seeds)
    if not seeds:
        raise ConfigurationError("need at least one seed")
    started = time.perf_counter()
    samples: List[Optional[Fraction]] = [None] * len(seeds)
    keys: List[Optional[str]] = [None] * len(seeds)
    pending: List[int] = []
    hits = 0
    for index, seed in enumerate(seeds):
        if cache is not None:
            payload: Dict[str, Any] = {
                "kind": "seed-sample",
                "measure": measure,
                "seed": seed,
            }
            try:
                keys[index] = cache.key_for(payload)
            except (UncacheableValue, RecursionError):
                keys[index] = None
            if keys[index] is not None:
                value = cache.get(keys[index])
                if value is not MISS:
                    samples[index] = value
                    hits += 1
                    continue
        pending.append(index)

    tasks = [
        functools.partial(_measure_one, measure, seeds[index]) for index in pending
    ]
    run = run_tasks(
        tasks,
        jobs=jobs,
        progress=progress,
        label="seeds",
        task_timeout=task_timeout,
        retries=retries,
    )
    for slot, index in enumerate(pending):
        samples[index] = run.values[slot]
        if cache is not None and keys[index] is not None:
            cache.put(keys[index], run.values[slot])
    return SweepReport(
        stats=SweepStats(samples=[s for s in samples if s is not None]),
        jobs=run.jobs,
        mode=run.mode,
        wall_s=time.perf_counter() - started,
        cache_hits=hits,
        cache_misses=len(pending) if cache is not None else 0,
        health=run.health,
    )


def sweep_seeds(
    measure: Callable[[int], Number],
    seeds: Sequence[int],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressReporter] = None,
    task_timeout: Optional[float] = None,
    retries: int = 0,
) -> SweepStats:
    """Run ``measure(seed)`` over ``seeds``; aggregate the results.

    ``jobs`` fans the sweep out over worker processes (bit-identical
    samples, submission order preserved); ``cache`` memoizes per-seed
    samples keyed by the measurement function's content and the seed;
    ``task_timeout``/``retries`` bound each seed's attempts.

    >>> stats = sweep_seeds(lambda seed: seed * 2, range(1, 6))
    >>> (stats.count, stats.mean, stats.minimum, stats.maximum)
    (5, Fraction(6, 1), Fraction(2, 1), Fraction(10, 1))
    """
    return sweep_seeds_report(
        measure,
        seeds,
        jobs=jobs,
        cache=cache,
        progress=progress,
        task_timeout=task_timeout,
        retries=retries,
    ).stats
