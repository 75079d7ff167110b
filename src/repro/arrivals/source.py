"""Arrival sources: how the adversary injects packets over time.

An arrival source is pulled by the simulator: ``arrivals_until(sim,
upto)`` must yield every not-yet-reported arrival with time ``<= upto``
as ``(time, station_id)`` pairs in non-decreasing time order.  Sources
may be *adaptive* — they see the live simulator, matching the paper's
adversary, which chooses injection times and targets online (the
Theorem 5 construction stops feeding whichever station currently holds
the channel).
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError
from ..core.timebase import Time, TimeLike, as_time, declared_lattice_denominator

#: One injection: (arrival time, target station id).
Arrival = Tuple[Time, int]


class ArrivalSource:
    """Base class for packet injection adversaries."""

    def arrivals_until(self, sim, upto: Time) -> Iterable[Arrival]:
        """Yield all pending arrivals with time <= ``upto``, in order."""
        raise NotImplementedError

    def lattice_denominator(self) -> Optional[int]:
        """Smallest ``D`` such that every arrival instant is a multiple
        of ``1/D``, or ``None`` when no such bound can be promised.

        Declaring a lattice (together with the slot adversary's
        declaration) lets the simulator run on the scaled-integer fast
        timebase (see :mod:`repro.core.timebase`).  Adaptive sources
        stay at the conservative default.
        """
        return None

    # Sources that know their next injection instant in advance may
    # additionally expose ``next_arrival_hint() -> Optional[Time]``:
    # the earliest time at which the source could produce an arrival
    # (``None`` = exhausted, never again).  The simulator then skips
    # polling ``arrivals_until`` for events strictly before the hint —
    # a pure performance contract; adaptive sources simply omit the
    # method and are polled every event, exactly as before.


class NoArrivals(ArrivalSource):
    """The empty workload (used by pure SST / leader-election runs)."""

    def arrivals_until(self, sim, upto: Time) -> Iterable[Arrival]:
        return ()

    def lattice_denominator(self) -> int:
        return 1

    def next_arrival_hint(self) -> None:
        return None


class StaticSchedule(ArrivalSource):
    """A fully precomputed injection pattern.

    The workhorse for hand-constructed adversarial patterns in tests
    and for the Theorem 4 scenario where injection times are solved for
    analytically before the run.
    """

    def __init__(self, arrivals: Sequence[Tuple[TimeLike, int]]) -> None:
        exact: List[Arrival] = [(as_time(t), sid) for t, sid in arrivals]
        for (t1, _), (t2, _) in zip(exact, exact[1:]):
            if t2 < t1:
                raise ConfigurationError(
                    "StaticSchedule arrivals must be sorted by time"
                )
        self._arrivals = exact
        self._cursor = 0

    def arrivals_until(self, sim, upto: Time) -> Iterator[Arrival]:
        while self._cursor < len(self._arrivals):
            t, sid = self._arrivals[self._cursor]
            if t > upto:
                return
            self._cursor += 1
            yield (t, sid)

    @property
    def remaining(self) -> int:
        """Arrivals not yet handed to the simulator."""
        return len(self._arrivals) - self._cursor

    def lattice_denominator(self) -> int:
        return lcm(*(t.denominator for t, _ in self._arrivals))

    def next_arrival_hint(self) -> Optional[Time]:
        if self._cursor >= len(self._arrivals):
            return None
        return self._arrivals[self._cursor][0]


class ConcatSource(ArrivalSource):
    """Merge several sources into one (each must itself be ordered).

    Arrivals from different sub-sources are interleaved in time order;
    sub-sources are polled lazily so adaptive components keep working.
    """

    def __init__(self, sources: Sequence[ArrivalSource]) -> None:
        self._sources = list(sources)
        # Expose the polling-skip hint only when every child supports
        # it (an instance attribute so ``getattr`` probing sees it).
        if all(
            getattr(source, "next_arrival_hint", None) is not None
            for source in self._sources
        ):
            self.next_arrival_hint = self._combined_hint

    def _combined_hint(self) -> Optional[Time]:
        hints = [
            hint
            for source in self._sources
            if (hint := source.next_arrival_hint()) is not None
        ]
        return min(hints) if hints else None

    def arrivals_until(self, sim, upto: Time) -> Iterator[Arrival]:
        batches: List[List[Arrival]] = [
            list(src.arrivals_until(sim, upto)) for src in self._sources
        ]
        merged = sorted(
            (arrival for batch in batches for arrival in batch),
            key=lambda pair: pair[0],
        )
        return iter(merged)

    def lattice_denominator(self) -> Optional[int]:
        denominators = []
        for source in self._sources:
            declared = declared_lattice_denominator(source)
            if declared is None:
                return None
            denominators.append(declared)
        return lcm(*denominators)
