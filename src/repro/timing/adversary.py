"""Slot-length adversaries: who decides how long every slot lasts.

Section II of the paper puts slot lengths under the control of an
*online adversary*: each slot of each station has a length in ``[1, r]``
for an execution-dependent ``r <= R``, and stations know only ``R``.
An adversary here is any object with

``next_slot_length(sim, station_id, slot_index) -> TimeLike``

invoked at the instant the slot begins, with the full simulator exposed
(the adversary is omniscient and adaptive).  Because every station
algorithm is a deterministic, cloneable automaton, an adversary that
wants end-of-slot adaptivity can simulate the system forward and decide
at slot start with identical power — this is exactly how the
lower-bound adversaries of :mod:`repro.lowerbounds` operate.

This module provides the reusable oblivious and adaptive adversaries
used by the stability experiments; the theorem-specific constructions
live next to their theorems.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Dict, Mapping, Optional, Sequence

from ..core.errors import ConfigurationError
from ..core.timebase import ONE, Time, TimeLike, as_time


class SlotAdversary:
    """Base class (also usable as a type marker) for slot adversaries."""

    def next_slot_length(self, sim, station_id: int, slot_index: int) -> TimeLike:
        raise NotImplementedError

    def lattice_denominator(self) -> Optional[int]:
        """Smallest ``D`` such that every produced length is a multiple
        of ``1/D``, or ``None`` when no such bound can be promised.

        Declaring a lattice lets the simulator run on the scaled-integer
        fast timebase (see :mod:`repro.core.timebase`).  The base class
        stays conservative: adaptive or hand-rolled adversaries must opt
        in explicitly.
        """
        return None


class Synchronous(SlotAdversary):
    """The classical fully synchronous channel: every slot has length 1.

    With this adversary the model degenerates to ``R = 1`` slotted time
    and the synchronous baselines (RRW, MBTF) are in their home setting.
    """

    def next_slot_length(self, sim, station_id: int, slot_index: int) -> Fraction:
        return ONE

    def lattice_denominator(self) -> int:
        return 1


class FixedLength(SlotAdversary):
    """Every slot of every station has the same fixed length.

    A degenerate but useful adversary: with length ``r`` it produces a
    synchronous execution on a slower clock, calibrating how algorithms
    pay for the *bound* R rather than the realized r.
    """

    def __init__(self, length: TimeLike) -> None:
        self.length = as_time(length)

    def next_slot_length(self, sim, station_id: int, slot_index: int) -> Fraction:
        return self.length

    def lattice_denominator(self) -> int:
        return self.length.denominator


class PerStationFixed(SlotAdversary):
    """Each station runs at its own constant slot length.

    This is the canonical "different clock speeds" adversary: station
    ``i`` has every slot of length ``lengths[i]``.  Relative drift
    between stations accumulates linearly, defeating algorithms that
    assume aligned slot grids (e.g. naive TDMA round robin).
    """

    def __init__(self, lengths: Mapping[int, TimeLike]) -> None:
        self.lengths: Dict[int, Fraction] = {
            sid: as_time(length) for sid, length in lengths.items()
        }

    def next_slot_length(self, sim, station_id: int, slot_index: int) -> Fraction:
        try:
            return self.lengths[station_id]
        except KeyError:
            raise ConfigurationError(
                f"PerStationFixed has no length for station {station_id}"
            ) from None

    def lattice_denominator(self) -> int:
        return lcm(*(length.denominator for length in self.lengths.values()))


class CyclicPattern(SlotAdversary):
    """Each station cycles through a fixed pattern of slot lengths.

    With different patterns per station this produces bounded but
    irregular misalignment — the bread-and-butter stress for the
    stability benches.
    """

    def __init__(self, patterns: Mapping[int, Sequence[TimeLike]]) -> None:
        self.patterns: Dict[int, Sequence[Fraction]] = {}
        for sid, pattern in patterns.items():
            if not pattern:
                raise ConfigurationError(f"empty slot pattern for station {sid}")
            self.patterns[sid] = tuple(as_time(x) for x in pattern)

    def next_slot_length(self, sim, station_id: int, slot_index: int) -> Fraction:
        try:
            pattern = self.patterns[station_id]
        except KeyError:
            raise ConfigurationError(
                f"CyclicPattern has no pattern for station {station_id}"
            ) from None
        return pattern[slot_index % len(pattern)]

    def lattice_denominator(self) -> int:
        return lcm(
            *(
                length.denominator
                for pattern in self.patterns.values()
                for length in pattern
            )
        )


@lru_cache(maxsize=256)
def _uniform_length(denominator: int, k: int) -> Fraction:
    """``1 + k/denominator``, one object per recently drawn ``(den, k)``.

    A repeated draw returns the object it returned before, which the
    event loop checks only once (:meth:`repro.core.Simulator.run`), and
    skips building a new Fraction; the cache's bound keeps the memory
    constant however fine the denominator.
    """
    return Fraction(denominator + k, denominator)


class RandomUniform(SlotAdversary):
    """Independent random rational slot lengths in ``[1, R]``.

    Lengths are drawn as ``1 + k/denominator`` with ``k`` uniform, so
    they stay exact rationals with a bounded denominator (keeping the
    Fraction arithmetic fast over long runs).  Deterministic given the
    seed.
    """

    def __init__(self, max_length: TimeLike, seed: int, denominator: int = 8) -> None:
        self.max_length = as_time(max_length)
        if self.max_length < 1:
            raise ConfigurationError("max_length must be >= 1")
        if denominator < 1:
            raise ConfigurationError("denominator must be >= 1")
        self._rng = random.Random(seed)
        self._denominator = denominator
        span = self.max_length - 1
        self._steps = int(span * denominator)  # exact when span*den integral
        if Fraction(self._steps, denominator) != span:
            raise ConfigurationError(
                f"R - 1 = {span} is not a multiple of 1/{denominator}"
            )
        self._bits = (self._steps + 1).bit_length()

    def draw(self) -> int:
        """One ``k`` uniform in ``0..steps``: ``randint(0, steps)``.

        The rejection loop ``randint`` runs, without its three Python
        frames: it consumes the same bits and leaves the generator in
        the same state.  Both engines draw here.
        """
        getrandbits = self._rng.getrandbits
        steps = self._steps
        k = getrandbits(self._bits)
        while k > steps:
            k = getrandbits(self._bits)
        return k

    def next_slot_length(self, sim, station_id: int, slot_index: int) -> Fraction:
        return _uniform_length(self._denominator, self.draw())

    def lattice_denominator(self) -> int:
        return self._denominator


class TableDriven(SlotAdversary):
    """Explicit per-station, per-slot length table with a default tail.

    Used by the figure benches and the hand-constructed executions in
    tests (e.g. the Fig. 2 schedule): ``table[sid][j]`` is the length of
    slot ``j``; slots beyond the table get ``default``.
    """

    def __init__(
        self,
        table: Mapping[int, Sequence[TimeLike]],
        default: TimeLike = 1,
    ) -> None:
        self.table: Dict[int, Sequence[Fraction]] = {
            sid: tuple(as_time(x) for x in row) for sid, row in table.items()
        }
        self.default = as_time(default)

    def next_slot_length(self, sim, station_id: int, slot_index: int) -> Fraction:
        row = self.table.get(station_id, ())
        if slot_index < len(row):
            return row[slot_index]
        return self.default

    def lattice_denominator(self) -> int:
        return lcm(
            self.default.denominator,
            *(
                length.denominator
                for row in self.table.values()
                for length in row
            ),
        )


class Adaptive(SlotAdversary):
    """Wrap an arbitrary decision function as an adversary.

    ``decide(sim, station_id, slot_index)`` sees the live simulator —
    queue sizes, algorithm states, channel history — and returns a
    length.  The theorem adversaries build on this directly.

    By default an adaptive adversary declares no time lattice (the
    decision function is a black box), so runs fall back to the exact
    Fraction timebase.  Callers that *know* every produced length is a
    multiple of ``1/D`` can pass ``lattice_denominator=D`` to keep the
    fast path; a length off the promised lattice then fails the run
    loudly instead of silently losing exactness.
    """

    def __init__(
        self,
        decide: Callable[[object, int, int], TimeLike],
        lattice_denominator: Optional[int] = None,
    ) -> None:
        self._decide = decide
        self._lattice_denominator = lattice_denominator

    def next_slot_length(self, sim, station_id: int, slot_index: int) -> TimeLike:
        return self._decide(sim, station_id, slot_index)

    def lattice_denominator(self) -> Optional[int]:
        return self._lattice_denominator


class StretchTransmitters(SlotAdversary):
    """Adaptive adversary that stretches transmitting slots, shrinks listens.

    A simple worst-case-flavoured adversary for stability stress: a
    station about to transmit gets a maximal slot (its packet costs the
    full ``R``), while listening slots are minimal (other stations churn
    through slots quickly, maximizing scheduling uncertainty).  The
    decision uses the action the station just committed for this slot,
    observable through the runtime.
    """

    def __init__(self, max_length: TimeLike) -> None:
        self.max_length = as_time(max_length)

    def next_slot_length(self, sim, station_id: int, slot_index: int) -> Fraction:
        runtime = sim.stations[station_id]
        # The simulator commits the station's action for the slot being
        # opened before consulting the adversary, so runtime.action is
        # the upcoming slot's intent.
        action = runtime.action
        if action is not None and action.is_transmit:
            return self.max_length
        return Fraction(1)

    def lattice_denominator(self) -> int:
        return self.max_length.denominator


class WorstCaseCyclic(SlotAdversary):
    """The default adversarial schedule used by the stability benches.

    Per-station coprime-ish cyclic patterns spanning ``[1, R]`` — strong
    persistent misalignment without randomness.  Odd stations cycle a
    3-pattern, even stations a 4-pattern, so relative phase between any
    odd/even pair never repeats within 12 slots.  Use the
    :func:`worst_case_for` factory, which degenerates to
    :class:`Synchronous` at ``R = 1``.
    """

    def __init__(self, max_length: TimeLike) -> None:
        upper = as_time(max_length)
        if upper < 1:
            raise ConfigurationError(f"R must be at least 1, got {upper}")
        self.max_length = upper
        self.mid = (1 + upper) / 2
        one = Fraction(1)
        self.odd_pattern = (one, upper, self.mid)
        self.even_pattern = (upper, one, one, self.mid)

    def next_slot_length(self, sim, station_id: int, slot_index: int) -> Fraction:
        pattern = self.odd_pattern if station_id % 2 else self.even_pattern
        return pattern[slot_index % len(pattern)]

    def lattice_denominator(self) -> int:
        return lcm(self.max_length.denominator, self.mid.denominator)


def worst_case_for(max_length: TimeLike) -> SlotAdversary:
    """Build the bench-default worst-case schedule for the bound ``R``."""
    upper = as_time(max_length)
    if upper == 1:
        return Synchronous()
    return WorstCaseCyclic(upper)
