"""Continuous-time shared channel with exact overlap resolution.

The channel is the paper's "base station" (Section II): it receives a
transmission successfully **iff no other transmission overlaps it in
real time**, and produces per-slot feedback for each station:

* ``ACK``     — a successful transmission ended inside the slot,
* ``SILENCE`` — nothing overlapped the slot,
* ``BUSY``    — activity overlapped the slot but no success ended in it.

The feedback oracle is two marks kept for the channel's clock ``e``:

* the *ACK mark*, the end of the latest finalized success.  A record
  not overlapped by the time its end is reached never will be, so the
  clean records' end-ordered heap is popped as the clock passes ends;
* the *BUSY mark*, the largest end among records that started strictly
  before ``e``: a running maximum, snapshotted whenever the clock
  advances.

A slot ``[s, e)`` hears ``ACK`` iff ``s < ack``, else ``BUSY`` iff
``s < busy``, else ``SILENCE``.  This is exact because of time order,
which event causality gives the simulator: transmissions are recorded
when their slot starts, feedback is asked at a slot's end, and events
run in time order.  The clock only moves forward; a query for an
instant before it, or a transmission starting before it, raises
:class:`~repro.core.errors.SimulationError`.  Time starts at zero.

Time units: the channel stores intervals in the simulator's *internal*
timebase (exact Fractions by default, integer ticks under a
:class:`~repro.core.timebase.TickLattice`).  Methods taking a *public*
time (``count_successes_up_to``, ``prune_before``, ``drain_all``)
convert at the boundary via ``floor_internal`` — exact for the
comparisons they make, because every stored endpoint is a lattice
point.  Public accessors (``stats``, ``first_success_end``,
``live_records``) convert back to Fractions, so observers never see
ticks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from ..obs.probes import CollisionEvent
from .errors import SimulationError
from .feedback import Feedback
from .packet import Packet
from .timebase import FRACTION_TIMEBASE, Interval, Time, Timebase, as_time


@dataclass(slots=True)
class Transmission:
    """One station's transmission occupying one of its slots.

    ``overlapped`` is maintained incrementally as later transmissions
    are recorded; a transmission is *successful* iff it is never
    overlapped.  Because any overlapping transmission must start before
    this one ends, the flag is final as soon as simulation time reaches
    ``interval.end``.
    """

    station_id: int
    interval: Interval
    packet: Optional[Packet]
    overlapped: bool = False

    @property
    def successful(self) -> bool:
        """True when no other transmission overlapped this one."""
        return not self.overlapped

    @property
    def is_control(self) -> bool:
        """True for control messages / empty signals (no packet aboard)."""
        return self.packet is None


@dataclass(slots=True)
class ChannelStats:
    """Aggregate channel counters, exact even after old records are pruned.

    ``collisions`` counts *transmissions that were overlapped* (each
    such transmission counted once), so a pairwise collision adds 2 and
    a k-way pile-up adds k.  A collision-free execution has
    ``collisions == 0`` — the invariant CA-ARRoW must satisfy.
    """

    transmissions: int = 0
    successes: int = 0
    collisions: int = 0
    control_transmissions: int = 0
    busy_time: Fraction = field(default_factory=lambda: Fraction(0))
    #: Total duration of *successful* transmissions (finalized records).
    #: ``horizon - success_time`` is the paper's wasted time (Def. 2).
    success_time: Fraction = field(default_factory=lambda: Fraction(0))


class Channel:
    """The shared medium: transmission registry + feedback oracle.

    The recent-transmission list is kept sorted by start time.
    :meth:`prune_before` lets the simulator discard transmissions that
    can no longer influence any future slot, keeping long stability runs
    bounded in memory while the :class:`ChannelStats` counters stay
    exact (successes are folded into the stats as records are pruned).
    Feedback never reads that list: it comes from the two marks
    described in the module docstring.
    """

    def __init__(
        self,
        probes=None,
        timebase: Optional[Timebase] = None,
    ) -> None:
        self._timebase: Timebase = (
            timebase if timebase is not None else FRACTION_TIMEBASE
        )
        self._transmissions: List[Transmission] = []
        self._stats = ChannelStats()
        #: Optional :class:`~repro.obs.probes.ProbeBus`; the channel
        #: fires one ``collision`` event per transmission that becomes
        #: overlapped (same counting as ``stats.collisions``).
        self.probes = probes
        zero = self._timebase.zero
        # Duration accumulators live in internal units; public
        # properties convert on read.
        self._busy_internal = zero
        self._success_internal = zero
        # The clock, the two feedback marks valid at it, and the
        # running maximum end the BUSY mark snapshots (all internal).
        self._now = zero
        self._ack = zero
        self._busy = zero
        self._end_max = zero
        # Successes finalized so far, and the earliest one's end.
        self._finalized = 0
        self._first_ack = None
        # Incremental collision detection.  Starts are non-decreasing
        # (begin_transmission's contract), so "overlaps a new interval"
        # reduces to "ends strictly after the new start".  Un-overlapped
        # records sit on an end-ordered heap: entries ending at or
        # before the clock can never collide again and are popped for
        # good as finalized successes; everything still on the heap
        # collides with a new record.  Overlapped records never need
        # marking again, so for them one running maximum end answers
        # "does the new record overlap any of those".  Together:
        # amortised O(log history) per transmission where a window
        # rescan is O(window) — the difference between linear and
        # quadratic inside the n-way same-instant collisions of a large
        # election phase.
        self._clean_open: List[Tuple[object, int, Transmission]] = []
        self._clean_seq = 0
        self._dirty_end_max = zero

    @property
    def stats(self) -> ChannelStats:
        """Aggregate counters; durations materialised as exact Fractions."""
        stats = self._stats
        stats.busy_time = self._timebase.to_public(self._busy_internal)
        stats.success_time = self._timebase.to_public(self._success_internal)
        return stats

    @property
    def first_success_end(self) -> Optional[Time]:
        """End time of the first success finalized so far (public time).

        A success is finalized when the clock reaches its end, through
        a feedback query or a later transmission's start.
        """
        if self._first_ack is None:
            return None
        return self._timebase.to_public(self._first_ack)

    # ------------------------------------------------------------------
    # The clock
    # ------------------------------------------------------------------

    def _advance(self, moment, what: str) -> None:
        """Move the clock forward to ``moment`` (internal units).

        Every record recorded so far started before ``moment``, so the
        BUSY mark becomes the running maximum end; clean records that
        ended by ``moment`` are finalized successes and move the ACK
        mark.  Callers skip the call when ``moment`` is the clock.
        """
        if moment < self._now:
            raise SimulationError(
                f"{what} {moment} is before the channel clock "
                f"{self._now}: channel calls must come in time order"
            )
        self._now = moment
        self._busy = self._end_max
        clean = self._clean_open
        while clean and clean[0][0] <= moment:
            end = heapq.heappop(clean)[0]
            if self._first_ack is None:
                self._first_ack = end
            self._ack = end
            self._finalized += 1

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def begin_transmission(
        self,
        station_id: int,
        interval: Interval,
        packet: Optional[Packet],
    ) -> Transmission:
        """Record a transmission occupying ``interval``.

        ``interval.start`` must not precede the clock (the last start
        recorded or instant queried); the simulator guarantees this
        because transmissions begin at slot starts and events are
        processed in time order.
        """
        start = interval.start
        if start != self._now:
            self._advance(start, "transmission start")
        record = Transmission(station_id=station_id, interval=interval, packet=packet)
        stats = self._stats
        clean = self._clean_open
        if self._dirty_end_max > start:
            record.overlapped = True
            stats.collisions += 1
            self._probe_collision(record)
        if clean:
            # Every survivor overlaps the new record; drain the heap
            # (they all become overlapped) newest-first, matching the
            # historical reverse scan.
            colliders = [heapq.heappop(clean) for _ in range(len(clean))]
            colliders.sort(key=lambda entry: entry[1], reverse=True)
            for _end, _seq, other in colliders:
                other.overlapped = True
                stats.collisions += 1
                self._probe_collision(other)
                if not record.overlapped:
                    record.overlapped = True
                    stats.collisions += 1
                    self._probe_collision(record)
                other_end = other.interval.end
                if other_end > self._dirty_end_max:
                    self._dirty_end_max = other_end
        end = interval.end
        if record.overlapped:
            if end > self._dirty_end_max:
                self._dirty_end_max = end
        else:
            self._clean_seq += 1
            heapq.heappush(clean, (end, self._clean_seq, record))
        if end > self._end_max:
            self._end_max = end
        self._transmissions.append(record)
        stats.transmissions += 1
        self._busy_internal += interval.duration
        if packet is None:
            stats.control_transmissions += 1
        return record

    def _probe_collision(self, transmission: Transmission) -> None:
        """Fire one ``collision`` probe event for a newly overlapped record."""
        probes = self.probes
        if probes is not None and probes.collision:
            event = CollisionEvent(
                station_id=transmission.station_id,
                internal_interval=transmission.interval,
                timebase=self._timebase,
                is_control=transmission.is_control,
            )
            for callback in probes.collision:
                callback(event)

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------

    def marks(self, moment) -> Tuple[object, object]:
        """The ``(ack, busy)`` marks at ``moment`` (internal units).

        A slot ending at ``moment`` that started at ``s`` hears ``ACK``
        iff ``s < ack``, else ``BUSY`` iff ``s < busy``, else
        ``SILENCE``.  Advances the clock; ``moment`` must not precede
        it.  The batch kernel applies the two compares to a whole
        tick's slot starts at once.
        """
        if moment != self._now:
            self._advance(moment, "feedback query at")
        return self._ack, self._busy

    def feedback_for(self, slot: Interval) -> Feedback:
        """Per-slot feedback for ``slot``, asked at its end.

        :meth:`marks` at ``slot.end`` and its two compares, inlined:
        this is the object loop's hot path.
        """
        moment = slot.end
        if moment != self._now:
            self._advance(moment, "feedback query at")
        start = slot.start
        if start < self._ack:
            return Feedback.ACK
        if start < self._busy:
            return Feedback.BUSY
        return Feedback.SILENCE

    def finalized_successes(self, moment) -> int:
        """Successes with ``end <= moment`` (``moment`` in internal units).

        Advances the clock like :meth:`marks`.  Amortised O(log
        history): each record is popped once, when the clock first
        reaches its end.  The SST stop check.
        """
        self.marks(moment)
        return self._finalized

    def count_successes_up_to(self, moment: Time) -> int:
        """Number of successful transmissions ended by ``moment`` (inclusive).

        ``moment`` is a public time; the comparison against internal
        record endpoints is exact (see module docstring).  Unlike
        :meth:`finalized_successes` it leaves the clock alone.
        """
        mark = self._timebase.floor_internal(as_time(moment))
        live = sum(
            1
            for t in self._transmissions
            if not t.overlapped and t.interval.end <= mark
        )
        return self._stats.successes + live

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------

    def prune_before(self, low_water_mark: Time) -> None:
        """Drop transmission records that ended at or before the mark.

        ``low_water_mark`` is a public time; it must not exceed the
        earliest start of any still-open slot (a slot's feedback looks
        only at transmissions ending strictly after its own start).
        Success counts for pruned records are folded into
        :class:`ChannelStats`.
        """
        self._prune_internal(self._timebase.floor_internal(as_time(low_water_mark)))

    def _prune_internal(self, low_water_mark) -> None:
        """:meth:`prune_before` with the mark already in internal units."""
        keep: List[Transmission] = []
        for t in self._transmissions:
            if t.interval.end <= low_water_mark:
                if not t.overlapped:
                    self._stats.successes += 1
                    self._success_internal += t.interval.duration
            else:
                keep.append(t)
        self._transmissions = keep

    def drain_all(self, end_of_time: Time) -> None:
        """Finalize every record (simulation over); updates stats fully."""
        self.prune_before(as_time(end_of_time) + 1)

    @property
    def live_records(self) -> List[Transmission]:
        """Transmission records not yet pruned (the recent history window).

        Under a tick-lattice timebase the returned records are copies
        with intervals converted to public Fractions; under the default
        Fraction timebase they are the channel's own records, as before.
        """
        if not self._timebase.is_lattice:
            return list(self._transmissions)
        interval_public = self._timebase.interval_public
        return [
            Transmission(
                station_id=t.station_id,
                interval=interval_public(t.interval),
                packet=t.packet,
                overlapped=t.overlapped,
            )
            for t in self._transmissions
        ]
