"""Execution traces: per-slot records and backlog trajectories.

Two consumers drive the design:

* The figure-reproduction benches (Fig. 2 schedule diagram, Fig. 4
  phase timeline) need the full per-slot story of short executions —
  who listened/transmitted when, with what feedback.  A recorded slot
  is the simulator's ``slot_end`` probe event itself
  (:class:`~repro.obs.probes.SlotEndEvent`).
* The stability benches (Theorems 3 and 6) run millions of slots and
  only need the *backlog trajectory* (total queued packets over time)
  plus its running maximum, so full slot records can be disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Tuple

from ..obs.probes import SlotEndEvent
from .errors import ConfigurationError
from .timebase import Time, TimeLike, as_time


@dataclass(slots=True)
class BacklogSample:
    """Total system backlog (packets waiting in all queues) at a moment."""

    time: Time
    total_packets: int


@dataclass(slots=True)
class Trace:
    """Recording sink attached to a :class:`~repro.core.simulator.Simulator`.

    Attributes:
        record_slots: Keep every slot's ``slot_end`` event in
            :attr:`slots`: the simulator subscribes the list to its
            probe bus at construction.  Off by default; long stability
            runs would otherwise hold millions of records.
        backlog_stride: Record a backlog sample every ``stride`` backlog
            changes (1 = every change).  The running maximum is always
            exact regardless of stride.
    """

    record_slots: bool = False
    backlog_stride: int = 1
    slots: List[SlotEndEvent] = field(default_factory=list)
    backlog: List[BacklogSample] = field(default_factory=list)
    max_backlog: int = 0
    #: Count of backlog-change events seen so far; drives the stride
    #: sampling in :meth:`on_backlog_change` (``max_backlog`` stays
    #: exact no matter how many samples the stride swallows).
    _backlog_events: int = 0

    def __post_init__(self) -> None:
        if self.backlog_stride < 1:
            raise ConfigurationError(
                f"backlog_stride must be >= 1, got {self.backlog_stride} "
                "(a stride of 0 would silently never sample)"
            )

    def on_backlog_change(self, time: Time, total_packets: int) -> None:
        """Track a change in the total number of queued packets."""
        if total_packets > self.max_backlog:
            self.max_backlog = total_packets
        self._backlog_events += 1
        if self._backlog_events % self.backlog_stride == 0:
            self.backlog.append(BacklogSample(time=time, total_packets=total_packets))

    def max_backlog_cost(self, max_slot_length: TimeLike) -> Fraction:
        """Exact running maximum of the backlog *cost upper bound*.

        Every queued packet costs at most one maximal slot, so
        ``max_backlog * R`` upper-bounds the queued cost at the worst
        moment — the quantity comparable against the paper's ``L``
        bounds (Theorems 3 and 6).
        """
        return self.max_backlog * as_time(max_slot_length)

    def horizon(self) -> Fraction:
        """Latest recorded slot end (0 if nothing recorded)."""
        if not self.slots:
            return Fraction(0)
        return max(s.interval.end for s in self.slots)

    def backlog_series(self) -> List[Tuple[Fraction, int]]:
        """The backlog trajectory as plain (time, packets) pairs."""
        return [(sample.time, sample.total_packets) for sample in self.backlog]
