"""Probe layer: named hook points inside the simulator, zero-cost when idle.

The :class:`~repro.core.simulator.Simulator` and its channel expose
four *probe points* — moments in the event loop where observers may
attach:

========== =========================================================
event      fired
========== =========================================================
slot_end   a station's slot closed and its feedback was computed
arrival    the arrival adversary injected a packet
delivery   a packet's transmission was acknowledged
collision  a transmission was overlapped for the first time (counts
           exactly like ``ChannelStats.collisions``)
========== =========================================================

Design constraints, in order:

1. **Near-zero overhead when nobody listens.**  Stability runs process
   tens of millions of slots; the instrumented simulator must stay
   within a few percent of the bare one.  The simulator therefore keeps
   the bus in a single attribute (``None`` by default) and each probe
   point is guarded by one attribute load + truthiness test on the
   per-event subscriber list.  Event objects are only constructed when
   at least one subscriber is attached to that specific event.
2. **No behavioral feedback.**  Subscribers observe; they cannot change
   the execution.  Determinism tests pin this: a run with an empty (or
   fully subscribed) bus is bit-identical to a run without one.
3. **No import cycle.**  This module deliberately imports nothing from
   :mod:`repro.core` at runtime, so the core can import it freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a core<->obs cycle
    from fractions import Fraction

    from ..core.feedback import Feedback
    from ..core.station import Action
    from ..core.timebase import Interval, Time, Timebase


#: The probe point names, in rough firing order within one slot.
PROBE_EVENTS: Tuple[str, ...] = ("slot_end", "arrival", "delivery", "collision")


@dataclass(slots=True)
class SlotEndEvent:
    """A station's slot closed: the full per-slot story.

    ``internal_interval`` is the slot in the run's internal units
    (integer ticks on a lattice) and ``timebase`` the run's
    :class:`~repro.core.timebase.Timebase`; :attr:`interval` converts
    to exact public time on access, so only subscribers that read it
    pay for the conversion.  ``queue_size`` is the station's queue
    length after delivery pops and arrival pushes — what the algorithm
    saw when choosing its next action.  ``backlog`` is the system-wide
    undelivered packet count at the slot boundary.
    """

    station_id: int
    slot_index: int
    internal_interval: "Interval"
    timebase: "Timebase"
    action: "Action"
    feedback: "Feedback"
    queue_size: int
    delivered: bool
    backlog: int
    carried_packet_id: Optional[int]

    @property
    def interval(self) -> "Interval":
        """The slot in exact public time."""
        return self.timebase.interval_public(self.internal_interval)


@dataclass(slots=True)
class ArrivalEvent:
    """The arrival adversary injected one packet."""

    packet_id: int
    station_id: int
    at: "Time"
    backlog: int


@dataclass(slots=True)
class DeliveryEvent:
    """A packet's transmission was acknowledged."""

    packet_id: int
    station_id: int
    at: "Time"
    latency: "Fraction"
    cost: "Fraction"
    backlog: int


@dataclass(slots=True)
class CollisionEvent:
    """A transmission was overlapped for the first time.

    One event per *transmission that became overlapped*, matching the
    semantics of ``ChannelStats.collisions`` (a pairwise collision fires
    twice, a k-way pile-up k times).  The transmission's interval rides
    in internal units, as on :class:`SlotEndEvent`.
    """

    station_id: int
    internal_interval: "Interval"
    timebase: "Timebase"
    is_control: bool

    @property
    def interval(self) -> "Interval":
        """The transmission in exact public time."""
        return self.timebase.interval_public(self.internal_interval)


class ProbeBus:
    """Dispatches simulator events to zero-or-more subscribers.

    The per-event subscriber lists are public attributes named after the
    probe points; the simulator iterates them directly after a
    truthiness check, which is what keeps the unsubscribed cost to a
    single attribute load per probe point.

    >>> bus = ProbeBus()
    >>> seen = []
    >>> unsubscribe = bus.subscribe("slot_end", seen.append)
    >>> bus.emit("slot_end", "payload")
    >>> seen
    ['payload']
    >>> unsubscribe()
    >>> bus.any_subscribers
    False
    """

    __slots__ = tuple(PROBE_EVENTS)

    def __init__(self) -> None:
        for event in PROBE_EVENTS:
            setattr(self, event, [])

    def _subscribers(self, event: str) -> List[Callable[[Any], None]]:
        if event not in PROBE_EVENTS:
            raise ValueError(
                f"unknown probe event {event!r} (use one of {', '.join(PROBE_EVENTS)})"
            )
        return getattr(self, event)

    def subscribe(
        self, event: str, callback: Callable[[Any], None]
    ) -> Callable[[], None]:
        """Attach ``callback`` to a probe point; returns an unsubscriber."""
        subscribers = self._subscribers(event)
        subscribers.append(callback)

        def unsubscribe() -> None:
            try:
                subscribers.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    def subscribe_many(
        self, callbacks: Dict[str, Callable[[Any], None]]
    ) -> Callable[[], None]:
        """Attach several ``{event: callback}`` pairs; one unsubscriber for all."""
        unsubscribers = [
            self.subscribe(event, callback) for event, callback in callbacks.items()
        ]

        def unsubscribe_all() -> None:
            for unsubscribe in unsubscribers:
                unsubscribe()

        return unsubscribe_all

    def emit(self, event: str, payload: Any) -> None:
        """Dispatch ``payload`` to every subscriber of ``event``.

        The simulator inlines this (guard + loop) at its hot probe
        points; external producers can use this method directly.
        """
        for callback in self._subscribers(event):
            callback(payload)

    def __deepcopy__(self, memo: Dict[int, Any]) -> "ProbeBus":
        """Clones get a fresh, empty bus.

        Look-ahead adversaries deep-copy a mid-decision simulator to
        probe candidate futures; those speculative executions must not
        re-emit into the real run's subscribers (double counting) nor
        drag unpicklable sinks (open JSONL streams) through ``deepcopy``.
        """
        fresh = ProbeBus()
        memo[id(self)] = fresh
        return fresh

    @property
    def any_subscribers(self) -> bool:
        """True when at least one subscriber is attached to any event."""
        return any(getattr(self, event) for event in PROBE_EVENTS)

    def counts(self) -> Dict[str, int]:
        """Subscriber count per event (diagnostics)."""
        return {event: len(getattr(self, event)) for event in PROBE_EVENTS}
