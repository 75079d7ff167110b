"""Adaptive (state-observing) injection adversaries.

These sources implement the paper's *online* adversary: injection
decisions react to the live execution.  The flagship construction is
:class:`StarveCurrentTransmitter`, the Theorem 5 adversary — at rate
``rho = 1`` it keeps the system saturated while never feeding the
station that currently holds the channel, forcing the algorithm to hand
the channel over infinitely often; each handover wastes time under
asynchrony, so backlog grows without bound.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, List, Optional, Sequence

from ..core.errors import ConfigurationError
from ..core.timebase import Time, TimeLike, as_time
from .source import Arrival, ArrivalSource


def _current_transmitter(sim) -> Optional[int]:
    """The station transmitting at (or closest before) the current instant."""
    latest_start = None
    holder = None
    for sid in sim.station_ids:
        runtime = sim.stations[sid]
        action = runtime.action
        if action is not None and action.is_transmit:
            if latest_start is None or runtime.slot_start > latest_start:
                latest_start = runtime.slot_start
                holder = sid
    return holder


def _recent_successful_transmitter(sim) -> Optional[int]:
    """Station of the most recent successful transmission, if visible."""
    best_end = None
    holder = None
    for record in sim.channel.live_records:
        if record.successful and record.interval.end <= sim.now:
            if best_end is None or record.interval.end > best_end:
                best_end = record.interval.end
                holder = record.station_id
    return holder


class StarveCurrentTransmitter(ArrivalSource):
    """The Theorem 5 rate-one adversary.

    Accrues cost budget at rate ``rho`` (with initial burst ``b``) and,
    whenever a packet's worth of budget is available, injects it into a
    station *other than* the one currently transmitting (falling back
    to the most recent successful transmitter's complement, then to a
    round-robin of all stations).  With ``rho = 1`` and
    ``assumed_cost = 1`` under a synchronous-ish schedule, or
    ``assumed_cost = R`` in general, the injected cost saturates the
    channel while forcing perpetual handovers.
    """

    def __init__(
        self,
        rho: TimeLike,
        burstiness: TimeLike,
        assumed_cost: TimeLike,
        station_ids: Sequence[int],
        start: TimeLike = 0,
    ) -> None:
        if len(station_ids) < 2:
            raise ConfigurationError(
                "starving adversary needs at least two stations"
            )
        self.rho = as_time(rho)
        self.burstiness = as_time(burstiness)
        self.assumed_cost = as_time(assumed_cost)
        if self.assumed_cost <= 0:
            raise ConfigurationError("assumed_cost must be > 0")
        self.start = as_time(start)
        self._ids = list(station_ids)
        self._injected_cost = Fraction(0)
        self._rr_cursor = 0
        self._last_time = self.start

    def _pick_target(self, sim) -> int:
        avoid = _current_transmitter(sim)
        if avoid is None:
            avoid = _recent_successful_transmitter(sim)
        candidates: List[int] = [sid for sid in self._ids if sid != avoid]
        if not candidates:
            candidates = self._ids
        target = candidates[self._rr_cursor % len(candidates)]
        self._rr_cursor += 1
        return target

    def arrivals_until(self, sim, upto: Time) -> Iterator[Arrival]:
        if upto < self.start:
            return
        # Budget available by `upto`; inject as early as each packet's
        # cost is covered, splitting the initial burst at `start`.
        while True:
            needed = self._injected_cost + self.assumed_cost - self.burstiness
            if needed <= 0:
                t = self.start
            else:
                t = self.start + needed / self.rho
            if t < self._last_time:
                t = self._last_time
            if t > upto:
                return
            self._injected_cost += self.assumed_cost
            self._last_time = t
            yield (t, self._pick_target(sim))

    def lattice_denominator(self) -> None:
        # Injection instants involve ``needed / rho`` with a run-
        # dependent budget, so denominators are not statically bounded;
        # the adaptive target choice also reads the channel history
        # per arrival.  Stay on the exact Fraction path.
        return None

