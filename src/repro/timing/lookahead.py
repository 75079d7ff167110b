"""Adaptive look-ahead slot adversaries.

The model's adversary is *online and omniscient*: it fixes a slot's
length knowing the full system state, and because every station
algorithm is a deterministic cloneable automaton, it can simulate
futures before committing (see DESIGN.md §2).  Two adversaries here
realize that power at different price points:

* :class:`MaxOverlapAdversary` — a cheap heuristic: stretch every
  *transmitting* slot to reach just past other stations' upcoming slot
  boundaries (maximizing the chance of colliding with whatever they
  send next) and keep listening slots minimal.  No cloning.
* :class:`CloningGreedyAdversary` — the real thing: at every decision
  it deep-copies the simulator, completes the pending slot with each
  candidate length, runs the copy ``horizon_events`` ahead under a
  neutral fallback schedule, scores the outcome (collisions up,
  successes down, backlog up), and commits the worst-for-the-protocol
  candidate.  Expensive (a full system copy per candidate per slot) —
  meant for short adversarial-stress runs and for validating that the
  cheap heuristics are not missing big attacks.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from typing import List, Optional, Sequence

from ..core.errors import ConfigurationError
from ..core.timebase import TimeLike, as_time
from .adversary import FixedLength, SlotAdversary


class MaxOverlapAdversary(SlotAdversary):
    """Stretch transmissions across other stations' next boundaries.

    For a transmitting slot opening at time ``t``, pick the smallest
    length in ``[1, R]`` that covers the latest upcoming slot boundary
    of any other station (clamped to ``R``): if any of them transmits
    next, the transmissions overlap.  Listening slots get length 1 so
    the victim's decision points come thick and fast.
    """

    def __init__(self, max_length: TimeLike) -> None:
        self.max_length = as_time(max_length)

    def next_slot_length(self, sim, station_id: int, slot_index: int) -> Fraction:
        runtime = sim.stations[station_id]
        action = runtime.action
        if action is None or not action.is_transmit:
            return Fraction(1)
        start = sim.now
        latest_boundary = start
        for other_id, other in sim.stations.items():
            if other_id == station_id:
                continue
            if other.slot_end > latest_boundary:
                latest_boundary = other.slot_end
        reach = latest_boundary - start
        if reach < 1:
            return Fraction(1)
        return min(self.max_length, reach + Fraction(1, 4))

    def lattice_denominator(self) -> None:
        # The produced lengths depend on run-dependent boundary gaps
        # (``reach``), so no static denominator bound exists; this also
        # pins the run to the Fraction timebase, which the arithmetic
        # above (public ``sim.now`` mixed with runtime slot boundaries)
        # requires.
        return None


class CloningGreedyAdversary(SlotAdversary):
    """One-step greedy adversary with simulated look-ahead.

    Scoring of a probed future: ``collisions * collision_weight +
    backlog - successes * success_weight`` — higher is better for the
    adversary.  Candidates default to ``{1, (1+R)/2, R}``.

    The probe replaces the clone's adversary with a neutral
    :class:`FixedLength` fallback so probing never recurses.
    """

    def __init__(
        self,
        max_length: TimeLike,
        horizon_events: int = 48,
        candidates: Optional[Sequence[TimeLike]] = None,
        fallback_length: Optional[TimeLike] = None,
        collision_weight: int = 3,
        success_weight: int = 1,
    ) -> None:
        self.max_length = as_time(max_length)
        if horizon_events < 1:
            raise ConfigurationError("horizon_events must be >= 1")
        self.horizon_events = horizon_events
        if candidates is None:
            mid = (1 + self.max_length) / 2
            raw: List[Fraction] = [Fraction(1), mid, self.max_length]
        else:
            raw = [as_time(c) for c in candidates]
        deduplicated: List[Fraction] = []
        for candidate in raw:
            if not 1 <= candidate <= self.max_length:
                raise ConfigurationError(
                    f"candidate {candidate} outside [1, {self.max_length}]"
                )
            if candidate not in deduplicated:
                deduplicated.append(candidate)
        self.candidates = deduplicated
        self.fallback = as_time(
            fallback_length if fallback_length is not None else 1
        )
        self.collision_weight = collision_weight
        self.success_weight = success_weight
        #: Decisions taken (for introspection in tests/benches).
        self.decisions = 0

    def _score(self, sim, station_id: int, length: Fraction) -> tuple:
        clone = copy.deepcopy(sim)
        clone.slot_adversary = FixedLength(self.fallback)
        clone.open_slot(clone.stations[station_id], clone.now, length)
        try:
            clone.run(max_events=clone.events_processed + self.horizon_events)
        except Exception:  # a broken victim counts as maximal damage
            return (10**9, 0)
        # ``count_successes_up_to`` already includes the successes that
        # pruning folded into the stats.
        successes = clone.channel.count_successes_up_to(clone.now)
        score = (
            clone.channel.stats.collisions * self.collision_weight
            + clone.total_backlog
            - successes * self.success_weight
        )
        return (score, -length)  # tie-break toward short slots

    def next_slot_length(self, sim, station_id: int, slot_index: int) -> Fraction:
        if len(self.candidates) == 1:
            return self.candidates[0]
        self.decisions += 1
        best_candidate = self.candidates[0]
        best_score = None
        for candidate in self.candidates:
            score = self._score(sim, station_id, candidate)
            if best_score is None or score > best_score:
                best_score = score
                best_candidate = candidate
        return best_candidate

    def lattice_denominator(self) -> None:
        # Cloning look-ahead feeds ``clone.now`` (a public Fraction)
        # back into ``open_slot`` (internal units), which is only unit-
        # correct on the Fraction timebase — so never declare a lattice.
        return None
