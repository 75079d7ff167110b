"""Fault-tolerant CA-ARRoW: surviving fail-stop crashes.

Plain CA-ARRoW (Fig. 6) deadlocks when a turn holder crashes: on a
content-opaque channel a dead station is pure silence, the successor
waits forever for transmissions that never come, and the ring halts —
the extension experiments show exactly this.  This module implements
the recovery extension foreshadowed by the paper's own observation
(Section VI) that *"if many stations do not have any packets to
transmit, the uncertainty accumulates and the upper bound grows
exponentially"*: skipping a silent (dead) station under bounded
asynchrony costs an R-factor per consecutive skip.

Recovery design (all counts in the station's own slots; constants
R-margined exactly like the paper's thresholds):

* A station that observes silence since the last activity reaching
  ``A_k`` performs its *k-th skip*: ``turn`` advances past one more
  presumed-dead station.
* If the k-th skip makes it the holder, it does not transmit at once —
  it waits until its silence count reaches ``B_k``; by then **every**
  station, however slow its slots, has also performed its k-th skip,
  so the ring agrees on the turn before the claimant speaks.
* The thresholds satisfy ``B_k = R * A_k + 2R`` (everyone has skipped
  k times) and ``A_{k+1} = R * B_k + 2R`` (nobody skips k+1 times
  before a live claimant k speaks), giving the geometric ladder
  ``A_{k+1} = R^2 A_k + ...`` — exponential in the number of
  *consecutive* dead stations, reset to the base by any activity.

With no crashes the ladder never engages (``A_1`` exceeds every legal
silence of the crash-free protocol) and the algorithm behaves exactly
like :class:`~repro.algorithms.ca_arrow.CAArrow`, collision-freedom
included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

from ..analysis.bounds import ca_gap_slots
from ..core.errors import ConfigurationError, ProtocolError
from ..core.feedback import Feedback
from ..core.station import (
    LISTEN,
    TRANSMIT_CONTROL,
    TRANSMIT_PACKET,
    Action,
    SlotContext,
    StationAlgorithm,
)
from ..core.timebase import TimeLike, as_time


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def skip_thresholds(max_slot_length: TimeLike, max_skips: int) -> List[tuple]:
    """The ``(A_k, B_k)`` ladder for ``k = 1..max_skips``.

    ``A_1`` must exceed the longest crash-free silence: the successor's
    ``2R``-slot gap lasts at most ``2R * R`` time, during which a unit-
    slot observer counts at most ``2R^2`` silent slots (+2 slack).
    """
    upper = as_time(max_slot_length)
    ladder = []
    a_k = 2 * upper * upper + 2 * upper + 2
    for _ in range(max_skips):
        b_k = upper * a_k + 2 * upper
        ladder.append((_ceil(a_k), _ceil(b_k)))
        a_k = upper * b_k + 2 * upper
    return ladder


@lru_cache(maxsize=1)
def _shared_ladder(max_slot_length: Fraction, depth: int) -> Tuple[tuple, ...]:
    """:func:`skip_thresholds` as one immutable tuple per ``(R, depth)``.

    Every station of a fleet holds this one object, and so does a
    :meth:`~repro.core.station.StationAlgorithm.clone` (a deep copy
    keeps a tuple of ints): the ladder's integers grow by about ``R^2``
    per level, so a ladder per station made a fleet's build O(n^2).
    A fleet builds its stations one after another with one
    ``(R, depth)``, so the cache keeps only the latest ladder alive.
    """
    return tuple(skip_thresholds(max_slot_length, depth))


@dataclass(slots=True)
class FTCAArrowStats:
    """Counters for the fault-tolerance experiments."""

    turns_taken: int = 0
    packets_sent: int = 0
    empty_signals_sent: int = 0
    skips: int = 0
    recoveries_claimed: int = 0
    unexpected_busy: int = 0


class FaultTolerantCAArrow(StationAlgorithm):
    """CA-ARRoW with the dead-holder skip ladder.

    Args:
        station_id / n_stations / max_slot_length: As CA-ARRoW.
        max_consecutive_skips: Ladder depth; ``n_stations`` suffices
            (some station is alive or the run is over).
    """

    uses_control_messages = True
    collision_free_by_design = True

    def __init__(
        self,
        station_id: int,
        n_stations: int,
        max_slot_length: TimeLike,
        max_consecutive_skips: int | None = None,
    ) -> None:
        if not 1 <= station_id <= n_stations:
            raise ConfigurationError(
                f"station id {station_id} outside [1, {n_stations}]"
            )
        self.station_id = station_id
        self.n_stations = n_stations
        self.max_slot_length = as_time(max_slot_length)
        self.gap_slots = ca_gap_slots(self.max_slot_length)
        depth = (
            max_consecutive_skips
            if max_consecutive_skips is not None
            else n_stations
        )
        self.ladder = _shared_ladder(self.max_slot_length, depth)

        self.turn = 1
        self.state = "wait_end"  # wait_end | gap | transmitting | claim
        self.heard_activity = False
        self.gap_count = 0
        self._noise_turn = False
        #: Consecutive silent slots since the last observed activity.
        self.silent_run = 0
        #: Skips performed in the current quiet period.
        self.skip_count = 0
        #: Conflict mode: set after an own-transmission collision
        #: (turn views have desynchronized, e.g. after jamming).  Claim
        #: thresholds are then staggered by ID so exactly one of the
        #: conflicting claimants speaks first and the rest yield.
        self.conflict_mode = False
        #: Consecutive ladder claims with no natural turn in between —
        #: reaching ``n_stations`` proves the ring is running purely on
        #: recovery claims (views desynchronized or almost all dead)
        #: and triggers a global turn reset to station 1.
        self.ladder_rounds = 0
        #: Whether the activity currently on the air is a recovery
        #: claim (its eventual turn-end must not clear ladder_rounds).
        self._current_activity_is_claim = False
        self.stats = FTCAArrowStats()

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _next_turn(self) -> int:
        return self.turn % self.n_stations + 1

    def _begin_my_turn(self, queue_size: int) -> Action:
        self.state = "transmitting"
        self.stats.turns_taken += 1
        if queue_size > 0:
            self._noise_turn = False
            return TRANSMIT_PACKET
        self._noise_turn = True
        return TRANSMIT_CONTROL

    def _on_activity(self) -> None:
        self.silent_run = 0
        self.skip_count = 0

    def _advance_turn_normal(self) -> Action:
        self.turn = self._next_turn()
        self.heard_activity = False
        if self._current_activity_is_claim:
            # The turn that just ended was a recovery claim; its
            # completion is not evidence that the ring is healthy.
            self._current_activity_is_claim = False
        else:
            self.ladder_rounds = 0  # a natural turn: the ring functions
        if self.turn == self.station_id:
            self.state = "gap"
            self.gap_count = 0
        else:
            self.state = "wait_end"
        return LISTEN

    def _register_ladder_round(self) -> None:
        """Count a recovery claim; too many in a row resets the ring.

        ``n`` consecutive ladder claims without a single natural turn
        mean the turn views no longer cohere (post-jamming desync) or
        nearly everyone is dead.  All stations observe the same claim
        pattern (a claim is unmistakable: it follows a silence every
        station counted past ``A_1``), so they reset together:
        ``turn <- 0`` makes the *next* natural advance hand the ring to
        station 1, and conflict mode ends.
        """
        self.ladder_rounds += 1
        if self.ladder_rounds >= self.n_stations:
            self.ladder_rounds = 0
            self.turn = 0
            self.conflict_mode = False

    def _maybe_skip(self, queue_size: int) -> Action:
        """Silence accumulated: climb the ladder if a threshold passed."""
        if self.state == "claim":
            # I skipped onto my own turn as skip number ``skip_count``;
            # claim once that skip's B threshold is reached (by then
            # every station has performed the same skip).  In conflict
            # mode the threshold is additionally staggered by ``(2R)^
            # (id-1)`` so that of several desynchronized claimants the
            # smallest ID provably speaks before any other's claim
            # time, and the rest observe it and yield.
            b_k = self.ladder[self.skip_count - 1][1]
            if self.conflict_mode:
                b_k = _ceil(
                    b_k * (2 * self.max_slot_length) ** (self.station_id - 1)
                )
            if self.silent_run >= b_k:
                self.stats.recoveries_claimed += 1
                self._register_ladder_round()
                self._current_activity_is_claim = True
                self._on_activity()  # my own transmission is activity
                return self._begin_my_turn(queue_size)
            return LISTEN
        if self.skip_count >= len(self.ladder):
            return LISTEN  # ladder exhausted; stay quiet (all dead?)
        a_k = self.ladder[self.skip_count][0]
        if self.silent_run >= a_k:
            self.turn = self._next_turn()
            self.skip_count += 1
            self.stats.skips += 1
            self.heard_activity = False
            if self.turn == self.station_id:
                self.state = "claim"
            else:
                self.state = "wait_end"
        return LISTEN

    # ------------------------------------------------------------------
    # StationAlgorithm interface
    # ------------------------------------------------------------------

    def first_action(self, ctx: SlotContext) -> Action:
        if self.station_id == 1:
            return self._begin_my_turn(ctx.queue_size)
        self.state = "wait_end"
        return LISTEN

    def on_slot_end(self, ctx: SlotContext) -> Action:
        feedback = self._require_feedback(ctx)
        if self.state == "transmitting":
            return self._step_transmitting(feedback, ctx.queue_size)
        if feedback.is_activity:
            # Classify before clearing silence: activity preceded by a
            # super-threshold quiet period is a recovery claim (every
            # station counted past A_1 during it, so the classification
            # is ring-consistent).
            if self.silent_run >= self.ladder[0][0]:
                self._register_ladder_round()
                self._current_activity_is_claim = True
            self._on_activity()
            if self.state == "claim":
                # Someone else is alive and speaking; fall back to
                # following the ring normally.
                self.state = "wait_end"
            if self.state == "gap":
                self.gap_count = 0
                return LISTEN
            self.heard_activity = True
            return LISTEN

        # Silence.
        self.silent_run += 1
        if self.state == "gap":
            self.gap_count += 1
            if self.gap_count >= self.gap_slots:
                self._on_activity()
                return self._begin_my_turn(ctx.queue_size)
            return LISTEN
        if self.state == "wait_end" and self.heard_activity:
            # Normal turn end: activity then silence.
            self.silent_run = 1  # this silent slot starts the quiet period
            return self._advance_turn_normal()
        return self._maybe_skip(ctx.queue_size)

    def _step_transmitting(self, feedback: Feedback, queue_size: int) -> Action:
        if feedback is Feedback.SILENCE:
            raise ProtocolError(
                "silence feedback on a transmitting slot — broken channel model"
            )
        self._on_activity()
        if feedback is Feedback.BUSY:
            # A collision while we hold the turn means another station
            # believes it holds the turn too — views have diverged
            # (e.g. after jamming).  Retrying forever would livelock;
            # instead back off into conflict mode: everyone yields, the
            # channel quiets down, and the ID-staggered claim ladder
            # hands it to exactly one of the conflicting claimants.
            self.stats.unexpected_busy += 1
            self.conflict_mode = True
            self._current_activity_is_claim = False
            self.state = "wait_end"
            self.heard_activity = True
            return LISTEN
        # Acknowledged: we demonstrably hold the channel alone, so any
        # earlier conflict is resolved from our side.
        self.conflict_mode = False
        if self._noise_turn:
            self.stats.empty_signals_sent += 1
            return self._advance_turn_normal()
        self.stats.packets_sent += 1
        if queue_size > 0:
            return TRANSMIT_PACKET
        return self._advance_turn_normal()
