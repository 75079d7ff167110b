"""Empirical stability analysis: boundedness, wasted time, phases.

Translates the paper's definitions into measurements over executions:

* **Stability** (Section II): there is a bound on the packets injected
  but not yet delivered.  For a finite run we use the standard
  adversarial-queuing proxy: split the horizon into windows and check
  the per-window backlog maxima stop growing (the trajectory's maxima
  plateau rather than trend upward).
* **Wasted time** (Definition 2): time not covered by successful
  transmissions.
* **Phases / subphases** (Definitions 3–4): segmentation of an
  AO-ARRoW execution used by the Fig. 4 timeline bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from ..core.errors import ConfigurationError
from ..core.simulator import Simulator
from ..core.timebase import Time, TimeLike, as_time


@dataclass(frozen=True, slots=True)
class StabilityVerdict:
    """Result of the windowed-maxima boundedness test.

    ``window_maxima`` are the backlog peaks per window; ``stable`` is
    true when the later windows' peaks do not exceed the earlier ones
    by more than ``tolerance`` (burstiness-sized noise).  The verdict
    is a *finite-run proxy* — the paper's theorems supply the actual
    guarantees; benches check measured peaks against the theorem
    bounds separately.
    """

    stable: bool
    window_maxima: List[int]
    peak: int
    final_backlog: int


def assess_stability(
    samples: Sequence[Tuple[Fraction, int]],
    horizon: TimeLike,
    windows: int = 8,
    tolerance: int = 2,
) -> StabilityVerdict:
    """Windowed-maxima boundedness test over a backlog trajectory.

    Args:
        samples: ``(time, backlog)`` pairs, time-sorted.
        horizon: Total run duration (defines the window grid).
        windows: Number of equal windows; must be >= 2.
        tolerance: Allowed excess of late peaks over early peaks.
    """
    if windows < 2:
        raise ConfigurationError("need at least 2 windows")
    end = as_time(horizon)
    if end <= 0:
        raise ConfigurationError("horizon must be positive")
    maxima = [0] * windows
    final_backlog = 0
    peak = 0
    for t, backlog in samples:
        index = min(int(t * windows / end), windows - 1)
        if backlog > maxima[index]:
            maxima[index] = backlog
        peak = max(peak, backlog)
        final_backlog = backlog
    half = windows // 2
    early = max(maxima[:half], default=0)
    late = max(maxima[half:], default=0)
    stable = late <= early + tolerance
    return StabilityVerdict(
        stable=stable, window_maxima=maxima, peak=peak, final_backlog=final_backlog
    )


def wasted_time(sim: Simulator) -> Fraction:
    """Definition 2: horizon minus time covered by successful transmissions.

    Call after the run; finalizes the channel's bookkeeping first.
    """
    sim.channel.drain_all(sim.now)
    return sim.now - sim.channel.stats.success_time


def utilization(sim: Simulator) -> Fraction:
    """Fraction of the horizon spent on successful transmissions."""
    if sim.now == 0:
        return Fraction(0)
    sim.channel.drain_all(sim.now)
    return sim.channel.stats.success_time / sim.now


# ----------------------------------------------------------------------
# AO-ARRoW phase segmentation (Definitions 3-4, for the Fig. 4 bench)
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RoundSegment:
    """One leader-election-plus-drain round observed on the channel."""

    start: Time
    end: Time
    winner: int
    packets_delivered: int


@dataclass(frozen=True, slots=True)
class PhaseSegment:
    """One Definition 3 phase: consecutive rounds between long silences."""

    start: Time
    end: Time
    rounds: List[RoundSegment]


def segment_rounds(
    sim: Simulator, silence_gap: TimeLike
) -> List[PhaseSegment]:
    """Reconstruct rounds and phases from the channel's success record.

    Successive successful transmissions by one station form a round
    (the winner's election win plus its drain).  A gap between
    successes exceeding ``silence_gap`` closes the current phase — pass
    the AO-ARRoW long-silence bound for the paper's segmentation.

    Requires the run to have kept its transmission records (use a
    simulator whose channel was not pruned mid-run, i.e. short
    figure-scale executions).
    """
    gap = as_time(silence_gap)
    successes = sorted(
        (
            (t.interval.start, t.interval.end, t.station_id)
            for t in sim.channel.live_records
            if t.successful and t.interval.end <= sim.now
        ),
    )
    phases: List[PhaseSegment] = []
    rounds: List[RoundSegment] = []
    round_start = round_end = None
    round_winner = None
    round_count = 0
    phase_start = None

    def close_round() -> None:
        nonlocal round_start, round_end, round_winner, round_count
        if round_winner is not None:
            rounds.append(
                RoundSegment(
                    start=round_start,
                    end=round_end,
                    winner=round_winner,
                    packets_delivered=round_count,
                )
            )
        round_start = round_end = None
        round_winner = None
        round_count = 0

    def close_phase(at: Time) -> None:
        nonlocal rounds, phase_start
        close_round()
        if rounds:
            phases.append(
                PhaseSegment(start=phase_start, end=at, rounds=list(rounds))
            )
        rounds = []
        phase_start = None

    for start, end, station in successes:
        if phase_start is None:
            phase_start = start
        if round_winner is None:
            round_start, round_end, round_winner, round_count = start, end, station, 1
            continue
        if station == round_winner and start - round_end <= gap:
            round_end, round_count = end, round_count + 1
            continue
        if start - round_end > gap:
            close_phase(round_end)
            phase_start = start
        else:
            close_round()
        round_start, round_end, round_winner, round_count = start, end, station, 1
    if round_winner is not None:
        close_phase(round_end)
    return phases
