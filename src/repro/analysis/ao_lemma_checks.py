"""Executable checks for AO-ARRoW's stability lemmas (Section IV).

Theorem 3's proof rests on per-subphase accounting (Lemmas 6–8).  This
module re-states the *execution-level* facts those lemmas rely on as
measurable predicates over a recorded run:

* **Wasted-time budget** — within any window containing ``k`` complete
  rounds, time not covered by successful transmissions is at most
  ``k`` leader elections' worth (+ boundary slack): the proofs charge
  at most ``RA`` waste per election (Definition 2 bookkeeping inside
  Lemmas 6/7).
* **Subphase drain (Lemma 7's direction)** — across any window of
  ``n`` consecutive rounds in which the system started with a large
  backlog, the backlog does not grow: deliveries outpace admissible
  injections once queues are long (the ``X - B`` decrease).
* **Withholding fairness** — no station wins more than one round in
  any window of ``n`` consecutive rounds while other stations hold
  packets (the ``wait = n - 1`` discipline of box (6)).

These are necessarily *finite-run* renderings of asymptotic lemmas:
each check takes explicit slack parameters derived from the same
constants the proofs use, and the test suite runs them across the
schedule/workload grid.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence

from ..core.errors import ConfigurationError
from ..core.simulator import Simulator
from ..core.timebase import Time, TimeLike, as_time
from .bounds import ao_election_slots
from .stability import RoundSegment, segment_rounds


@dataclass(frozen=True, slots=True)
class AOLemmaViolation:
    """A concrete counterexample found by a check."""

    check: str
    detail: str


def rounds_of_run(sim: Simulator, silence_gap: TimeLike) -> List[RoundSegment]:
    """All rounds of an AO-ARRoW run, phase structure flattened."""
    phases = segment_rounds(sim, silence_gap=silence_gap)
    return [segment for phase in phases for segment in phase.rounds]


def check_wasted_time_budget(
    sim: Simulator,
    n: int,
    max_slot_length: TimeLike,
    silence_gap: TimeLike,
) -> List[AOLemmaViolation]:
    """Per-round wasted time stays within one election's budget.

    Between the end of one round and the end of the next, the
    non-successful time must not exceed ``R * A`` time (one leader
    election at worst-case slot lengths) plus the long-silence
    allowance when the gap spans an idle period — windows whose gap
    exceeds ``silence_gap`` are skipped, since phases legitimately
    separate there (Definition 3).
    """
    upper = as_time(max_slot_length)
    budget = upper * ao_election_slots(n, upper) + 4 * upper
    violations: List[AOLemmaViolation] = []
    rounds = rounds_of_run(sim, silence_gap)
    for previous, current in zip(rounds, rounds[1:]):
        gap = current.start - previous.end
        if gap > as_time(silence_gap):
            continue  # phase boundary: long silence is allowed there
        window = current.end - previous.end
        useful = current.end - current.start
        wasted = window - useful
        if wasted > budget:
            violations.append(
                AOLemmaViolation(
                    check="wasted-time budget",
                    detail=(
                        f"round ending {current.end}: wasted {wasted} "
                        f"exceeds one election budget {budget}"
                    ),
                )
            )
    return violations


def check_withholding_fairness(
    sim: Simulator, n: int, silence_gap: TimeLike
) -> List[AOLemmaViolation]:
    """Box (6): a winner withholds for the next ``n - 1`` rounds.

    Within every window of ``n`` consecutive rounds *inside one phase*,
    a station may win at most once — unless it was the only station
    holding packets (the long-silence path legitimately re-elects it).
    We approximate "only station with packets" by checking whether any
    other station delivered in the surrounding window; a repeat win
    with another active deliverer in-window is a genuine violation.
    """
    violations: List[AOLemmaViolation] = []
    rounds = rounds_of_run(sim, silence_gap)
    gap_limit = as_time(silence_gap)
    for start_index in range(len(rounds)):
        window: List[RoundSegment] = [rounds[start_index]]
        for segment in rounds[start_index + 1 : start_index + n]:
            if segment.start - window[-1].end > gap_limit:
                break  # window crosses a phase boundary; stop extending
            window.append(segment)
        winners = [segment.winner for segment in window]
        for winner in set(winners):
            if winners.count(winner) > 1 and len(set(winners)) > 1:
                violations.append(
                    AOLemmaViolation(
                        check="withholding fairness",
                        detail=(
                            f"station {winner} won {winners.count(winner)} of "
                            f"{len(window)} consecutive rounds "
                            f"starting at {window[0].start} while others "
                            "were also active"
                        ),
                    )
                )
    return violations


def check_loaded_window_drain(
    backlog_series: Sequence[tuple],
    horizon: TimeLike,
    load_threshold: int,
    window: TimeLike,
    slack: int = 2,
) -> List[AOLemmaViolation]:
    """Lemma 7's direction: loaded systems do not keep growing.

    For every sample with backlog above ``load_threshold``, some sample
    within the following ``window`` of time must not exceed it by more
    than ``slack`` — i.e. above the threshold the backlog has no
    sustained upward drift.  (The threshold plays S's role; the window
    must cover a subphase's worth of time.)  ``backlog_series`` is
    ``(time, backlog)`` samples in time order, as
    :meth:`~repro.core.trace.Trace.backlog_series` returns them.
    """
    violations: List[AOLemmaViolation] = []
    window_length = as_time(window)
    samples = list(backlog_series)
    times = [t for t, _ in samples]
    backlogs = [b for _, b in samples]
    for index, (t, backlog) in enumerate(samples):
        if backlog <= load_threshold:
            continue
        # The later samples within (t, t + window].
        stop = bisect_right(times, t + window_length, index + 1)
        if stop == index + 1:
            continue  # ran off the end of the horizon
        best = min(backlogs[index + 1 : stop])
        if best > backlog + slack:
            violations.append(
                AOLemmaViolation(
                    check="loaded-window drain",
                    detail=(
                        f"backlog {backlog} at t={t} grew to a window "
                        f"minimum of {best} — sustained growth above the "
                        f"threshold {load_threshold}"
                    ),
                )
            )
    return violations
