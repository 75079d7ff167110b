"""Shared builders for the test suite."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional

from repro.algorithms import AOArrow, CAArrow, MBTFLike, RRW
from repro.arrivals import UniformRate
from repro.core import Feedback, Simulator, StationAlgorithm, Trace, make_interval
from repro.timing import SlotAdversary, Synchronous, worst_case_for


def make_ao(n: int, R) -> Dict[int, StationAlgorithm]:
    return {i: AOArrow(i, n, R) for i in range(1, n + 1)}


def make_ca(n: int, R) -> Dict[int, StationAlgorithm]:
    return {i: CAArrow(i, n, R) for i in range(1, n + 1)}


def make_rrw(n: int) -> Dict[int, StationAlgorithm]:
    return {i: RRW(i, n) for i in range(1, n + 1)}


def make_mbtf(n: int) -> Dict[int, StationAlgorithm]:
    return {i: MBTFLike(i, n) for i in range(1, n + 1)}


def run_loaded(
    algorithms: Dict[int, StationAlgorithm],
    R,
    rho,
    horizon,
    adversary: Optional[SlotAdversary] = None,
    assumed_cost=None,
    record_slots: bool = False,
) -> Simulator:
    """Run a uniform-rate workload against ``algorithms`` for ``horizon``."""
    adversary = adversary if adversary is not None else worst_case_for(R)
    assumed_cost = assumed_cost if assumed_cost is not None else R
    source = UniformRate(
        rho=rho, targets=sorted(algorithms), assumed_cost=assumed_cost
    )
    sim = Simulator(
        algorithms,
        adversary,
        max_slot_length=R,
        arrival_source=source,
        trace=Trace(record_slots=record_slots),
    )
    sim.run(until_time=horizon)
    return sim


def scan_feedback(records, slot) -> Feedback:
    """Section II's feedback for ``slot`` by a scan of every record.

    The brute-force reference for ``Channel.feedback_for``.  ``records``
    are ``(start, end, successful)`` triples; ``slot`` is an interval.
    """
    if any(ok and slot.start < end <= slot.end for _, end, ok in records):
        return Feedback.ACK
    if any(start < slot.end and slot.start < end for start, end, _ in records):
        return Feedback.BUSY
    return Feedback.SILENCE


def replay_in_event_order(channel, transmissions, slots, queries_first=False):
    """Record transmissions and query slots on ``channel`` in event order.

    A transmission ``(station_id, start, end)`` happens at its start; a
    slot's feedback is asked at its end.  ``queries_first`` picks the
    order at equal instants.  Returns the transmission records and the
    slots' feedback, each in input order.
    """
    tx_rank, query_rank = (1, 0) if queries_first else (0, 1)
    events = [(Fraction(a), tx_rank, i) for i, (_, a, _) in enumerate(transmissions)]
    events += [(slot.end, query_rank, i) for i, slot in enumerate(slots)]
    events.sort()
    records = [None] * len(transmissions)
    feedback = [None] * len(slots)
    for _, rank, i in events:
        if rank == tx_rank:
            sid, a, b = transmissions[i]
            records[i] = channel.begin_transmission(sid, make_interval(a, b), None)
        else:
            feedback[i] = channel.feedback_for(slots[i])
    return records, feedback
