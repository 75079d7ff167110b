"""ASCII timeline rendering of executions (Figs. 2 and 4 of the paper).

No plotting stack is assumed: schedules render as fixed-width text,
one lane per station, glyph-coded per slot:

====== ==========================================
glyph  meaning
====== ==========================================
``.``  listening, channel silent
``b``  listening, channel busy
``A``  listening, acknowledgment heard
``#``  transmitting, collided / unacknowledged
``*``  transmitting, acknowledged (success)
``|``  slot boundary
====== ==========================================

The Fig. 2 bench prints a synchronous and an asynchronous execution of
three stations side by side; the Fig. 4 bench renders AO-ARRoW's
phase/subphase segmentation as a second annotation row.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from ..core.feedback import Feedback
from ..core.timebase import TimeLike, as_time
from ..core.trace import Trace
from ..obs.probes import SlotEndEvent
from ..analysis.stability import PhaseSegment


def _glyph(record: SlotEndEvent) -> str:
    if record.action.is_transmit:
        return "*" if record.feedback is Feedback.ACK else "#"
    if record.feedback is Feedback.ACK:
        return "A"
    if record.feedback is Feedback.BUSY:
        return "b"
    return "."


def _column(t: Fraction, t0: Fraction, t1: Fraction, width: int) -> int:
    if t1 <= t0:
        return 0
    position = (t - t0) / (t1 - t0) * width
    return max(0, min(width, int(position)))


def render_timeline(
    trace: Trace,
    stations: Optional[Sequence[int]] = None,
    start: TimeLike = 0,
    end: Optional[TimeLike] = None,
    width: int = 96,
) -> str:
    """Render recorded slots as one fixed-width lane per station.

    Requires the trace to have been recorded with ``record_slots=True``.
    Slots outside ``[start, end]`` are clipped; ``end`` defaults to the
    trace horizon.
    """
    if not trace.slots:
        return "(empty trace — record_slots was off or nothing ran)"
    t0 = as_time(start)
    t1 = as_time(end) if end is not None else trace.horizon()
    ids = sorted(stations if stations is not None else {s.station_id for s in trace.slots})

    lanes: Dict[int, List[str]] = {sid: [" "] * (width + 1) for sid in ids}
    for record in trace.slots:
        if record.station_id not in lanes:
            continue
        interval = record.interval
        if interval.end <= t0 or interval.start >= t1:
            continue
        a = _column(interval.start, t0, t1, width)
        b = _column(interval.end, t0, t1, width)
        lane = lanes[record.station_id]
        glyph = _glyph(record)
        for column in range(a, max(b, a + 1)):
            lane[column] = glyph
        lane[a] = "|"

    ruler = [" "] * (width + 1)
    marks = 8
    header_positions = []
    for k in range(marks + 1):
        t = t0 + (t1 - t0) * k / marks
        column = _column(t, t0, t1, width)
        ruler[column] = "+"
        header_positions.append((column, t))
    ruler_line = "t     " + "".join(ruler)
    labels = [" "] * (width + 12)
    for column, t in header_positions:
        text = f"{float(t):g}"
        for offset, ch in enumerate(text):
            if 6 + column + offset < len(labels):
                labels[6 + column + offset] = ch
    label_line = "".join(labels).rstrip()

    lines = [label_line, ruler_line]
    for sid in ids:
        lines.append(f"s{sid:<4d} " + "".join(lanes[sid]).rstrip())
    lines.append("")
    lines.append("legend: .=listen/silent  b=listen/busy  A=listen/ack  "
                 "#=transmit/collided  *=transmit/acked  |=slot boundary")
    return "\n".join(lines)


def render_phases(
    phases: Sequence[PhaseSegment],
    start: TimeLike = 0,
    end: Optional[TimeLike] = None,
    width: int = 96,
) -> str:
    """Render AO-ARRoW phases (Fig. 4): rounds as winner digits, gaps blank.

    Each round paints its winner's id digit across its span; phase
    boundaries are marked ``[`` ``)``.
    """
    if not phases:
        return "(no phases detected)"
    t0 = as_time(start)
    t1 = as_time(end) if end is not None else max(p.end for p in phases)
    lane = [" "] * (width + 1)
    for phase in phases:
        a = _column(phase.start, t0, t1, width)
        b = _column(phase.end, t0, t1, width)
        for round_segment in phase.rounds:
            ra = _column(round_segment.start, t0, t1, width)
            rb = _column(round_segment.end, t0, t1, width)
            digit = str(round_segment.winner % 10)
            for column in range(ra, max(rb, ra + 1)):
                lane[column] = digit
        lane[a] = "["
        if b <= width:
            lane[b] = ")"
    header = (
        f"phases={len(phases)}  "
        f"rounds={sum(len(p.rounds) for p in phases)}  "
        f"(digits are round winners; [ ) phase boundaries)"
    )
    return header + "\n" + "".join(lane).rstrip()
