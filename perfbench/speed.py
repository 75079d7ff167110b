"""The host's current speed, from a fixed reference task.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same request sequence takes up to twice as long in a slow spell as
in a fast one, and a spell lasts from a few seconds to minutes.  A
median over a run cannot remove a drift that outlasts the run, so every
timing the benchmark reports is scaled to a fixed reference speed::

    reported = measured * (REFERENCE_S / probe) ** SENSITIVITY

where ``probe`` is the time of ``probe()`` taken next to the measured
interval.  The reference task is plain interpreter work (a heap, a
dict, method calls), the kind that dominates the simulator's per-event
loop, and it calls nothing from ``repro``, so a change to the program
under test cannot move it.  A program that gets faster reads faster; a
host that gets slower mostly does not.
"""

from __future__ import annotations

import heapq
from time import perf_counter

#: Seconds one ``probe()`` takes at the reference speed; a reported time
#: is in seconds at that speed.  (About a fast spell of a 2-vCPU VM.)
REFERENCE_S = 0.002

#: How much of the probe's slowdown the workloads share.  The probe is a
#: tight interpreter loop; the workloads also wait on pipes, sockets,
#: files, forks and memory, which a slow spell slows less.  Over 188
#: rounds of the three workloads on a 2-vCPU VM, with the probe ranging
#: over 0.44-1.17 of the reference speed, log round wall time fell with
#: log probe speed at slopes of 0.52-0.66, and this exponent left the
#: smallest spread of run medians.
SENSITIVITY = 0.7


class _Station:
    __slots__ = ("queue", "sent")

    def __init__(self) -> None:
        self.queue = 0
        self.sent = 0

    def step(self, feedback: int) -> int:
        if feedback & 1:
            self.sent += 1
        else:
            self.queue += 1
        return self.queue - self.sent


def _task() -> float:
    """Seconds one run of the fixed reference task takes."""
    started = perf_counter()
    stations = [_Station() for _ in range(16)]
    heap: list = []
    counts: dict = {}
    total = 0
    for i in range(2400):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        counts[i & 127] = counts.get(i & 127, 0) + 1
        total += stations[i & 15].step(i)
        if len(heap) > 64:
            total += heapq.heappop(heap)[1]
    if total == -1:  # never true; keeps the work from being dead code
        raise AssertionError
    return perf_counter() - started


def probe() -> float:
    """The reference task's time right now: the fastest of three runs,
    so that a preemption during one run does not read as a slow host."""
    return min(_task() for _ in range(3))


def scale(measured: float, before: float, after: float) -> float:
    """``measured`` seconds at the reference speed, given the probe times
    taken just before and just after the measured interval."""
    return measured * (REFERENCE_S * 2.0 / (before + after)) ** SENSITIVITY
