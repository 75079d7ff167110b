"""Execution metrics: throughput, latency, queue statistics.

Thin, well-defined aggregations over a finished
:class:`~repro.core.simulator.Simulator` — the quantities every bench
table reports next to the paper's predicted bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Dict, List, Optional, Type, TypeVar

from ..core.simulator import Simulator
from ..core.timebase import Time

_Frozen = TypeVar("_Frozen")


def setstate_by_field(cls: Type[_Frozen]) -> Type[_Frozen]:
    """Give the frozen, slotted dataclass *cls* a ``__setstate__`` that
    restores the generated ``__getstate__``'s list with one
    ``object.__setattr__`` per field, in field order.

    dataclasses' own version looks the fields up again for every object
    it loads, which each cache read pays per result.  Pickling is left
    to the generated ``__getstate__``, so stored bytes do not change.
    Apply it above ``@dataclass``: ``slots=True`` overwrites a
    ``__setstate__`` written in the class body on Python 3.10 and early
    3.11.
    """
    names = tuple(f.name for f in fields(cls))
    setter = object.__setattr__

    def __setstate__(self, state: list) -> None:
        for name, value in zip(names, state):
            setter(self, name, value)

    __setstate__.__qualname__ = f"{cls.__qualname__}.__setstate__"
    cls.__setstate__ = __setstate__
    return cls


@setstate_by_field
@dataclass(frozen=True, slots=True)
class RunMetrics:
    """Summary of one simulation run.

    ``throughput_cost`` is delivered *cost* per time unit (the paper's
    natural units: a rate-``rho`` adversary is matched by throughput
    approaching ``rho``); ``throughput_packets`` is packets per time.
    Latency statistics are over delivered packets only.
    """

    horizon: Time
    delivered: int
    delivered_cost: Fraction
    backlog: int
    max_backlog: int
    collisions: int
    control_transmissions: int
    throughput_cost: Fraction
    throughput_packets: Fraction
    mean_latency: Optional[Fraction]
    max_latency: Optional[Fraction]
    per_station_queue: Dict[int, int]

    def row(self) -> str:
        """One formatted table row (used by the bench harness)."""
        lat = f"{float(self.mean_latency):9.2f}" if self.mean_latency is not None else "      n/a"
        return (
            f"delivered={self.delivered:7d} backlog={self.backlog:6d} "
            f"max_backlog={self.max_backlog:6d} thr={float(self.throughput_cost):6.3f} "
            f"coll={self.collisions:5d} lat={lat}"
        )


def collect_metrics(sim: Simulator) -> RunMetrics:
    """Aggregate a finished run into :class:`RunMetrics`."""
    sim.channel.drain_all(sim.now)
    delivered = sim.delivered_packets
    delivered_cost = sum(
        (p.cost for p in delivered if p.cost is not None), Fraction(0)
    )
    latencies: List[Fraction] = [
        p.latency for p in delivered if p.latency is not None
    ]
    horizon = sim.now if sim.now > 0 else Fraction(1)
    return RunMetrics(
        horizon=sim.now,
        delivered=len(delivered),
        delivered_cost=delivered_cost,
        backlog=sim.total_backlog,
        max_backlog=sim.trace.max_backlog,
        collisions=sim.channel.stats.collisions,
        control_transmissions=sim.channel.stats.control_transmissions,
        throughput_cost=delivered_cost / horizon,
        throughput_packets=Fraction(len(delivered)) / horizon,
        mean_latency=(sum(latencies, Fraction(0)) / len(latencies)) if latencies else None,
        max_latency=max(latencies) if latencies else None,
        per_station_queue=sim.queue_sizes(),
    )
