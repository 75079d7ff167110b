"""Metrics registry: counters, gauges, histograms, built-ins.

The registry is deliberately small — three instrument kinds cover every
quantity the adversarial-queuing literature reports over time (queue
occupancy, collision mix, throughput over windows):

* :class:`Counter` — monotonically increasing event counts;
* :class:`Gauge` — instantaneous values with exact running max/min;
* :class:`Histogram` — exact value->count distribution (slot lengths
  and feedback kinds come from tiny discrete sets, so exact counting
  beats bucketing).

:class:`SimulationMetrics` wires a standard instrument set to a
:class:`~repro.obs.probes.ProbeBus`: slot-length distribution, feedback
mix (ack/silence/busy), per-station queue occupancy, collisions,
control messages, backlog, and wall-clock simulation throughput
(slot events per second).
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional

from .probes import (
    ArrivalEvent,
    CollisionEvent,
    DeliveryEvent,
    ProbeBus,
    SlotEndEvent,
)


def _plain(value: Any) -> Any:
    """JSON-safe rendering: exact rationals become strings, ints stay ints."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return value
    return str(value)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> Any:
        return self.value


class Gauge:
    """An instantaneous value with exact running extrema."""

    __slots__ = ("name", "value", "max", "min")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Any = None
        self.max: Any = None
        self.min: Any = None

    def set(self, value: Any) -> None:
        self.value = value
        if self.max is None or value > self.max:
            self.max = value
        if self.min is None or value < self.min:
            self.min = value

    def snapshot(self) -> Dict[str, Any]:
        return {
            "value": _plain(self.value),
            "max": _plain(self.max),
            "min": _plain(self.min),
        }


class Histogram:
    """Exact distribution of observed values over the whole run.

    A hot producer may count in integer units instead: it increments
    the tally :meth:`scaled_counts` hands it, and :attr:`counts`,
    :attr:`count`, :attr:`total` and :meth:`mean` fold every tally in
    as exact Fractions when they are read.
    """

    __slots__ = ("name", "_counts", "_count", "_total", "_scaled")

    def __init__(self, name: str) -> None:
        self.name = name
        self._counts: Dict[Any, int] = {}
        self._count = 0
        self._total: Any = 0
        self._scaled: Dict[int, Dict[Any, int]] = {}

    def observe(self, value: Any) -> None:
        self._counts[value] = self._counts.get(value, 0) + 1
        self._count += 1
        self._total = self._total + value

    def scaled_counts(self, denominator: int) -> Dict[Any, int]:
        """The live tally of values ``k / denominator``, keyed by ``k``.

        Each denominator has its own tally, so producers on different
        units never mix.
        """
        tally = self._scaled.get(denominator)
        if tally is None:
            tally = self._scaled[denominator] = {}
        return tally

    @property
    def counts(self) -> Dict[Any, int]:
        """Observation count per value, over the whole run."""
        if not self._scaled:
            return self._counts
        merged = dict(self._counts)
        for denominator, tally in self._scaled.items():
            for units, times in tally.items():
                value = Fraction(units, denominator)
                merged[value] = merged.get(value, 0) + times
        return merged

    @property
    def count(self) -> int:
        return self._count + sum(
            sum(tally.values()) for tally in self._scaled.values()
        )

    @property
    def total(self) -> Any:
        total = self._total
        for denominator, tally in self._scaled.items():
            if tally:
                units = sum(k * times for k, times in tally.items())
                total = total + Fraction(units, denominator)
        return total

    def mean(self) -> Optional[Any]:
        count = self.count
        return self.total / count if count else None

    def snapshot(self) -> Dict[str, Any]:
        ordered = sorted(self.counts.items(), key=lambda kv: str(kv[0]))
        return {
            "count": self.count,
            "mean": _plain(self.mean()),
            "counts": {str(k): v for k, v in ordered},
        }


class MetricsRegistry:
    """Named instruments, get-or-create, one JSON-safe snapshot call."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    def _get_or_create(self, name: str, kind: type, factory: Callable[[], Any]) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram, lambda: Histogram(name))

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Any]:
        """All instruments as plain JSON-serializable values."""
        return {
            name: self._instruments[name].snapshot() for name in self.names()
        }

    def render(self) -> List[str]:
        """Human-readable one-instrument-per-line summary."""
        lines: List[str] = []
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                lines.append(f"{name}: {instrument.value}")
            elif isinstance(instrument, Gauge):
                lines.append(
                    f"{name}: {instrument.value} (max {instrument.max}, "
                    f"min {instrument.min})"
                )
            else:
                parts = ", ".join(
                    f"{k}: {v}"
                    for k, v in sorted(
                        instrument.counts.items(), key=lambda kv: str(kv[0])
                    )
                )
                mean = instrument.mean()
                mean_text = f"{float(mean):.4g}" if mean is not None else "n/a"
                lines.append(
                    f"{name}: n={instrument.count} mean={mean_text} {{{parts}}}"
                )
        return lines


class SimulationMetrics:
    """The built-in instrument pack for one simulation run.

    Attach to a bus before the run starts::

        bus = ProbeBus()
        sim_metrics = SimulationMetrics()
        sim_metrics.attach(bus)
        Simulator(..., probes=bus).run(until_time=10_000)
        print("\\n".join(sim_metrics.registry.render()))

    Instruments (registry names):

    * ``slots`` — slot-end events processed;
    * ``slot_length`` — histogram of realized slot lengths, counted in
      each run's internal units and read as exact Fractions;
    * ``feedback.{ack,silence,busy}`` — the feedback mix;
    * ``collisions`` / ``control_messages`` — channel pathologies;
    * ``arrivals`` / ``delivered`` — packet flow;
    * ``backlog`` — gauge of undelivered packets (exact max);
    * ``queue.<sid>`` — per-station queue occupancy gauges;
    * events/sec wall-clock throughput via :meth:`events_per_second`.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._slots = reg.counter("slots")
        self._slot_length = reg.histogram("slot_length")
        self._feedback = {
            kind: reg.counter(f"feedback.{kind}") for kind in ("ack", "silence", "busy")
        }
        self._collisions = reg.counter("collisions")
        self._control = reg.counter("control_messages")
        self._arrivals = reg.counter("arrivals")
        self._delivered = reg.counter("delivered")
        self._backlog = reg.gauge("backlog")
        self._backlog.set(0)
        self._queues: Dict[int, Gauge] = {}
        # The timebase of the run being observed, and the slot-length
        # tally in its units.
        self._timebase: Any = None
        self._lengths: Dict[Any, int] = {}
        self._wall_start: Optional[float] = None
        self._wall_last: Optional[float] = None

    # -- subscriber callbacks ------------------------------------------

    def _use_timebase(self, timebase: Any) -> None:
        self._timebase = timebase
        # Internal units are ticks of 1/D on a lattice and exact
        # Fractions (units of 1/1) otherwise.
        self._lengths = self._slot_length.scaled_counts(
            timebase.denominator or 1
        )

    def _on_slot_end(self, event: SlotEndEvent) -> None:
        self._slots.value += 1
        if event.timebase is not self._timebase:
            self._use_timebase(event.timebase)
        lengths = self._lengths
        span = event.internal_interval
        length = span.end - span.start
        lengths[length] = lengths.get(length, 0) + 1
        # A Feedback member's value is its lower-cased name.
        self._feedback[event.feedback._value_].value += 1
        self._backlog.set(event.backlog)
        queue = self._queues.get(event.station_id)
        if queue is None:
            queue = self.registry.gauge(f"queue.{event.station_id}")
            self._queues[event.station_id] = queue
        queue.set(event.queue_size)
        action = event.action
        if action.is_transmit and not action.carries_packet:
            self._control.value += 1
        self._wall_last = time.perf_counter()

    def _on_collision(self, event: CollisionEvent) -> None:
        self._collisions.inc()

    def _on_arrival(self, event: ArrivalEvent) -> None:
        self._arrivals.inc()
        self._backlog.set(event.backlog)

    def _on_delivery(self, event: DeliveryEvent) -> None:
        self._delivered.inc()
        self._backlog.set(event.backlog)

    # -- lifecycle ------------------------------------------------------

    def attach(self, bus: ProbeBus) -> Callable[[], None]:
        """Subscribe every instrument; returns an unsubscriber."""
        self._wall_start = time.perf_counter()
        return bus.subscribe_many(
            {
                "slot_end": self._on_slot_end,
                "collision": self._on_collision,
                "arrival": self._on_arrival,
                "delivery": self._on_delivery,
            }
        )

    # -- derived quantities --------------------------------------------

    def events_per_second(self) -> Optional[float]:
        """Wall-clock simulation throughput over the observed span."""
        if self._wall_start is None or self._wall_last is None:
            return None
        elapsed = self._wall_last - self._wall_start
        if elapsed <= 0:
            return None
        return self._slots.value / elapsed

    def snapshot(self) -> Dict[str, Any]:
        """Registry snapshot plus the derived throughput."""
        snap = self.registry.snapshot()
        eps = self.events_per_second()
        snap["events_per_second"] = round(eps, 2) if eps is not None else None
        return snap

    def render(self) -> List[str]:
        lines = self.registry.render()
        eps = self.events_per_second()
        if eps is not None:
            lines.append(f"events_per_second: {eps:.0f}")
        return lines
