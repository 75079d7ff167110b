"""Event-driven simulator for the partially asynchronous MAC.

The simulator owns the four moving parts of the model in Section II:

* one :class:`~repro.core.station.StationAlgorithm` per station, seeing
  only per-slot feedback and its own queue length;
* the :class:`~repro.core.channel.Channel`, which resolves real-time
  transmission overlap exactly;
* a *slot adversary* deciding the length of every slot (within
  ``[1, R]``) at the moment the slot begins, with full knowledge of the
  global state (see :mod:`repro.timing.adversary`);
* an *arrival source* injecting packets at adversary-chosen instants
  (see :mod:`repro.arrivals`).

Events are slot boundaries, processed in ``(time, station_id)`` order.
All timestamps are exact rationals, so executions are bit-for-bit
deterministic and reproducible.

Internally the simulator runs on a per-run *timebase*: when the slot
adversary and arrival source both declare that every time they produce
lies on a lattice ``k / D`` (see
:meth:`~repro.core.timebase.declared_lattice_denominator`), all internal
times — heap keys, slot boundaries, channel intervals — are plain
``int`` ticks, converted back to exact Fractions only at the
observation boundary (trace, probes, packets, public accessors).  The
observable execution is bit-for-bit identical either way; components
that cannot declare a lattice (adaptive/look-ahead adversaries, the
paper's mirror and collision-forcing constructions) simply fall back to
the Fraction path for the whole run.
"""

from __future__ import annotations

import heapq
from dataclasses import astuple, dataclass
from fractions import Fraction
from math import lcm
from time import perf_counter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..obs.probes import ArrivalEvent, DeliveryEvent, ProbeBus, SlotEndEvent
from .channel import Channel
from .collector import collector_paused
from .errors import ConfigurationError, ProtocolError, SimulationError
from .feedback import Feedback
from .packet import Packet, PacketQueue
from .station import Action, SlotContext, StationAlgorithm
from .timebase import (
    FRACTION_TIMEBASE,
    MAX_LATTICE_DENOMINATOR,
    FractionTimebase,
    Interval,
    OffLatticeError,
    TickLattice,
    Time,
    TimeLike,
    Timebase,
    as_time,
    declared_lattice_denominator,
)
from .trace import Trace

#: How many events between channel prunes (amortizes the O(history) scan).
_PRUNE_EVERY = 512

#: Expected slot ends per tick at which ``engine="auto"`` promotes an
#: eligible run: narrower ticks cannot repay the batch kernel's fixed
#: per-tick NumPy cost, so the object loop is faster there.
_BATCH_CROSSOVER = 20

#: Sentinel threshold for "the arrival source can never fire again".
#: Compares greater than every internal time (int ticks or Fraction).
_NEVER = float("inf")


@dataclass(slots=True)
class StationRuntime:
    """Mutable per-station bookkeeping owned by the simulator.

    ``slot_start`` / ``slot_end`` / ``slot_interval`` are in the run's
    internal timebase units (identical to public time under the default
    Fraction timebase; integer ticks under a lattice).
    """

    station_id: int
    algorithm: StationAlgorithm
    queue: PacketQueue
    slot_index: int = -1
    slot_start: Time = Fraction(0)
    slot_end: Time = Fraction(0)
    slot_interval: Optional[Interval] = None
    action: Optional[Action] = None
    aboard_packet: Optional[Packet] = None
    slots_elapsed: int = 0


class Simulator:
    """Deterministic discrete-event simulation of one execution.

    Args:
        algorithms: The station automata.  Either a sequence (stations
            get ids ``1..n`` in order, matching the paper's ID space
            ``[n]``) or a mapping from explicit ids to algorithms.
        slot_adversary: Object with ``next_slot_length(sim, station_id,
            slot_index) -> TimeLike``; every returned length is
            validated against ``[1, R]``.
        max_slot_length: The model bound ``R`` (known to algorithms —
            they were constructed with it; the simulator only enforces
            it against the adversary).
        arrival_source: Optional packet injector; ``None`` means no
            arrivals (the SST setting, where algorithms that transmit
            packets should be given initial packets via
            ``initial_packets``).
        initial_packets: Number of packets pre-loaded into every queue
            at time 0 (before the first action is chosen).
        trace: Optional :class:`~repro.core.trace.Trace` sink.  With
            ``record_slots`` on, its slot list is subscribed to the
            ``slot_end`` probe (on ``probes``, or on a bus built for
            it), so a recorded slot is the probe event itself.
        keep_channel_history: Disable channel pruning so every
            transmission record survives the run — required by post-hoc
            analyses that walk the success record (phase segmentation,
            figure rendering).  Leave off for long stability runs.
        probes: Optional :class:`~repro.obs.probes.ProbeBus`.  The
            simulator fires ``slot_end`` / ``arrival`` / ``delivery``
            events on it (and the channel fires ``collision``); with no
            bus — or a bus nobody subscribed to — the per-slot cost is
            a single attribute check per probe point.
        profiler: Optional :class:`~repro.obs.profiling.PhaseProfiler`;
            when present, wall time of adversary calls, channel feedback
            resolution and algorithm steps is attributed per phase.
        timebase: Internal time representation.  ``"auto"`` (default)
            runs on an integer tick lattice when the adversary and
            source declare one, else on exact Fractions; ``"fraction"``
            forces the Fraction path; ``"lattice"`` demands the fast
            path and raises :class:`ConfigurationError` naming the
            component that prevents it.  A
            :class:`~repro.core.timebase.TickLattice` or
            :class:`~repro.core.timebase.FractionTimebase` instance is
            used as given.  Observable results are bit-for-bit
            identical across timebases.
        engine: Inner-loop implementation.  ``"auto"`` (default) uses
            the NumPy whole-fleet kernel (:mod:`repro.core.batch`) when
            the run is batch-eligible — on the tick lattice, no
            per-event observers, vector programs registered for the
            slot adversary and the (homogeneous) station algorithm
            class — *and* its expected slot ends per tick reach the
            batch crossover (about 20; narrower ticks run faster on
            the object loop), and the per-object event loop otherwise.
            :attr:`engine_detail` records how the choice fell: the
            matched vector programs on promotion, the named blocker (or
            the too-narrow tick width) on demotion.  ``"batch"``
            demands the kernel and raises :class:`ConfigurationError`
            naming the blocker; ``"object"`` forces the per-object
            loop.  Observable results are bit-for-bit identical across
            engines.
    """

    def __init__(
        self,
        algorithms: Union[Sequence[StationAlgorithm], Mapping[int, StationAlgorithm]],
        slot_adversary,
        max_slot_length: TimeLike,
        arrival_source=None,
        initial_packets: int = 0,
        trace: Optional[Trace] = None,
        keep_channel_history: bool = False,
        probes: Optional[ProbeBus] = None,
        profiler=None,
        timebase: Union[str, Timebase] = "auto",
        engine: str = "auto",
    ) -> None:
        self.keep_channel_history = keep_channel_history
        if isinstance(algorithms, Mapping):
            items = sorted(algorithms.items())
        else:
            items = list(enumerate(algorithms, start=1))
        if not items:
            raise ConfigurationError("at least one station is required")
        ids = [sid for sid, _ in items]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate station ids: {ids}")

        self.max_slot_length = as_time(max_slot_length)
        if self.max_slot_length < 1:
            raise ConfigurationError(
                f"R must be at least 1, got {self.max_slot_length}"
            )
        self.slot_adversary = slot_adversary
        self.arrival_source = arrival_source
        self.trace = trace if trace is not None else Trace()
        if self.trace.record_slots:
            if probes is None:
                probes = ProbeBus()
            probes.subscribe("slot_end", self.trace.slots.append)
        self.probes = probes
        self.profiler = profiler
        self._timebase = self._resolve_timebase(timebase)
        self._max_slot_internal = self._timebase.to_internal(self.max_slot_length)
        self.channel = Channel(probes=probes, timebase=self._timebase)

        self.stations: Dict[int, StationRuntime] = {
            sid: StationRuntime(
                station_id=sid, algorithm=algo, queue=PacketQueue(station_id=sid)
            )
            for sid, algo in items
        }
        self._station_ids: Tuple[int, ...] = tuple(ids)
        # Polling-skip fast path: sources exposing ``next_arrival_hint``
        # promise no arrival strictly before the hinted instant, letting
        # the event loop skip ``arrivals_until`` entirely until then.
        self._arrival_hint = getattr(arrival_source, "next_arrival_hint", None)
        self._arrivals_not_before = (
            _NEVER if arrival_source is None else self._timebase.zero
        )
        self._now_internal = self._timebase.zero
        self._now_exact: Optional[Time] = None
        self.events_processed = 0
        self._event_heap: List[Tuple[object, int]] = []
        self._pending_arrivals: Dict[int, List[Tuple[object, Packet]]] = {
            sid: [] for sid in ids
        }
        self._next_packet_id = 0
        self._total_backlog = 0
        self._delivered_packets: List[Packet] = []
        self._started = False

        if initial_packets:
            zero = self._timebase.zero
            for sid in ids:
                for _ in range(initial_packets):
                    self._inject(sid, zero)

        # Engine resolution happens last: eligibility inspects the
        # fully-constructed simulator (timebase, trace, fleet).
        self._engine_requested = engine
        self._engine, self._engine_detail = self._resolve_engine(engine)
        self._batch_kernel = None

    # ------------------------------------------------------------------
    # Timebase selection
    # ------------------------------------------------------------------

    def _resolve_timebase(self, requested: Union[str, Timebase]) -> Timebase:
        # ``_timebase_detail`` records why the run is NOT on a lattice
        # (None when it is); engine auto-detection folds it into its
        # own demotion reason.
        self._timebase_detail: Optional[str] = None
        if isinstance(requested, (FractionTimebase, TickLattice)):
            if not requested.is_lattice:
                self._timebase_detail = "a FractionTimebase instance was supplied"
            return requested
        if requested == "fraction":
            self._timebase_detail = "timebase='fraction' was requested"
            return FRACTION_TIMEBASE
        if requested not in ("auto", "lattice"):
            raise ConfigurationError(
                "timebase must be 'auto', 'lattice', 'fraction' or a "
                f"timebase instance, got {requested!r}"
            )
        lattice, why_not = self._detect_lattice()
        if lattice is not None:
            return lattice
        if requested == "lattice":
            raise ConfigurationError(
                f"timebase='lattice' requested but {why_not}"
            )
        self._timebase_detail = why_not
        return FRACTION_TIMEBASE

    def _detect_lattice(self):
        """Try to build a per-run tick lattice from component declarations.

        Returns ``(TickLattice, None)`` on success or ``(None, reason)``
        when some component prevents the fast path.
        """
        adversary_den = declared_lattice_denominator(self.slot_adversary)
        if adversary_den is None:
            return None, (
                f"slot adversary {type(self.slot_adversary).__name__} "
                "does not declare a time lattice"
            )
        source_den = 1
        if self.arrival_source is not None:
            source_den = declared_lattice_denominator(self.arrival_source)
            if source_den is None:
                return None, (
                    f"arrival source {type(self.arrival_source).__name__} "
                    "does not declare a time lattice"
                )
        denominator = lcm(
            adversary_den, source_den, self.max_slot_length.denominator
        )
        if denominator > MAX_LATTICE_DENOMINATOR:
            return None, (
                f"combined lattice denominator {denominator} exceeds "
                f"{MAX_LATTICE_DENOMINATOR}"
            )
        return TickLattice(denominator), None

    # ------------------------------------------------------------------
    # Engine selection
    # ------------------------------------------------------------------

    def _resolve_engine(self, requested: str):
        """Pick the inner loop; return ``(engine, detail)``.

        ``detail`` names the demotion blocker when ``"auto"`` falls back
        to the object path — an ineligible component, or ticks too
        narrow to repay the kernel — and the promotion path (which
        vector programs matched) when the batch kernel is selected.
        """
        if requested == "object":
            return "object", None
        if requested not in ("auto", "batch"):
            raise ConfigurationError(
                "engine must be 'auto', 'batch' or 'object', "
                f"got {requested!r}"
            )
        from .batch import batch_blocker, expected_tick_width, promotion_detail

        blocker = batch_blocker(self)
        if blocker is None:
            width = expected_tick_width(self)
            if requested == "batch" or width >= _BATCH_CROSSOVER:
                return "batch", promotion_detail(self)
            return "object", (
                f"batch-eligible, but ~{float(width):.3g} events per tick "
                f"is below the batch crossover ({_BATCH_CROSSOVER}): the "
                "object loop is faster"
            )
        if requested == "batch":
            raise ConfigurationError(f"engine='batch' requested but {blocker}")
        return "object", blocker

    # ------------------------------------------------------------------
    # Public accessors (also the adversaries' observation surface)
    # ------------------------------------------------------------------

    @property
    def timebase(self) -> Timebase:
        """The run's internal time representation (read-only)."""
        return self._timebase

    @property
    def engine(self) -> str:
        """The resolved inner loop, ``"batch"`` or ``"object"``."""
        return self._engine

    @property
    def engine_detail(self) -> Optional[str]:
        """How the engine resolved: the demotion blocker when ``"auto"``
        fell back to the object path, the promotion path (matched vector
        programs) when the batch kernel was selected, ``None`` when the
        object loop was forced."""
        return self._engine_detail

    @property
    def engine_described(self) -> str:
        """The resolved engine with its family: ``"object"``,
        ``"batch(adaptive)"`` or ``"batch(nonadaptive)"`` — recorded in
        run-history extras so adaptive-batch runs stay distinguishable."""
        if self._engine != "batch":
            return self._engine
        from .batch import engine_family

        return engine_family(self)

    @property
    def now(self) -> Time:
        """Current simulation time, always an exact public Fraction."""
        if self._now_exact is not None:
            return self._now_exact
        return self._timebase.to_public(self._now_internal)

    @property
    def station_ids(self) -> Tuple[int, ...]:
        """All station ids, ascending (cached tuple)."""
        return self._station_ids

    @property
    def n_stations(self) -> int:
        return len(self.stations)

    def queue_size(self, station_id: int) -> int:
        """Current queue length of one station (pending arrivals excluded)."""
        return len(self.stations[station_id].queue)

    @property
    def total_backlog(self) -> int:
        """Packets injected but not yet delivered, across all stations.

        Includes packets that arrived but are not yet visible to their
        station (arrival instants between slot boundaries) — exactly the
        paper's "packets that were already injected but have not yet
        been transmitted successfully".
        """
        return self._total_backlog

    @property
    def delivered_packets(self) -> List[Packet]:
        """Every packet delivered so far, in delivery order."""
        return self._delivered_packets

    def algorithm(self, station_id: int) -> StationAlgorithm:
        return self.stations[station_id].algorithm

    # ------------------------------------------------------------------
    # Packet injection
    # ------------------------------------------------------------------

    def _inject(self, station_id: int, at) -> Packet:
        """Create a packet and hold it pending until the next slot boundary.

        ``at`` is in internal units; the packet's public ``arrival_time``
        is the exact Fraction.
        """
        at_public = self._timebase.to_public(at)
        packet = Packet(
            packet_id=self._next_packet_id,
            station_id=station_id,
            arrival_time=at_public,
        )
        self._next_packet_id += 1
        self._pending_arrivals[station_id].append((at, packet))
        self._total_backlog += 1
        self.trace.on_backlog_change(at_public, self._total_backlog)
        probes = self.probes
        if probes is not None and probes.arrival:
            event = ArrivalEvent(
                packet_id=packet.packet_id,
                station_id=station_id,
                at=at_public,
                backlog=self._total_backlog,
            )
            for callback in probes.arrival:
                callback(event)
        return packet

    def _pump_arrivals(self, upto) -> List[int]:
        """Pull all arrivals with time <= ``upto`` (internal units).

        The source speaks public time: it receives the exact Fraction
        bound and its returned instants are converted back onto the
        internal timebase.  When the source hints at its next injection
        instant, events strictly before the hint skip the poll: for
        integer ticks ``upto < ceil(hint * D)`` iff ``upto/D < hint``,
        so the skip is exact.

        Returns the station ids injected into (with multiplicity), so
        the batch kernel can track which pending lists became nonempty.
        """
        injected: List[int] = []
        if upto < self._arrivals_not_before:
            return injected
        if self.arrival_source is None:
            return injected
        timebase = self._timebase
        upto_public = timebase.to_public(upto)
        for at, station_id in self.arrival_source.arrivals_until(self, upto_public):
            exact = as_time(at)
            if exact > upto_public:
                raise SimulationError(
                    f"arrival source produced a future arrival {exact} > {upto_public}"
                )
            if station_id not in self.stations:
                raise SimulationError(f"arrival for unknown station {station_id}")
            try:
                internal = timebase.to_internal(exact)
            except OffLatticeError as err:
                raise SimulationError(
                    f"arrival at {exact} is off the run's declared "
                    f"1/{timebase.denominator} time lattice; fix the arrival "
                    "source's lattice_denominator() declaration or construct "
                    "the Simulator with timebase='fraction'"
                ) from err
            self._inject(station_id, internal)
            injected.append(station_id)
        hint_fn = self._arrival_hint
        if hint_fn is not None:
            hint = hint_fn()
            self._arrivals_not_before = (
                _NEVER if hint is None else timebase.ceil_internal(hint)
            )
        return injected

    def _deliver_pending(self, runtime: StationRuntime, upto) -> None:
        """Move arrivals with time <= ``upto`` into the station's queue.

        Called at the station's own slot boundary: the paper makes
        injected packets visible to the algorithm between consecutive
        slots.
        """
        pending = self._pending_arrivals[runtime.station_id]
        if not pending:
            return
        still_pending: List[Tuple[object, Packet]] = []
        for at, packet in pending:
            if at <= upto:
                runtime.queue.push(packet)
            else:
                still_pending.append((at, packet))
        self._pending_arrivals[runtime.station_id] = still_pending

    # ------------------------------------------------------------------
    # Slot machinery
    # ------------------------------------------------------------------

    def _validate_action(self, runtime: StationRuntime, action: Action) -> None:
        if not action.is_transmit:
            return
        if action.carries_packet:
            if not runtime.queue:
                raise ProtocolError(
                    f"station {runtime.station_id}: "
                    f"{type(runtime.algorithm).__name__} transmitted a packet "
                    "from an empty queue"
                )
        elif not runtime.algorithm.uses_control_messages:
            raise ProtocolError(
                f"station {runtime.station_id}: "
                f"{type(runtime.algorithm).__name__} sent a control message "
                "but declares uses_control_messages=False"
            )

    def _begin_slot(self, runtime: StationRuntime, start, action: Action) -> None:
        """Open the next slot: fix its adversarial length, start any transmission."""
        if action.is_transmit:
            self._validate_action(runtime, action)
        # Commit the station's intent before consulting the adversary:
        # the model's online adversary observes actions when fixing slot
        # lengths, so ``runtime.action`` must already describe the slot
        # being opened (slot_start/end still describe the previous one).
        runtime.action = action
        profiler = self.profiler
        if profiler is None:
            raw_length = self.slot_adversary.next_slot_length(
                self, runtime.station_id, runtime.slot_index + 1
            )
        else:
            began = perf_counter()
            raw_length = self.slot_adversary.next_slot_length(
                self, runtime.station_id, runtime.slot_index + 1
            )
            profiler.add("adversary", perf_counter() - began)
        try:
            length = self._timebase.check_slot_length(
                raw_length, self._max_slot_internal
            )
        except OffLatticeError as err:
            raise SimulationError(
                f"slot adversary {type(self.slot_adversary).__name__} produced "
                f"slot length {as_time(raw_length)} off the run's declared "
                f"1/{self._timebase.denominator} time lattice; fix its "
                "lattice_denominator() declaration or construct the Simulator "
                "with timebase='fraction'"
            ) from err
        self.open_slot(runtime, start, length)

    def open_slot(self, runtime: StationRuntime, start, length) -> None:
        """Fix the pending slot's length and schedule its end event.

        Split out of :meth:`_begin_slot` so that look-ahead adversaries
        (see :mod:`repro.timing.lookahead`) can clone a simulator that
        is mid-decision and complete the probed slot with a candidate
        length of their choosing.  ``start`` and ``length`` are in the
        run's internal timebase units; look-ahead adversaries never
        declare a lattice, so for them internal units are plain public
        Fractions.
        """
        runtime.slot_index += 1
        runtime.slot_start = start
        end = start + length
        runtime.slot_end = end
        interval = Interval(start, end)
        runtime.slot_interval = interval
        runtime.aboard_packet = None
        action = runtime.action
        if action is not None and action.is_transmit:
            aboard = runtime.queue.head() if action.carries_packet else None
            runtime.aboard_packet = aboard
            self.channel.begin_transmission(runtime.station_id, interval, aboard)
        heapq.heappush(self._event_heap, (end, runtime.station_id))

    def _start(self) -> None:
        """Open every station's first slot at time 0."""
        self._started = True
        zero = self._timebase.zero
        with collector_paused():
            self._pump_arrivals(zero)
            for sid in self._station_ids:
                runtime = self.stations[sid]
                self._deliver_pending(runtime, zero)
                ctx = SlotContext(
                    feedback=None, queue_size=len(runtime.queue), slot_index=0
                )
                if self.profiler is None:
                    action = runtime.algorithm.first_action(ctx)
                else:
                    action = self._timed_algorithm_step(
                        runtime.algorithm.first_action, ctx
                    )
                self._begin_slot(runtime, zero, action)

    def _timed_algorithm_step(self, step: Callable[[SlotContext], Action], ctx: SlotContext) -> Action:
        """Run one automaton step, attributing its wall time when profiling."""
        profiler = self.profiler
        if profiler is None:
            return step(ctx)
        began = perf_counter()
        action = step(ctx)
        profiler.add("algorithm", perf_counter() - began)
        return action

    def _compute_feedback(self, runtime: StationRuntime) -> Feedback:
        return self.channel.feedback_for(runtime.slot_interval)

    def _process_event(self) -> None:
        end_time, sid = heapq.heappop(self._event_heap)
        runtime = self.stations[sid]
        if end_time != runtime.slot_end:
            raise SimulationError(
                f"event heap desync for station {sid}: {end_time} != {runtime.slot_end}"
            )
        self._now_internal = end_time
        self._now_exact = None
        # Inlined polling-skip check (``_pump_arrivals`` re-checks, but
        # skipping the call entirely is measurable at event rate).
        if end_time >= self._arrivals_not_before:
            self._pump_arrivals(end_time)
        profiler = self.profiler
        if profiler is None:
            feedback = self._compute_feedback(runtime)
        else:
            began = perf_counter()
            feedback = self._compute_feedback(runtime)
            profiler.add("channel", perf_counter() - began)
        probes = self.probes
        timebase = self._timebase

        delivered = False
        if (
            feedback is Feedback.ACK
            and runtime.action is not None
            and runtime.action.is_transmit
            and runtime.aboard_packet is not None
        ):
            # A transmitting station's ACK can only certify its own
            # transmission (any other success would have overlapped it).
            packet = runtime.queue.pop_delivered()
            if packet is not runtime.aboard_packet:
                raise SimulationError(
                    f"station {sid}: queue head changed under a transmission"
                )
            end_public = timebase.to_public(end_time)
            packet.mark_delivered(
                at=end_public,
                cost=timebase.to_public(runtime.slot_interval.duration),
            )
            self._delivered_packets.append(packet)
            self._total_backlog -= 1
            self.trace.on_backlog_change(end_public, self._total_backlog)
            delivered = True
            if probes is not None and probes.delivery:
                event = DeliveryEvent(
                    packet_id=packet.packet_id,
                    station_id=sid,
                    at=end_public,
                    latency=packet.latency,
                    cost=packet.cost,
                    backlog=self._total_backlog,
                )
                for callback in probes.delivery:
                    callback(event)

        self._deliver_pending(runtime, end_time)
        runtime.slots_elapsed += 1

        if probes is not None and probes.slot_end and runtime.action is not None:
            carried = runtime.aboard_packet
            # Positional, in field order: matching ten keywords costs
            # about as much as the rest of the construction.
            event = SlotEndEvent(
                sid,
                runtime.slot_index,
                runtime.slot_interval,
                timebase,
                runtime.action,
                feedback,
                len(runtime.queue),
                delivered,
                self._total_backlog,
                carried.packet_id if carried else None,
            )
            for callback in probes.slot_end:
                callback(event)

        ctx = SlotContext(
            feedback=feedback,
            queue_size=len(runtime.queue),
            slot_index=runtime.slot_index + 1,
        )
        if profiler is None:
            next_action = runtime.algorithm.on_slot_end(ctx)
        else:
            next_action = self._timed_algorithm_step(
                runtime.algorithm.on_slot_end, ctx
            )
        self._begin_slot(runtime, end_time, next_action)

        self.events_processed += 1
        if (
            not self.keep_channel_history
            and self.events_processed % _PRUNE_EVERY == 0
        ):
            low_water = min(rt.slot_start for rt in self.stations.values())
            self.channel._prune_internal(low_water)

    # ------------------------------------------------------------------
    # Run loops
    # ------------------------------------------------------------------

    def run(
        self,
        until_time: Optional[TimeLike] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[["Simulator"], bool]] = None,
    ) -> "Simulator":
        """Advance the simulation until a stopping condition triggers.

        ``until_time`` stops once the next event would exceed the given
        time (so all slots *ending* by that time are processed).
        ``max_events`` bounds the number of slot-end events.
        ``stop_when`` is evaluated after every processed event (so it
        forces the per-object loop: on a batch-engine simulator an
        ``"auto"``-resolved run silently falls back, a forced
        ``engine="batch"`` run raises).
        Returns ``self`` for chaining.
        """
        if until_time is None and max_events is None and stop_when is None:
            raise ConfigurationError(
                "run() needs at least one stopping condition"
            )
        if (
            stop_when is not None
            and self._engine == "batch"
            and self._engine_requested == "batch"
        ):
            raise ConfigurationError(
                "stop_when is evaluated per event and requires the object "
                "engine; construct the Simulator with engine='auto' or "
                "engine='object'"
            )
        limit_time = as_time(until_time) if until_time is not None else None
        limit_internal = (
            self._timebase.floor_internal(limit_time)
            if limit_time is not None
            else None
        )
        if not self._started:
            self._start()
            if stop_when is not None and stop_when(self):
                return self
        if self._engine == "batch" and stop_when is None:
            self._batch_run(
                limit_internal, limit_time, max_events, check_success=False
            )
            return self
        while True:
            if max_events is not None and self.events_processed >= max_events:
                return self
            if not self._event_heap:
                raise SimulationError("event heap empty — stations always reschedule")
            if limit_internal is not None and self._event_heap[0][0] > limit_internal:
                # For integer ticks e and rational limit L, e > floor(L*D)
                # iff e/D > L, so the stopping test is exact even when the
                # limit itself is off the lattice.
                self._now_internal = limit_internal
                self._now_exact = limit_time
                return self
            self._process_event()
            if stop_when is not None and stop_when(self):
                return self

    def run_until_success(
        self, max_events: int = 10_000_000
    ) -> Optional[Time]:
        """Run until the first successful transmission ends; return that time.

        The workhorse of SST experiments.  Returns ``None`` if
        ``max_events`` elapsed with no success (the SST algorithm failed
        or the adversary prevented progress for that long).  The stop
        check reads the channel's finalized-success count, which the
        feedback oracle keeps anyway, so it costs O(1) per event.
        """
        channel = self.channel
        if self._engine == "batch":
            if not self._started:
                self._start()
            self._batch_run(None, None, max_events, check_success=True)
        else:

            def succeeded(sim: "Simulator") -> bool:
                return channel.finalized_successes(sim._now_internal) > 0

            self.run(max_events=max_events, stop_when=succeeded)
        if channel.finalized_successes(self._now_internal) == 0:
            return None
        return channel.first_success_end

    def _batch_run(
        self, limit_internal, limit_time, max_events, check_success: bool
    ) -> None:
        """Hand the run to the vectorized kernel (see repro.core.batch).

        The kernel snapshots canonical state into arrays on entry and
        writes it back on exit, so object-engine steps may freely
        interleave with kernel runs on the same simulator.
        """
        kernel = self._batch_kernel
        if kernel is None:
            from .batch import BatchKernel

            kernel = self._batch_kernel = BatchKernel(self)
        kernel.sim = self  # bound for this run only (see BatchKernel.sim)
        try:
            kernel.run(limit_internal, limit_time, max_events, check_success)
        finally:
            kernel.sim = None

    def slots_elapsed(self, station_id: int) -> int:
        """Completed slots of one station (the paper's cost measure for SST)."""
        return self.stations[station_id].slots_elapsed

    def max_slots_elapsed(self) -> int:
        """Maximum completed-slot count over stations (Theorem 1's measure)."""
        return max(rt.slots_elapsed for rt in self.stations.values())


def execution_signature(sim: Simulator, *, drain: bool = True) -> Tuple:
    """Every observable of a run, as one comparable value.

    Two executions of one scenario must have equal signatures whatever
    ran them — either engine, either timebase, probed or profiled or
    not, one ``run()`` call or many; the parity tests and the perf
    suite assert exactly that.  Covers the event count and clock, the
    total and peak backlog, every delivered packet, the channel
    counters, and each station's queue length.

    ``drain`` (the default) finalizes in-flight transmissions first:
    they finalize at different internal instants on the two timebases,
    and parity is only promised at the observation boundary.  Pass
    ``drain=False`` for a run that will be continued.
    """
    if drain:
        sim.channel.drain_all(sim.now)
    return (
        sim.events_processed,
        sim.now,
        sim.total_backlog,
        sim.trace.max_backlog,
        tuple(
            (p.packet_id, p.station_id, p.arrival_time, p.delivered_time,
             p.cost)
            for p in sim.delivered_packets
        ),
        astuple(sim.channel.stats),
        tuple(sim.queue_size(sid) for sid in sim.station_ids),
    )
