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

from dataclasses import astuple, dataclass
from fractions import Fraction
from functools import partial
from heapq import heappop, heappush
from itertools import repeat
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

#: The event loop's "no slot length checked yet": no adversary returns it.
_UNCHECKED = object()


def _timed(profiler, phase: str, call: Callable, *args):
    """``call(*args)``, its wall time booked to ``phase`` of ``profiler``."""
    began = perf_counter()
    result = call(*args)
    profiler.add(phase, perf_counter() - began)
    return result


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

    The event loop (:meth:`run`) steps each slot end in one loop body,
    with its callables bound once per call, but keeps on the simulator
    everything an adversary, an arrival source, a probe callback or
    ``stop_when`` can read, current whenever that code runs:
    ``events_processed``, ``now``, the runtimes, the event heap and the
    backlog.  A look-ahead adversary deep-copies the simulator from
    inside ``next_slot_length``; the copy is mid-decision (the
    station's next action committed, its end event off the heap, the
    event not yet counted) and finishes the slot with :meth:`open_slot`.

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

    #: Whether ``stations`` was handed out: from then on every batch
    #: kernel exit writes the runtimes back, so a runtime a caller holds
    #: is never stale.  A class default that the first read overrides:
    #: instances keep their attributes in a shared-key dict only up to
    #: 29 names across the class, and the object loop's attribute reads
    #: are fastest there.
    _stations_shared = False

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
            fleet = dict(algorithms)
            ids = sorted(fleet)
            if ids != list(fleet):
                fleet = {sid: fleet[sid] for sid in ids}
        else:
            fleet = dict(enumerate(algorithms, start=1))
        if not fleet:
            raise ConfigurationError("at least one station is required")

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

        #: The station automata by id, in ascending id order.
        self._algorithms: Dict[int, StationAlgorithm] = fleet
        self._station_ids: Tuple[int, ...] = tuple(fleet)
        # The per-station runtimes, built by ``_runtimes`` when the object
        # loop starts or they are first read: on a batch run the kernel's
        # arrays hold the scheduling state instead, and ``stations``
        # writes it back first.
        self._stations: Optional[Dict[int, StationRuntime]] = None
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
        self._heap: List[Tuple[object, int]] = []
        #: The arrivals not yet visible to their station, by id: only
        #: stations holding some have an entry.
        self._pending_arrivals: Dict[int, List[Tuple[object, Packet]]] = {}
        self._total_backlog = 0
        self._delivered_packets: List[Packet] = []
        self._started = False

        if initial_packets:
            zero = self._timebase.zero
            zero_public = self._timebase.to_public(zero)
            for sid in self._station_ids:
                for _ in range(initial_packets):
                    self._inject(sid, zero, zero_public)

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
        return len(self._station_ids)

    @property
    def stations(self) -> Dict[int, StationRuntime]:
        """Per-station runtimes, by id.

        After a batch run the kernel's arrays hold the scheduling state
        (slot index, boundaries, action, slots elapsed, the pending
        events) and no runtime exists; reading this builds the runtimes
        and writes that state into them, and from then on every kernel
        exit writes back too.
        """
        self._stations_shared = True
        self._write_back()
        return self._runtimes()

    @property
    def _event_heap(self) -> List[Tuple[object, int]]:
        """The pending ``(end, station id)`` events as the object loop
        keeps them, written back from the kernel first if it holds them."""
        self._write_back()
        return self._heap

    def _write_back(self) -> None:
        """Copy the kernel's scheduling state into the runtimes and the
        heap, if they lag it."""
        kernel = self._batch_kernel
        if kernel is not None and kernel.runtimes_stale:
            with collector_paused():
                kernel.write_runtimes(self)

    def _runtimes(
        self, queues: Optional[Sequence[Optional[PacketQueue]]] = None
    ) -> Dict[int, StationRuntime]:
        """The runtime dict, built on first need: by the object loop's
        start (or a read before any start), or by
        :meth:`BatchKernel.write_runtimes
        <repro.core.batch.BatchKernel.write_runtimes>`, which hands over
        the queues it made, in id order (``None`` for a station that
        never held a packet, which gets an empty one)."""
        stations = self._stations
        if stations is None:
            if queues is None:
                queues = repeat(None)
            stations = self._stations = {
                sid: StationRuntime(
                    station_id=sid,
                    algorithm=algorithm,
                    queue=PacketQueue(station_id=sid) if queue is None else queue,
                )
                for (sid, algorithm), queue in zip(
                    self._algorithms.items(), queues
                )
            }
        return stations

    def queue_size(self, station_id: int) -> int:
        """Current queue length of one station (pending arrivals excluded)."""
        kernel = self._batch_kernel
        if kernel is not None and kernel.current:
            return int(kernel.qlen[kernel.index(station_id)])
        return len(self._runtimes()[station_id].queue)

    def queue_sizes(self) -> Dict[int, int]:
        """Every station's queue length, by ascending id (pending
        arrivals excluded)."""
        kernel = self._batch_kernel
        if kernel is not None and kernel.current:
            return dict(zip(kernel.sids_list, kernel.qlen.tolist()))
        return {sid: len(rt.queue) for sid, rt in self._runtimes().items()}

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
        return self._algorithms[station_id]

    # ------------------------------------------------------------------
    # Packet injection
    # ------------------------------------------------------------------

    def _inject(self, station_id: int, at, at_public: Time) -> Packet:
        """Create a packet and hold it pending until the next slot boundary.

        ``at`` is the instant in internal units and ``at_public`` the
        same instant as the exact Fraction, which becomes the packet's
        ``arrival_time``.
        """
        # Ids count the packets injected so far: the backlog and the
        # delivered ones.
        packet = Packet(
            packet_id=self._total_backlog + len(self._delivered_packets),
            station_id=station_id,
            arrival_time=at_public,
        )
        pending = self._pending_arrivals.get(station_id)
        if pending is None:
            self._pending_arrivals[station_id] = [(at, packet)]
        else:
            pending.append((at, packet))
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

    def _pump_arrivals(self, upto) -> None:
        """Pull all arrivals with time <= ``upto`` (internal units).

        The source speaks public time: it receives the exact Fraction
        bound and its returned instants are converted back onto the
        internal timebase.  When the source hints at its next injection
        instant, events strictly before the hint skip the poll: for
        integer ticks ``upto < ceil(hint * D)`` iff ``upto/D < hint``,
        so the skip is exact.
        """
        if upto < self._arrivals_not_before:
            return
        if self.arrival_source is None:
            return
        timebase = self._timebase
        upto_public = timebase.to_public(upto)
        for at, station_id in self.arrival_source.arrivals_until(self, upto_public):
            exact = as_time(at)
            if exact > upto_public:
                raise SimulationError(
                    f"arrival source produced a future arrival {exact} > {upto_public}"
                )
            if station_id not in self._algorithms:
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
            self._inject(station_id, internal, exact)
        hint_fn = self._arrival_hint
        if hint_fn is not None:
            hint = hint_fn()
            self._arrivals_not_before = (
                _NEVER if hint is None else timebase.ceil_internal(hint)
            )

    def _deliver_pending(self, runtime: StationRuntime, upto) -> None:
        """Move arrivals with time <= ``upto`` into the station's queue.

        Called at the station's own slot boundary: the paper makes
        injected packets visible to the algorithm between consecutive
        slots.
        """
        pending = self._pending_arrivals
        sid = runtime.station_id
        if sid not in pending:
            return
        still_pending: List[Tuple[object, Packet]] = []
        for at, packet in pending[sid]:
            if at <= upto:
                runtime.queue.push(packet)
            else:
                still_pending.append((at, packet))
        if still_pending:
            pending[sid] = still_pending
        else:
            del pending[sid]

    # ------------------------------------------------------------------
    # Slot machinery
    # ------------------------------------------------------------------

    def _phase_calls(self):
        """The run's adversary, feedback and step callables.

        Returns ``(next_slot_length, feedback_for, timed)``: the bound
        methods and ``None``, or with a profiler attached, the same
        methods timed into its ``adversary`` and ``channel`` phases and a
        ``timed(step, ctx)`` that times an automaton step into
        ``algorithm``.
        """
        next_slot_length = self.slot_adversary.next_slot_length
        feedback_for = self.channel.feedback_for
        profiler = self.profiler
        if profiler is None:
            return next_slot_length, feedback_for, None
        return (
            partial(_timed, profiler, "adversary", next_slot_length),
            partial(_timed, profiler, "channel", feedback_for),
            partial(_timed, profiler, "algorithm"),
        )

    def _begin_slot(
        self, runtime: StationRuntime, start, action: Action, next_slot_length
    ) -> None:
        """Open a station's first slot (:meth:`_start`): validate the
        action (:func:`check_transmission`), commit it, ask the
        adversary, check the length.  The event loop in :meth:`run`
        takes the same steps inline, so a change to one goes to both."""
        if action.is_transmit:
            check_transmission(
                runtime.station_id, runtime.algorithm, action, runtime.queue
            )
        # Commit the station's intent before consulting the adversary:
        # the model's online adversary observes actions when fixing slot
        # lengths, so ``runtime.action`` must already describe the slot
        # being opened (slot_start/end still describe the previous one).
        runtime.action = action
        raw_length = next_slot_length(self, runtime.station_id, runtime.slot_index + 1)
        try:
            length = self._timebase.check_slot_length(
                raw_length, self._max_slot_internal
            )
        except OffLatticeError as err:
            raise off_lattice_length(
                self.slot_adversary, raw_length, self._timebase
            ) from err
        self.open_slot(runtime, start, length)

    def open_slot(self, runtime: StationRuntime, start, length) -> None:
        """Fix the pending slot's length and schedule its end event.

        The one place a slot opens: :meth:`_start`, the event loop and
        look-ahead adversaries (see :mod:`repro.timing.lookahead`, which
        clone a simulator that is mid-decision and complete the probed
        slot with a candidate length of their choosing) call it.
        ``start`` and ``length`` are in the run's internal timebase
        units; look-ahead adversaries never declare a lattice, so for
        them internal units are plain public Fractions.
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
        heappush(self._heap, (end, runtime.station_id))

    def _start(self, kernel=None) -> None:
        """Open every station's first slot at time 0.

        On a batch run the kernel opens them in bulk (``kernel``, see
        :meth:`repro.core.batch.BatchKernel.start`); the loop below is
        the object loop's start.
        """
        self._started = True
        if kernel is not None:
            with collector_paused():
                kernel.start()
            return
        zero = self._timebase.zero
        next_slot_length, _, timed = self._phase_calls()
        with collector_paused():
            stations = self._runtimes()
            self._pump_arrivals(zero)
            for runtime in stations.values():
                self._deliver_pending(runtime, zero)
                ctx = SlotContext(None, len(runtime.queue), 0)
                first_action = runtime.algorithm.first_action
                if timed is None:
                    action = first_action(ctx)
                else:
                    action = timed(first_action, ctx)
                self._begin_slot(runtime, zero, action, next_slot_length)

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
        if self._engine == "batch" and stop_when is None:
            self._batch_run(
                limit_internal, limit_time, max_events, check_success=False
            )
            return self
        kernel = self._batch_kernel
        if kernel is not None:
            # The object loop takes the scheduling state over.
            self._write_back()
            kernel.current = False
        if not self._started:
            self._start()
            if stop_when is not None and stop_when(self):
                return self
        # Bound once per call, after the start and any write-back (the
        # runtimes and the heap exist only from then on).  Counters,
        # the clock and the backlog stay on ``self``, where adversaries,
        # sources, probes and ``stop_when`` read them; the locals are
        # callables, constants, the simulator's own heap, runtime and
        # pending-arrival containers (the objects, not copies) and the
        # last slot length checked.
        heap = self._heap
        stations = self._stations
        pending = self._pending_arrivals
        channel = self.channel
        next_slot_length, feedback_for, timed = self._phase_calls()
        open_slot = self.open_slot
        timebase = self._timebase
        to_public = timebase.to_public
        check_slot_length = timebase.check_slot_length
        max_internal = self._max_slot_internal
        probes = self.probes
        prune = not self.keep_channel_history
        ack = Feedback.ACK
        # The last raw length the adversary returned and its checked
        # value: the same object again (``Synchronous``'s shared one, a
        # cyclic pattern's entries) needs no second check.
        checked_raw = checked = _UNCHECKED
        while True:
            if max_events is not None and self.events_processed >= max_events:
                return self
            if not heap:
                raise SimulationError("event heap empty — stations always reschedule")
            if limit_internal is not None and heap[0][0] > limit_internal:
                # For integer ticks e and rational limit L, e > floor(L*D)
                # iff e/D > L, so the stopping test is exact even when the
                # limit itself is off the lattice.
                self._now_internal = limit_internal
                self._now_exact = limit_time
                return self

            # One slot end: close the slot ...
            end_time, sid = heappop(heap)
            runtime = stations[sid]
            if end_time != runtime.slot_end:
                raise SimulationError(
                    f"event heap desync for station {sid}: {end_time} != {runtime.slot_end}"
                )
            self._now_internal = end_time
            self._now_exact = None
            if end_time >= self._arrivals_not_before:
                self._pump_arrivals(end_time)
            interval = runtime.slot_interval
            feedback = feedback_for(interval)
            action = runtime.action
            queue = runtime.queue
            delivered = False
            if (
                feedback is ack
                and action is not None
                and action.is_transmit
                and runtime.aboard_packet is not None
            ):
                # A transmitting station's ACK can only certify its own
                # transmission (any other success would have overlapped it).
                packet = queue.pop_delivered()
                if packet is not runtime.aboard_packet:
                    raise SimulationError(
                        f"station {sid}: queue head changed under a transmission"
                    )
                end_public = to_public(end_time)
                packet.mark_delivered(
                    at=end_public, cost=to_public(interval.duration)
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
            if sid in pending:
                self._deliver_pending(runtime, end_time)
            runtime.slots_elapsed += 1
            queue_size = len(queue)
            slot_index = runtime.slot_index
            if probes is not None and probes.slot_end and action is not None:
                carried = runtime.aboard_packet
                # Positional, in field order: matching ten keywords costs
                # about as much as the rest of the construction.
                event = SlotEndEvent(
                    sid,
                    slot_index,
                    interval,
                    timebase,
                    action,
                    feedback,
                    queue_size,
                    delivered,
                    self._total_backlog,
                    carried.packet_id if carried else None,
                )
                for callback in probes.slot_end:
                    callback(event)

            # ... step the automaton ...
            algorithm = runtime.algorithm
            ctx = SlotContext(feedback, queue_size, slot_index + 1)
            if timed is None:
                action = algorithm.on_slot_end(ctx)
            else:
                action = timed(algorithm.on_slot_end, ctx)

            # ... and open the next slot: validate the action, commit it
            # (the adversary observes it), ask for the length, check it.
            if action.is_transmit:
                check_transmission(sid, algorithm, action, queue_size)
            runtime.action = action
            raw_length = next_slot_length(self, sid, slot_index + 1)
            if raw_length is not checked_raw:
                try:
                    checked = check_slot_length(raw_length, max_internal)
                except OffLatticeError as err:
                    raise off_lattice_length(
                        self.slot_adversary, raw_length, timebase
                    ) from err
                checked_raw = raw_length
            open_slot(runtime, end_time, checked)

            events = self.events_processed = self.events_processed + 1
            if prune and events % _PRUNE_EVERY == 0:
                low_water = min(rt.slot_start for rt in stations.values())
                channel._prune_internal(low_water)
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

        The kernel opens the first slots itself on an unstarted run and
        keeps the scheduling state in its arrays from then on; ``run``
        hands it back to the object loop before that steps, so
        object-engine steps may freely interleave with kernel runs on
        the same simulator.
        """
        kernel = self._batch_kernel
        if kernel is None:
            from .batch import BatchKernel

            kernel = self._batch_kernel = BatchKernel(self)
        kernel.sim = self  # bound for this run only (see BatchKernel.sim)
        try:
            if not self._started:
                self._start(kernel)
            kernel.run(limit_internal, limit_time, max_events, check_success)
        finally:
            kernel.sim = None

    def slots_elapsed(self, station_id: int) -> int:
        """Completed slots of one station (the paper's cost measure for SST)."""
        kernel = self._batch_kernel
        if kernel is not None and kernel.runtimes_stale:
            return int(kernel.slots_elapsed[kernel.index(station_id)])
        return self._runtimes()[station_id].slots_elapsed

    def max_slots_elapsed(self) -> int:
        """Maximum completed-slot count over stations (Theorem 1's measure)."""
        kernel = self._batch_kernel
        if kernel is not None and kernel.runtimes_stale:
            return int(kernel.slots_elapsed.max())
        return max(rt.slots_elapsed for rt in self._runtimes().values())


def check_transmission(station_id: int, algorithm, action: Action, queued) -> None:
    """Raise :func:`illegal_action`'s error unless the transmitting
    ``action`` is legal: a packet needs ``queued`` (the queue's length,
    or the queue) to be true, a control message an algorithm that
    declares them.  Every engine checks an opened slot's action here."""
    if action.carries_packet:
        if not queued:
            raise illegal_action(station_id, algorithm, action)
    elif not algorithm.uses_control_messages:
        raise illegal_action(station_id, algorithm, action)


def illegal_action(station_id: int, algorithm, action: Action) -> ProtocolError:
    """The error for a transmission the station may not make: a packet
    from an empty queue, or a control message its algorithm does not
    declare."""
    if action.carries_packet:
        return ProtocolError(
            f"station {station_id}: {type(algorithm).__name__} transmitted "
            "a packet from an empty queue"
        )
    return ProtocolError(
        f"station {station_id}: {type(algorithm).__name__} sent a control "
        "message but declares uses_control_messages=False"
    )


def off_lattice_length(adversary, raw_length, timebase) -> SimulationError:
    """The error for a slot length off the run's declared lattice."""
    return SimulationError(
        f"slot adversary {type(adversary).__name__} produced slot length "
        f"{as_time(raw_length)} off the run's declared "
        f"1/{timebase.denominator} time lattice; fix its "
        "lattice_denominator() declaration or construct the Simulator "
        "with timebase='fraction'"
    )


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
        tuple(sim.queue_sizes().values()),
    )
