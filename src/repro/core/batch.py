"""Vectorized whole-fleet kernel — the ``engine="batch"`` fast path.

The per-object event loop in :mod:`repro.core.simulator` costs a few
microseconds of Python per slot per station; at n = 10^4..10^6 stations
that Python overhead dominates the run.  This module provides an
alternative *inner loop* over the very same canonical state: all slots
ending at one lattice tick are processed as a single NumPy batch.

Design contract (the parity-oracle contract, see docs/vectorization.md):

* The kernel mutates only the simulator's canonical objects — the real
  :class:`~repro.core.channel.Channel`, the real
  :class:`~repro.core.packet.PacketQueue` of each station that has
  received a packet, the real :class:`~repro.core.trace.Trace` — through
  the same calls, in the same order, as the object path.  On a batch
  run the kernel opens slot 0 itself (:meth:`BatchKernel.start`),
  calling each automaton's own ``first_action``, and from then on its
  arrays hold the scheduling state (slot index and boundaries, slots
  elapsed, action codes, queue depths, the tick frontier).  The
  simulator builds no ``StationRuntime`` for it: the kernel makes a
  station's queue when its first packet arrives, and
  :meth:`BatchKernel.write_runtimes` builds the runtimes (handing them
  those queues) and writes the event heap only just before the object
  loop steps and when ``Simulator.stations`` is read — after which
  every kernel exit writes back — so object- and batch-engine ``run()``
  calls can be freely interleaved on one simulator.  Readers of a
  finished run (queue sizes, algorithms, slots elapsed, the execution
  signature) answer from the fleet and the arrays without building a
  runtime.  Automaton state is mirrored on every entry and stored on
  every exit that stepped: each vector program declares the fields it
  mirrors (:attr:`AlgorithmProgram.mirrored`), and one gather and one
  scatter copy them all.
* Results are **bit-identical** to the object engine.  The enabling
  observation is same-tick causality: a transmission starting at tick
  ``t`` can never affect the feedback of a slot ending at ``t``
  (overlap requires ``start < end``; an acknowledgment requires the
  success to end at or before ``t``, and every stored record ends
  strictly after it starts).  Hence the feedback of every slot ending
  at ``t`` is computable up front: the tick's slot-start array
  compared against the channel's two marks at ``t``
  (:meth:`~repro.core.channel.Channel.marks`).  Processing the tick's
  stations in ascending-id order then reproduces the event order
  exactly — any *prefix* of that order is also event-order exact,
  which is how ``max_events`` and ``run_until_success`` stop mid-tick
  losslessly.
* RNG-bearing components (:class:`~repro.algorithms.aloha.SlottedAloha`
  per-station generators, :class:`~repro.timing.adversary.RandomUniform`)
  keep their canonical ``random.Random`` objects; draws happen as
  scalar calls in exactly the object path's order.

Eligibility is decided once, at ``Simulator`` construction, by
:func:`batch_blocker`: a run is batch-eligible when it is on the integer
tick lattice, has no per-event observers (probe bus, profiler, per-slot
trace records), its slot adversary and its homogeneous station
algorithm class both have registered vector programs below, and its
arrival source (if any) exposes the exact ``next_arrival_hint``
protocol.  Anything else demotes to the object path with a named
reason, mirroring how ``timebase="auto"`` demotes off-lattice runs.
Eligible is not the same as faster: each tick pays a fixed NumPy cost,
so ``engine="auto"`` promotes an eligible run only when
:func:`expected_tick_width` — slot ends per tick, as the schedule
program estimates it from the inputs — reaches the batch crossover
(about 20); narrower fleets stay on the object loop with that reason
named.

One knowingly-accepted divergence: schedule programs validate their
declared slot-length tables at kernel entry, so a malformed length deep
in a :class:`~repro.timing.adversary.TableDriven` table raises at run
start rather than at the offending slot, and the bulk start checks every
first action before any slot length.  The exception type and message
are the canonical ones; only the amount of work done before raising
differs, and error paths are outside the parity contract.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from fractions import Fraction
from itertools import repeat
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - the toolchain bakes numpy in
    np = None

from ..algorithms.abs_leader import AbsCore
from ..algorithms.aloha import SlottedAloha
from ..algorithms.k_selection import KSelection
from ..algorithms.mbtf import MBTFLike
from ..algorithms.round_robin import RRW, NaiveTDMA
from ..timing.adversary import (
    CyclicPattern,
    FixedLength,
    PerStationFixed,
    RandomUniform,
    Synchronous,
    TableDriven,
    WorstCaseCyclic,
)
from ..analysis.bounds import (
    abs_listen_threshold_bit0,
    abs_listen_threshold_bit1,
)
from .collector import collector_paused
from .errors import ConfigurationError, ProtocolError, SimulationError
from .packet import PacketQueue
from .station import (
    LISTEN,
    TRANSMIT_CONTROL,
    TRANSMIT_PACKET,
    AlwaysListen,
    AlwaysTransmit,
    SlotContext,
)
from .timebase import Interval, OffLatticeError
from .simulator import (
    _PRUNE_EVERY,
    StationRuntime,
    check_transmission,
    illegal_action,
    off_lattice_length,
)

#: Action codes used inside the kernel (``int8``).
_A_LISTEN, _A_TX_PKT, _A_TX_CTRL = 0, 1, 2
_ACTIONS = (LISTEN, TRANSMIT_PACKET, TRANSMIT_CONTROL)

#: The code of each shared action singleton, by identity; an equal
#: action built elsewhere is coded by :func:`_action_code`.
_CODE_OF = {id(action): code for code, action in enumerate(_ACTIONS)}

#: Feedback codes used inside the kernel (``int8``).
_F_SILENCE, _F_BUSY, _F_ACK = 0, 1, 2

#: The automata's errors for silence on a slot the station transmitted in.
_TX_SILENCE_ERROR = (
    "silence feedback on a transmitting slot — broken channel model"
)
_ABS_SILENCE_ERROR = (
    "channel reported silence for a slot this station "
    "transmitted in — broken channel model"
)

#: Station-algorithm class -> AlgorithmProgram subclass.  Dispatch is by
#: *exact* type: a subclass may override anything, so it must register
#: its own program (or demote to the object path).
BATCH_ALGORITHMS: Dict[type, type] = {}

#: Slot-adversary class -> ScheduleProgram subclass (exact type, ditto).
BATCH_SCHEDULES: Dict[type, type] = {}


def vectorizes(algorithm_cls: type):
    """Class decorator registering a vector program for one algorithm class."""

    def register(program_cls: type) -> type:
        BATCH_ALGORITHMS[algorithm_cls] = program_cls
        return program_cls

    return register


def schedules(adversary_cls: type):
    """Class decorator registering a vector program for one slot adversary."""

    def register(program_cls: type) -> type:
        BATCH_SCHEDULES[adversary_cls] = program_cls
        return program_cls

    return register


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------


def batch_blocker(sim) -> Optional[str]:
    """Why this simulator cannot run on the batch engine, or ``None``.

    Called once at ``Simulator`` construction; the returned reason is
    surfaced through ``Simulator.engine_detail`` (and raised verbatim
    when ``engine="batch"`` was forced).
    """
    if np is None:
        return "NumPy is not available"
    if not sim.timebase.is_lattice:
        detail = getattr(sim, "_timebase_detail", None)
        if detail:
            return f"the run is on the exact Fraction timebase ({detail})"
        return "the run is on the exact Fraction timebase"
    if sim.probes is not None:
        return (
            "a ProbeBus is attached (per-event probes, Trace(record_slots=True) "
            "among them, are object-path only)"
        )
    if sim.profiler is not None:
        return "a PhaseProfiler is attached (per-phase timing is object-path only)"
    adversary_cls = type(sim.slot_adversary)
    if adversary_cls not in BATCH_SCHEDULES:
        return (
            f"slot adversary {adversary_cls.__name__} has no vectorized "
            "schedule program"
        )
    fleet = list(sim._algorithms.values())
    algorithm_classes = set(map(type, fleet))
    if len(algorithm_classes) > 1:
        names = ", ".join(sorted(cls.__name__ for cls in algorithm_classes))
        return f"mixed station algorithm classes ({names}) are object-path only"
    algorithm_cls = next(iter(algorithm_classes))
    program_cls = BATCH_ALGORITHMS.get(algorithm_cls)
    if program_cls is None:
        return (
            f"station algorithm {algorithm_cls.__name__} has no vectorized "
            "program"
        )
    reason = program_cls.check(fleet)
    if reason is not None:
        return reason
    source = sim.arrival_source
    if source is not None and getattr(source, "next_arrival_hint", None) is None:
        return (
            f"arrival source {type(source).__name__} exposes no "
            "next_arrival_hint (adaptive sources are object-path only)"
        )
    return None


def expected_tick_width(sim) -> Fraction:
    """Expected slot ends per kernel tick of a batch-eligible ``sim``.

    Compared by ``engine="auto"`` against the batch crossover; each
    schedule program states it (:meth:`ScheduleProgram.expected_width`)
    from the inputs, without simulating.
    """
    adversary = sim.slot_adversary
    return BATCH_SCHEDULES[type(adversary)].expected_width(
        adversary, sim.station_ids
    )


def _promoted_program_cls(sim) -> type:
    """The algorithm program class a batch-eligible ``sim`` resolved to."""
    return BATCH_ALGORITHMS[type(sim.algorithm(sim.station_ids[0]))]


def promotion_detail(sim) -> str:
    """Which vector programs a batch-eligible run matched.

    Surfaced through ``Simulator.engine_detail`` on promotion (the
    demotion counterpart is :func:`batch_blocker`'s reason) and printed
    by ``repro run --verbose-engine``.
    """
    algorithm = sim.algorithm(sim.station_ids[0])
    program_cls = BATCH_ALGORITHMS[type(algorithm)]
    schedule_cls = BATCH_SCHEDULES[type(sim.slot_adversary)]
    flavor = (
        "adaptive masked-update" if program_cls.adaptive else "non-adaptive"
    )
    return (
        f"promoted: {type(algorithm).__name__} -> {program_cls.__name__} "
        f"({flavor}), {type(sim.slot_adversary).__name__} -> "
        f"{schedule_cls.__name__}"
    )


def engine_family(sim) -> str:
    """``batch(adaptive)`` or ``batch(nonadaptive)`` for an eligible run."""
    if _promoted_program_cls(sim).adaptive:
        return "batch(adaptive)"
    return "batch(nonadaptive)"


# ----------------------------------------------------------------------
# Program base classes
# ----------------------------------------------------------------------


#: One mirrored field: (array name, dotted attribute path, kind), where a
#: kind is a NumPy dtype name or the tuple of state names whose index is
#: the ``int8`` code.  Plain data, so declaring one needs no NumPy.
Field = Tuple[str, str, object]


def _gather(objects: Sequence[object], attribute: str, kind) -> "np.ndarray":
    """One attribute of every object, as an array of ``kind``."""
    values = map(attrgetter(attribute), objects)
    if isinstance(kind, tuple):
        values = map({name: code for code, name in enumerate(kind)}.__getitem__,
                     values)
        kind = "int8"
    return np.fromiter(values, dtype=kind, count=len(objects))


def _action_code(action) -> int:
    if not action.is_transmit:
        return _A_LISTEN
    return _A_TX_PKT if action.carries_packet else _A_TX_CTRL


def _action_codes(actions: Sequence[object]) -> "np.ndarray":
    """The ``int8`` code of every action, in order."""
    codes = np.fromiter(
        map(_CODE_OF.get, map(id, actions), repeat(-1)), np.int8, len(actions)
    )
    for j in np.flatnonzero(codes < 0).tolist():
        codes[j] = _action_code(actions[j])
    return codes


def _scatter(objects: Sequence[object], attribute: str, kind, array) -> None:
    """Write ``array`` back into one attribute of every object.

    One field at a time, through ``tolist()``: plain Python values, and
    no per-station NumPy scalar indexing.
    """
    values = array.tolist()
    if isinstance(kind, tuple):
        values = map(kind.__getitem__, values)
    # Drain the lazy map without a Python-level loop body.
    deque(map(setattr, objects, repeat(attribute), values), maxlen=0)


class AlgorithmProgram:
    """Vector mirror of one :class:`StationAlgorithm` class across the fleet.

    Lifecycle per kernel entry: :meth:`load` snapshots every canonical
    algorithm object's state into arrays, :meth:`step` advances the
    members of each tick batch, :meth:`store` writes the state back so
    the canonical objects are again the single source of truth.

    The copy is declared, not written: :attr:`mirrored` lists the
    fields (each a :data:`Field`) gathered on entry and written back on
    exit, :attr:`constants` the ones only gathered; each becomes the
    array attribute it names.  A program overrides :meth:`load` and
    :meth:`store` only for values that are not plain copies.

    ``step`` receives the batch members as fleet indices ``m`` (sorted
    ascending — equal to ascending station-id order), their feedback
    codes, their *post-delivery* queue lengths and the slot index the
    object path would hand to ``on_slot_end`` via ``SlotContext``; it
    returns one action code per member.
    """

    #: Whether this program models an adaptive per-event automaton via
    #: masked sub-steps (see :mod:`repro.core.batch_adaptive`) rather
    #: than a single non-adaptive decision function.  Surfaced through
    #: ``Simulator.engine_described`` as ``batch(adaptive)`` vs
    #: ``batch(nonadaptive)``.
    adaptive = False

    #: Fields the step mutates: gathered on load, written back on store.
    mirrored: Tuple[Field, ...] = ()
    #: Fields the step only reads: gathered on load.
    constants: Tuple[Field, ...] = ()

    def __init__(self, kernel: "BatchKernel") -> None:
        self.algos = kernel.algos
        self.sids = kernel.sids

    @classmethod
    def check(cls, fleet: Sequence[object]) -> Optional[str]:
        """Extra per-class eligibility hook; a reason string demotes."""
        return None

    def _resolve(self, fields: Sequence[Field]):
        """``(name, holders, attribute, kind)`` per field, where
        ``holders`` are the objects owning the path's last attribute;
        each owner path (``stats``, ``core``) is walked once."""
        holders = {"": self.algos}
        for name, path, kind in fields:
            owner, _, attribute = path.rpartition(".")
            if owner not in holders:
                holders[owner] = list(map(attrgetter(owner), self.algos))
            yield name, holders[owner], attribute, kind

    def load(self) -> None:
        for name, holders, attribute, kind in self._resolve(
            self.mirrored + self.constants
        ):
            setattr(self, name, _gather(holders, attribute, kind))

    def step(self, m, fb, q, new_index):
        raise NotImplementedError

    def store(self) -> None:
        for name, holders, attribute, kind in self._resolve(self.mirrored):
            _scatter(holders, attribute, kind, getattr(self, name))


class ScheduleProgram:
    """Vector mirror of one :class:`SlotAdversary` class.

    ``lengths`` returns integer tick lengths for the batch members'
    *next* slots; every value a program can produce is validated against
    ``[1, R]`` (with the canonical error) in :meth:`load`, so the hot
    path needs no per-slot checks.
    """

    def __init__(self, kernel: "BatchKernel", adversary) -> None:
        self.tb = kernel.tb
        self.max_dur = kernel.max_dur
        self.sids_list = kernel.sids_list
        self.adversary = adversary

    @classmethod
    def expected_width(cls, adversary, station_ids: Sequence[int]) -> Fraction:
        """Expected slot ends per kernel tick for this fleet.

        Every station opens its first slot at time 0, so stations whose
        slot lengths follow one sequence end every slot together.  The
        default is one such lock-step group: ``n`` per tick.
        """
        return Fraction(len(station_ids))

    def _ticks(self, public_length) -> int:
        """Convert one declared public length to validated ticks."""
        try:
            return int(self.tb.check_slot_length(public_length, self.max_dur))
        except OffLatticeError as err:
            raise off_lattice_length(
                self.adversary, public_length, self.tb
            ) from err

    def load(self) -> None:
        raise NotImplementedError

    def lengths(self, m, new_index):
        raise NotImplementedError


# ----------------------------------------------------------------------
# Algorithm programs
# ----------------------------------------------------------------------


@vectorizes(AlwaysListen)
class AlwaysListenProgram(AlgorithmProgram):
    def step(self, m, fb, q, new_index):
        return np.zeros(len(m), dtype=np.int8)


@vectorizes(AlwaysTransmit)
class AlwaysTransmitProgram(AlgorithmProgram):
    def step(self, m, fb, q, new_index):
        return np.where(q > 0, _A_TX_PKT, _A_TX_CTRL).astype(np.int8)


@vectorizes(SlottedAloha)
class SlottedAlohaProgram(AlgorithmProgram):
    """Stats and the was-transmitting flag vectorize; the per-station
    Bernoulli draws stay scalar calls on each station's own
    ``random.Random`` (through ``SlottedAloha.rng``, drawn only when the
    queue is non-empty, exactly as ``SlottedAloha._decide`` does), so
    RNG streams remain canonical.
    """

    mirrored = (
        ("was", "_was_transmitting", "bool"),
        ("attempts", "stats.attempts", "int64"),
        ("deliveries", "stats.deliveries", "int64"),
    )

    def step(self, m, fb, q, new_index):
        self.deliveries[m] += self.was[m] & (fb == _F_ACK)
        acts = np.zeros(len(m), dtype=np.int8)
        transmitting = np.zeros(len(m), dtype=bool)
        algos = self.algos
        for j in np.nonzero(q > 0)[0]:
            algo = algos[int(m[j])]
            if algo.rng().random() < algo.transmit_probability:
                acts[j] = _A_TX_PKT
                transmitting[j] = True
        self.attempts[m] += transmitting
        self.was[m] = transmitting
        return acts


@vectorizes(NaiveTDMA)
class NaiveTDMAProgram(AlgorithmProgram):
    constants = (("n", "n_stations", "int64"),)

    def step(self, m, fb, q, new_index):
        mine = new_index % self.n[m] == self.sids[m] - 1
        return np.where(mine & (q > 0), _A_TX_PKT, _A_LISTEN).astype(np.int8)


@vectorizes(RRW)
class RRWProgram(AlgorithmProgram):
    mirrored = (
        ("turn", "turn", "int64"),
        ("transmitting", "transmitting", "bool"),
        ("turns_taken", "stats.turns_taken", "int64"),
        ("packets_sent", "stats.packets_sent", "int64"),
        ("retries", "stats.retries", "int64"),
    )
    constants = (("n", "n_stations", "int64"),)

    def step(self, m, fb, q, new_index):
        holding = self.transmitting[m]
        silent = fb == _F_SILENCE
        acked = fb == _F_ACK
        if bool(np.any(holding & silent)):
            raise ProtocolError(_TX_SILENCE_ERROR)
        burst_more = holding & acked & (q > 0)
        retry = holding & (fb == _F_BUSY)
        self.packets_sent[m] += holding & acked
        self.retries[m] += retry

        idle = ~holding
        turn = self.turn[m]
        turn = np.where(idle & silent, turn % self.n[m] + 1, turn)
        # _holder_action for idle stations only: a holder finishing its
        # burst (ack, empty queue) listens without re-checking the turn.
        take = idle & (turn == self.sids[m]) & (q > 0)
        self.turns_taken[m] += take

        transmitting = burst_more | retry | take
        self.turn[m] = turn
        self.transmitting[m] = transmitting
        return np.where(transmitting, _A_TX_PKT, _A_LISTEN).astype(np.int8)


def _end_turn_on_ack(program, m, acked, has_q, acts):
    """The turn holder's slot end on an ACK, for the members ``acked``.

    An empty signal ends the turn; a delivered packet bursts on while
    the queue holds more.  Counts both, writes the burst's actions into
    ``acts`` and returns the members whose turn is over.  Shared by the
    turn rings (MBTF and both CA-ARRoWs), which mirror ``noise``,
    ``empty_signals`` and ``packets_sent``.
    """
    noise = program.noise[m]
    empty = acked & noise
    program.empty_signals[m] += empty
    sent = acked & ~noise
    program.packets_sent[m] += sent
    burst = sent & has_q
    acts[burst] = _A_TX_PKT
    return empty | (sent & ~burst)


def _begin_turn(program, m, begin, has_q, acts) -> None:
    """The members ``begin`` take their turn: a packet, or an empty
    signal (the ``noise`` flag) when the queue is empty.  The caller
    moves them to its transmitting state."""
    program.turns_taken[m] += begin
    program.noise[m[begin]] = ~has_q[begin]
    acts[begin & has_q] = _A_TX_PKT
    acts[begin & ~has_q] = _A_TX_CTRL


_MBTF_STATES = ("wait", "transmit_pending", "transmit")


@vectorizes(MBTFLike)
class MBTFLikeProgram(AlgorithmProgram):
    mirrored = (
        ("state", "state", _MBTF_STATES),
        ("turn", "turn", "int64"),
        ("heard", "heard_activity", "bool"),
        ("noise", "_noise_turn", "bool"),
        ("turns_taken", "stats.turns_taken", "int64"),
        ("packets_sent", "stats.packets_sent", "int64"),
        ("empty_signals", "stats.empty_signals_sent", "int64"),
        ("retries", "stats.retries", "int64"),
    )
    constants = (("n", "n_stations", "int64"),)

    def step(self, m, fb, q, new_index):
        state = self.state[m]
        heard = self.heard[m]
        turn = self.turn[m]
        silent = fb == _F_SILENCE
        has_q = q > 0

        transmit = state == 2
        if bool(np.any(transmit & silent)):
            raise ProtocolError(_TX_SILENCE_ERROR)
        acts = np.zeros(len(m), dtype=np.int8)

        retry = transmit & (fb == _F_BUSY)
        self.retries[m] += retry
        acts[retry] = np.where(self.noise[m][retry], _A_TX_CTRL, _A_TX_PKT)
        # Fall silent; the own burst counts as activity.
        finish = _end_turn_on_ack(
            self, m, transmit & (fb == _F_ACK), has_q, acts
        )

        pending = state == 1  # transmit_pending: begin regardless of feedback
        _begin_turn(self, m, pending, has_q, acts)

        waiting = state == 0
        advance = waiting & silent & heard
        heard[finish | (waiting & ~silent)] = True
        turn[advance] = turn[advance] % self.n[m][advance] + 1
        heard[advance] = False
        state[finish] = 0
        state[pending] = 2
        state[advance & (turn == self.sids[m])] = 1

        self.state[m] = state
        self.heard[m] = heard
        self.turn[m] = turn
        return acts


_ABS_STATES = ("wait_silence", "listen_threshold", "transmitted")

#: The :class:`AbsCore`'s mirrored fields, relative to the core.
_CORE_FIELDS: Tuple[Field, ...] = (
    ("ast", "state", _ABS_STATES),
    ("aphase", "phase", "int64"),
    ("asil", "silent_heard", "int64"),
    ("athr", "threshold", "int64"),
    ("aused", "slots_used", "int64"),
)


def _abs_core_step(program, m, live, fb):
    """``AbsCore.step`` for the members ``live``: advances the
    :data:`_CORE_FIELDS` arrays and returns four masks — fire (box (5):
    transmit next slot), eliminated by ACK, eliminated by BUSY, and won.

    The caller owns what the outcome means (the standalone wrapper
    records it, AO-ARRoW and k-selection change their outer state).
    The listening thresholds are the program's ``t0``/``t1``.
    """
    ast = program.ast[m]
    phase = program.aphase[m]
    silent = program.asil[m]
    threshold = program.athr[m]
    sil = fb == _F_SILENCE
    busy = fb == _F_BUSY
    acked = fb == _F_ACK

    program.aused[m] += live
    a0 = live & (ast == 0)
    a1 = live & (ast == 1)
    a2 = live & (ast == 2)
    if bool(np.any(a2 & sil)):
        raise ProtocolError(_ABS_SILENCE_ERROR)

    arm = a0 & sil  # box (1) -> box (2): read the bit, arm its threshold
    bit = (program.sids[m] >> phase) & 1
    threshold = np.where(
        arm, np.where(bit == 1, program.t1[m], program.t0[m]), threshold
    )
    silent[arm] = 0
    ast[arm] = 1
    count = a1 & sil  # boxes (3)/(4)
    silent += count
    fire = count & (silent >= threshold)
    ast[fire] = 2
    collide = a2 & busy  # next bit, back to box (1)
    phase += collide
    ast[collide] = 0

    program.ast[m] = ast
    program.aphase[m] = phase
    program.asil[m] = silent
    program.athr[m] = threshold
    return fire, (a0 | a1) & acked, a1 & busy, a2 & acked


def _fresh_core(program, members) -> None:
    """The fleet indices ``members`` start a fresh ``AbsCore``: every
    core field's initial value is zero."""
    for name, _, _ in _CORE_FIELDS:
        getattr(program, name)[members] = 0


class AbsCoreProgram(AlgorithmProgram):
    """Base of the programs whose stations run ABS cores.

    The kernel uses the paper's asymmetric listening thresholds, so a
    fleet with a threshold override (the ablation hook) demotes.
    """

    @classmethod
    def check(cls, fleet) -> Optional[str]:
        for algo in fleet:
            core = algo.core
            if core is not None and (
                core.threshold0_override is not None
                or core.threshold1_override is not None
            ):
                return (
                    f"{type(algo).__name__} with ABS threshold overrides "
                    "is object-path only"
                )
        return None


class NestedAbsCoreProgram(AbsCoreProgram):
    """The mirror of an ``AbsCore`` nested in an outer automaton.

    A station's core is live exactly while its outer ``state`` is
    ``election``: the automaton builds a fresh core on entry and nulls
    it on every exit.  So the :data:`_CORE_FIELDS` arrays are gathered
    from the electing members only (zero elsewhere), and :meth:`store`
    rebuilds the cores from the arrays alone.  The listening thresholds
    ``t0``/``t1`` come from the bounds' per-``R`` memo.
    """

    #: The outer ``state`` code of ``election``.
    election: int
    #: ``AbsCore.carries_packet`` of the cores the automaton builds.
    carries_packet: bool

    def load(self) -> None:
        super().load()
        algos = self.algos
        live = np.flatnonzero(self.state == self.election)
        cores = [algos[i].core for i in live.tolist()]
        for name, attribute, kind in _CORE_FIELDS:
            values = _gather(cores, attribute, kind)
            array = np.zeros(len(algos), dtype=values.dtype)
            array[live] = values
            setattr(self, name, array)
        # A fleet shares its ``R`` object, so the thresholds are
        # computed once per distinct one rather than looked up per
        # station in the bounds' memo (which hashes a Fraction).
        uppers = [algo.max_slot_length for algo in algos]
        keys = list(map(id, uppers))
        distinct = dict(zip(keys, uppers))
        t0 = {key: abs_listen_threshold_bit0(r) for key, r in distinct.items()}
        t1 = {key: abs_listen_threshold_bit1(r) for key, r in distinct.items()}
        self.t0 = np.fromiter(map(t0.__getitem__, keys), np.int64, len(keys))
        self.t1 = np.fromiter(map(t1.__getitem__, keys), np.int64, len(keys))

    def store(self) -> None:
        super().store()
        electing = self.state == self.election
        cores = []
        for algo, live in zip(self.algos, electing.tolist()):
            if not live:
                algo.core = None
                continue
            if algo.core is None:
                algo.core = AbsCore(
                    station_id=algo.station_id,
                    max_slot_length=algo.max_slot_length,
                    carries_packet=self.carries_packet,
                )
            cores.append(algo.core)
        live = np.flatnonzero(electing)
        for name, attribute, kind in _CORE_FIELDS:
            _scatter(cores, attribute, kind, getattr(self, name)[live])


_KSEL_STATES = ("election", "observe", "finished")


@vectorizes(KSelection)
class KSelectionProgram(NestedAbsCoreProgram):
    """k-selection: the outer observe/re-enter machine around a nested
    ABS core, masked like AO-ARRoW's.  ``rank`` is mirrored with -1
    standing for ``None``.
    """

    adaptive = True
    election = _KSEL_STATES.index("election")
    carries_packet = False
    mirrored = (
        ("state", "state", _KSEL_STATES),
        ("wins", "wins_observed", "int64"),
        ("saw_ack", "saw_ack", "bool"),
    )
    constants = (("k", "k", "int64"),)

    def load(self) -> None:
        super().load()
        ranks = map(attrgetter("rank"), self.algos)
        self.rank = np.fromiter(
            (-1 if rank is None else rank for rank in ranks),
            np.int64, len(self.algos),
        )

    def step(self, m, fb, q, new_index):
        ks = self.state[m]
        rank = self.rank[m]
        saw = self.saw_ack[m]
        sil = fb == _F_SILENCE
        acked = fb == _F_ACK
        observing = ks == 1
        fire, elim_ack, elim_busy, won = _abs_core_step(
            self, m, ks == self.election, fb
        )

        # Every win counted this step, in wrapper terms: elimination by
        # ack (boxes (1)/(3)/(4)), winning (box (5)), or an observing
        # station hearing the round's first ack.
        ob_ack = observing & acked & ~saw
        win = elim_ack | won | ob_ack
        wins = self.wins[m] + win
        rank = np.where(won, wins, rank)  # rank = wins_observed + 1
        finished = win & (wins >= self.k[m])

        # Observe: the round-ending silence; unranked stations re-enter
        # with a fresh core.
        round_over = observing & sil & saw
        reenter = round_over & (rank < 0)
        ks[finished] = 2
        to_observe_ack = elim_ack & ~finished
        to_observe_quiet = elim_busy | (won & ~finished)
        ks[to_observe_ack | to_observe_quiet] = 1
        ks[reenter] = 0
        saw[to_observe_ack | (ob_ack & ~finished)] = True
        saw[to_observe_quiet | round_over] = False
        _fresh_core(self, m[reenter])

        acts = np.zeros(len(m), dtype=np.int8)
        acts[fire] = _A_TX_CTRL  # KSelection cores never carry packets

        self.state[m] = ks
        self.wins[m] = wins
        self.rank[m] = rank
        self.saw_ack[m] = saw
        return acts

    def store(self) -> None:
        super().store()
        for algo, rank in zip(self.algos, self.rank.tolist()):
            algo.rank = None if rank < 0 else rank


# ----------------------------------------------------------------------
# Schedule programs
# ----------------------------------------------------------------------


def _lockstep_width(station_ids: Sequence[int], sequence_of) -> Fraction:
    """``n`` over the number of lock-step groups, ``sequence_of(sid)``
    naming the slot-length sequence station ``sid`` follows."""
    groups = {sequence_of(sid) for sid in station_ids}
    return Fraction(len(station_ids), len(groups))


class _ConstantSchedule(ScheduleProgram):
    """Shared body for adversaries producing one fixed length everywhere."""

    def _constant_length(self):
        raise NotImplementedError

    def load(self) -> None:
        self.ticks = self._ticks(self._constant_length())

    def lengths(self, m, new_index):
        return np.full(len(m), self.ticks, dtype=np.int64)


@schedules(Synchronous)
class SynchronousProgram(_ConstantSchedule):
    def _constant_length(self):
        return Fraction(1)


@schedules(FixedLength)
class FixedLengthProgram(_ConstantSchedule):
    def _constant_length(self):
        return self.adversary.length


@schedules(PerStationFixed)
class PerStationFixedProgram(ScheduleProgram):
    @classmethod
    def expected_width(cls, adversary, station_ids):
        return _lockstep_width(station_ids, adversary.lengths.get)

    def load(self) -> None:
        table = self.adversary.lengths
        ticks = np.empty(len(self.sids_list), dtype=np.int64)
        for i, sid in enumerate(self.sids_list):
            if sid not in table:
                raise ConfigurationError(
                    f"PerStationFixed has no length for station {sid}"
                )
            ticks[i] = self._ticks(table[sid])
        self.ticks = ticks

    def lengths(self, m, new_index):
        return self.ticks[m]


class _PatternSchedule(ScheduleProgram):
    """Shared body for per-station cyclic patterns: a padded 2-D tick
    table plus per-station pattern lengths, indexed by slot number."""

    def _pattern_for(self, sid: int):
        raise NotImplementedError

    def load(self) -> None:
        # Stations share pattern objects (``WorstCaseCyclic`` has two):
        # each distinct one is converted once, in station order, and
        # every station's row is gathered from those.
        patterns = list(map(self._pattern_for, self.sids_list))
        keys = list(map(id, patterns))
        distinct = dict(zip(keys, patterns))
        row_of = {key: row for row, key in enumerate(distinct)}
        rows = np.fromiter(map(row_of.__getitem__, keys), np.int64, len(keys))
        plen = np.array([len(p) for p in distinct.values()], dtype=np.int64)
        table = np.zeros((len(distinct), int(plen.max())), dtype=np.int64)
        for row, pattern in enumerate(distinct.values()):
            table[row, : len(pattern)] = [self._ticks(x) for x in pattern]
        self.plen = plen[rows]
        self.table = table[rows]

    def lengths(self, m, new_index):
        return self.table[m, new_index % self.plen[m]]


@schedules(CyclicPattern)
class CyclicPatternProgram(_PatternSchedule):
    @classmethod
    def expected_width(cls, adversary, station_ids):
        return _lockstep_width(station_ids, adversary.patterns.get)

    def _pattern_for(self, sid: int):
        patterns = self.adversary.patterns
        if sid not in patterns:
            raise ConfigurationError(
                f"CyclicPattern has no pattern for station {sid}"
            )
        return patterns[sid]


@schedules(WorstCaseCyclic)
class WorstCaseCyclicProgram(_PatternSchedule):
    @classmethod
    def expected_width(cls, adversary, station_ids):
        # Two lock-step groups, the odd and the even stations, at any R.
        return _lockstep_width(station_ids, lambda sid: sid % 2)

    def _pattern_for(self, sid: int):
        adversary = self.adversary
        return adversary.odd_pattern if sid % 2 else adversary.even_pattern


@schedules(TableDriven)
class TableDrivenProgram(ScheduleProgram):
    @classmethod
    def expected_width(cls, adversary, station_ids):
        return _lockstep_width(
            station_ids, lambda sid: adversary.table.get(sid, ())
        )

    def load(self) -> None:
        table = self.adversary.table
        self.default_ticks = self._ticks(self.adversary.default)
        self.rows: List[tuple] = []
        self.row_len = np.zeros(len(self.sids_list), dtype=np.int64)
        for i, sid in enumerate(self.sids_list):
            row = tuple(self._ticks(x) for x in table.get(sid, ()))
            self.rows.append(row)
            self.row_len[i] = len(row)

    def lengths(self, m, new_index):
        out = np.full(len(m), self.default_ticks, dtype=np.int64)
        inside = new_index < self.row_len[m]
        for j in np.nonzero(inside)[0]:
            out[j] = self.rows[int(m[j])][int(new_index[j])]
        return out


@schedules(RandomUniform)
class RandomUniformProgram(ScheduleProgram):
    """Draws stay scalar calls of the adversary's own
    :meth:`~repro.timing.adversary.RandomUniform.draw`, one per member in
    ascending station-id order — the object path's exact draw order
    within a tick."""

    @classmethod
    def expected_width(cls, adversary, station_ids):
        # Independent draws spread the slot ends evenly over the 1/D
        # lattice: n per mean slot length, counted in lattice steps
        # (D + steps/2 for lengths 1 + k/D, k uniform in 0..steps).
        return Fraction(
            2 * len(station_ids), 2 * adversary._denominator + adversary._steps
        )

    def load(self) -> None:
        # 1 + k/den in ticks: D + k * (D // den); D is an lcm multiple
        # of den by lattice construction, so the division is exact.
        lattice_d = self.tb.denominator
        self.base = lattice_d
        self.per_step = lattice_d // self.adversary._denominator

    def lengths(self, m, new_index):
        draw = self.adversary.draw
        draws = [draw() for _ in range(len(m))]
        return self.base + np.array(draws, dtype=np.int64) * self.per_step


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------


#: The ``StationRuntime`` fields the kernel keeps as ``int64`` arrays.
_RUNTIME_FIELDS = ("slot_index", "slot_start", "slot_end", "slots_elapsed")


class BatchKernel:
    """One simulator's array state + the per-tick batched event loop.

    Constructed once per simulator (``Simulator._batch_kernel``).  From
    the kernel's first start or entry on, its arrays hold the run's
    scheduling state; the runtimes (built on the first write) and the
    event heap are written from them only when read
    (``Simulator.stations``) or when the object loop takes over, which
    clears :attr:`current` so that the next entry gathers again.  So
    object-engine steps may happen between kernel runs.
    """

    def __init__(self, sim) -> None:
        #: The simulator, bound by ``Simulator._batch_run`` only while a
        #: run is in progress.  Between runs nothing in the kernel or its
        #: programs refers back to it, so a dropped simulator is freed at
        #: once (not left, with its whole fleet, as one reference cycle
        #: for the cyclic collector), and a deep copy binds its copy.
        self.sim = None
        self.tb = sim.timebase
        self.max_dur = sim._max_slot_internal
        self.sids_list: List[int] = list(sim.station_ids)
        self.sids = np.array(self.sids_list, dtype=np.int64)
        self.algos = list(sim._algorithms.values())
        #: The simulator's runtimes in fleet order, once it has them.
        self.runtimes: Optional[List[StationRuntime]] = None
        #: Each station's queue, in fleet order: ``None`` until it
        #: receives a packet, unless the runtimes (which hold one each)
        #: already exist.
        self.queues: List[Optional[PacketQueue]] = [None] * len(self.algos)
        if sim._stations is not None:
            self._bind_runtimes(sim)
        algorithm_cls = type(self.algos[0])
        self.program: AlgorithmProgram = BATCH_ALGORITHMS[algorithm_cls](self)
        self.schedule: ScheduleProgram = BATCH_SCHEDULES[
            type(sim.slot_adversary)
        ](self, sim.slot_adversary)
        #: Whether the scheduling arrays (slot fields, action codes,
        #: queue lengths, frontier) are the simulator's current state;
        #: the object loop clears it before stepping.
        self.current = False
        #: Whether the runtimes and the event heap lag the arrays (until
        #: :meth:`write_runtimes`).
        self.runtimes_stale = False
        #: Whether :meth:`start` just loaded the programs, so the run
        #: that follows it need not load them again.
        self._fresh = False
        #: The tick frontier: one entry per distinct end tick, holding
        #: ascending fleet-index arrays.  Replaces the per-station (end,
        #: sid) heap while the kernel holds the state; write_runtimes
        #: rebuilds that heap.
        self._groups: Dict[int, List] = {}
        self._tick_heap: List[int] = []

    # -- the start ----------------------------------------------------

    def start(self) -> None:
        """Open every station's first slot at time 0, in bulk.

        The batch form of ``Simulator._start``: the arrivals at 0 are
        pumped and delivered as there, and each automaton's own
        ``first_action`` is called once, in ascending id order (one
        shared context per queue length).  The programs then gather
        their arrays; slot 0's lengths come from the schedule program
        (its draws in ascending id order), and only the transmitting
        members open a channel record, in id order.  No runtime is
        built: the arrays hold the state from here on.
        """
        sim = self.sim
        zero = self.tb.zero
        n = len(self.sids_list)
        everyone = np.arange(n)
        self.qlen = np.zeros(n, dtype=np.int64)
        sim._pump_arrivals(zero)
        self._deliver_arrivals(everyone)
        sizes = self.qlen.tolist()
        contexts = {size: SlotContext(None, size, 0) for size in set(sizes)}
        actions = [
            algo.first_action(contexts[size])
            for algo, size in zip(self.algos, sizes)
        ]
        codes = _action_codes(actions)
        transmitting = np.flatnonzero(codes != _A_LISTEN).tolist()
        # The object loop's checks, in id order: its error for the
        # first illegal first action.
        for i in transmitting:
            check_transmission(
                self.sids_list[i], self.algos[i], actions[i], self.queues[i]
            )
        self.action_code = codes
        self.slot_index = np.zeros(n, dtype=np.int64)
        self.slot_start = np.zeros(n, dtype=np.int64)
        self.slots_elapsed = np.zeros(n, dtype=np.int64)
        self.program.load()
        self.schedule.load()
        self.slot_end = zero + self.schedule.lengths(everyone, self.slot_index)
        self._open_slots(everyone, zero, self.slot_end, codes)
        self.current = True
        self._fresh = True
        self.runtimes_stale = True

    # -- canonical <-> array sync ------------------------------------

    def _load(self) -> None:
        if self._fresh:
            self._fresh = False
            return
        if not self.current:
            self._gather_runtimes()
        self.program.load()
        self.schedule.load()

    def _gather_runtimes(self) -> None:
        """Take the scheduling state over from the runtimes and the
        queues (after object-loop steps)."""
        runtimes = self._bind_runtimes(self.sim)
        for name in _RUNTIME_FIELDS:
            setattr(self, name, _gather(runtimes, name, "int64"))
        self.action_code = _action_codes([rt.action for rt in runtimes])
        self.qlen = np.fromiter(
            map(len, self.queues), np.int64, len(self.queues)
        )
        self._build_frontier()
        self.current = True

    def _bind_runtimes(self, sim) -> List[StationRuntime]:
        """``sim``'s runtimes in fleet order, built (handed the queues
        the kernel made) if it has none yet; their queues are the
        kernel's from then on."""
        if self.runtimes is None:
            self.runtimes = list(sim._runtimes(self.queues).values())
            self.queues = [rt.queue for rt in self.runtimes]
        return self.runtimes

    def _build_frontier(self) -> None:
        self._groups = {}
        self._tick_heap = []
        self._push_ends(np.arange(len(self.sids_list)), self.slot_end)

    def _store(self, stepped: bool) -> None:
        sim = self.sim
        if sim._stations_shared:
            self.write_runtimes(sim)
        else:
            self.runtimes_stale = True
        if stepped:
            # Unstepped, the programs' arrays still equal the objects
            # they were gathered from on this entry.
            self.program.store()

    def write_runtimes(self, sim) -> None:
        """Write the scheduling state into ``sim``'s runtimes (built
        here on the first write) and event heap, as the object loop
        would hold them."""
        runtimes = self._bind_runtimes(sim)
        for name in _RUNTIME_FIELDS:
            _scatter(runtimes, name, "int64", getattr(self, name))
        starts = self.slot_start.tolist()
        ends = self.slot_end.tolist()
        codes = self.action_code.tolist()
        for rt, queue, start, end, code in zip(
            runtimes, self.queues, starts, ends, codes
        ):
            rt.slot_interval = Interval(start, end)
            rt.action = _ACTIONS[code]
            rt.aboard_packet = queue.head() if code == _A_TX_PKT else None
        heap = list(zip(ends, self.sids_list))
        heapq.heapify(heap)
        sim._heap = heap
        self.runtimes_stale = False

    def _push(self, tick: int, members) -> None:
        group = self._groups.get(tick)
        if group is None:
            self._groups[tick] = [members]
            heapq.heappush(self._tick_heap, tick)
        else:
            group.append(members)

    def _push_ends(self, m, ends) -> None:
        """Put the members ``m`` on the frontier at their ``ends``, one
        ascending piece per distinct end tick."""
        order = np.argsort(ends, kind="stable")
        ticks, first = np.unique(ends[order], return_index=True)
        for end, piece in zip(ticks.tolist(), np.split(m[order], first[1:])):
            self._push(end, piece)

    def _open_slots(self, m, start: int, ends, codes) -> None:
        """Open the members' slots ``[start, end)`` with actions
        ``codes``: a channel record per transmitting member, in id
        order, then the frontier push."""
        tx = codes != _A_LISTEN
        channel = self.sim.channel
        for i, end, code in zip(
            m[tx].tolist(), ends[tx].tolist(), codes[tx].tolist()
        ):
            aboard = self.queues[i].head() if code == _A_TX_PKT else None
            channel.begin_transmission(
                self.sids_list[i], Interval(start, end), aboard
            )
        self._push_ends(m, ends)

    # -- the loop -----------------------------------------------------

    def run(
        self,
        limit_internal: Optional[int],
        limit_time,
        max_events: Optional[int],
        check_success: bool,
    ) -> None:
        sim = self.sim
        with collector_paused():
            self._load()
        stepped = False
        try:
            while True:
                if (
                    max_events is not None
                    and sim.events_processed >= max_events
                ):
                    return
                if not self._tick_heap:
                    raise SimulationError(
                        "event heap empty — stations always reschedule"
                    )
                tick = self._tick_heap[0]
                if limit_internal is not None and tick > limit_internal:
                    sim._now_internal = limit_internal
                    sim._now_exact = limit_time
                    return
                heapq.heappop(self._tick_heap)
                pieces = self._groups.pop(tick)
                if len(pieces) == 1:
                    members = pieces[0]
                else:
                    members = np.sort(np.concatenate(pieces))
                stop_after = False
                if check_success and sim.channel.finalized_successes(tick) > 0:
                    # The object loop stops after exactly one event at
                    # the first tick with a finalized success; a length-1
                    # prefix in ascending-id order is that same event.
                    if len(members) > 1:
                        self._push(tick, members[1:])
                    members = members[:1]
                    stop_after = True
                if max_events is not None:
                    room = max_events - sim.events_processed
                    if len(members) > room:
                        self._push(tick, members[room:])
                        members = members[:room]
                stepped = True
                self._process_tick(tick, members)
                if stop_after:
                    return
        finally:
            with collector_paused():
                self._store(stepped)

    def _process_tick(self, tick: int, m) -> None:
        sim = self.sim
        tb = self.tb
        sim._now_internal = tick
        sim._now_exact = None
        if tick >= sim._arrivals_not_before:
            sim._pump_arrivals(tick)

        fb, acked = self._feedback(m, tick)
        codes = self.action_code[m]

        deliver = acked & (codes == _A_TX_PKT)
        if bool(np.any(deliver)):
            tick_public = tb.to_public(tick)
            trace = sim.trace
            for raw in m[deliver]:
                i = int(raw)
                packet = self.queues[i].pop_delivered()
                packet.mark_delivered(
                    at=tick_public,
                    cost=tb.to_public(tick - int(self.slot_start[i])),
                )
                sim._delivered_packets.append(packet)
                sim._total_backlog -= 1
                trace.on_backlog_change(tick_public, sim._total_backlog)
                self.qlen[i] -= 1

        self._deliver_arrivals(m)
        self.slots_elapsed[m] += 1
        new_index = self.slot_index[m] + 1
        q = self.qlen[m]
        acts = self.program.step(m, fb, q, new_index)

        bad = (acts == _A_TX_PKT) & (q == 0)
        if bool(np.any(bad)):
            i = int(m[int(np.argmax(bad))])
            raise illegal_action(
                self.sids_list[i], self.algos[i], TRANSMIT_PACKET
            )

        lengths = self.schedule.lengths(m, new_index)
        ends = tick + lengths
        prune_k = 0
        if not sim.keep_channel_history:
            after = sim.events_processed + len(m)
            last_boundary = after - after % _PRUNE_EVERY
            if last_boundary > sim.events_processed:
                prune_k = last_boundary - sim.events_processed
                old_member_starts = self.slot_start[m]
        self.slot_index[m] = new_index
        self.slot_start[m] = tick
        self.slot_end[m] = ends
        self.action_code[m] = acts
        self._open_slots(m, tick, ends, acts)

        sim.events_processed += len(m)
        if prune_k:
            # The object loop prunes while processing the member that
            # lands on a _PRUNE_EVERY boundary, when only the first
            # ``prune_k`` members of this group have opened their next
            # slot.  Records added by later members all end after
            # ``tick`` >= low-water, so one prune with that boundary's
            # snapshot retains the identical record set.
            starts = self.slot_start.copy()
            starts[m[prune_k:]] = old_member_starts[prune_k:]
            sim.channel._prune_internal(int(starts.min()))

    def _deliver_arrivals(self, m) -> None:
        """Move the members' pending arrivals into their queues.

        Arrivals become visible at the owner's own slot boundary.  Every
        pending packet has arrival tick <= now (the pump ran with
        upto=now), so members drain their whole pending list.  A
        station's queue is made when its first packet arrives.
        """
        pending = self.sim._pending_arrivals
        if not pending:
            return
        member_sids = self.sids[m]
        drained = []
        for sid in pending:
            pos = int(np.searchsorted(member_sids, sid))
            if pos < len(member_sids) and member_sids[pos] == sid:
                drained.append((sid, int(m[pos])))
        for sid, i in drained:
            packets = pending.pop(sid)
            queue = self.queues[i]
            if queue is None:
                queue = self.queues[i] = PacketQueue(station_id=sid)
            for _at, packet in packets:
                queue.push(packet)
            self.qlen[i] += len(packets)

    def index(self, station_id: int) -> int:
        """The fleet index of ``station_id`` (``KeyError`` if none)."""
        i = bisect_left(self.sids_list, station_id)
        if i == len(self.sids_list) or self.sids_list[i] != station_id:
            raise KeyError(station_id)
        return i

    def _feedback(self, m, tick: int):
        """Feedback codes for every member slot ending at ``tick``.

        ``Channel.feedback_for``'s two compares against the channel's
        marks, applied to the whole batch's slot starts at once.
        """
        ack, busy = self.sim.channel.marks(tick)
        starts = self.slot_start[m]
        acked = starts < ack
        fb = np.where(
            acked, _F_ACK, np.where(starts < busy, _F_BUSY, _F_SILENCE)
        ).astype(np.int8)
        return fb, acked


# The adaptive programs register themselves on import; importing the
# module last lets either module be imported first.
from . import batch_adaptive  # noqa: E402,F401
