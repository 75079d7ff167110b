"""Vectorized whole-fleet kernel — the ``engine="batch"`` fast path.

The per-object event loop in :mod:`repro.core.simulator` costs a few
microseconds of Python per slot per station; at n = 10^4..10^6 stations
that Python overhead dominates the run.  This module provides an
alternative *inner loop* over the very same canonical state: all slots
ending at one lattice tick are processed as a single NumPy batch.

Design contract (the parity-oracle contract, see docs/vectorization.md):

* The kernel mutates only the simulator's canonical objects — the real
  :class:`~repro.core.channel.Channel`, the real
  :class:`~repro.core.packet.PacketQueue` per station, the real
  :class:`~repro.core.trace.Trace` — through the same calls, in the
  same order, as the object path.  Whole-fleet per-slot state (queue
  depths, automaton phase, slot boundaries) is mirrored into NumPy
  arrays on entry (:meth:`BatchKernel._load`) and written back on exit
  (:meth:`BatchKernel._store`), so object- and batch-engine ``run()``
  calls can be freely interleaved on one simulator.  Each vector
  program declares the fields it mirrors
  (:attr:`AlgorithmProgram.mirrored`), and one gather and one scatter
  copy them all.
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
start rather than at the offending slot.  The exception type and
message are the canonical ones; only the amount of work done before
raising differs, and error paths are outside the parity contract.
"""

from __future__ import annotations

import heapq
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
from .station import (
    LISTEN,
    TRANSMIT_CONTROL,
    TRANSMIT_PACKET,
    AlwaysListen,
    AlwaysTransmit,
)
from .timebase import Interval
from .simulator import _PRUNE_EVERY

#: Action codes used inside the kernel (``int8``).
_A_LISTEN, _A_TX_PKT, _A_TX_CTRL = 0, 1, 2
_ACTIONS = (LISTEN, TRANSMIT_PACKET, TRANSMIT_CONTROL)

#: Feedback codes used inside the kernel (``int8``).
_F_SILENCE, _F_BUSY, _F_ACK = 0, 1, 2

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
    algorithm_classes = {type(rt.algorithm) for rt in sim.stations.values()}
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
    fleet = [sim.stations[sid].algorithm for sid in sim.station_ids]
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
    algorithm = sim.stations[next(iter(sim.station_ids))].algorithm
    return BATCH_ALGORITHMS[type(algorithm)]


def promotion_detail(sim) -> str:
    """Which vector programs a batch-eligible run matched.

    Surfaced through ``Simulator.engine_detail`` on promotion (the
    demotion counterpart is :func:`batch_blocker`'s reason) and printed
    by ``repro run --verbose-engine``.
    """
    algorithm = sim.stations[next(iter(sim.station_ids))].algorithm
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
        return int(self.tb.check_slot_length(public_length, self.max_dur))

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
    ``random.Random`` (drawn only when the queue is non-empty, exactly
    as ``SlottedAloha._decide`` does), so RNG streams remain canonical.
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
            if algo._rng.random() < algo.transmit_probability:
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
            raise ProtocolError(
                "silence feedback on a transmitting slot — broken channel model"
            )
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
        noise = self.noise[m]
        turn = self.turn[m]
        silent = fb == _F_SILENCE
        busy = fb == _F_BUSY
        acked = fb == _F_ACK

        transmit = state == 2
        if bool(np.any(transmit & silent)):
            raise ProtocolError(
                "silence feedback on a transmitting slot — broken channel model"
            )
        acts = np.zeros(len(m), dtype=np.int8)

        retry = transmit & busy
        self.retries[m] += retry
        acts[retry] = np.where(noise[retry], _A_TX_CTRL, _A_TX_PKT)

        done = transmit & acked
        self.empty_signals[m] += done & noise
        self.packets_sent[m] += done & ~noise
        burst_more = done & ~noise & (q > 0)
        acts[burst_more] = _A_TX_PKT
        finish = done & ~burst_more  # fall silent; own burst counts as activity

        pending = state == 1  # transmit_pending: begin regardless of feedback
        self.turns_taken[m] += pending
        begin_pkt = pending & (q > 0)
        begin_ctrl = pending & (q == 0)
        acts[begin_pkt] = _A_TX_PKT
        acts[begin_ctrl] = _A_TX_CTRL

        waiting = state == 0
        hear = waiting & (busy | acked)
        advance = waiting & silent & heard

        new_state = state.copy()
        new_heard = heard.copy()
        new_noise = noise.copy()
        new_turn = turn.copy()
        new_state[finish] = 0
        new_heard[finish] = True
        new_state[pending] = 2
        new_noise[begin_pkt] = False
        new_noise[begin_ctrl] = True
        new_heard[hear] = True
        new_turn[advance] = turn[advance] % self.n[m][advance] + 1
        new_heard[advance] = False
        my_turn = advance & (new_turn == self.sids[m])
        new_state[my_turn] = 1

        self.state[m] = new_state
        self.heard[m] = new_heard
        self.noise[m] = new_noise
        self.turn[m] = new_turn
        return acts


_ABS_STATES = ("wait_silence", "listen_threshold", "transmitted")

#: The nested :class:`AbsCore`'s mirrored fields.
_CORE_FIELDS: Tuple[Field, ...] = (
    ("ast", "state", _ABS_STATES),
    ("aphase", "phase", "int64"),
    ("asil", "silent_heard", "int64"),
    ("athr", "threshold", "int64"),
    ("aused", "slots_used", "int64"),
)


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
        uppers = [algo.max_slot_length for algo in algos]
        self.t0 = np.fromiter(
            map(abs_listen_threshold_bit0, uppers), np.int64, len(uppers)
        )
        self.t1 = np.fromiter(
            map(abs_listen_threshold_bit1, uppers), np.int64, len(uppers)
        )

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
    """k-selection: the outer observe/re-enter machine and the inner ABS
    core both become int8 state arrays.  ``rank`` is mirrored with -1
    standing for ``None``.
    """

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
        ast = self.ast[m]
        phase = self.aphase[m]
        silent = self.asil[m]
        threshold = self.athr[m]
        used = self.aused[m]
        wins = self.wins[m]
        rank = self.rank[m]
        saw = self.saw_ack[m]
        sids = self.sids[m]
        sil = fb == _F_SILENCE
        busy = fb == _F_BUSY
        acked = fb == _F_ACK

        electing = ks == 0
        used = used + electing  # AbsCore.step: slots_used += 1
        a0 = electing & (ast == 0)
        a1 = electing & (ast == 1)
        a2 = electing & (ast == 2)
        if bool(np.any(a2 & sil)):
            raise ProtocolError(
                "channel reported silence for a slot this station "
                "transmitted in — broken channel model"
            )
        observing = ks == 1

        # Every win counted this step, in wrapper terms: elimination by
        # ack (boxes (1)/(3)/(4)), winning (box (5)), or an observing
        # station hearing the round's first ack.
        w_ack = a0 & acked
        l_ack = a1 & acked
        x_ack = a2 & acked
        ob_ack = observing & acked & ~saw
        win = w_ack | l_ack | x_ack | ob_ack
        wins = wins + win
        rank = np.where(x_ack, wins, rank)  # rank = wins_observed + 1
        finished = win & (wins >= self.k[m])

        new_ks = ks.copy()
        new_saw = saw.copy()
        new_ks[finished] = 2
        to_observe_ack = (w_ack | l_ack) & ~finished
        to_observe_quiet = (a1 & busy) | (x_ack & ~finished)
        new_ks[to_observe_ack | to_observe_quiet] = 1
        new_saw[to_observe_ack] = True
        new_saw[to_observe_quiet] = False
        new_saw[ob_ack & ~finished] = True

        # ABS inner transitions (non-terminal ones).
        arm = a0 & sil  # box (1) -> boxes (3)/(4)
        bit = (sids >> phase) & 1
        threshold = np.where(
            arm, np.where(bit == 1, self.t1[m], self.t0[m]), threshold
        )
        silent_n = np.where(arm, 0, silent)
        ast_n = np.where(arm, 1, ast)
        count = a1 & sil
        silent_n = silent_n + count
        fire = count & (silent_n >= threshold)  # box (5): transmit
        ast_n = np.where(fire, 2, ast_n)
        next_phase = a2 & busy  # collision: next bit, back to box (1)
        phase = phase + next_phase
        ast_n = np.where(next_phase, 0, ast_n)

        # Observe: the round-ending silence; unranked stations re-enter
        # with a *fresh* core.
        round_over = observing & sil & saw
        new_saw[round_over] = False
        reenter = round_over & (rank < 0)
        new_ks[reenter] = 0
        ast_n = np.where(reenter, 0, ast_n)
        phase = np.where(reenter, 0, phase)
        silent_n = np.where(reenter, 0, silent_n)
        threshold = np.where(reenter, 0, threshold)
        used = np.where(reenter, 0, used)

        acts = np.zeros(len(m), dtype=np.int8)
        acts[fire] = _A_TX_CTRL  # KSelection cores never carry packets

        self.state[m] = new_ks
        self.ast[m] = ast_n
        self.aphase[m] = phase
        self.asil[m] = silent_n
        self.athr[m] = threshold
        self.aused[m] = used
        self.wins[m] = wins
        self.rank[m] = rank
        self.saw_ack[m] = new_saw
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
        sids = self.sids_list
        patterns = [self._pattern_for(sid) for sid in sids]
        self.plen = np.array([len(p) for p in patterns], dtype=np.int64)
        width = int(self.plen.max())
        table = np.zeros((len(sids), width), dtype=np.int64)
        for i, pattern in enumerate(patterns):
            table[i, : len(pattern)] = [self._ticks(x) for x in pattern]
        self.table = table

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
    """Draws stay scalar calls on the adversary's own ``random.Random``,
    one per member in ascending station-id order — the object path's
    exact draw order within a tick."""

    @classmethod
    def expected_width(cls, adversary, station_ids):
        # Independent draws spread the slot ends evenly over the 1/D
        # lattice: n per mean slot length, counted in lattice steps
        # (D + steps/2 for lengths 1 + k/D, k uniform in 0..steps).
        return Fraction(
            2 * len(station_ids), 2 * adversary._denominator + adversary._steps
        )

    def load(self) -> None:
        adversary = self.adversary
        lattice_d = self.tb.denominator
        self.steps = adversary._steps
        # 1 + k/den in ticks: D + k * (D // den); D is an lcm multiple
        # of den by lattice construction, so the division is exact.
        self.base = lattice_d
        self.per_step = lattice_d // adversary._denominator

    def lengths(self, m, new_index):
        rng = self.adversary._rng
        steps = self.steps
        out = np.empty(len(m), dtype=np.int64)
        for j in range(len(m)):
            out[j] = self.base + rng.randint(0, steps) * self.per_step
        return out


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------


#: The ``StationRuntime`` fields the kernel keeps as ``int64`` arrays.
_RUNTIME_FIELDS = ("slot_index", "slot_start", "slot_end", "slots_elapsed")


class BatchKernel:
    """One simulator's array state + the per-tick batched event loop.

    Constructed once per simulator (``Simulator._batch_kernel``); every
    ``run`` call re-snapshots canonical state, so object-engine steps
    may happen between kernel runs.
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
        self.runtimes = [sim.stations[sid] for sid in self.sids_list]
        self.algos = [rt.algorithm for rt in self.runtimes]
        self.queues = [rt.queue for rt in self.runtimes]
        algorithm_cls = type(self.algos[0])
        self.program: AlgorithmProgram = BATCH_ALGORITHMS[algorithm_cls](self)
        self.schedule: ScheduleProgram = BATCH_SCHEDULES[
            type(sim.slot_adversary)
        ](self, sim.slot_adversary)

    # -- canonical <-> array sync ------------------------------------

    def _load(self) -> None:
        sim = self.sim
        runtimes = self.runtimes
        for name in _RUNTIME_FIELDS:
            setattr(self, name, _gather(runtimes, name, "int64"))
        self.action_code = np.array(
            [
                _A_LISTEN
                if not rt.action.is_transmit
                else (_A_TX_PKT if rt.action.carries_packet else _A_TX_CTRL)
                for rt in runtimes
            ],
            dtype=np.int8,
        )
        self.qlen = np.array([len(q) for q in self.queues], dtype=np.int64)
        self._pending_nonempty = {
            sid for sid, pending in sim._pending_arrivals.items() if pending
        }
        # Frontier: one entry per distinct end tick, holding ascending
        # fleet-index arrays.  Replaces the per-station (end, sid) heap
        # while the kernel runs; _store rebuilds the canonical heap.
        order = np.argsort(self.slot_end, kind="stable")
        sorted_ends = self.slot_end[order]
        ticks, first = np.unique(sorted_ends, return_index=True)
        self._groups: Dict[int, List] = {}
        self._tick_heap: List[int] = []
        for tick, piece in zip(ticks, np.split(order, first[1:])):
            self._push(int(tick), piece)
        self.program.load()
        self.schedule.load()

    def _store(self) -> None:
        runtimes = self.runtimes
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
        self.sim._event_heap = heap
        self.program.store()

    def _push(self, tick: int, members) -> None:
        group = self._groups.get(tick)
        if group is None:
            self._groups[tick] = [members]
            heapq.heappush(self._tick_heap, tick)
        else:
            group.append(members)

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
                self._process_tick(tick, members)
                if stop_after:
                    return
        finally:
            with collector_paused():
                self._store()

    def _process_tick(self, tick: int, m) -> None:
        sim = self.sim
        tb = self.tb
        sim._now_internal = tick
        sim._now_exact = None
        if tick >= sim._arrivals_not_before:
            injected = sim._pump_arrivals(tick)
            if injected:
                self._pending_nonempty.update(injected)

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

        if self._pending_nonempty:
            # Arrivals become visible at the owner's own slot boundary.
            # Every pending packet has arrival tick <= now (the pump ran
            # with upto=now), so members drain their whole pending list.
            member_sids = self.sids[m]
            drained = []
            for sid in self._pending_nonempty:
                pos = int(np.searchsorted(member_sids, sid))
                if pos < len(member_sids) and member_sids[pos] == sid:
                    i = int(m[pos])
                    pending = sim._pending_arrivals[sid]
                    queue = self.queues[i]
                    for _at, packet in pending:
                        queue.push(packet)
                    self.qlen[i] += len(pending)
                    pending.clear()
                    drained.append(sid)
            for sid in drained:
                self._pending_nonempty.discard(sid)

        self.slots_elapsed[m] += 1
        new_index = self.slot_index[m] + 1
        q = self.qlen[m]
        acts = self.program.step(m, fb, q, new_index)

        bad = (acts == _A_TX_PKT) & (q == 0)
        if bool(np.any(bad)):
            i = int(m[int(np.argmax(bad))])
            raise ProtocolError(
                f"station {self.sids_list[i]}: "
                f"{type(self.algos[i]).__name__} transmitted a packet "
                "from an empty queue"
            )

        lengths = self.schedule.lengths(m, new_index)
        ends = tick + lengths
        prune_k = 0
        if not sim.keep_channel_history:
            after = sim.events_processed + len(m)
            last_boundary = after - after % _PRUNE_EVERY
            if last_boundary > sim.events_processed:
                prune_k = last_boundary - sim.events_processed
                old_member_starts = self.slot_start[m].copy()
        self.slot_index[m] = new_index
        self.slot_start[m] = tick
        self.slot_end[m] = ends
        self.action_code[m] = acts

        transmitting = acts != _A_LISTEN
        if bool(np.any(transmitting)):
            channel = sim.channel
            tx_members = m[transmitting]
            tx_ends = ends[transmitting]
            tx_codes = acts[transmitting]
            for j in range(len(tx_members)):
                i = int(tx_members[j])
                aboard = (
                    self.queues[i].head()
                    if tx_codes[j] == _A_TX_PKT
                    else None
                )
                channel.begin_transmission(
                    self.sids_list[i],
                    Interval(tick, int(tx_ends[j])),
                    aboard,
                )

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

        order = np.argsort(ends, kind="stable")
        sorted_ends = ends[order]
        sorted_members = m[order]
        ticks, first = np.unique(sorted_ends, return_index=True)
        for end, piece in zip(ticks, np.split(sorted_members, first[1:])):
            self._push(int(end), piece)

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
