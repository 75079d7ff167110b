"""Vector programs for the adaptive families — ABS and the ARRoWs.

Most programs in :mod:`repro.core.batch` cover algorithms whose per-slot
decision is a single expression over current state (Aloha draw, turn
comparison, threshold count).  The adaptive families — ABS leader
election, AO-ARRoW, CA-ARRoW and the fault-tolerant CA-ARRoW here, and
k-selection there — are per-event *automata*: one ``on_slot_end`` call
may traverse several transitions (an ABS win immediately enters the
drain state and transmits; an observe-state round boundary immediately
begins a fresh election).  They vectorize under a masked-update /
fixed-point formulation:

* Every automaton field becomes a parallel array (``int8`` state codes,
  ``int64`` counters, ``bool`` flags).  Inner machines nest the same
  way: AO-ARRoW's per-election :class:`~repro.algorithms.abs_leader.
  AbsCore` is five more arrays, valid exactly for the members whose
  outer state is ``election``.
* A transition several automata share is written once, in
  :mod:`repro.core.batch`, and every program whose automaton has it
  calls it: a program that nests or wraps an ``AbsCore`` steps it with
  ``_abs_core_step`` (which hands back the fire, eliminated-by-ACK,
  eliminated-by-BUSY and won masks for the wrapper to act on) and
  restarts it with ``_fresh_core``; a program whose stations hold a
  turn ends the holder's slot on an ACK with ``_end_turn_on_ack`` and
  begins a turn with ``_begin_turn``.
* One tick decomposes into a bounded chain of *masked sub-steps*, all
  computed from the tick-start state snapshot: feedback classification,
  then one disjoint mask per source state, then the follow-on
  transitions (win → drain entry, round boundary → fresh election)
  applied as further masked updates in object-transition order.  Each
  member starts the tick in exactly one state, so the source masks are
  disjoint and the chain needs no conflict resolution; re-running the
  chain on the post-state changes nothing, i.e. the per-tick update is
  the fixed point of its own masked system after one bounded pass.
* Event-order effects stay bit-exact for free: within a tick the object
  loop steps stations in ascending-id order, but no station's
  transition reads another station's *new* state (feedback was fixed
  when the slots ended), so the masked formulation commutes with the
  object order member-for-member — including any mid-tick prefix cut
  by ``max_events`` or ``run_until_success``.

The only scalar escape hatch is the fault-tolerant skip ladder: its
``(A_k, B_k)`` thresholds grow ~``R^2`` per level and overflow int64
near depth 30, and conflict-mode claims stagger by ``(2R)^(id-1)``, so
threshold comparisons there use exact Python integers.  The hot path is
protected by a vectorized gate on ``A_1`` (every ladder action needs at
least ``A_1`` consecutive silent slots, which a crash-free run never
accumulates), so the scalar loop runs only for members actually
climbing the ladder.

Error paths (:class:`~repro.core.errors.ProtocolError` on impossible
feedback) raise the canonical messages but, as everywhere in the batch
engine, the amount of work done before raising may differ from the
object loop; error paths are outside the parity contract.
"""

from __future__ import annotations

try:
    import numpy as np
except ImportError:  # pragma: no cover - the toolchain bakes numpy in
    np = None

from ..algorithms.abs_leader import ABSLeaderElection
from ..algorithms.ao_arrow import AOArrow
from ..algorithms.ca_arrow import CAArrow
from ..algorithms.ca_arrow_ft import FaultTolerantCAArrow, _ceil
from .errors import ProtocolError
from .batch import (
    _A_TX_CTRL,
    _A_TX_PKT,
    _CORE_FIELDS,
    _F_ACK,
    _F_BUSY,
    _F_SILENCE,
    _TX_SILENCE_ERROR,
    AbsCoreProgram,
    AlgorithmProgram,
    NestedAbsCoreProgram,
    _abs_core_step,
    _begin_turn,
    _end_turn_on_ack,
    _fresh_core,
    vectorizes,
)

#: ``silent_run`` gate clamp for the fault-tolerant skip ladder.  No run
#: can accumulate 2^62 consecutive silent slots, so clamping ``A_1`` here
#: keeps the vectorized gate in int64 without changing reachable
#: behaviour (the scalar path re-checks against the exact integers).
_LADDER_GATE_MAX = 1 << 62


@vectorizes(ABSLeaderElection)
class ABSLeaderElectionProgram(AbsCoreProgram):
    """Standalone ABS: the wrapper holds one :class:`AbsCore` forever
    (terminated stations listen without stepping the core), so the
    program is the core's fields plus the outcome as arrays."""

    adaptive = True
    mirrored = tuple(
        (name, "core." + path, kind) for name, path, kind in _CORE_FIELDS
    ) + (
        ("outcome", "core.outcome", (None, "won", "eliminated")),
        ("by_ack", "core.eliminated_by_ack", "bool"),
    )
    constants = (
        ("t0", "core._threshold0", "int64"),
        ("t1", "core._threshold1", "int64"),
        ("carries", "core.carries_packet", "bool"),
    )

    def step(self, m, fb, q, new_index):
        fire, elim_ack, elim_busy, won = _abs_core_step(
            self, m, self.outcome[m] == 0, fb
        )
        self.outcome[m[elim_ack | elim_busy]] = 2
        self.outcome[m[won]] = 1
        self.by_ack[m[elim_ack]] = True
        self.by_ack[m[elim_busy]] = False
        acts = np.zeros(len(m), dtype=np.int8)
        carries = self.carries[m]
        acts[fire & carries] = _A_TX_PKT
        acts[fire & ~carries] = _A_TX_CTRL
        return acts


_AO_STATES = ("observe", "election", "drain", "sync_wait", "sync_tx")


@vectorizes(AOArrow)
class AOArrowProgram(NestedAbsCoreProgram):
    """AO-ARRoW: the Fig. 5 outer machine plus a nested AbsCore per
    electing member."""

    adaptive = True
    election = _AO_STATES.index("election")
    carries_packet = True
    mirrored = (
        ("state", "state", _AO_STATES),
        ("wait", "wait", "int64"),
        ("silence", "silence_run", "int64"),
        ("saw", "saw_ack", "bool"),
        ("sync", "sync_count", "int64"),
        ("entered", "stats.elections_entered", "int64"),
        ("won_count", "stats.elections_won", "int64"),
        ("drained", "stats.packets_drained", "int64"),
        ("sync_sent", "stats.sync_signals_sent", "int64"),
        ("rounds", "stats.rounds_observed", "int64"),
        ("drain_coll", "stats.drain_collisions", "int64"),
    )
    constants = (
        ("n", "n_stations", "int64"),
        ("sync_threshold", "sync_threshold", "int64"),
        ("sync_extra", "sync_extra", "int64"),
    )

    def step(self, m, fb, q, new_index):
        st = self.state[m]
        wait = self.wait[m]
        silence = self.silence[m]
        saw = self.saw[m]
        sync = self.sync[m]
        sil = fb == _F_SILENCE
        busy = fb == _F_BUSY
        acked = fb == _F_ACK
        act = ~sil
        has_q = q > 0

        acts = np.zeros(len(m), dtype=np.int8)
        new_st = st.copy()
        begin_el = np.zeros(len(m), dtype=bool)

        # --- election members: one AbsCore.step each -----------------
        fire, elim_ack, elim_busy, won = _abs_core_step(
            self, m, st == self.election, fb
        )
        acts[fire] = _A_TX_PKT  # AO-ARRoW cores carry packets
        self.won_count[m] += won
        drain_enter = won & has_q
        new_st[drain_enter] = 2
        acts[drain_enter] = _A_TX_PKT
        finish_win = won & ~drain_enter

        # --- drain members -------------------------------------------
        dr = st == 2
        if bool(np.any(dr & sil)):
            raise ProtocolError(_TX_SILENCE_ERROR)
        dr_ack = dr & acked
        self.drained[m] += dr_ack
        dr_busy = dr & busy
        self.drain_coll[m] += dr_busy
        acts[dr_busy] = _A_TX_PKT
        dr_more = dr_ack & has_q
        acts[dr_more] = _A_TX_PKT
        dr_finish = dr_ack & ~dr_more

        # _finish_own_round: withhold, then observe with saw_ack=False.
        fin = finish_win | dr_finish
        wait[fin] = self.n[m][fin] - 1
        new_st[fin] = 0
        silence[fin] = 0
        saw[fin] = False
        # Eliminated: observe with saw_ack = eliminated-by-ack.
        elim = elim_ack | elim_busy
        new_st[elim] = 0
        silence[elim] = 0
        saw[elim] = elim_ack[elim]

        # --- sync_wait members ---------------------------------------
        sw = st == 3
        sw_act = sw & act  # another station's sync signal: rejoin
        begin_el |= sw_act
        sw_sil = sw & sil
        sync = sync + sw_sil
        to_tx = sw_sil & (sync >= self.sync_extra[m])
        new_st[to_tx] = 4
        acts[to_tx] = _A_TX_PKT

        # --- sync_tx members -----------------------------------------
        sx = st == 4
        if bool(np.any(sx & sil)):
            raise ProtocolError(_TX_SILENCE_ERROR)
        self.sync_sent[m] += sx
        sx_el = sx & has_q
        begin_el |= sx_el
        sx_ob = sx & ~has_q
        new_st[sx_ob] = 0
        silence[sx_ob] = 0
        saw[sx_ob] = False

        # --- observe members -----------------------------------------
        ob = st == 0
        # Activity after a crossed threshold is a sync signal (box (9)):
        # the comparison uses the pre-reset silence run.
        hot = ob & act & (silence >= self.sync_threshold[m])
        wait[hot] = 0
        silence[hot] = 0
        saw[hot] = False
        begin_el |= hot & has_q
        cold = ob & act & ~hot
        saw |= cold & acked
        silence[cold] = 0
        ob_sil = ob & sil
        bound = ob_sil & saw  # round boundary: ack then quiet
        silence = silence + ob_sil
        saw[bound] = False
        self.rounds[m] += bound
        dec = bound & (wait > 0)
        wait[dec] -= 1
        begin_el |= bound & has_q & (wait == 0)
        long_sil = ob_sil & ~bound & (silence >= self.sync_threshold[m])
        wait[long_sil] = 0
        to_sw = long_sil & has_q
        new_st[to_sw] = 3
        sync[to_sw] = 0

        # --- fresh elections (box (2)); action is core.start(): LISTEN.
        self.entered[m] += begin_el
        new_st[begin_el] = 1
        _fresh_core(self, m[begin_el])

        self.state[m] = new_st
        self.wait[m] = wait
        self.silence[m] = silence
        self.saw[m] = saw
        self.sync[m] = sync
        return acts


_CA_STATES = ("wait_end", "gap", "transmitting")

#: The turn ring both CA-ARRoW programs mirror.
_RING_MIRRORED = (
    ("turn", "turn", "int64"),
    ("heard", "heard_activity", "bool"),
    ("gap_count", "gap_count", "int64"),
    ("noise", "_noise_turn", "bool"),
    ("turns_taken", "stats.turns_taken", "int64"),
    ("packets_sent", "stats.packets_sent", "int64"),
    ("empty_signals", "stats.empty_signals_sent", "int64"),
    ("unexpected_busy", "stats.unexpected_busy", "int64"),
)
_RING_CONSTANTS = (
    ("n", "n_stations", "int64"),
    ("gap_slots", "gap_slots", "int64"),
)


@vectorizes(CAArrow)
class CAArrowProgram(AlgorithmProgram):
    """CA-ARRoW: the Fig. 6 turn ring as arrays; per-member ``gap_slots``
    supports the ablation override without demoting."""

    adaptive = True
    mirrored = (("state", "state", _CA_STATES),) + _RING_MIRRORED
    constants = _RING_CONSTANTS

    def step(self, m, fb, q, new_index):
        st = self.state[m]
        turn = self.turn[m]
        heard = self.heard[m]
        gap_count = self.gap_count[m]
        sil = fb == _F_SILENCE
        act = ~sil
        has_q = q > 0

        tx = st == 2
        if bool(np.any(tx & sil)):
            raise ProtocolError(_TX_SILENCE_ERROR)
        acts = np.zeros(len(m), dtype=np.int8)
        new_st = st.copy()

        retry = tx & (fb == _F_BUSY)
        self.unexpected_busy[m] += retry
        acts[retry] = np.where(self.noise[m][retry], _A_TX_CTRL, _A_TX_PKT)
        over = _end_turn_on_ack(self, m, tx & (fb == _F_ACK), has_q, acts)

        waiting = st == 0
        advance = over | (waiting & sil & heard)
        heard |= waiting & act
        in_gap = st == 1
        gap_count[in_gap & act] = 0

        turn[advance] = turn[advance] % self.n[m][advance] + 1
        heard[advance] = False
        to_gap = advance & (turn == self.sids[m])
        new_st[to_gap] = 1
        gap_count[to_gap] = 0
        new_st[advance & ~to_gap] = 0

        counting = in_gap & sil
        gap_count += counting
        begin = counting & (gap_count >= self.gap_slots[m])
        _begin_turn(self, m, begin, has_q, acts)
        new_st[begin] = 2

        self.state[m] = new_st
        self.turn[m] = turn
        self.heard[m] = heard
        self.gap_count[m] = gap_count
        return acts


_FT_STATES = ("wait_end", "gap", "transmitting", "claim")


@vectorizes(FaultTolerantCAArrow)
class FaultTolerantCAArrowProgram(AlgorithmProgram):
    """Fault-tolerant CA-ARRoW: the ring vectorizes like CA-ARRoW; the
    skip ladder stays scalar behind a vectorized ``A_1`` gate because
    its thresholds overflow int64 (geometric in ``R^2`` per level, and
    conflict-mode claims scale by ``(2R)^(id-1)``)."""

    adaptive = True
    mirrored = (("state", "state", _FT_STATES),) + _RING_MIRRORED + (
        ("silent", "silent_run", "int64"),
        ("skip", "skip_count", "int64"),
        ("conflict", "conflict_mode", "bool"),
        ("ladder_rounds", "ladder_rounds", "int64"),
        ("claimflag", "_current_activity_is_claim", "bool"),
        ("skips", "stats.skips", "int64"),
        ("recoveries", "stats.recoveries_claimed", "int64"),
    )
    constants = _RING_CONSTANTS

    def load(self) -> None:
        super().load()
        self.a1 = np.fromiter(
            (min(algo.ladder[0][0], _LADDER_GATE_MAX) for algo in self.algos),
            np.int64, len(self.algos),
        )

    def step(self, m, fb, q, new_index):
        st = self.state[m]
        turn = self.turn[m]
        heard = self.heard[m]
        gap_count = self.gap_count[m]
        silent = self.silent[m]
        skip = self.skip[m]
        conflict = self.conflict[m]
        lrounds = self.ladder_rounds[m]
        claimflag = self.claimflag[m]
        n = self.n[m]
        sids = self.sids[m]
        sil = fb == _F_SILENCE
        act = ~sil
        has_q = q > 0

        tx = st == 2
        if bool(np.any(tx & sil)):
            raise ProtocolError(_TX_SILENCE_ERROR)
        acts = np.zeros(len(m), dtype=np.int8)
        new_st = st.copy()

        # --- transmitting members ------------------------------------
        tx_busy = tx & (fb == _F_BUSY)
        self.unexpected_busy[m] += tx_busy
        conflict[tx_busy] = True
        claimflag[tx_busy] = False
        new_st[tx_busy] = 0
        heard[tx_busy] = True
        tx_ack = tx & (fb == _F_ACK)
        conflict[tx_ack] = False
        over = _end_turn_on_ack(self, m, tx_ack, has_q, acts)
        silent[tx] = 0
        skip[tx] = 0

        # --- activity heard by non-transmitting members --------------
        ntx_act = ~tx & act
        # Classification uses the pre-reset silent run: a claim follows
        # a silence every station counted past A_1.
        claimy = ntx_act & (silent >= self.a1[m])
        lrounds += claimy
        ring_reset = claimy & (lrounds >= n)
        lrounds[ring_reset] = 0
        turn[ring_reset] = 0
        conflict[ring_reset] = False
        claimflag[claimy] = True
        silent[ntx_act] = 0
        skip[ntx_act] = 0
        from_claim = ntx_act & (st == 3)
        new_st[from_claim] = 0
        act_gap = ntx_act & (st == 1)
        gap_count[act_gap] = 0
        heard[ntx_act & (st != 1)] = True

        # --- silence heard by non-transmitting members ---------------
        ntx_sil = ~tx & sil
        silent += ntx_sil
        g_sil = ntx_sil & (st == 1)
        gap_count += g_sil
        begin = g_sil & (gap_count >= self.gap_slots[m])
        w_end = ntx_sil & (st == 0) & self.heard[m]
        silent[w_end] = 1  # this silent slot starts the quiet period

        # _advance_turn_normal for finished turns and observed turn ends.
        advance = over | w_end
        adv_claim = advance & claimflag
        claimflag[adv_claim] = False
        lrounds[advance & ~adv_claim] = 0
        turn[advance] = turn[advance] % n[advance] + 1
        heard[advance] = False
        to_gap = advance & (turn == sids)
        new_st[to_gap] = 1
        gap_count[to_gap] = 0
        new_st[advance & ~to_gap] = 0

        # --- the skip ladder (scalar, exact integers) ----------------
        # Only wait_end-without-activity and claim members consult it,
        # and every ladder action needs silent_run >= A_1.
        rest = ntx_sil & ~g_sil & ~w_end
        for j in np.flatnonzero(rest & (silent >= self.a1[m])).tolist():
            algo = self.algos[int(m[j])]
            run = int(silent[j])
            if st[j] == 3:  # claim: speak once B_k is reached
                b_k = algo.ladder[int(skip[j]) - 1][1]
                if conflict[j]:
                    b_k = _ceil(
                        b_k
                        * (2 * algo.max_slot_length)
                        ** (algo.station_id - 1)
                    )
                if run >= b_k:
                    self.recoveries[m[j]] += 1
                    lrounds[j] += 1
                    if lrounds[j] >= n[j]:
                        lrounds[j] = 0
                        turn[j] = 0
                        conflict[j] = False
                    claimflag[j] = True
                    begin[j] = True
            else:  # wait_end without observed activity: skip ahead
                if skip[j] >= len(algo.ladder):
                    continue  # ladder exhausted; stay quiet
                a_k = algo.ladder[int(skip[j])][0]
                if run >= a_k:
                    turn[j] = turn[j] % n[j] + 1
                    skip[j] += 1
                    self.skips[m[j]] += 1
                    heard[j] = False
                    new_st[j] = 3 if turn[j] == sids[j] else 0

        # Gap ends and ladder claims begin a turn; the own transmission
        # is activity.
        silent[begin] = 0
        skip[begin] = 0
        _begin_turn(self, m, begin, has_q, acts)
        new_st[begin] = 2

        self.state[m] = new_st
        self.turn[m] = turn
        self.heard[m] = heard
        self.gap_count[m] = gap_count
        self.silent[m] = silent
        self.skip[m] = skip
        self.conflict[m] = conflict
        self.ladder_rounds[m] = lrounds
        self.claimflag[m] = claimflag
        return acts
