"""Vector programs for the adaptive families — ABS and the ARRoWs.

The programs in :mod:`repro.core.batch` cover algorithms whose per-slot
decision is a single expression over current state (Aloha draw, turn
comparison, threshold count).  The adaptive families — ABS leader
election, AO-ARRoW, CA-ARRoW and the fault-tolerant CA-ARRoW — are
per-event *automata*: one ``on_slot_end`` call may traverse several
transitions (an ABS win immediately enters the drain state and
transmits; an observe-state round boundary immediately begins a fresh
election).  They vectorize under a masked-update / fixed-point
formulation:

* Every automaton field becomes a parallel array (``int8`` state codes,
  ``int64`` counters, ``bool`` flags).  Inner machines nest the same
  way: AO-ARRoW's per-election :class:`~repro.algorithms.abs_leader.
  AbsCore` is five more arrays, valid exactly for the members whose
  outer state is ``election``.
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
from ..algorithms.ca_arrow_ft import FaultTolerantCAArrow
from .errors import ProtocolError
from .batch import (
    _ABS_STATES,
    _A_TX_CTRL,
    _A_TX_PKT,
    _F_ACK,
    _F_BUSY,
    _F_SILENCE,
    AbsCoreProgram,
    AlgorithmProgram,
    NestedAbsCoreProgram,
    vectorizes,
)

#: ``silent_run`` gate clamp for the fault-tolerant skip ladder.  No run
#: can accumulate 2^62 consecutive silent slots, so clamping ``A_1`` here
#: keeps the vectorized gate in int64 without changing reachable
#: behaviour (the scalar path re-checks against the exact integers).
_LADDER_GATE_MAX = 1 << 62

_ABS_SILENCE_ERROR = (
    "channel reported silence for a slot this station "
    "transmitted in — broken channel model"
)
_TX_SILENCE_ERROR = (
    "silence feedback on a transmitting slot — broken channel model"
)


@vectorizes(ABSLeaderElection)
class ABSLeaderElectionProgram(AbsCoreProgram):
    """Standalone ABS: the wrapper holds one :class:`AbsCore` forever
    (terminated stations listen without stepping the core), so the
    program is the core's five fields plus the outcome as arrays."""

    adaptive = True
    mirrored = (
        ("ast", "core.state", _ABS_STATES),
        ("outcome", "core.outcome", (None, "won", "eliminated")),
        ("by_ack", "core.eliminated_by_ack", "bool"),
        ("phase", "core.phase", "int64"),
        ("silent", "core.silent_heard", "int64"),
        ("threshold", "core.threshold", "int64"),
        ("used", "core.slots_used", "int64"),
    )
    constants = (
        ("t0", "core._threshold0", "int64"),
        ("t1", "core._threshold1", "int64"),
        ("carries", "core.carries_packet", "bool"),
    )

    def step(self, m, fb, q, new_index):
        ast = self.ast[m]
        outcome = self.outcome[m]
        phase = self.phase[m]
        silent = self.silent[m]
        threshold = self.threshold[m]
        sids = self.sids[m]
        sil = fb == _F_SILENCE
        busy = fb == _F_BUSY
        acked = fb == _F_ACK

        live = outcome == 0
        self.used[m] += live  # AbsCore.step: slots_used += 1
        a0 = live & (ast == 0)
        a1 = live & (ast == 1)
        a2 = live & (ast == 2)
        if bool(np.any(a2 & sil)):
            raise ProtocolError(_ABS_SILENCE_ERROR)

        elim_ack = (a0 | a1) & acked
        elim_busy = a1 & busy
        won = a2 & acked

        new_out = outcome.copy()
        new_by_ack = self.by_ack[m].copy()
        new_out[elim_ack] = 2
        new_by_ack[elim_ack] = True
        new_out[elim_busy] = 2
        new_by_ack[elim_busy] = False
        new_out[won] = 1

        arm = a0 & sil  # box (1) -> boxes (3)/(4)
        bit = (sids >> phase) & 1
        threshold = np.where(
            arm, np.where(bit == 1, self.t1[m], self.t0[m]), threshold
        )
        silent = np.where(arm, 0, silent)
        ast_n = np.where(arm, 1, ast)
        count = a1 & sil
        silent = silent + count
        fire = count & (silent >= threshold)  # box (5): transmit
        ast_n = np.where(fire, 2, ast_n)
        next_phase = a2 & busy  # collision: next bit, back to box (1)
        phase = phase + next_phase
        ast_n = np.where(next_phase, 0, ast_n)

        acts = np.zeros(len(m), dtype=np.int8)
        carries = self.carries[m]
        acts[fire & carries] = _A_TX_PKT
        acts[fire & ~carries] = _A_TX_CTRL

        self.ast[m] = ast_n
        self.outcome[m] = new_out
        self.by_ack[m] = new_by_ack
        self.phase[m] = phase
        self.silent[m] = silent
        self.threshold[m] = threshold
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
        wait = self.wait[m].copy()
        silence = self.silence[m].copy()
        saw = self.saw[m].copy()
        sync = self.sync[m].copy()
        ast = self.ast[m]
        aphase = self.aphase[m].copy()
        asil = self.asil[m].copy()
        athr = self.athr[m].copy()
        sids = self.sids[m]
        sil = fb == _F_SILENCE
        busy = fb == _F_BUSY
        acked = fb == _F_ACK
        act = ~sil
        has_q = q > 0

        acts = np.zeros(len(m), dtype=np.int8)
        new_st = st.copy()
        begin_el = np.zeros(len(m), dtype=bool)

        # --- election members: one AbsCore.step each -----------------
        el = st == 1
        self.aused[m] += el
        e0 = el & (ast == 0)
        e1 = el & (ast == 1)
        e2 = el & (ast == 2)
        if bool(np.any(e2 & sil)):
            raise ProtocolError(_ABS_SILENCE_ERROR)
        elim_ack = (e0 | e1) & acked
        elim_busy = e1 & busy
        arm = e0 & sil
        bit = (sids >> aphase) & 1
        athr = np.where(arm, np.where(bit == 1, self.t1[m], self.t0[m]), athr)
        asil = np.where(arm, 0, asil)
        ast_n = np.where(arm, 1, ast)
        count = e1 & sil
        asil = asil + count
        fire = count & (asil >= athr)
        ast_n = np.where(fire, 2, ast_n)
        acts[fire] = _A_TX_PKT  # AO-ARRoW cores carry packets
        collide = e2 & busy
        aphase = aphase + collide
        ast_n = np.where(collide, 0, ast_n)
        won = e2 & acked
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
        ast_n = np.where(begin_el, 0, ast_n)
        aphase[begin_el] = 0
        asil[begin_el] = 0
        athr[begin_el] = 0
        used = self.aused[m]
        used[begin_el] = 0
        self.aused[m] = used

        self.state[m] = new_st
        self.wait[m] = wait
        self.silence[m] = silence
        self.saw[m] = saw
        self.sync[m] = sync
        self.ast[m] = ast_n
        self.aphase[m] = aphase
        self.asil[m] = asil
        self.athr[m] = athr
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
        turn = self.turn[m].copy()
        heard = self.heard[m].copy()
        gap_count = self.gap_count[m].copy()
        noise = self.noise[m]
        sil = fb == _F_SILENCE
        busy = fb == _F_BUSY
        acked = fb == _F_ACK
        act = ~sil
        has_q = q > 0

        tx = st == 2
        if bool(np.any(tx & sil)):
            raise ProtocolError(_TX_SILENCE_ERROR)
        acts = np.zeros(len(m), dtype=np.int8)
        new_st = st.copy()
        new_noise = noise.copy()

        retry = tx & busy
        self.unexpected_busy[m] += retry
        acts[retry] = np.where(noise[retry], _A_TX_CTRL, _A_TX_PKT)
        done = tx & acked
        done_noise = done & noise
        self.empty_signals[m] += done_noise
        done_pkt = done & ~noise
        self.packets_sent[m] += done_pkt
        burst_more = done_pkt & has_q
        acts[burst_more] = _A_TX_PKT

        waiting = st == 0
        heard |= waiting & act
        in_gap = st == 1
        gap_count[in_gap & act] = 0

        advance = done_noise | (done_pkt & ~burst_more)
        advance |= waiting & sil & self.heard[m]
        turn[advance] = turn[advance] % self.n[m][advance] + 1
        heard[advance] = False
        to_gap = advance & (turn == self.sids[m])
        new_st[to_gap] = 1
        gap_count[to_gap] = 0
        new_st[advance & ~to_gap] = 0

        counting = in_gap & sil
        gap_count = gap_count + counting
        begin = counting & (gap_count >= self.gap_slots[m])
        self.turns_taken[m] += begin
        new_st[begin] = 2
        begin_pkt = begin & has_q
        begin_ctrl = begin & ~has_q
        new_noise[begin_pkt] = False
        new_noise[begin_ctrl] = True
        acts[begin_pkt] = _A_TX_PKT
        acts[begin_ctrl] = _A_TX_CTRL

        self.state[m] = new_st
        self.turn[m] = turn
        self.heard[m] = heard
        self.gap_count[m] = gap_count
        self.noise[m] = new_noise
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
        turn = self.turn[m].copy()
        heard = self.heard[m].copy()
        gap_count = self.gap_count[m].copy()
        noise = self.noise[m]
        silent = self.silent[m].copy()
        skip = self.skip[m].copy()
        conflict = self.conflict[m].copy()
        lrounds = self.ladder_rounds[m].copy()
        claimflag = self.claimflag[m].copy()
        n = self.n[m]
        sids = self.sids[m]
        sil = fb == _F_SILENCE
        busy = fb == _F_BUSY
        acked = fb == _F_ACK
        act = ~sil
        has_q = q > 0

        tx = st == 2
        if bool(np.any(tx & sil)):
            raise ProtocolError(_TX_SILENCE_ERROR)
        acts = np.zeros(len(m), dtype=np.int8)
        new_st = st.copy()

        # --- transmitting members ------------------------------------
        tx_busy = tx & busy
        self.unexpected_busy[m] += tx_busy
        conflict[tx_busy] = True
        claimflag[tx_busy] = False
        new_st[tx_busy] = 0
        heard[tx_busy] = True
        tx_ack = tx & acked
        conflict[tx_ack] = False
        ack_noise = tx_ack & noise
        self.empty_signals[m] += ack_noise
        ack_pkt = tx_ack & ~noise
        self.packets_sent[m] += ack_pkt
        burst_more = ack_pkt & has_q
        acts[burst_more] = _A_TX_PKT
        silent[tx] = 0
        skip[tx] = 0

        # --- activity heard by non-transmitting members --------------
        ntx_act = ~tx & act
        # Classification uses the pre-reset silent run: a claim follows
        # a silence every station counted past A_1.
        claimy = ntx_act & (silent >= self.a1[m])
        lrounds = lrounds + claimy
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
        silent = silent + ntx_sil
        g_sil = ntx_sil & (st == 1)
        gap_count = gap_count + g_sil
        begin = g_sil & (gap_count >= self.gap_slots[m])
        silent[begin] = 0
        skip[begin] = 0
        self.turns_taken[m] += begin
        new_st[begin] = 2
        new_noise = noise.copy()
        begin_pkt = begin & has_q
        begin_ctrl = begin & ~has_q
        new_noise[begin_pkt] = False
        new_noise[begin_ctrl] = True
        acts[begin_pkt] = _A_TX_PKT
        acts[begin_ctrl] = _A_TX_CTRL
        w_end = ntx_sil & (st == 0) & self.heard[m]
        silent[w_end] = 1  # this silent slot starts the quiet period

        # _advance_turn_normal for finished turns and observed turn ends.
        advance = ack_noise | (ack_pkt & ~burst_more) | w_end
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
        hot = rest & (silent >= self.a1[m])
        if bool(np.any(hot)):
            from ..algorithms.ca_arrow_ft import _ceil

            for j in np.nonzero(hot)[0]:
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
                        silent[j] = 0
                        skip[j] = 0
                        self.turns_taken[m[j]] += 1
                        new_st[j] = 2
                        if has_q[j]:
                            new_noise[j] = False
                            acts[j] = _A_TX_PKT
                        else:
                            new_noise[j] = True
                            acts[j] = _A_TX_CTRL
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

        self.state[m] = new_st
        self.turn[m] = turn
        self.heard[m] = heard
        self.gap_count[m] = gap_count
        self.noise[m] = new_noise
        self.silent[m] = silent
        self.skip[m] = skip
        self.conflict[m] = conflict
        self.ladder_rounds[m] = lrounds
        self.claimflag[m] = claimflag
        return acts
