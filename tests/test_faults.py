"""Tests for crash injection, jamming, and fault-tolerant CA-ARRoW."""

import pytest

from repro.algorithms import CAArrow, FaultTolerantCAArrow, skip_thresholds
from repro.arrivals import StaticSchedule, UniformRate
from repro.core import (
    AlwaysListen,
    ConfigurationError,
    Feedback,
    LISTEN,
    Simulator,
    SlotContext,
)
from repro.faults import Crashable, PeriodicJammer, ReactiveJammer, crash_fleet
from repro.timing import RandomUniform, Synchronous, worst_case_for


def ctx(feedback, queue=0, index=1):
    return SlotContext(feedback=feedback, queue_size=queue, slot_index=index)


class TestCrashable:
    def test_transparent_before_crash(self):
        inner = CAArrow(1, 2, 2)
        wrapped = Crashable(inner, crash_at_slot=100)
        action = wrapped.first_action(ctx(None, queue=1, index=0))
        assert action.is_transmit  # station 1 opens its turn normally

    def test_silent_after_crash(self):
        inner = CAArrow(1, 2, 2)
        wrapped = Crashable(inner, crash_at_slot=0)
        assert wrapped.first_action(ctx(None, queue=1, index=0)) == LISTEN
        assert wrapped.crashed
        assert wrapped.on_slot_end(ctx(Feedback.BUSY, queue=5)) == LISTEN

    def test_never_crashes_with_none(self):
        wrapped = Crashable(AlwaysListen(), crash_at_slot=None)
        wrapped.first_action(ctx(None, index=0))
        for index in range(1, 50):
            wrapped.on_slot_end(ctx(Feedback.SILENCE, index=index))
        assert not wrapped.crashed

    def test_capability_flags_mirrored(self):
        wrapped = Crashable(CAArrow(1, 2, 2), crash_at_slot=5)
        assert wrapped.uses_control_messages
        assert wrapped.collision_free_by_design

    def test_negative_crash_slot_rejected(self):
        with pytest.raises(ConfigurationError):
            Crashable(AlwaysListen(), crash_at_slot=-1)

    def test_crash_fleet_validates_ids(self):
        with pytest.raises(ConfigurationError):
            crash_fleet({1: AlwaysListen()}, {9: 5})


class TestPlainCAUnderCrash:
    def test_deadlocks_after_holder_dies(self):
        n, R = 4, 2
        algos = crash_fleet(
            {i: CAArrow(i, n, R) for i in range(1, n + 1)}, {2: 40}
        )
        src = UniformRate(rho="1/2", targets=[1, 3, 4], assumed_cost=R)
        sim = Simulator(algos, worst_case_for(R), R, arrival_source=src)
        sim.run(until_time=4000)
        # A handful of deliveries before the crash, then nothing: the
        # ring waits forever for the dead holder.
        assert len(sim.delivered_packets) < 60
        assert sim.total_backlog > 300


class TestSkipThresholds:
    def test_ladder_is_increasing(self):
        ladder = skip_thresholds(2, 4)
        values = [value for pair in ladder for value in pair]
        assert values == sorted(values)
        assert all(b > a for a, b in ladder)

    def test_base_exceeds_legal_gap_silence(self):
        for R in (1, 2, 3):
            a_1, _ = skip_thresholds(R, 1)[0]
            assert a_1 > 2 * R * R  # longest crash-free silent count

    def test_b_covers_slowest_clock(self):
        for R in (2, 3):
            for a_k, b_k in skip_thresholds(R, 3):
                assert b_k >= R * a_k  # every station has skipped first

    def test_a_fleet_and_its_clones_share_one_ladder(self):
        n, R = 7, 3
        fleet = [FaultTolerantCAArrow(i, n, R) for i in range(1, n + 1)]
        ladder = fleet[0].ladder
        assert all(algo.ladder is ladder for algo in fleet)
        assert fleet[4].clone().ladder is ladder
        assert list(ladder) == skip_thresholds(R, n)


class TestFaultTolerantCA:
    def test_identical_to_ca_without_crashes(self):
        n, R = 3, 2
        src = UniformRate(rho="1/2", targets=[1, 2, 3], assumed_cost=R)
        sim = Simulator(
            {i: FaultTolerantCAArrow(i, n, R) for i in range(1, n + 1)},
            worst_case_for(R), R, arrival_source=src,
        )
        sim.run(until_time=4000)
        assert sim.channel.stats.collisions == 0
        assert sim.total_backlog < 30
        assert all(
            sim.algorithm(i).stats.skips == 0 for i in sim.station_ids
        )

    def test_recovers_from_single_crash(self):
        n, R = 4, 2
        algos = crash_fleet(
            {i: FaultTolerantCAArrow(i, n, R) for i in range(1, n + 1)},
            {2: 40},
        )
        src = UniformRate(rho="2/5", targets=[1, 3, 4], assumed_cost=R)
        sim = Simulator(algos, worst_case_for(R), R, arrival_source=src)
        sim.run(until_time=8000)
        assert sim.channel.stats.collisions == 0
        assert len(sim.delivered_packets) > 500
        assert sim.total_backlog < 100
        skips = sum(algos[i].inner.stats.skips for i in algos)
        assert skips > 0

    def test_recovers_from_consecutive_crashes(self):
        n, R = 4, 2
        algos = crash_fleet(
            {i: FaultTolerantCAArrow(i, n, R) for i in range(1, n + 1)},
            {2: 40, 3: 40},
        )
        src = UniformRate(rho="1/4", targets=[1, 4], assumed_cost=R)
        sim = Simulator(algos, worst_case_for(R), R, arrival_source=src)
        sim.run(until_time=12_000)
        assert sim.channel.stats.collisions == 0
        assert len(sim.delivered_packets) > 300
        assert sim.total_backlog < 120

    def test_survives_station_one_dead_from_start(self):
        n, R = 3, 2
        algos = crash_fleet(
            {i: FaultTolerantCAArrow(i, n, R) for i in range(1, n + 1)},
            {1: 0},
        )
        src = UniformRate(rho="1/4", targets=[2, 3], assumed_cost=R)
        sim = Simulator(algos, worst_case_for(R), R, arrival_source=src)
        sim.run(until_time=8000)
        assert sim.channel.stats.collisions == 0
        assert len(sim.delivered_packets) > 200

    @pytest.mark.parametrize("seed", range(4))
    def test_collision_free_under_random_schedules_with_crash(self, seed):
        n, R = 4, 2
        algos = crash_fleet(
            {i: FaultTolerantCAArrow(i, n, R) for i in range(1, n + 1)},
            {3: 25},
        )
        src = UniformRate(rho="1/2", targets=[1, 2, 4], assumed_cost=R)
        sim = Simulator(algos, RandomUniform(R, seed=seed), R, arrival_source=src)
        sim.run(until_time=4000)
        assert sim.channel.stats.collisions == 0

    def test_id_validation(self):
        with pytest.raises(ConfigurationError):
            FaultTolerantCAArrow(0, 3, 2)


class TestJammers:
    def test_periodic_validation(self):
        with pytest.raises(ConfigurationError):
            PeriodicJammer(burst=0, period=4)
        with pytest.raises(ConfigurationError):
            PeriodicJammer(burst=5, period=4)

    def test_periodic_duty_cycle(self):
        jammer = PeriodicJammer(burst=1, period=4)
        actions = [jammer.first_action(ctx(None, index=0))]
        for index in range(1, 12):
            actions.append(jammer.on_slot_end(ctx(Feedback.SILENCE, index=index)))
        transmits = [a.is_transmit for a in actions]
        assert transmits == [True, False, False, False] * 3

    def test_periodic_budget_cap(self):
        jammer = PeriodicJammer(burst=2, period=2, budget=3)
        jammer.first_action(ctx(None, index=0))
        for index in range(1, 20):
            jammer.on_slot_end(ctx(Feedback.SILENCE, index=index))
        assert jammer.stats.jam_slots == 3

    def test_reactive_fires_on_activity(self):
        jammer = ReactiveJammer(burst=2)
        assert jammer.first_action(ctx(None, index=0)) == LISTEN
        assert jammer.on_slot_end(ctx(Feedback.SILENCE)).is_transmit is False
        burst1 = jammer.on_slot_end(ctx(Feedback.ACK))
        burst2 = jammer.on_slot_end(ctx(Feedback.BUSY))
        after = jammer.on_slot_end(ctx(Feedback.SILENCE))
        assert burst1.is_transmit and burst2.is_transmit
        assert not after.is_transmit
        assert jammer.stats.jam_slots == 2

    def test_jamming_degrades_ca_arrow_throughput(self):
        n, R = 3, 2

        def run(with_jammer):
            algos = {i: CAArrow(i, n, R) for i in range(1, n + 1)}
            ids = [1, 2, 3]
            fleet = dict(algos)
            if with_jammer:
                fleet[9] = PeriodicJammer(burst=1, period=6)
            src = UniformRate(rho="2/5", targets=ids, assumed_cost=R)
            sim = Simulator(fleet, worst_case_for(R), R, arrival_source=src)
            sim.run(until_time=5000)
            return len(sim.delivered_packets), sim.channel.stats.collisions

        clean_delivered, clean_collisions = run(False)
        jammed_delivered, jammed_collisions = run(True)
        assert clean_collisions == 0
        assert jammed_collisions > 0  # the jammer tramples real turns
        assert jammed_delivered < clean_delivered
