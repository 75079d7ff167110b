"""Tests for the synchronous baselines: RRW, NaiveTDMA, MBTFLike, Aloha.

The Fig. 1 story these back up: all of them behave well at ``R = 1``
(their home model), and the collision-avoiding control-free ones (RRW,
TDMA) break under bounded asynchrony.
"""

import random
from fractions import Fraction

import pytest

from repro.algorithms import MBTFLike, NaiveTDMA, RRW, SlottedAloha
from repro.analysis import assess_stability, collect_metrics
from repro.arrivals import UniformRate
from repro.core import ConfigurationError, Simulator, Trace
from repro.core.station import SlotContext
from repro.timing import PerStationFixed, Synchronous, worst_case_for

from .helpers import make_mbtf, make_rrw


def run_sync(algos, rho, horizon=10_000, assumed_cost=1):
    trace = Trace(backlog_stride=8)
    src = UniformRate(rho=rho, targets=sorted(algos), assumed_cost=assumed_cost)
    sim = Simulator(
        algos, Synchronous(), max_slot_length=1, arrival_source=src, trace=trace
    )
    sim.run(until_time=horizon)
    return sim, trace


class TestRRWSynchronous:
    @pytest.mark.parametrize("rho", ["1/2", "4/5", "19/20"])
    def test_universally_stable(self, rho):
        sim, trace = run_sync(make_rrw(4), rho)
        samples = trace.backlog_series()
        samples.append((sim.now, sim.total_backlog))
        assert assess_stability(samples, 10_000, tolerance=5).stable

    def test_collision_free_under_synchrony(self):
        sim, _ = run_sync(make_rrw(4), "4/5")
        assert sim.channel.stats.collisions == 0

    def test_no_control_messages_ever(self):
        sim, _ = run_sync(make_rrw(3), "1/2")
        assert sim.channel.stats.control_transmissions == 0

    def test_throughput_tracks_rate(self):
        sim, _ = run_sync(make_rrw(3), "4/5", horizon=20_000)
        metrics = collect_metrics(sim)
        assert metrics.throughput_cost > Fraction(7, 10)

    def test_id_validation(self):
        with pytest.raises(ConfigurationError):
            RRW(5, 4)


class TestRRWUnderAsynchrony:
    def test_collides_or_starves(self):
        # The Fig. 1 row-1 contrast: RRW's silence-passing token breaks
        # once slots desynchronize.
        n, R = 3, 2
        algos = make_rrw(n)
        src = UniformRate(rho="1/2", targets=[1, 2, 3], assumed_cost=R)
        sim = Simulator(
            algos,
            PerStationFixed({1: 1, 2: "3/2", 3: 2}),
            max_slot_length=R,
            arrival_source=src,
        )
        sim.run(until_time=5000)
        misbehaved = (
            sim.channel.stats.collisions > 0
            or sim.total_backlog > 50
        )
        assert misbehaved


class TestNaiveTDMA:
    def test_collision_free_under_synchrony(self):
        n = 3
        algos = {i: NaiveTDMA(i, n) for i in range(1, n + 1)}
        src = UniformRate(rho="3/4", targets=[1, 2, 3], assumed_cost=1)
        sim = Simulator(
            algos, Synchronous(), max_slot_length=1, arrival_source=src
        )
        sim.run(until_time=5000)
        assert sim.channel.stats.collisions == 0

    def test_stable_below_one_over_n_per_station(self):
        n = 4
        algos = {i: NaiveTDMA(i, n) for i in range(1, n + 1)}
        trace = Trace(backlog_stride=8)
        src = UniformRate(rho="3/4", targets=list(range(1, 5)), assumed_cost=1)
        sim = Simulator(
            algos, Synchronous(), max_slot_length=1, arrival_source=src, trace=trace
        )
        sim.run(until_time=10_000)
        samples = trace.backlog_series()
        samples.append((sim.now, sim.total_backlog))
        assert assess_stability(samples, 10_000, tolerance=5).stable

    def test_collides_under_asynchrony(self):
        # Both stations hold packets at once; drifting slot grids make
        # their "own" slots overlap in real time.
        from repro.arrivals import StaticSchedule

        n = 2
        algos = {i: NaiveTDMA(i, n) for i in range(1, n + 1)}
        src = StaticSchedule([(0, 1), (0, 1), (0, 2), (0, 2)])
        sim = Simulator(
            algos,
            PerStationFixed({1: 1, 2: "3/2"}),
            max_slot_length=2,
            arrival_source=src,
        )
        sim.run(until_time=100)
        assert sim.channel.stats.collisions > 0

    def test_ignores_feedback(self):
        # Oblivious schedule: identical decisions whatever the channel says.
        from repro.core import Feedback, SlotContext

        a = NaiveTDMA(1, 3)
        b = NaiveTDMA(1, 3)
        for idx in range(1, 20):
            ctx_busy = SlotContext(feedback=Feedback.BUSY, queue_size=2, slot_index=idx)
            ctx_silent = SlotContext(
                feedback=Feedback.SILENCE, queue_size=2, slot_index=idx
            )
            assert a.on_slot_end(ctx_busy) == b.on_slot_end(ctx_silent)


class TestMBTFLike:
    @pytest.mark.parametrize("rho", ["1/2", "4/5"])
    def test_universally_stable(self, rho):
        sim, trace = run_sync(make_mbtf(4), rho)
        samples = trace.backlog_series()
        samples.append((sim.now, sim.total_backlog))
        assert assess_stability(samples, 10_000, tolerance=5).stable

    def test_collision_free_under_synchrony(self):
        sim, _ = run_sync(make_mbtf(4), "4/5")
        assert sim.channel.stats.collisions == 0

    def test_uses_control_messages_when_idle(self):
        sim = Simulator(make_mbtf(3), Synchronous(), max_slot_length=1)
        sim.run(until_time=500)
        assert sim.channel.stats.control_transmissions > 10

    def test_turns_rotate(self):
        sim, _ = run_sync(make_mbtf(3), "1/2", horizon=3000)
        assert all(
            sim.algorithm(i).stats.turns_taken > 0 for i in sim.station_ids
        )


class TestSlottedAloha:
    def test_probability_validation(self):
        with pytest.raises(ConfigurationError):
            SlottedAloha(1, transmit_probability=0.0)
        with pytest.raises(ConfigurationError):
            SlottedAloha(1, transmit_probability=1.5)

    def test_a_clone_before_the_first_draw_draws_the_same_sequence(self):
        original = SlottedAloha(3, transmit_probability=0.5, seed=11)
        clone = original.clone()
        # One generator per station, seeded from (seed << 20) ^ id at
        # its first draw.
        expected = random.Random((11 << 20) ^ 3)
        sequence = [expected.random() for _ in range(25)]
        ctx = SlotContext(feedback=None, queue_size=1, slot_index=0)
        actions = []
        for algo in (original, clone):
            actions.append([algo.first_action(ctx) for _ in range(5)])
            assert [algo.rng().random() for _ in range(20)] == sequence[5:25]
        assert actions[0] == actions[1]

    def test_deterministic_per_seed(self):
        def run(seed):
            n = 3
            algos = {
                i: SlottedAloha(i, transmit_probability=1 / n, seed=seed)
                for i in range(1, n + 1)
            }
            src = UniformRate(rho="1/5", targets=[1, 2, 3], assumed_cost=1)
            sim = Simulator(
                algos, Synchronous(), max_slot_length=1, arrival_source=src
            )
            sim.run(until_time=2000)
            return (len(sim.delivered_packets), sim.channel.stats.collisions)

        assert run(5) == run(5)

    def test_stable_at_low_rate(self):
        n = 3
        algos = {
            i: SlottedAloha(i, transmit_probability=1 / n, seed=1)
            for i in range(1, n + 1)
        }
        trace = Trace(backlog_stride=8)
        src = UniformRate(rho="1/5", targets=[1, 2, 3], assumed_cost=1)
        sim = Simulator(
            algos, Synchronous(), max_slot_length=1, arrival_source=src, trace=trace
        )
        sim.run(until_time=10_000)
        samples = trace.backlog_series()
        samples.append((sim.now, sim.total_backlog))
        assert assess_stability(samples, 10_000, tolerance=5).stable

    def test_unstable_at_high_rate(self):
        # Far above 1/e: collisions dominate and the backlog diverges —
        # the Section I comparison point against ARRoW's rho -> 1.
        n = 3
        algos = {
            i: SlottedAloha(i, transmit_probability=1 / n, seed=1)
            for i in range(1, n + 1)
        }
        src = UniformRate(rho="9/10", targets=[1, 2, 3], assumed_cost=1)
        sim = Simulator(
            algos, Synchronous(), max_slot_length=1, arrival_source=src
        )
        sim.run(until_time=10_000)
        assert sim.total_backlog > 100

    def test_collisions_happen(self):
        n = 4
        algos = {
            i: SlottedAloha(i, transmit_probability=0.5, seed=3)
            for i in range(1, n + 1)
        }
        src = UniformRate(rho="1/2", targets=list(range(1, 5)), assumed_cost=1)
        sim = Simulator(
            algos, Synchronous(), max_slot_length=1, arrival_source=src
        )
        sim.run(until_time=2000)
        assert sim.channel.stats.collisions > 0
