"""Tests for stability assessment, metrics and phase segmentation."""

from fractions import Fraction

import pytest

from repro.algorithms import AOArrow
from repro.analysis import (
    StabilityVerdict,
    assess_stability,
    collect_metrics,
    segment_rounds,
    utilization,
    wasted_time,
)
from repro.arrivals import BurstyRate, StaticSchedule, UniformRate
from repro.core import AlwaysListen, ConfigurationError, Simulator, Trace
from repro.timing import Synchronous, worst_case_for

from .helpers import make_ao, make_ca, run_loaded


def series(values, step=10):
    return [(Fraction(k * step), v) for k, v in enumerate(values)]


class TestAssessStability:
    def test_flat_series_is_stable(self):
        verdict = assess_stability(series([3] * 20), horizon=200)
        assert verdict.stable
        assert verdict.peak == 3

    def test_growing_series_is_unstable(self):
        verdict = assess_stability(series(list(range(40))), horizon=400)
        assert not verdict.stable

    def test_transient_spike_then_drain_is_stable(self):
        values = [0, 2, 9, 9, 4, 2, 1, 1, 0, 1, 0, 1, 1, 0, 0, 0]
        verdict = assess_stability(series(values), horizon=160)
        assert verdict.stable

    def test_tolerance_absorbs_noise(self):
        values = [5] * 10 + [6] * 10  # creeps by 1
        assert assess_stability(series(values), horizon=200, tolerance=2).stable
        assert not assess_stability(
            series(values), horizon=200, tolerance=0
        ).stable

    def test_window_maxima_computed(self):
        verdict = assess_stability(
            series([1, 2, 3, 4]), horizon=40, windows=2
        )
        assert verdict.window_maxima == [2, 4]

    def test_empty_series_is_vacuously_stable(self):
        verdict = assess_stability([], horizon=100)
        assert verdict.stable and verdict.peak == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            assess_stability([], horizon=100, windows=1)
        with pytest.raises(ConfigurationError):
            assess_stability([], horizon=0)

    def test_early_late_peaks(self):
        verdict = assess_stability(
            series([9, 1, 1, 1, 1, 1, 1, 1]), horizon=80, windows=4
        )
        assert verdict.window_maxima == [9, 1, 1, 1]
        assert verdict.stable


class TestWastedTime:
    def test_idle_channel_is_all_waste(self):
        sim = Simulator([AlwaysListen()], Synchronous(), 1)
        sim.run(until_time=50)
        assert wasted_time(sim) == 50
        assert utilization(sim) == 0

    def test_busy_stable_run_has_high_utilization(self):
        sim = run_loaded(make_ca(3, 2), R=2, rho="3/5", horizon=5000)
        used = utilization(sim)
        assert Fraction(1, 4) < used < 1

    def test_waste_plus_success_is_horizon(self):
        sim = run_loaded(make_ao(3, 2), R=2, rho="1/2", horizon=4000)
        assert wasted_time(sim) + sim.channel.stats.success_time == sim.now


class TestMetrics:
    def test_counts_consistent(self):
        sim = run_loaded(make_ca(3, 2), R=2, rho="1/2", horizon=3000)
        metrics = collect_metrics(sim)
        assert metrics.delivered == len(sim.delivered_packets)
        assert metrics.backlog == sim.total_backlog
        assert metrics.collisions == 0
        assert sum(metrics.per_station_queue.values()) <= metrics.backlog

    def test_latency_none_when_nothing_delivered(self):
        sim = Simulator([AlwaysListen()], Synchronous(), 1)
        sim.run(until_time=10)
        metrics = collect_metrics(sim)
        assert metrics.mean_latency is None and metrics.max_latency is None

    def test_throughput_cost_uses_realized_costs(self):
        sim = run_loaded(make_ca(2, 2), R=2, rho="1/2", horizon=3000)
        metrics = collect_metrics(sim)
        expected = sum(
            (p.cost for p in sim.delivered_packets), Fraction(0)
        ) / sim.now
        assert metrics.throughput_cost == expected

    def test_row_renders(self):
        sim = run_loaded(make_ca(2, 2), R=2, rho="1/2", horizon=500)
        row = collect_metrics(sim).row()
        assert "delivered=" in row and "thr=" in row


class TestSegmentRounds:
    def _run_ao_with_trace(self):
        n, R = 3, 2
        src = BurstyRate(
            rho="1/2", burst_size=3, targets=[1, 2, 3], assumed_cost=R, limit=24
        )
        sim = Simulator(
            make_ao(n, R),
            worst_case_for(R),
            max_slot_length=R,
            arrival_source=src,
            trace=Trace(record_slots=True),
            keep_channel_history=True,
        )
        sim.run(until_time=4000)
        return sim

    def test_rounds_reconstructed(self):
        sim = self._run_ao_with_trace()
        phases = segment_rounds(sim, silence_gap=30)
        assert phases
        rounds = [r for p in phases for r in p.rounds]
        assert rounds
        # Every reconstructed delivery is accounted for.
        assert sum(r.packets_delivered for r in rounds) == len(
            sim.delivered_packets
        )

    def test_round_winners_are_real_stations(self):
        sim = self._run_ao_with_trace()
        phases = segment_rounds(sim, silence_gap=30)
        for phase in phases:
            for round_segment in phase.rounds:
                assert round_segment.winner in sim.station_ids
                assert round_segment.start <= round_segment.end

    def test_phase_boundaries_ordered(self):
        sim = self._run_ao_with_trace()
        phases = segment_rounds(sim, silence_gap=30)
        for earlier, later in zip(phases, phases[1:]):
            assert earlier.end <= later.start

    def test_empty_run_gives_no_phases(self):
        sim = Simulator([AlwaysListen()], Synchronous(), 1)
        sim.run(until_time=10)
        assert segment_rounds(sim, silence_gap=5) == []
