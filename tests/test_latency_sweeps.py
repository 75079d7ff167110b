"""Tests for latency summaries and seed sweeps (grids over ``seed``)."""

from fractions import Fraction

import pytest

from repro.analysis import latency_by_station, percentile, summarize_latencies
from repro.core import ConfigurationError, Packet


def delivered(pid, sid, arrive, deliver):
    p = Packet(packet_id=pid, station_id=sid, arrival_time=Fraction(arrive))
    p.mark_delivered(at=Fraction(deliver), cost=Fraction(1))
    return p


class TestPercentile:
    def test_min_and_max(self):
        values = [Fraction(k) for k in range(1, 11)]
        assert percentile(values, Fraction(0)) == 1
        assert percentile(values, Fraction(1)) == 10

    def test_nearest_rank_median(self):
        values = [Fraction(k) for k in range(1, 11)]
        assert percentile(values, Fraction(1, 2)) == 5

    def test_p90(self):
        values = [Fraction(k) for k in range(1, 11)]
        assert percentile(values, Fraction(9, 10)) == 9

    def test_single_value(self):
        assert percentile([Fraction(7)], Fraction(3, 4)) == 7

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            percentile([], Fraction(1, 2))
        with pytest.raises(ConfigurationError):
            percentile([Fraction(1)], Fraction(2))


class TestSummarizeLatencies:
    def test_empty(self):
        summary = summarize_latencies([])
        assert summary.count == 0 and summary.mean is None
        assert summary.row() == "no delivered packets"

    def test_undelivered_ignored(self):
        pending = Packet(packet_id=0, station_id=1, arrival_time=Fraction(0))
        summary = summarize_latencies([pending])
        assert summary.count == 0

    def test_statistics(self):
        packets = [delivered(k, 1, 0, k + 1) for k in range(10)]
        summary = summarize_latencies(packets)
        assert summary.count == 10
        assert summary.minimum == 1 and summary.maximum == 10
        assert summary.mean == Fraction(55, 10)
        assert summary.median == 5
        assert "p99" in summary.row() or "p99=" in summary.row()

    def test_by_station(self):
        packets = [delivered(0, 1, 0, 2), delivered(1, 2, 0, 10)]
        buckets = latency_by_station(packets)
        assert buckets[1].mean == 2
        assert buckets[2].mean == 10

    def test_end_to_end_from_simulation(self):
        from repro.algorithms import CAArrow
        from repro.arrivals import UniformRate
        from repro.core import Simulator
        from repro.timing import worst_case_for

        n, R = 3, 2
        src = UniformRate(rho="1/2", targets=[1, 2, 3], assumed_cost=R)
        sim = Simulator(
            {i: CAArrow(i, n, R) for i in range(1, n + 1)},
            worst_case_for(R), R, arrival_source=src,
        )
        sim.run(until_time=2000)
        summary = summarize_latencies(sim.delivered_packets)
        assert summary.count == len(sim.delivered_packets) > 0
        assert summary.minimum <= summary.median <= summary.p90 <= summary.maximum


class TestSweeps:
    def test_simulation_sweep(self):
        from repro.analysis import run_grid
        from repro.scenarios import ScenarioSpec

        spec = ScenarioSpec(
            algorithm="aloha", n=3, max_slot=1, schedule="sync", rho="1/5",
            horizon=1500,
        )
        delivered = [
            result.metrics.delivered
            for result in run_grid([spec.replace(seed=seed) for seed in range(4)])
        ]
        mean = sum(delivered) / len(delivered)
        assert min(delivered) > 0
        assert max(delivered) - min(delivered) < mean  # low variance at low load
