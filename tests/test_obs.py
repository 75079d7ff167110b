"""Tests for the observability subsystem (repro.obs).

The load-bearing guarantees, in order of importance:

1. **Transparency** — a simulator with a probe bus (subscribed or not)
   produces bit-identical executions to a bare one.
2. **Completeness** — a subscriber sees *every* slot_end / collision /
   arrival / delivery event, with counts matching the post-hoc
   :class:`~repro.analysis.metrics.RunMetrics` aggregates.
3. **Round-trip** — a JSONL artifact summarizes to the same quantities
   the live run measured.
"""

import io
import json
from fractions import Fraction

import pytest

from repro.algorithms import AOArrow, NaiveTDMA, SlottedAloha
from repro.analysis import collect_metrics
from repro.arrivals import UniformRate
from repro.core import Simulator, Trace, execution_signature
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    JsonlRunWriter,
    MetricsRegistry,
    PROBE_EVENTS,
    PhaseProfiler,
    ProbeBus,
    ProgressReporter,
    RunManifest,
    SimulationMetrics,
    load_run,
    render_summary,
    summarize_run,
)
from repro.timing import RandomUniform, worst_case_for

from .helpers import make_ao


def _build(n=3, R=2, rho="1/2", **kwargs):
    return Simulator(
        make_ao(n, R),
        worst_case_for(R),
        max_slot_length=R,
        arrival_source=UniformRate(
            rho=rho, targets=list(range(1, n + 1)), assumed_cost=R
        ),
        **kwargs,
    )


class TestTransparency:
    def test_unsubscribed_bus_is_bit_identical_to_seed(self):
        bare = _build()
        bare.run(until_time=600)
        probed = _build(probes=ProbeBus())
        probed.run(until_time=600)
        assert execution_signature(bare) == execution_signature(probed)

    def test_fully_subscribed_bus_is_bit_identical_to_seed(self):
        bare = _build()
        bare.run(until_time=600)
        bus = ProbeBus()
        for event in PROBE_EVENTS:
            bus.subscribe(event, lambda payload: None)
        probed = _build(probes=bus)
        probed.run(until_time=600)
        assert execution_signature(bare) == execution_signature(probed)

    def test_profiler_does_not_change_execution(self):
        bare = _build()
        bare.run(until_time=400)
        profiled = _build(profiler=PhaseProfiler())
        profiled.run(until_time=400)
        assert execution_signature(bare) == execution_signature(profiled)


class TestProbeCompleteness:
    def test_slot_end_and_delivery_counts_match_run_metrics(self):
        bus = ProbeBus()
        slot_ends = []
        deliveries = []
        arrivals = []
        bus.subscribe("slot_end", slot_ends.append)
        bus.subscribe("delivery", deliveries.append)
        bus.subscribe("arrival", arrivals.append)
        sim = _build(probes=bus)
        sim.run(until_time=800)
        metrics = collect_metrics(sim)

        assert len(slot_ends) == sim.events_processed
        assert len(deliveries) == metrics.delivered
        assert sum(1 for e in slot_ends if e.delivered) == metrics.delivered
        assert len(arrivals) == metrics.delivered + metrics.backlog
        # The backlog carried on events is exact at every boundary.
        assert max(e.backlog for e in arrivals) == sim.trace.max_backlog

    def test_collision_events_match_channel_stats(self):
        # NaiveTDMA under an asynchronous adversary collides readily.
        n, R = 3, 2
        bus = ProbeBus()
        collisions = []
        bus.subscribe("collision", collisions.append)
        sim = Simulator(
            {i: NaiveTDMA(i, n) for i in range(1, n + 1)},
            RandomUniform(R, seed=11),
            max_slot_length=R,
            initial_packets=5,
            probes=bus,
        )
        sim.run(until_time=300)
        assert sim.channel.stats.collisions > 0
        assert len(collisions) == sim.channel.stats.collisions

    def test_unsubscribe_stops_delivery(self):
        bus = ProbeBus()
        seen = []
        unsubscribe = bus.subscribe("slot_end", seen.append)
        sim = _build(probes=bus)
        sim.run(max_events=50)
        count = len(seen)
        assert count == 50
        unsubscribe()
        sim.run(max_events=100)
        assert len(seen) == count

    def test_deepcopy_clone_gets_empty_bus(self):
        import copy

        bus = ProbeBus()
        bus.subscribe("slot_end", lambda e: None)
        clone = copy.deepcopy(bus)
        assert not clone.any_subscribers

    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError):
            ProbeBus().subscribe("slot_middle", lambda e: None)


class TestMetricsInstruments:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        gauge = registry.gauge("g")
        for value in (3, 7, 1):
            gauge.set(value)
        histogram = registry.histogram("h")
        for value in (1, 1, 2, 3):
            histogram.observe(value)
        assert counter.snapshot() == 5
        assert gauge.snapshot() == {"value": 1, "max": 7, "min": 1}
        assert histogram.counts == {1: 2, 2: 1, 3: 1}
        assert registry.counter("c") is counter
        with pytest.raises(ValueError):
            registry.gauge("c")

    def test_simulation_metrics_match_run_metrics(self):
        bus = ProbeBus()
        sim_metrics = SimulationMetrics()
        sim_metrics.attach(bus)
        sim = _build(probes=bus)
        sim.run(until_time=800)
        metrics = collect_metrics(sim)
        registry = sim_metrics.registry

        assert registry.counter("slots").value == sim.events_processed
        assert registry.counter("delivered").value == metrics.delivered
        assert registry.counter("collisions").value == metrics.collisions
        assert registry.counter("control_messages").value == metrics.control_transmissions
        assert registry.gauge("backlog").max == metrics.max_backlog
        assert registry.gauge("backlog").value == metrics.backlog
        mix = sum(
            registry.counter(f"feedback.{kind}").value
            for kind in ("ack", "silence", "busy")
        )
        assert mix == sim.events_processed
        lengths = registry.histogram("slot_length")
        assert lengths.count == sim.events_processed
        assert all(Fraction(1) <= value <= Fraction(2) for value in lengths.counts)

    def test_render_and_snapshot_are_json_safe(self):
        bus = ProbeBus()
        sim_metrics = SimulationMetrics()
        sim_metrics.attach(bus)
        sim = _build(probes=bus)
        sim.run(until_time=200)
        snapshot = sim_metrics.snapshot()
        json.dumps(snapshot)  # must not raise
        assert any("slot_length" in line for line in sim_metrics.render())


class TestArtifacts:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        bus = ProbeBus()
        sim_metrics = SimulationMetrics()
        sim_metrics.attach(bus)
        writer = JsonlRunWriter(
            path,
            RunManifest.create(algorithm="ao-arrow", n=3, max_slot_length=Fraction(2)),
            metrics=sim_metrics,
        ).attach(bus)
        sim = _build(probes=bus)
        sim.run(until_time=500)
        writer.close(sim=sim)

        artifact = load_run(path)
        assert artifact.manifest["config"]["algorithm"] == "ao-arrow"
        assert artifact.manifest["config"]["max_slot_length"] == "2"
        assert artifact.summary["slot_events"] == sim.events_processed
        assert len(artifact.of_type("slot")) == sim.events_processed
        assert len(artifact.of_type("delivery")) == len(sim.delivered_packets)

        stats = summarize_run(artifact)
        assert stats["slot_events"] == sim.events_processed
        assert stats["delivered"] == len(sim.delivered_packets)
        assert stats["max_backlog"] == sim.trace.max_backlog
        assert stats["collisions"] == sim.channel.stats.collisions
        mix = stats["feedback_mix"]
        assert sum(mix.values()) == sim.events_processed
        assert sum(stats["slot_length_histogram"].values()) == sim.events_processed
        assert render_summary(stats)  # renders without raising

    def test_slot_stride_thins_only_slot_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        bus = ProbeBus()
        writer = JsonlRunWriter(path, slot_stride=10).attach(bus)
        sim = _build(probes=bus)
        sim.run(until_time=400)
        writer.close(sim=sim)
        artifact = load_run(path)
        assert len(artifact.of_type("slot")) == sim.events_processed // 10
        assert len(artifact.of_type("delivery")) == len(sim.delivered_packets)
        # The summary still carries exact totals.
        assert artifact.summary["slot_events"] == sim.events_processed

    def test_truncated_artifact_still_loads(self, tmp_path):
        path = tmp_path / "run.jsonl"
        bus = ProbeBus()
        writer = JsonlRunWriter(
            path, RunManifest.create(algorithm="ao-arrow")
        ).attach(bus)
        sim = _build(probes=bus)
        sim.run(until_time=200)
        writer.close(sim=sim)
        text = path.read_text()
        path.write_text(text[: len(text) * 2 // 3])  # simulate a crash
        artifact = load_run(path)
        assert artifact.manifest is not None
        assert artifact.records  # a readable prefix survived
        summarize_run(artifact)  # and it still summarizes

    def test_invalid_writer_params_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlRunWriter(tmp_path / "x.jsonl", slot_stride=0)
        with pytest.raises(ValueError):
            JsonlRunWriter(tmp_path / "y.jsonl", metrics_every=0)


class TestProfilingAndProgress:
    def test_profiler_attributes_all_three_phases(self):
        profiler = PhaseProfiler()
        sim = _build(profiler=profiler)
        sim.run(until_time=300)
        assert set(profiler.seconds) == {"adversary", "channel", "algorithm"}
        assert profiler.calls["channel"] == sim.events_processed
        # first_action (n stations) + one step per processed event
        assert profiler.calls["algorithm"] == sim.events_processed + sim.n_stations
        report = profiler.as_dict()
        json.dumps(report)
        assert report["phases"]["channel"]["calls"] == sim.events_processed
        assert any("channel" in line for line in profiler.render())

    def test_progress_reporter_emits_lines(self):
        stream = io.StringIO()
        bus = ProbeBus()
        reporter = ProgressReporter(
            every_events=100, min_interval_s=0.0, stream=stream
        )
        reporter.attach(bus)
        sim = _build(probes=bus)
        sim.run(max_events=350)
        assert reporter.reports_emitted == 3
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 3
        assert "events=100" in lines[0] and "backlog=" in lines[0]

    def test_progress_reporter_validates_interval(self):
        with pytest.raises(ValueError):
            ProgressReporter(every_events=0)


class TestRandomizedAlgorithmsStayDeterministic:
    def test_seeded_aloha_identical_with_and_without_probes(self):
        def build(probes=None):
            n = 3
            return Simulator(
                {
                    i: SlottedAloha(i, transmit_probability=Fraction(1, 3), seed=5)
                    for i in range(1, n + 1)
                },
                RandomUniform(2, seed=9),
                max_slot_length=2,
                initial_packets=4,
                probes=probes,
            )

        bare = build()
        bare.run(until_time=300)
        probed = build(ProbeBus())
        probed.run(until_time=300)
        assert execution_signature(bare) == execution_signature(probed)
