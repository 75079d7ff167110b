"""Unit tests for the trace recorder."""

from fractions import Fraction

import pytest

from repro.core import ConfigurationError, Trace, execution_signature
from repro.scenarios import ScenarioSpec


def wide_spec():
    """A fleet wide enough for ``engine="auto"`` to pick the batch kernel,
    so only slot recording keeps it on the object loop."""
    return ScenarioSpec(algorithm="rrw", n=24, max_slot=2, schedule="sync",
                        rho="1/2", horizon=40)


class TestSlotRecording:
    def test_disabled_by_default(self):
        trace = Trace()
        sim = wide_spec().build(trace=trace, engine="object")
        sim.run(until_time=10)
        assert trace.slots == []
        assert sim.probes is None

    def test_enabled_keeps_records(self):
        trace = Trace(record_slots=True)
        sim = wide_spec().build(trace=trace)
        sim.run(until_time=10)
        assert len(trace.slots) == sim.events_processed > 0

    def test_horizon(self):
        trace = Trace(record_slots=True)
        assert trace.horizon() == 0
        wide_spec().build(trace=trace).run(until_time=3)
        assert trace.horizon() == 3

    @pytest.mark.parametrize("timebase", ["lattice", "fraction"])
    def test_recorded_slots_are_the_slot_end_events(self, timebase):
        trace = Trace(record_slots=True)
        sim = wide_spec().build(trace=trace, timebase=timebase)
        seen = []
        sim.probes.subscribe("slot_end", seen.append)
        sim.run(until_time=20)
        assert len(trace.slots) == len(seen) == sim.events_processed
        assert all(kept is event for kept, event in zip(trace.slots, seen))
        assert sim.engine == "object"
        if timebase == "lattice":
            assert "record_slots" in sim.engine_detail

        unrecorded = wide_spec().build(timebase=timebase)
        unrecorded.run(until_time=20)
        assert execution_signature(sim) == execution_signature(unrecorded)


class TestBacklogTracking:
    def test_max_is_exact_regardless_of_stride(self):
        trace = Trace(backlog_stride=100)
        for k, value in enumerate([1, 5, 2, 9, 3]):
            trace.on_backlog_change(Fraction(k), value)
        assert trace.max_backlog == 9
        assert len(trace.backlog) == 0  # stride swallowed all samples

    def test_stride_one_records_everything(self):
        trace = Trace(backlog_stride=1)
        for k in range(5):
            trace.on_backlog_change(Fraction(k), k)
        assert len(trace.backlog) == 5
        assert trace.backlog_series() == [(Fraction(k), k) for k in range(5)]

    def test_stride_sampling(self):
        trace = Trace(backlog_stride=2)
        for k in range(6):
            trace.on_backlog_change(Fraction(k), k)
        assert len(trace.backlog) == 3

    @pytest.mark.parametrize("stride", [0, -1, -8])
    def test_invalid_stride_rejected(self, stride):
        # Regression: stride 0 used to silently never sample.
        with pytest.raises(ConfigurationError):
            Trace(backlog_stride=stride)

    def test_max_backlog_cost_is_packets_times_r(self):
        trace = Trace(backlog_stride=3)
        for k, value in enumerate([2, 7, 4]):
            trace.on_backlog_change(Fraction(k), value)
        assert trace.max_backlog_cost(2) == 14
        assert trace.max_backlog_cost("3/2") == Fraction(21, 2)
        assert trace.max_backlog_cost(Fraction(5, 2)) == Fraction(35, 2)
