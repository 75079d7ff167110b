"""The cyclic collector around fleet set-up, and what a run leaves behind.

:func:`repro.core.collector_paused` turns CPython's cyclic garbage
collector off while a fleet is built and started and while the batch
kernel copies it into and out of its arrays.  The collector's on/off
flag is process-wide, so every exit path must give back exactly the
state the first entry found, also under concurrent entries.

The batch kernel must also leave nothing for that collector to find: a
finished batch run, once dropped, is freed by reference counting alone,
as an object-loop run is, and a copy of it runs on its own state.
"""

import copy
import gc
import sys
import threading
import weakref

import pytest

from repro.core import (
    LISTEN,
    TRANSMIT_PACKET,
    ConfigurationError,
    ProtocolError,
    Simulator,
    StationAlgorithm,
    collector_paused,
    execution_signature,
)
from repro.scenarios import ScenarioSpec
from repro.timing import Synchronous


def _spec(**overrides):
    fields = dict(algorithm="rrw", n=40, max_slot="2", rho="1/2",
                  schedule="sync", seed=3)
    fields.update(overrides)
    return ScenarioSpec(**fields)


class _EmptyQueueSender(StationAlgorithm):
    """Sends a packet in its first slot, with nothing queued."""

    def first_action(self, ctx):
        return TRANSMIT_PACKET

    def on_slot_end(self, ctx):
        return LISTEN


class TestCollectorPause:
    @pytest.mark.parametrize("engine", ["object", "batch"])
    def test_build_and_run_leave_the_collector_enabled(self, engine):
        sim = _spec().build(engine=engine)
        sim.run(until_time=12)
        assert sim.engine == engine
        assert gc.isenabled()

    @pytest.mark.parametrize("engine", ["object", "batch"])
    def test_a_disabled_collector_stays_disabled(self, engine):
        gc.disable()
        try:
            sim = _spec().build(engine=engine)
            sim.run(until_time=12)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_restored_when_build_raises(self):
        spec = _spec(schedule={"name": "fixed", "length": 2, "bogus": 1})
        with pytest.raises(ConfigurationError, match="rejected its parameters"):
            spec.build()
        assert gc.isenabled()

    def test_restored_when_run_raises(self):
        sim = Simulator([_EmptyQueueSender()], Synchronous(), 1)
        with pytest.raises(ProtocolError, match="from an empty queue"):
            sim.run(until_time=1)
        assert gc.isenabled()

    def test_nested_entries_restore_on_the_last_exit(self):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_concurrent_entries_restore_the_collector(self):
        # More threads than cores and a tiny switch interval, so threads
        # interleave inside enter/exit; an uncounted save/restore leaves
        # the collector off here.
        def churn():
            for _ in range(10_000):
                with collector_paused():
                    pass

        threads = [threading.Thread(target=churn) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert gc.isenabled()


class TestFinishedBatchRunIsFreed:
    @pytest.mark.parametrize("algorithm", ["rrw", "ao-arrow"])
    def test_dropped_simulator_needs_no_collection(self, algorithm):
        # rrw has a non-adaptive program; ao-arrow nests ABS cores.
        gc.collect()
        gc.disable()
        try:
            sim = _spec(algorithm=algorithm, schedule="worst").build(
                engine="batch"
            )
            sim.run(until_time=40)
            assert sim.engine == "batch"
            alive = weakref.ref(sim)
            del sim
            assert alive() is None
        finally:
            gc.enable()

    def test_deep_copy_continues_on_its_own_state(self):
        sim = _spec().build(engine="batch")
        sim.run(until_time=5)
        clone = copy.deepcopy(sim)
        clone.run(until_time=10)
        sim.run(until_time=10)
        assert clone.events_processed == sim.events_processed
        assert execution_signature(clone) == execution_signature(sim)


class TestPerfProbes:
    """The perf probes time their sections with the collector paused and
    give back the collector state they found."""

    def test_exec_overhead_probe_leaves_a_disabled_collector_disabled(self):
        from repro.exec.perf import _measure_exec_overhead

        gc.disable()
        try:
            _measure_exec_overhead(quick=True, repeats=1)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_observe_overhead_probe_leaves_a_disabled_collector_disabled(self):
        from repro.exec.perf import PerfCase, _measure_observe_overhead

        case = PerfCase(name="tiny", algorithm="ca-arrow", n=3,
                        horizon=40, quick_horizon=40)
        gc.disable()
        try:
            _measure_observe_overhead([case], quick=True, repeats=1)
            assert not gc.isenabled()
        finally:
            gc.enable()
