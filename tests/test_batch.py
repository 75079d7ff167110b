"""The vectorized batch engine is observably invisible.

Contract under test (see ``docs/vectorization.md``):

* **Auto-detection** — ``batch_blocker`` admits exactly the
  lattice-eligible runs whose algorithm and adversary classes have
  registered vector programs; every other configuration demotes to the
  object path with a human-readable reason in ``engine_detail``, and a
  *forced* ``engine="batch"`` raises that same reason.
  ``Simulator(engine="auto")`` promotes an eligible run only when its
  expected slot ends per tick reach the batch crossover (20): narrower
  fleets resolve to the object loop, naming their width.
* **Parity** — for every eligible configuration the batch kernel
  produces a bit-identical execution: same events, same delivery
  instants (exact rationals), same channel counters, same retained
  channel history, same pending event heap, same per-station runtime
  state.  Not approximately — ``==`` on everything.
* **Transparency** — engine choice never leaks into results: grid
  cells, chaos-disturbed pools, and trace spans agree with the object
  path in everything but wall-clock.
"""

import dataclasses
import pathlib
import tracemalloc
from fractions import Fraction

import pytest

np = pytest.importorskip("numpy")

from repro.algorithms import CAArrow, RRW, SlottedAloha
from repro.analysis import run_cell
from repro.arrivals import ArrivalSource, UniformRate
from repro.core import Simulator, execution_signature
from repro.core.batch import (
    BATCH_ALGORITHMS,
    BATCH_SCHEDULES,
    BatchKernel,
    batch_blocker,
    expected_tick_width,
)
from repro.core.errors import ConfigurationError
from repro.core.trace import Trace
from repro.obs.probes import ProbeBus
from repro.obs.profiling import PhaseProfiler
from repro.obs.tracing import Tracer, activate, deactivate
from repro.scenarios import ScenarioSpec, load_spec
from repro.scenarios.registry import ALGORITHMS, SCHEDULES
from repro.timing import Adaptive, Synchronous

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"

#: Registered scenario algorithms with a vector program (everything
#: else must demote, naming its class).  The adaptive families — ABS
#: and the ARRoWs — promote through the masked-update programs of
#: ``repro.core.batch_adaptive``; ``doubling``/``randomized`` remain
#: object-path (no registered program).
BATCH_ELIGIBLE_ALGORITHMS = {
    "aloha", "mbtf", "rrw", "tdma",
    "abs", "ao-arrow", "ca-arrow", "ca-arrow-ft",
}

#: Scenario algorithms whose programs are adaptive masked-update ones.
ADAPTIVE_BATCH_ALGORITHMS = {"abs", "ao-arrow", "ca-arrow", "ca-arrow-ft"}

#: Bundled scenario files that are batch-eligible (``auto`` still keeps
#: them on the object loop: n <= 9 is below the crossover) / not.  The
#: crash and jammed ARRoW scenarios are ineligible: ``crash_fleet`` wraps
#: every station in ``Crashable`` (no program) and jammers make the
#: fleet heterogeneous.
BATCH_ELIGIBLE_SCENARIOS = {
    "aloha_random", "mbtf_sync", "rrw_sync", "tdma_sync",
    "abs_election_worst", "ao_arrow_worst", "ca_arrow_worst",
}

#: Registered schedule names -> extra spec parameters they require.
SCHEDULE_PARAMS = {
    "sync": {},
    "worst": {},
    "random": {},
    "fixed": {"length": "3/2"},
    "per-station-fixed": {"lengths": {"1": "1", "2": "3/2", "3": "2", "4": "1"}},
    "cyclic": {"patterns": {"1": ["1", "3/2"], "2": ["2", "1"],
                            "3": ["1"], "4": ["3/2"]}},
}


#: A fleet wide enough for ``engine="auto"`` to promote on every
#: registered schedule (random at R=2 spreads it over the 1/8 lattice:
#: ~21 slot ends per tick, above the crossover of 20).
WIDE_N = 256


def spec_for(algorithm, schedule="sync", **overrides):
    params = dict(
        algorithm=algorithm, n=4, max_slot=2, rho="1/2", horizon=200,
        schedule={"name": schedule, **SCHEDULE_PARAMS.get(schedule, {})},
    )
    params.update(overrides)
    return ScenarioSpec(**params)


def wide_spec_for(algorithm, schedule="sync", **overrides):
    """``spec_for`` on a ``WIDE_N`` fleet, the per-station schedule
    tables repeating every four stations."""
    params = {
        key: {str(sid): value[str((sid - 1) % 4 + 1)]
              for sid in range(1, WIDE_N + 1)}
        if isinstance(value, dict) else value
        for key, value in SCHEDULE_PARAMS.get(schedule, {}).items()
    }
    return spec_for(algorithm, n=WIDE_N, **overrides).replace(
        schedule={"name": schedule, **params}
    )


def narrow_reason(sim):
    """The width demotion of a batch-eligible ``auto`` run is named."""
    return (
        sim.engine == "object"
        and sim.engine_detail.startswith("batch-eligible, but ~")
        and "below the batch crossover (20)" in sim.engine_detail
    )


def fingerprint(sim, drain=True):
    """Every observable of a run — plus internal scheduling state.

    Stricter than :func:`~repro.core.execution_signature` alone: the
    pending event heap, per-station runtime fields, and the retained
    channel record list must match too, so a batch run can be
    *continued* by the object loop (or vice versa) without any
    divergence later.
    """
    return execution_signature(sim, drain=drain) + (
        tuple(sorted(sim._event_heap)),
        tuple(
            (rt.station_id, rt.slot_index, rt.slot_start, rt.slot_end,
             rt.slots_elapsed)
            for rt in (sim.stations[sid] for sid in sim.station_ids)
        ),
        tuple(
            (t.station_id, t.interval.start, t.interval.end, t.overlapped,
             t.packet.packet_id if t.packet is not None else None)
            for t in sim.channel._transmissions
        ),
    )


def paired(spec, **build_kwargs):
    object_sim = spec.build(engine="object", **build_kwargs)
    batch_sim = spec.build(engine="batch", **build_kwargs)
    assert object_sim.engine == "object"
    assert batch_sim.engine == "batch"
    return object_sim, batch_sim


class LatticeNoHintSource(ArrivalSource):
    """On the integer lattice but adaptive: no ``next_arrival_hint``."""

    def arrivals_until(self, sim, upto):
        return ()

    def lattice_denominator(self):
        return 1


class TestEngineAutoDetection:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS.names()))
    def test_every_registered_algorithm_resolves_with_reason(self, name):
        sim = spec_for(name).build()
        if name in BATCH_ELIGIBLE_ALGORITHMS:
            # Eligible at n=4, but 4 slot ends per tick stay on the
            # object loop; the wide fleet promotes.
            assert batch_blocker(sim) is None
            assert narrow_reason(sim)
            sim = wide_spec_for(name).build()
            assert sim.engine == "batch"
            # Promotion names the matched vector programs (satellite of
            # the adaptive-vectorization issue: --verbose-engine prints
            # the promotion path, not just demotion reasons).
            assert sim.engine_detail.startswith("promoted: ")
            cls = type(next(iter(sim.stations.values())).algorithm)
            assert cls.__name__ in sim.engine_detail
            assert f"{cls.__name__}Program" in sim.engine_detail
            if name in ADAPTIVE_BATCH_ALGORITHMS:
                assert "adaptive masked-update" in sim.engine_detail
                assert sim.engine_described == "batch(adaptive)"
            else:
                assert "non-adaptive" in sim.engine_detail
                assert sim.engine_described == "batch(nonadaptive)"
        else:
            # Ineligible -> object path, and the reason names the
            # blocking class so `repro run` output is actionable.
            assert sim.engine == "object"
            assert sim.engine_detail is not None
            cls = type(next(iter(sim.stations.values())).algorithm)
            assert cls.__name__ in sim.engine_detail

    @pytest.mark.parametrize("name", sorted(SCHEDULES.names()))
    def test_every_registered_schedule_is_vectorized(self, name):
        sim = spec_for("rrw", schedule=name).build()
        assert batch_blocker(sim) is None, batch_blocker(sim)
        sim = wide_spec_for("rrw", schedule=name).build()
        assert sim.engine == "batch", sim.engine_detail

    def test_registries_are_populated(self):
        assert {cls.__name__ for cls in BATCH_ALGORITHMS} >= {
            "SlottedAloha", "NaiveTDMA", "RRW", "MBTFLike", "KSelection",
            "ABSLeaderElection", "AOArrow", "CAArrow",
            "FaultTolerantCAArrow",
        }
        adaptive = {
            cls.__name__
            for cls, prog in BATCH_ALGORITHMS.items()
            if prog.adaptive
        }
        assert adaptive == {
            "ABSLeaderElection", "AOArrow", "CAArrow",
            "FaultTolerantCAArrow", "KSelection",
        }
        assert {cls.__name__ for cls in BATCH_SCHEDULES} >= {
            "Synchronous", "FixedLength", "PerStationFixed",
            "CyclicPattern", "WorstCaseCyclic", "TableDriven",
            "RandomUniform",
        }

    def test_off_lattice_adversary_demotes_with_reason(self):
        adversary = Adaptive(lambda sim, sid, idx: Fraction(3, 2))
        sim = Simulator(
            {i: RRW(i, 3) for i in range(1, 4)}, adversary,
            max_slot_length=2,
        )
        assert sim.engine == "object"
        assert "Fraction timebase" in sim.engine_detail

    def test_unvectorized_adversary_on_lattice_demotes_by_name(self):
        class RigidSync(Synchronous):
            """Lattice-friendly subclass with no registered program."""

        sim = Simulator(
            {i: RRW(i, 3) for i in range(1, 4)}, RigidSync(),
            max_slot_length=2,
        )
        assert sim.timebase.is_lattice
        assert sim.engine == "object"
        assert "RigidSync" in sim.engine_detail

    def test_probe_bus_demotes(self):
        spec = spec_for("rrw")
        sim = spec.build(probes=ProbeBus())
        assert sim.engine == "object"
        assert "ProbeBus" in sim.engine_detail

    def test_profiler_demotes(self):
        sim = spec_for("rrw").build(profiler=PhaseProfiler())
        assert sim.engine == "object"
        assert "PhaseProfiler" in sim.engine_detail

    def test_record_slots_demotes(self):
        sim = spec_for("rrw").build(trace=Trace(record_slots=True))
        assert sim.engine == "object"
        assert "record_slots" in sim.engine_detail

    def test_mixed_algorithm_classes_demote(self):
        fleet = {1: RRW(1, 3), 2: RRW(2, 3), 3: SlottedAloha(3, 0.5)}
        sim = Simulator(fleet, Synchronous(), max_slot_length=2)
        assert sim.engine == "object"
        assert "mixed" in sim.engine_detail

    def test_hintless_source_demotes(self):
        sim = Simulator(
            {i: RRW(i, 3) for i in range(1, 4)}, Synchronous(),
            max_slot_length=2, arrival_source=LatticeNoHintSource(),
        )
        assert sim.timebase.is_lattice
        assert sim.engine == "object"
        assert "next_arrival_hint" in sim.engine_detail

    def test_forced_batch_raises_the_detection_reason(self):
        spec = spec_for("doubling", rho=None)
        reason = batch_blocker(spec.build())
        with pytest.raises(ConfigurationError, match="DoublingABS"):
            spec.build(engine="batch")
        assert "DoublingABS" in reason

    def test_mixed_adaptive_nonadaptive_fleet_demotes(self):
        from repro.algorithms import AOArrow

        fleet = {1: AOArrow(1, 3, 2), 2: AOArrow(2, 3, 2), 3: RRW(3, 3)}
        sim = Simulator(fleet, Synchronous(), max_slot_length=2)
        assert sim.engine == "object"
        assert "mixed" in sim.engine_detail
        assert "AOArrow" in sim.engine_detail and "RRW" in sim.engine_detail
        with pytest.raises(ConfigurationError, match="mixed"):
            Simulator(
                dict(fleet), Synchronous(), max_slot_length=2,
                engine="batch",
            )

    def test_abs_threshold_overrides_demote(self):
        from repro.algorithms import ABSLeaderElection

        fleet = {i: ABSLeaderElection(i, 2) for i in range(1, 5)}
        fleet[2].core.threshold0_override = 7
        fleet[2].core.__post_init__()
        sim = Simulator(fleet, Synchronous(), max_slot_length=2)
        assert sim.engine == "object"
        assert "threshold overrides" in sim.engine_detail
        with pytest.raises(ConfigurationError, match="threshold overrides"):
            Simulator(
                dict(fleet), Synchronous(), max_slot_length=2,
                engine="batch",
            )

    def test_adaptive_fraction_timebase_falls_back_with_reason(self):
        from repro.algorithms import CAArrow as CA

        adversary = Adaptive(lambda sim, sid, idx: Fraction(3, 2))
        sim = Simulator(
            {i: CA(i, 3, 2) for i in range(1, 4)}, adversary,
            max_slot_length=2,
        )
        assert sim.engine == "object"
        assert "Fraction timebase" in sim.engine_detail
        with pytest.raises(ConfigurationError, match="Fraction timebase"):
            Simulator(
                {i: CA(i, 3, 2) for i in range(1, 4)}, adversary,
                max_slot_length=2, engine="batch",
            )

    def test_crashable_fleet_demotes_naming_the_wrapper(self):
        sim = load_spec(SCENARIOS / "ca_arrow_ft_crash.json").build()
        assert sim.engine == "object"
        assert "Crashable" in sim.engine_detail
        assert "no vectorized program" in sim.engine_detail

    def test_jammed_fleet_demotes_as_mixed(self):
        sim = load_spec(SCENARIOS / "ca_arrow_jammed.json").build()
        assert sim.engine == "object"
        assert "mixed" in sim.engine_detail

    def test_forced_batch_with_probes_raises(self):
        with pytest.raises(ConfigurationError, match="ProbeBus"):
            spec_for("rrw").build(engine="batch", probes=ProbeBus())

    def test_stop_when_auto_falls_back_forced_raises(self):
        spec = wide_spec_for("rrw")
        auto = spec.build()  # resolves to batch
        assert auto.engine == "batch"
        auto.run(until_time=50, stop_when=lambda s: s.events_processed >= 10)
        assert auto.events_processed == 10  # per-event check ran
        forced = spec.build(engine="batch")
        with pytest.raises(ConfigurationError, match="stop_when"):
            forced.run(until_time=50, stop_when=lambda s: False)


class TestAutoCrossover:
    """``engine="auto"`` promotes an eligible run only when the expected
    slot ends per tick its schedule program states reach the crossover
    of 20: ``n`` on a constant-length schedule, ``n / 2`` on ``worst``
    (odd and even stations in lock-step), ``n`` over the mean slot
    length in 1/D lattice steps on ``random``."""

    @pytest.mark.parametrize(
        "schedule, max_slot, last_object",
        [
            ("sync", 2, 19),  # aligned: n per tick
            ("fixed", 2, 19),  # constant 3/2: still aligned
            ("worst", 2, 39),  # two lock-step groups
            ("worst", 4, 39),  # ... at any R
            ("random", 2, 239),  # mean 3/2 = 12 steps of 1/8
            ("random", "3/2", 199),  # mean 5/4 = 10 steps of 1/8
            ("random", 4, 399),  # mean 5/2 = 20 steps of 1/8
        ],
    )
    def test_largest_object_and_smallest_promoted_fleet(
        self, schedule, max_slot, last_object
    ):
        narrow = spec_for(
            "rrw", schedule=schedule, max_slot=max_slot, n=last_object
        ).build()
        assert batch_blocker(narrow) is None
        assert narrow_reason(narrow)
        wide = spec_for(
            "rrw", schedule=schedule, max_slot=max_slot, n=last_object + 1
        ).build()
        assert wide.engine == "batch"
        assert wide.engine_detail.startswith("promoted: RRW -> RRWProgram")

    def test_detail_names_width_and_crossover(self):
        sim = spec_for("rrw", schedule="random", n=16).build()
        assert sim.engine_detail == (
            "batch-eligible, but ~1.33 events per tick is below the batch "
            "crossover (20): the object loop is faster"
        )
        assert sim.engine_described == "object"

    @pytest.mark.parametrize(
        "schedule, max_slot, n",
        [
            ("sync", 2, 64),
            ("worst", 2, 64),
            ("worst", 3, 64),
            ("worst", 4, 64),
            ("random", "3/2", 256),
            ("random", 2, 256),
            ("random", 4, 256),
        ],
    )
    def test_estimate_tracks_the_kernels_measured_width(
        self, monkeypatch, schedule, max_slot, n
    ):
        ticks = []
        process_tick = BatchKernel._process_tick

        def counted(kernel, tick, members):
            ticks.append(len(members))
            return process_tick(kernel, tick, members)

        monkeypatch.setattr(BatchKernel, "_process_tick", counted)
        spec = spec_for("rrw", schedule=schedule, max_slot=max_slot, n=n)
        sim = spec.build(engine="batch")
        sim.run(max_events=8000)
        measured = sum(ticks) / len(ticks)
        assert 0.8 <= measured / expected_tick_width(sim) <= 1.6

    def test_forced_batch_runs_the_kernel_on_a_narrow_fleet(self):
        spec = spec_for("ao-arrow", schedule="random", n=8, horizon=300)
        assert narrow_reason(spec.build())
        object_sim, batch_sim = paired(spec)
        assert batch_sim.engine_detail.startswith("promoted: AOArrow")
        object_sim.run(until_time=spec.horizon)
        batch_sim.run(until_time=spec.horizon)
        assert batch_sim._batch_kernel is not None  # the kernel ran
        assert execution_signature(batch_sim) == execution_signature(
            object_sim
        )


class TestBatchObjectParity:
    @pytest.mark.parametrize(
        "path",
        sorted(p for p in SCENARIOS.glob("*.json")
               if p.stem in BATCH_ELIGIBLE_SCENARIOS),
        ids=lambda p: p.stem,
    )
    def test_eligible_bundled_scenarios_bit_identical(self, path):
        spec = load_spec(path).replace(horizon=600)
        # Bundled fleets (n <= 9) are eligible but too narrow to promote.
        auto = spec.build()
        assert batch_blocker(auto) is None
        assert narrow_reason(auto)
        object_sim, batch_sim = paired(spec)
        object_sim.run(until_time=spec.horizon)
        batch_sim.run(until_time=spec.horizon)
        assert fingerprint(object_sim) == fingerprint(batch_sim)

    @pytest.mark.parametrize(
        "path",
        sorted(p for p in SCENARIOS.glob("*.json")
               if p.stem not in BATCH_ELIGIBLE_SCENARIOS),
        ids=lambda p: p.stem,
    )
    def test_ineligible_bundled_scenarios_demote_with_reason(self, path):
        sim = load_spec(path).build()
        assert sim.engine == "object"
        assert sim.engine_detail

    @pytest.mark.parametrize("schedule", sorted(SCHEDULE_PARAMS))
    def test_every_vector_schedule_bit_identical(self, schedule):
        spec = spec_for("rrw", schedule=schedule, horizon=300)
        object_sim, batch_sim = paired(spec)
        object_sim.run(until_time=spec.horizon)
        batch_sim.run(until_time=spec.horizon)
        assert fingerprint(object_sim) == fingerprint(batch_sim)

    def test_random_schedule_on_a_fine_lattice_bit_identical(self):
        # A length per draw in ticks: the kernel's memory does not grow
        # with the schedule's (R - 1) * denominator + 1 choices.
        spec = spec_for("aloha", schedule="random", max_slot=3, horizon=150)
        spec = spec.replace(schedule={"name": "random", "denominator": 10**6})
        object_sim, batch_sim = paired(spec)
        object_sim.run(until_time=spec.horizon)
        tracemalloc.start()
        try:
            batch_sim.run(until_time=spec.horizon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert fingerprint(object_sim) == fingerprint(batch_sim)

    def test_chunked_max_events_and_prune_boundaries(self):
        """max_events is cumulative; chunk cuts landing mid-tick-group
        must stay bit-identical, including the channel history pruned
        at every 512-event boundary (regression: the kernel once pruned
        with post-group low water instead of the boundary snapshot)."""
        spec = spec_for("rrw", n=7, horizon=400)
        object_sim, batch_sim = paired(spec)
        object_sim.run(until_time=spec.horizon)
        cuts = (7, 3, 1, 40, 5, 1000, 13)
        i = 0
        while batch_sim.now < spec.horizon:
            budget = batch_sim.events_processed + cuts[i % len(cuts)]
            batch_sim.run(until_time=spec.horizon, max_events=budget)
            if batch_sim.events_processed < budget:
                break  # horizon reached first
            i += 1
        assert object_sim.events_processed > 512  # prune actually fired
        assert fingerprint(object_sim) == fingerprint(batch_sim)

    def test_keep_channel_history_full_record_parity(self):
        spec = spec_for("aloha", schedule="random", horizon=250)
        object_sim, batch_sim = paired(spec, keep_channel_history=True)
        object_sim.run(until_time=spec.horizon)
        batch_sim.run(until_time=spec.horizon)
        assert fingerprint(object_sim) == fingerprint(batch_sim)

    def test_run_until_success_and_continuation(self):
        """SST parity: first success instant matches, and the finished
        batch run continues under the object semantics identically."""
        from repro.algorithms import KSelection
        from repro.timing import worst_case_for

        def build(engine):
            fleet = {
                i: KSelection(i, 3, Fraction(2)) for i in range(1, 13)
            }
            return Simulator(
                fleet, worst_case_for(Fraction(2)), max_slot_length=2,
                initial_packets=1, engine=engine,
            )

        object_sim, batch_sim = build("object"), build("batch")
        ends = (
            object_sim.run_until_success(max_events=100_000),
            batch_sim.run_until_success(max_events=100_000),
        )
        assert ends[0] is not None
        assert ends[0] == ends[1]
        assert fingerprint(object_sim, drain=False) == fingerprint(
            batch_sim, drain=False
        )
        object_sim.run(until_time=5000)
        batch_sim.run(until_time=5000)
        assert fingerprint(object_sim) == fingerprint(batch_sim)

    @pytest.mark.parametrize("name", sorted(ADAPTIVE_BATCH_ALGORITHMS))
    @pytest.mark.parametrize("schedule", ["sync", "worst"])
    def test_adaptive_families_bit_identical(self, name, schedule):
        overrides = {"rho": None} if name == "abs" else {}
        spec = spec_for(name, schedule=schedule, n=6, horizon=400,
                        **overrides)
        object_sim, batch_sim = paired(spec)
        object_sim.run(until_time=spec.horizon)
        batch_sim.run(until_time=spec.horizon)
        assert fingerprint(object_sim) == fingerprint(batch_sim)

    def test_adaptive_chunked_max_events(self):
        """Mid-tick budget cuts on an adaptive program: the masked
        sub-steps must commute with any event-order prefix."""
        spec = spec_for("ao-arrow", n=7, horizon=400)
        object_sim, batch_sim = paired(spec)
        object_sim.run(until_time=spec.horizon)
        cuts = (7, 3, 1, 40, 5, 1000, 13)
        i = 0
        while batch_sim.now < spec.horizon:
            budget = batch_sim.events_processed + cuts[i % len(cuts)]
            batch_sim.run(until_time=spec.horizon, max_events=budget)
            if batch_sim.events_processed < budget:
                break
            i += 1
        assert fingerprint(object_sim) == fingerprint(batch_sim)

    def test_adaptive_engines_interleave_on_one_simulator(self):
        """Full bidirectional state sync: an auto(batch) run continued
        on a fresh object-engine clone of its own canonical state must
        agree — here checked by alternating horizon chunks against a
        pure object run."""
        spec = spec_for("ca-arrow-ft", n=5, horizon=600)
        reference = spec.build(engine="object")
        reference.run(until_time=spec.horizon)
        alternating = spec.build(engine="object")
        # Same canonical objects, alternating inner loops per chunk
        # (the kernel snapshots/writes back around every run call).
        for chunk in range(6):
            alternating._engine = "batch" if chunk % 2 else "object"
            alternating.run(until_time=(chunk + 1) * 100)
        assert fingerprint(reference) == fingerprint(alternating)

    def test_table_driven_and_listening_fleets_bit_identical(self):
        """Two programs no scenario reaches, forced onto the kernel: a
        ``TableDriven`` schedule (per-station rows, then the default
        tail) and an all-``AlwaysListen`` fleet."""
        from repro.core.station import AlwaysListen
        from repro.timing import TableDriven

        table = TableDriven(
            {1: [2, "3/2", 1], 3: ["3/2", "3/2"], 4: [1, 2]}, default="3/2"
        )
        builds = (
            lambda engine: Simulator(
                {i: RRW(i, 4) for i in range(1, 5)}, table,
                max_slot_length=2, engine=engine,
                arrival_source=UniformRate(
                    rho=Fraction(1, 2), targets=[1, 2, 3, 4],
                    assumed_cost=2,
                ),
            ),
            lambda engine: Simulator(
                [AlwaysListen() for _ in range(3)], Synchronous(),
                max_slot_length=1, engine=engine,
            ),
        )
        for build in builds:
            object_sim, batch_sim = build("object"), build("batch")
            assert batch_sim.engine == "batch", batch_sim.engine_detail
            object_sim.run(until_time=400)
            batch_sim.run(until_time=400)
            assert fingerprint(object_sim) == fingerprint(batch_sim)

    def test_ft_skip_ladder_bit_identical(self):
        """A permanently silent ring id engages the skip/claim ladder
        (scalar hot path) on both engines identically."""
        from repro.algorithms import FaultTolerantCAArrow
        from repro.timing import worst_case_for

        def build(engine):
            fleet = {i: FaultTolerantCAArrow(i, 4, 2) for i in (1, 2, 3)}
            return Simulator(
                fleet, worst_case_for(Fraction(2)), max_slot_length=2,
                engine=engine, arrival_source=UniformRate(
                    rho=Fraction(1, 8), targets=[1, 2, 3], assumed_cost=2,
                ),
            )

        object_sim, batch_sim = build("object"), build("batch")
        object_sim.run(until_time=2000)
        batch_sim.run(until_time=2000)
        assert fingerprint(object_sim) == fingerprint(batch_sim)
        skips = sum(
            object_sim.stations[sid].algorithm.stats.skips
            for sid in object_sim.station_ids
        )
        claims = sum(
            object_sim.stations[sid].algorithm.stats.recoveries_claimed
            for sid in object_sim.station_ids
        )
        assert skips > 0 and claims > 0  # the ladder actually engaged
        for sid in object_sim.station_ids:
            a = object_sim.stations[sid].algorithm
            b = batch_sim.stations[sid].algorithm
            assert dataclasses.astuple(a.stats) == dataclasses.astuple(
                b.stats
            )
            assert (a.silent_run, a.skip_count, a.ladder_rounds) == (
                b.silent_run, b.skip_count, b.ladder_rounds
            )

    def test_ft_conflict_mode_staggering_bit_identical(self):
        """Conflict-mode claims stagger thresholds by (2R)^(id-1) with
        exact integers; identical pre-desynchronized fleets must resolve
        identically on both engines."""
        from repro.algorithms import FaultTolerantCAArrow

        def build(engine):
            fleet = {i: FaultTolerantCAArrow(i, 3, 2) for i in (1, 2, 3)}
            for i, algo in fleet.items():
                algo.conflict_mode = True
                algo.state = "claim"
                algo.skip_count = 1
                algo.silent_run = 5
                algo.turn = i
            return Simulator(
                fleet, Synchronous(), max_slot_length=2, engine=engine,
                initial_packets=2,
            )

        object_sim, batch_sim = build("object"), build("batch")
        object_sim.run(until_time=1500)
        batch_sim.run(until_time=1500)
        assert fingerprint(object_sim) == fingerprint(batch_sim)

    def test_ao_arrow_sync_signal_path_bit_identical(self):
        """Sparse arrivals leave super-threshold silences, engaging
        AO-ARRoW's sync_wait/sync_tx machinery on both engines."""
        spec = spec_for("ao-arrow", schedule="worst", rho="1/64",
                        horizon=3000)
        object_sim, batch_sim = paired(spec)
        object_sim.run(until_time=spec.horizon)
        batch_sim.run(until_time=spec.horizon)
        assert fingerprint(object_sim) == fingerprint(batch_sim)
        sync_signals = sum(
            object_sim.stations[sid].algorithm.stats.sync_signals_sent
            for sid in object_sim.station_ids
        )
        assert sync_signals > 0  # the path actually ran

    def test_abs_run_until_success_and_continuation(self):
        """SST on the standalone ABS fleet: first success matches, and
        the finished batch run continues identically."""
        spec = spec_for("abs", schedule="worst", rho=None, n=9,
                        horizon=5000)
        object_sim, batch_sim = paired(spec)
        ends = (
            object_sim.run_until_success(max_events=100_000),
            batch_sim.run_until_success(max_events=100_000),
        )
        assert ends[0] is not None
        assert ends[0] == ends[1]
        assert fingerprint(object_sim, drain=False) == fingerprint(
            batch_sim, drain=False
        )
        object_sim.run(until_time=5000)
        batch_sim.run(until_time=5000)
        assert fingerprint(object_sim) == fingerprint(batch_sim)

    def test_engine_choice_never_reaches_results(self):
        """Grid cells agree on everything a CellResult records."""
        cell = spec_for("rrw", horizon=400).replace(name="parity")
        object_result = run_cell(cell, engine="object")
        batch_result = run_cell(cell, engine="batch")
        assert object_result.engine == "object"
        assert batch_result.engine == "batch"
        assert object_result.engine_described == "object"
        assert batch_result.engine_described == "batch(nonadaptive)"
        exempt = {"engine", "engine_described", "timebase", "wall_s"}
        for field in dataclasses.fields(object_result):
            if field.name in exempt:
                continue
            assert getattr(object_result, field.name) == getattr(
                batch_result, field.name
            ), field.name


class TestBatchChaosParity:
    """Batch-engine cells disturbed by the chaos harness still match an
    undisturbed serial run bit-for-bit, and RunHealth records the
    recoveries (the engine is a per-process run option, so respawned
    workers re-resolve it identically)."""

    def test_disturbed_batch_grid_matches_undisturbed_serial(self, tmp_path):
        from repro.exec import (
            ChaosEvent, ChaosPlan, chaos_tasks, fork_available, run_tasks,
        )

        if not fork_available():
            pytest.skip("fork-based pool unavailable")
        cells = [
            spec_for("rrw", horizon=300, rho=f"{k}/8").replace(name=f"b{k}")
            for k in range(1, 6)
        ]
        baseline = [run_cell(c, engine="batch") for c in cells]
        assert all(r.engine == "batch" for r in baseline)
        tasks = [
            (lambda c: (lambda: run_cell(c, engine="batch")))(c)
            for c in cells
        ]
        plan = ChaosPlan(
            events=(
                ChaosEvent("crash", index=0, attempts=1),
                ChaosEvent("raise", index=2, attempts=1),
                ChaosEvent("hang", index=4, attempts=1),
            ),
            hang_s=30.0,
        )
        wrapped = chaos_tasks(tasks, plan, tmp_path / "chaos")
        run = run_tasks(
            wrapped, jobs=2, task_timeout=2.0, retries=3,
            backoff_base=0.001,
        )
        assert run.values == baseline
        assert all(r.engine == "batch" for r in run.values)
        assert run.health.worker_crashes >= 1
        assert run.health.timeouts >= 1
        assert run.health.retries >= 3
        assert run.health.failures == 0
        assert run.health.disturbed


class TestBatchObservability:
    def test_trace_spans_identical_but_for_engine(self, tmp_path):
        """RunHealth-adjacent observability: the cell span records the
        same stable/delivered facts on both engines."""
        cell = spec_for("aloha", horizon=300).replace(name="span-parity")
        attrs = {}
        for engine in ("object", "batch"):
            tracer = activate(Tracer(spool_dir=tmp_path / engine))
            try:
                run_cell(cell, engine=engine)
            finally:
                deactivate()
            spans = tracer.spans()
            [cell_span] = [s for s in spans if s["name"] == "cell"]
            attrs[engine] = cell_span["args"]
        assert attrs["object"]["engine"] == "object"
        assert attrs["batch"]["engine"] == "batch"
        for key in ("cell", "stable", "delivered"):
            assert attrs["object"][key] == attrs["batch"][key], key
