"""The batch kernel writes every algorithm object back whole.

``tests/test_batch.py`` compares runs by their observables and the
simulator's scheduling state; this module compares the *algorithm
objects* themselves.  For every class with a registered vector program,
an object-loop run and a batch run cut into three ``run()`` calls (so
every field crosses the kernel's load and store twice) must leave
field-for-field equal automata: state codes, counters, flags, the
nested :class:`~repro.algorithms.abs_leader.AbsCore`, the ``stats``
dataclasses and each ``random.Random`` generator's state.

The kernel keeps the scheduling state (slot index, boundaries, action,
slots elapsed, the pending events) in its arrays; the
``StationRuntime``s and the event heap are built and written from them
only when they are read through ``Simulator.stations`` or the object
loop takes over.  So the same cases are cut before any event (the
kernel's start alone) and mid-tick, and every runtime field and the
heap, read through ``stations``, must equal the object loop's; one-shot
runs must never build or write a runtime at all, and make a packet
queue only for a station that received a packet.

It also pins the registry's import-order independence: every vector
program registers next to its class, whichever batch module is
imported first, and the modules import without NumPy.
"""

import enum
import importlib.util
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from repro.algorithms import (
    ABSLeaderElection,
    AOArrow,
    CAArrow,
    FaultTolerantCAArrow,
    KSelection,
    MBTFLike,
    NaiveTDMA,
    RRW,
    SlottedAloha,
)
from repro.analysis import collect_metrics
from repro.arrivals import UniformRate
from repro.core import Simulator
from repro.core.batch import BATCH_ALGORITHMS, BatchKernel
from repro.core.errors import ConfigurationError, ProtocolError, SimulationError
from repro.core.station import (
    TRANSMIT_CONTROL,
    TRANSMIT_PACKET,
    AlwaysListen,
    AlwaysTransmit,
)
from repro.scenarios import ScenarioSpec
from repro.service import RunOptions, RunRequest, execute
from repro.timing import CyclicPattern, Synchronous, worst_case_for

REPO = pathlib.Path(__file__).resolve().parents[1]

needs_numpy = pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None, reason="needs NumPy"
)

_LEAVES = (int, float, str, bytes, type(None), Fraction, enum.Enum)


def object_state(value):
    """A comparable snapshot of ``value`` and everything it holds.

    Leaves keep their type, so ``1`` written where the object loop
    holds ``True`` is a difference.
    """
    if isinstance(value, _LEAVES):
        return type(value).__name__, value
    if isinstance(value, random.Random):
        return ("Random", value.getstate())
    if isinstance(value, (list, tuple)):
        return tuple(object_state(item) for item in value)
    if isinstance(value, dict):
        return {key: object_state(item) for key, item in value.items()}
    fields = getattr(value, "__dict__", None)
    names = set(fields or ())
    for cls in type(value).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        names.update((slots,) if isinstance(slots, str) else slots)
    # Neither a leaf nor an object with fields (a NumPy scalar written
    # back by mistake, say): nothing here could compare it faithfully.
    assert fields is not None or names, f"cannot compare {value!r}"
    return (
        type(value).__name__,
        {name: object_state(getattr(value, name)) for name in sorted(names)},
    )


def _spec(algorithm, schedule="worst", **overrides):
    params = dict(
        algorithm=algorithm, n=6, max_slot=2, rho="1/2", horizon=600,
        schedule={"name": schedule},
    )
    params.update(overrides)
    return lambda engine: ScenarioSpec(**params).build(engine=engine)


def _fleet(make, n, **kwargs):
    def build(engine):
        return Simulator(
            {i: make(i) for i in range(1, n + 1)}, worst_case_for(Fraction(2)),
            max_slot_length=2, engine=engine, **kwargs,
        )

    return build


def _ft_ladder(engine):
    # Station 4 never exists, so the ring must skip it: the skip/claim
    # ladder engages (the kernel's scalar escape hatch).
    return Simulator(
        {i: FaultTolerantCAArrow(i, 4, 2) for i in (1, 2, 3)},
        worst_case_for(Fraction(2)), max_slot_length=2, engine=engine,
        arrival_source=UniformRate(
            rho=Fraction(1, 8), targets=[1, 2, 3], assumed_cost=2,
        ),
    )


#: One run per class with a vector program: a builder taking the engine
#: name, and the three instants the batch run stops at.  The stops are
#: picked where transient fields are set (a live nested core, a pending
#: ``saw_ack``, a claim in flight), so a field the kernel fails to load
#: or store shows up as a difference.
CASES = {
    AlwaysListen: (
        lambda engine: Simulator(
            [AlwaysListen() for _ in range(3)], Synchronous(),
            max_slot_length=1, engine=engine,
        ),
        (30, 60, 90),
    ),
    AlwaysTransmit: (
        _fleet(lambda i: AlwaysTransmit(), 3, initial_packets=2),
        (30, 60, 90),
    ),
    SlottedAloha: (
        _spec("aloha", schedule="random", seed=3), (200, 400, 600),
    ),
    NaiveTDMA: (_spec("tdma"), (200, 400, 600)),
    RRW: (_spec("rrw"), (200, 400, 600)),
    MBTFLike: (_spec("mbtf", rho="1/8"), (200, 400, 600)),
    KSelection: (
        _fleet(lambda i: KSelection(i, 4, Fraction(2)), 12,
               initial_packets=1),
        (35, 102, 600),
    ),
    ABSLeaderElection: (_spec("abs", n=9, rho=None), (1000, 2000, 3000)),
    AOArrow: (_spec("ao-arrow", n=5, rho="1/16"), (300, 900, 1550)),
    CAArrow: (_spec("ca-arrow", rho="1/8"), (370, 710, 990)),
    FaultTolerantCAArrow: (_ft_ladder, (50, 1600, 2500)),
}


def test_cases_cover_every_vector_program():
    assert set(CASES) == set(BATCH_ALGORITHMS)


@needs_numpy
@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_batch_writes_back_full_algorithm_state(cls):
    build, stops = CASES[cls]
    object_sim, batch_sim = build("object"), build("batch")
    assert batch_sim.engine == "batch", batch_sim.engine_detail
    for stop in stops:
        object_sim.run(until_time=stop)
        batch_sim.run(until_time=stop)
        assert batch_sim.events_processed == object_sim.events_processed
        for sid in object_sim.station_ids:
            expected = object_sim.stations[sid].algorithm
            actual = batch_sim.stations[sid].algorithm
            assert type(expected) is cls
            assert object_state(actual) == object_state(expected), (stop, sid)


def runtime_state(runtime):
    """Every field of one ``StationRuntime``; the queue as its packets."""
    return object_state((
        runtime.station_id, runtime.algorithm, list(runtime.queue),
        runtime.slot_index, runtime.slot_start, runtime.slot_end,
        runtime.slot_interval, runtime.action, runtime.aboard_packet,
        runtime.slots_elapsed,
    ))


def scheduling_state(sim):
    """Every runtime, read through ``stations``, and the pending events."""
    runtimes = [runtime_state(rt) for rt in sim.stations.values()]
    return runtimes, object_state(sorted(sim._event_heap))


#: Cumulative ``max_events`` budgets: 0 runs the start alone, and the
#: others end inside a tick on every case's fleet (n = 3..12).
BUDGETS = (0, 1, 7, 23, 101, 250)


@needs_numpy
@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_runtimes_read_after_any_cut_match_the_object_loop(cls):
    build, stops = CASES[cls]
    object_sim = build("object")
    # One batch run is read after every cut, so every later kernel exit
    # writes back; the other is read only once all cuts are done.
    read_each, read_last = build("batch"), build("batch")
    assert read_each.engine == "batch", read_each.engine_detail
    for budget in BUDGETS:
        for sim in (object_sim, read_each, read_last):
            sim.run(max_events=budget)
        assert read_each.events_processed == object_sim.events_processed
        assert scheduling_state(read_each) == scheduling_state(object_sim), (
            budget
        )
    for stop in stops:
        for sim in (object_sim, read_each, read_last):
            sim.run(until_time=stop)
        assert scheduling_state(read_each) == scheduling_state(object_sim), (
            stop
        )
    # Before anything is written back, the readers answer from the
    # fleet and the kernel's arrays, in plain ints, and build no runtime.
    ids = object_sim.station_ids
    elapsed = [read_last.slots_elapsed(sid) for sid in ids]
    assert elapsed == [object_sim.slots_elapsed(sid) for sid in ids]
    assert read_last.max_slots_elapsed() == object_sim.max_slots_elapsed()
    assert read_last.queue_sizes() == object_sim.queue_sizes()
    sizes = [read_last.queue_size(sid) for sid in ids]
    assert sizes == [object_sim.queue_size(sid) for sid in ids]
    assert object_state([read_last.algorithm(sid) for sid in ids]) == (
        object_state([object_sim.algorithm(sid) for sid in ids])
    )
    values = elapsed + sizes + [read_last.max_slots_elapsed()]
    values += list(read_last.queue_sizes().values())
    assert {type(value) for value in values} == {int}
    assert read_last._stations is None
    assert scheduling_state(read_last) == scheduling_state(object_sim)


@needs_numpy
def test_a_held_runtime_reads_current_values_after_a_batch_run():
    build, stops = CASES[MBTFLike]
    object_sim, batch_sim = build("object"), build("batch")
    held = [batch_sim.stations[sid] for sid in batch_sim.station_ids]
    for stop in stops:
        object_sim.run(until_time=stop)
        batch_sim.run(until_time=stop)
        assert [runtime_state(rt) for rt in held] == [
            runtime_state(rt) for rt in object_sim.stations.values()
        ]


@needs_numpy
def test_one_shot_service_runs_write_no_runtime_back(monkeypatch):
    written = []
    write = BatchKernel.write_runtimes

    def counted(kernel, sim):
        written.append(sim)
        write(kernel, sim)

    monkeypatch.setattr(BatchKernel, "write_runtimes", counted)
    spec = ScenarioSpec(
        algorithm="mbtf", n=48, max_slot=2, rho="1/2", horizon=80,
        schedule={"name": "sync"},
    )
    run = execute(RunRequest(specs=(spec,)))
    grid = execute(RunRequest(specs=(spec,), command="grid"))
    [cell] = grid.report.results
    assert (run.engine, cell.engine) == ("batch", "batch")
    assert written == []
    reference = execute(RunRequest(
        specs=(spec,), options=RunOptions(engine="object"),
    )).metrics.per_station_queue
    assert any(reference.values())
    for queues in (run.metrics.per_station_queue,
                   cell.metrics.per_station_queue):
        assert queues == reference
        assert [type(size) for size in queues.values()] == [int] * spec.n


def _count_constructions(monkeypatch, module, name):
    """Wrap class ``name`` where ``module`` makes it; return the list of
    instances it made."""
    made = []
    cls = getattr(module, name)

    def construct(*args, **kwargs):
        instance = cls(*args, **kwargs)
        made.append(instance)
        return instance

    monkeypatch.setattr(module, name, construct)
    return made


@needs_numpy
def test_a_batch_run_builds_runtimes_and_queues_only_when_read(monkeypatch):
    import repro.core.batch as batch_module
    import repro.core.simulator as simulator_module

    spec = ScenarioSpec(
        algorithm="rrw", n=48, max_slot=1, rho="1/2", horizon=80,
        schedule={"name": "sync"},
    )
    reference = spec.build(engine="object")
    reference.run(until_time=spec.horizon)
    received = [
        sid for sid, runtime in reference.stations.items()
        if runtime.queue.total_enqueued
    ]
    assert 0 < len(received) < spec.n

    runtimes = _count_constructions(
        monkeypatch, simulator_module, "StationRuntime"
    )
    queues = _count_constructions(monkeypatch, batch_module, "PacketQueue")
    queues_at_read = _count_constructions(
        monkeypatch, simulator_module, "PacketQueue"
    )
    sim = spec.build()
    assert sim.engine == "batch", sim.engine_detail
    sim.run(until_time=spec.horizon)
    metrics = collect_metrics(sim)
    assert metrics.per_station_queue == reference.queue_sizes()
    assert runtimes == [] and queues_at_read == []
    assert sorted(queue.station_id for queue in queues) == received

    # A read builds every runtime once, handing over the kernel's queues.
    assert scheduling_state(sim) == scheduling_state(reference)
    assert len(runtimes) == spec.n
    assert len(queues_at_read) == spec.n - len(received)
    for queue in queues:
        assert sim.stations[queue.station_id].queue is queue


@needs_numpy
def test_sst_on_the_kernel_reports_what_the_object_loop_does():
    # Wide enough for auto to promote: the election runs on the kernel,
    # then the object loop takes the state over until every station
    # knows the outcome.
    spec = ScenarioSpec(
        algorithm="abs", n=48, max_slot=2, schedule="worst", seed=0,
        rho=None,
    )
    reports = {}
    for engine in ("object", "batch", "auto"):
        result = execute(RunRequest(
            specs=(spec,), command="sst", options=RunOptions(engine=engine),
        ))
        assert result.ok
        reports[engine] = (result.engine, result.sst["solved_at"],
                           result.sst["winner"], result.sst["max_slots"])
    assert reports["auto"][0] == "batch"
    assert len({report[1:] for report in reports.values()}) == 1


@needs_numpy
@pytest.mark.parametrize("slot", [0, 1])
def test_a_malformed_cyclic_length_raises_at_kernel_entry(slot):
    patterns = {sid: [1, "3/2", 2] for sid in range(1, 41)}
    patterns[17][slot] = 3  # outside [1, R] for R = 2

    def build(engine):
        return Simulator(
            {sid: RRW(sid, 40) for sid in patterns},
            CyclicPattern(patterns), max_slot_length=2, engine=engine,
        )

    with pytest.raises(ConfigurationError) as object_error:
        build("object").run(until_time=10)
    with pytest.raises(ConfigurationError) as batch_error:
        build("batch").run(max_events=0)
    assert str(batch_error.value) == str(object_error.value)
    assert str(batch_error.value) == (
        "slot length 3 outside the legal range [1, 2]"
    )


@needs_numpy
@pytest.mark.parametrize("fault", ["packet", "control", "off-lattice"])
def test_the_kernel_start_raises_the_object_loops_error(fault):
    # Station 17 of 40 opens slot 0 illegally: a packet from its empty
    # queue, a control message RRW does not declare, or a slot length
    # off the lattice the adversary declared at construction.
    def build(engine):
        adversary = CyclicPattern({sid: [1, 2] for sid in range(1, 41)})
        fleet = {sid: RRW(sid, 40) for sid in range(1, 41)}
        sim = Simulator(fleet, adversary, max_slot_length=2, engine=engine)
        if fault == "packet":
            fleet[17].first_action = lambda ctx: TRANSMIT_PACKET
        elif fault == "control":
            fleet[17].first_action = lambda ctx: TRANSMIT_CONTROL
        else:
            adversary.patterns[17] = (Fraction(3, 2), Fraction(1))
        return sim

    with pytest.raises((ProtocolError, SimulationError)) as object_error:
        build("object").run(until_time=10)
    with pytest.raises((ProtocolError, SimulationError)) as batch_error:
        build("batch").run(max_events=0)
    assert type(batch_error.value) is type(object_error.value)
    assert str(batch_error.value) == str(object_error.value)
    assert str(batch_error.value).startswith(
        "slot adversary CyclicPattern" if fault == "off-lattice"
        else "station 17: RRW"
    )


def _run_isolated(script):
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO, capture_output=True,
        text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_adaptive_module_imported_first_registers_every_program():
    names = _run_isolated(
        "import repro.core.batch_adaptive\n"
        "from repro.core.batch import BATCH_ALGORITHMS\n"
        "print(*sorted(cls.__name__ for cls in BATCH_ALGORITHMS))\n"
    )
    assert names == sorted(cls.__name__ for cls in CASES)


def test_adaptive_module_imported_first_without_numpy():
    detail = _run_isolated(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import repro.core.batch_adaptive\n"
        "from repro.scenarios import load_spec\n"
        "sim = load_spec('scenarios/rrw_sync.json').build()\n"
        "sim.run(until_time=50)\n"
        "print(sim.engine_detail)\n"
    )
    assert " ".join(detail) == "NumPy is not available"
