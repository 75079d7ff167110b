"""The batch kernel writes every algorithm object back whole.

``tests/test_batch.py`` compares runs by their observables and the
simulator's scheduling state; this module compares the *algorithm
objects* themselves.  For every class with a registered vector program,
an object-loop run and a batch run cut into three ``run()`` calls (so
every field crosses the kernel's load and store twice) must leave
field-for-field equal automata: state codes, counters, flags, the
nested :class:`~repro.algorithms.abs_leader.AbsCore`, the ``stats``
dataclasses and each ``random.Random`` generator's state.

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
from repro.arrivals import UniformRate
from repro.core import Simulator
from repro.core.batch import BATCH_ALGORITHMS
from repro.core.station import AlwaysListen, AlwaysTransmit
from repro.scenarios import ScenarioSpec
from repro.timing import Synchronous, worst_case_for

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
