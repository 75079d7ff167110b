"""The batch kernel is the object loop, over generated specs.

Hypothesis draws a :class:`~repro.scenarios.ScenarioSpec` from the
registries — a batch-eligible algorithm, any registered schedule and
arrival source with parameters built for the drawn ``n`` and ``R``, a
rate and a burst, and ``n`` on both sides of the batch crossover.

A spec with a lattice source and no fault must be batch-eligible, and
runs four ways:

* the oracle: the object loop on exact Fractions, in one ``run()``;
* the object loop on the tick lattice, in one ``run()``;
* a forced ``engine="batch"`` simulator, in ``max_events`` chunks of a
  drawn size (so most cuts fall inside a tick);
* where ``engine="auto"`` promotes the spec, one simulator alternating
  kernel chunks with object-loop chunks (``stop_when`` moves a chunk
  onto the object loop).

A second draw adds what keeps a spec off the kernel — a fault (a crash,
a periodic or a reactive jammer) or the ``poisson`` source, which
declares no lattice — and runs the oracle against the object loop on
the lattice wherever the source declares one.

Each must have the oracle's ``execution_signature``.  The example count
comes from the active Hypothesis profile: tests/conftest.py registers
``ci`` (five times the default), which CI's chaos job runs.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy")

from repro.core import execution_signature
from repro.core.batch import BATCH_ALGORITHMS, batch_blocker
from repro.scenarios import ScenarioSpec
from repro.scenarios.registry import ALGORITHMS, FAULTS, SCHEDULES, SOURCES

R_VALUES = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))
RHOS = ("1/4", "1/2", "9/10")
#: Slot lengths a table may hold; each is kept only when it is <= R.
LENGTHS = (
    Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2),
    Fraction(5, 2), Fraction(3),
)


def _batch_eligible(name):
    fleet = ScenarioSpec(algorithm=name, n=2).build_fleet()
    return type(fleet[1]) in BATCH_ALGORITHMS


ELIGIBLE = [name for name in ALGORITHMS.names() if _batch_eligible(name)]


def _length(R):
    return st.sampled_from([str(x) for x in LENGTHS if x <= R])


def _per_station(n, values):
    return st.fixed_dictionaries({str(sid): values for sid in range(1, n + 1)})


#: Registered schedule name -> strategy for its parameters at (n, R).
SCHEDULE_PARAMS = {
    "sync": lambda n, R: st.just({}),
    "worst": lambda n, R: st.just({}),
    "random": lambda n, R: st.just({}),
    "fixed": lambda n, R: st.fixed_dictionaries({"length": _length(R)}),
    "per-station-fixed": lambda n, R: st.fixed_dictionaries(
        {"lengths": _per_station(n, _length(R))}
    ),
    "cyclic": lambda n, R: st.fixed_dictionaries(
        {"patterns": _per_station(n, st.lists(_length(R), min_size=1,
                                              max_size=3))}
    ),
}


def _arrival_params(n, R, **extra):
    """Optional keyword parameters shared by the rate sources."""
    return st.fixed_dictionaries({}, optional={
        "targets": st.lists(st.integers(1, n), min_size=1, max_size=n,
                            unique=True),
        "assumed_cost": st.sampled_from([str(R), str(R + 1)]),
        "start": st.sampled_from(["0", "3/2", "7"]),
        "limit": st.integers(1, 40),
        **extra,
    })


#: Registered source name -> strategy for its parameters at (n, R).
SOURCE_PARAMS = {
    "none": lambda n, R: st.just({}),
    "uniform": _arrival_params,
    "bursty": _arrival_params,
    "poisson": lambda n, R: _arrival_params(
        n, R, denominator=st.sampled_from([4, 8, 16])
    ),
}

#: Registered fault kind -> strategy for one entry at ``n``.
FAULT_ENTRIES = {
    "crash": lambda n: st.fixed_dictionaries({
        "kind": st.just("crash"),
        "station": st.integers(1, n),
        "at_slot": st.integers(0, 60),
    }),
    "jam-periodic": lambda n: st.fixed_dictionaries({
        "kind": st.just("jam-periodic"),
        "burst": st.integers(1, 3),
        "period": st.integers(4, 12),
    }, optional={"budget": st.integers(1, 30)}),
    "jam-reactive": lambda n: st.fixed_dictionaries({
        "kind": st.just("jam-reactive"),
        "burst": st.integers(1, 3),
        "cooldown": st.integers(0, 4),
    }, optional={"budget": st.integers(1, 30)}),
}


#: The sources that declare a tick lattice (``poisson`` draws its gaps
#: off every lattice).
LATTICE_SOURCES = sorted(set(SOURCE_PARAMS) - {"poisson"})


@st.composite
def specs(draw, blocked=False):
    """A registry spec: batch-eligible (a lattice source, no fault), or
    with ``blocked`` one the kernel must refuse (a fault, a poisson
    source, or both)."""
    algorithm = draw(st.sampled_from(ELIGIBLE))
    n = draw(st.integers(3, 9) | st.integers(21, 48))
    R = draw(st.sampled_from(R_VALUES))
    schedule = draw(st.sampled_from(sorted(SCHEDULE_PARAMS)))
    sst = ALGORITHMS.get(algorithm).meta["kind"] == "sst"
    kind = None
    sources = LATTICE_SOURCES
    if blocked:
        # An SST fleet has no source to block it, so it takes a fault.
        kind = draw(st.sampled_from(sorted(FAULT_ENTRIES) + [None] * (not sst)))
        sources = ["poisson"] if kind is None else sorted(SOURCE_PARAMS)
    # An SST fleet runs without arrivals; the rate sources need a rho.
    source = "none" if sst else draw(st.sampled_from(sources))
    # A jammer joins the fleet as station n + 1, with a slot schedule.
    stations = n + 1 if kind in ("jam-periodic", "jam-reactive") else n
    return ScenarioSpec(
        algorithm=algorithm,
        n=n,
        max_slot=R,
        schedule={"name": schedule,
                  **draw(SCHEDULE_PARAMS[schedule](stations, R))},
        rho=None if sst else draw(st.sampled_from(RHOS)),
        burst=draw(st.integers(1, 3)),
        source={"name": source, **draw(SOURCE_PARAMS[source](n, R))},
        horizon=draw(st.integers(40, 200)),
        seed=draw(st.integers(0, 2**16)),
        faults=[] if kind is None else [draw(FAULT_ENTRIES[kind](n))],
    )


def _never(sim):
    return False


def run_in_chunks(sim, horizon, chunk, interleave=False):
    """Run ``sim`` to ``horizon``, ``chunk`` events per ``run()`` call;
    with ``interleave``, every other call runs on the object loop."""
    calls = 0
    while True:
        before = sim.events_processed
        stop_when = _never if interleave and calls % 2 else None
        sim.run(until_time=horizon, max_events=before + chunk,
                stop_when=stop_when)
        calls += 1
        if sim.events_processed - before < chunk:
            return sim


def test_every_registered_schedule_is_drawn():
    assert set(SCHEDULE_PARAMS) == set(SCHEDULES.names())


def test_every_registered_source_is_drawn():
    assert set(SOURCE_PARAMS) == set(SOURCES.names())


def test_every_registered_fault_kind_is_drawn():
    assert set(FAULT_ENTRIES) == set(FAULTS.names())


def test_the_draw_covers_every_batch_eligible_algorithm():
    assert set(ELIGIBLE) >= {
        "aloha", "mbtf", "rrw", "tdma",
        "abs", "ao-arrow", "ca-arrow", "ca-arrow-ft",
    }


@settings(deadline=None)
@given(spec=specs(), data=st.data())
def test_every_engine_matches_the_object_fraction_oracle(spec, data):
    horizon = spec.horizon
    oracle = spec.build(engine="object", timebase="fraction")
    oracle.run(until_time=horizon)
    expected = execution_signature(oracle)
    total = oracle.events_processed
    lattice = spec.build(engine="object", timebase="lattice")
    assert execution_signature(lattice.run(until_time=horizon)) == expected
    auto = spec.build()
    assert batch_blocker(auto) is None
    # At most about 20 chunks: a kernel entry loads the whole fleet.
    chunk = data.draw(st.integers(max(1, total // 20), max(1, total)),
                      label="chunk")

    batch = spec.build(engine="batch")
    run_in_chunks(batch, horizon, chunk)
    assert execution_signature(batch) == expected

    if auto.engine == "batch":
        run_in_chunks(auto, horizon, chunk, interleave=True)
        assert execution_signature(auto) == expected


@settings(deadline=None)
@given(spec=specs(blocked=True))
def test_faults_and_every_source_match_the_object_fraction_oracle(spec):
    horizon = spec.horizon
    oracle = spec.build(engine="object", timebase="fraction")
    oracle.run(until_time=horizon)
    poisson = spec.source["name"] == "poisson"
    timebase = "auto" if poisson else "lattice"
    sim = spec.build(engine="object", timebase=timebase)
    sim.run(until_time=horizon)
    assert execution_signature(sim) == execution_signature(oracle)
    assert sim.timebase.is_lattice is not poisson
    assert batch_blocker(spec.build()) is not None
