"""Object-loop executions pinned by digest.

tests/test_property_engines.py compares the engines against the object
loop itself, so a change that moves both object paths (Fraction and
tick lattice) the same way passes there.  This file pins the object
loop against recorded digests instead: for a fixed, seeded list of
small runs it hashes ``repr(execution_signature(sim))`` (with the
recorded slot events, the profiler's call counts or a run's return
value where the case has them) and compares with
``tests/golden/object_signatures.json``.

The list covers every registered algorithm, schedule, source and fault
kind, the two look-ahead adversaries, an adaptive arrival source, a
chunked ``max_events`` run, a ``stop_when`` run, ``run_until_success``
for the three SST fleets, a recorded-slots run and a profiled run.
Each case runs with ``timebase="fraction"`` and ``"auto"`` (the tick
lattice wherever its components declare one), which must give the same
digest.

Regenerate only for a deliberate change of behaviour::

    PYTHONPATH=src python tests/test_object_signatures.py
"""

import hashlib
import json
import pathlib
import sys

import pytest

from repro.arrivals.adaptive import StarveCurrentTransmitter
from repro.core import Simulator, Trace, execution_signature
from repro.obs.profiling import PhaseProfiler
from repro.scenarios import ScenarioSpec
from repro.timing.lookahead import CloningGreedyAdversary, MaxOverlapAdversary

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "object_signatures.json"

_FT = dict(algorithm="ca-arrow-ft", n=5, rho="1/2", horizon=150)

#: Case name -> spec; each runs to its horizon on the object loop.
SPECS = {
    "ao-arrow-worst": ScenarioSpec(algorithm="ao-arrow", n=4, rho="1/2",
                                   horizon=150, seed=1),
    "ca-arrow-sync-bursty": ScenarioSpec(algorithm="ca-arrow", n=5,
                                         schedule="sync", rho="3/5", burst=3,
                                         horizon=150, seed=2),
    "ca-arrow-ft-random": ScenarioSpec(**_FT, schedule="random", seed=3),
    "rrw-fixed": ScenarioSpec(algorithm="rrw", n=6, max_slot=3,
                              schedule={"name": "fixed", "length": "5/2"},
                              rho="1/2", horizon=150, seed=4),
    "mbtf-per-station-fixed": ScenarioSpec(
        algorithm="mbtf", n=4, max_slot="3/2",
        schedule={"name": "per-station-fixed",
                  "lengths": {"1": 1, "2": "5/4", "3": "3/2", "4": "5/4"}},
        rho="2/5", horizon=150, seed=5),
    "tdma-cyclic": ScenarioSpec(
        algorithm="tdma", n=3, max_slot=2,
        schedule={"name": "cyclic",
                  "patterns": {"1": [1, 2], "2": ["3/2"], "3": [2, 1, "5/4"]}},
        rho="1/4", horizon=150, seed=6),
    "aloha-random-poisson": ScenarioSpec(
        algorithm="aloha", n=4, schedule="random", rho="1/2",
        source={"name": "poisson", "denominator": 8}, horizon=150, seed=7),
    "aloha-sync-uniform-targets": ScenarioSpec(
        algorithm="aloha", n=3, schedule="sync", rho="2/5",
        source={"name": "uniform", "targets": [2, 3], "start": 5},
        horizon=150, seed=8),
    "abs-worst": ScenarioSpec(algorithm="abs", n=6, max_slot=3, horizon=150,
                              seed=9),
    "doubling-random": ScenarioSpec(algorithm="doubling", n=5,
                                    schedule="random", horizon=150, seed=10),
    "randomized-sync": ScenarioSpec(algorithm="randomized", n=4,
                                    schedule="sync", horizon=150, seed=11),
    "ao-arrow-none-source": ScenarioSpec(algorithm="ao-arrow", n=3,
                                         source="none", horizon=150, seed=12),
    "ca-arrow-ft-crash": ScenarioSpec(
        **_FT, seed=13,
        faults=[{"kind": "crash", "station": 2, "at_slot": 20}]),
    "ca-arrow-jam-periodic": ScenarioSpec(
        algorithm="ca-arrow", n=4, rho="2/5", horizon=150, seed=14,
        faults=[{"kind": "jam-periodic", "burst": 2, "period": 9,
                 "budget": 12}]),
    "rrw-jam-reactive": ScenarioSpec(
        algorithm="rrw", n=4, schedule="random", rho="2/5", horizon=150,
        seed=15,
        faults=[{"kind": "jam-reactive", "burst": 2, "cooldown": 3,
                 "budget": 10}]),
}

#: The SST cases ``run_until_success`` runs (name -> spec).
SST_SPECS = {
    "abs-until-success": ScenarioSpec(algorithm="abs", n=7, max_slot=2,
                                      seed=21),
    "doubling-until-success": ScenarioSpec(algorithm="doubling", n=5,
                                           schedule="random", seed=22),
    "randomized-until-success": ScenarioSpec(algorithm="randomized", n=9,
                                             schedule="sync", seed=23),
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _horizon_run(spec, timebase):
    sim = spec.build(engine="object", timebase=timebase)
    sim.run(until_time=spec.horizon)
    return execution_signature(sim)


def _chunked_run(timebase):
    """``max_events`` chunks of 37, then the rest up to the horizon."""
    spec = SPECS["ca-arrow-ft-random"]
    sim = spec.build(engine="object", timebase=timebase)
    while True:
        before = sim.events_processed
        sim.run(until_time=spec.horizon, max_events=before + 37)
        if sim.events_processed - before < 37:
            return execution_signature(sim)


def _stop_when_run(timebase):
    spec = SPECS["ca-arrow-sync-bursty"]
    sim = spec.build(engine="object", timebase=timebase)
    sim.run(until_time=spec.horizon,
            stop_when=lambda s: s.total_backlog >= 6 and s.events_processed > 40)
    return execution_signature(sim)


def _until_success(name, timebase):
    sim = SST_SPECS[name].build(engine="object", timebase=timebase)
    won_at = sim.run_until_success(max_events=20_000)
    return (won_at, execution_signature(sim))


def _recorded_slots_run(timebase):
    spec = SPECS["ca-arrow-ft-random"]
    trace = Trace(record_slots=True)
    sim = spec.build(engine="object", timebase=timebase, trace=trace)
    sim.run(until_time=60)
    slots = [
        (e.station_id, e.slot_index, e.interval, e.action, e.feedback,
         e.queue_size, e.delivered, e.backlog, e.carried_packet_id)
        for e in trace.slots
    ]
    return (execution_signature(sim), slots)


def _profiled_run(timebase):
    spec = SPECS["mbtf-per-station-fixed"]
    profiler = PhaseProfiler()
    sim = spec.build(engine="object", timebase=timebase, profiler=profiler)
    sim.run(until_time=spec.horizon)
    return (execution_signature(sim), sorted(profiler.calls.items()))


def _lookahead_run(adversary, spec, until):
    sim = Simulator(spec.build_fleet(), adversary, spec.max_slot,
                    arrival_source=spec.build_source())
    sim.run(until_time=until)
    return execution_signature(sim)


def _cloning_greedy_run(timebase):
    spec = ScenarioSpec(algorithm="ao-arrow", n=3, rho="1/2", seed=31)
    adversary = CloningGreedyAdversary(spec.max_slot, horizon_events=6)
    return (_lookahead_run(adversary, spec, 25), adversary.decisions)


def _max_overlap_run(timebase):
    spec = ScenarioSpec(algorithm="aloha", n=4, rho="1/2", seed=32)
    return _lookahead_run(MaxOverlapAdversary(spec.max_slot), spec, 150)


def _starving_source_run(timebase):
    spec = ScenarioSpec(algorithm="ca-arrow", n=3, schedule="sync", seed=33)
    source = StarveCurrentTransmitter(rho=1, burstiness=2, assumed_cost=1,
                                      station_ids=[1, 2, 3])
    sim = Simulator(spec.build_fleet(), spec.build_schedule(), spec.max_slot,
                    arrival_source=source)
    sim.run(until_time=150)
    return execution_signature(sim)


#: Case name -> (run(timebase) -> value, timebases it runs on).
BOTH = ("fraction", "auto")
CASES = {
    **{name: ((lambda tb, spec=spec: _horizon_run(spec, tb)), BOTH)
       for name, spec in SPECS.items()},
    **{name: ((lambda tb, name=name: _until_success(name, tb)), BOTH)
       for name in SST_SPECS},
    "chunked-max-events": (_chunked_run, BOTH),
    "stop-when": (_stop_when_run, BOTH),
    "recorded-slots": (_recorded_slots_run, BOTH),
    "profiled": (_profiled_run, BOTH),
    "cloning-greedy": (_cloning_greedy_run, ("fraction",)),
    "max-overlap": (_max_overlap_run, ("fraction",)),
    "starving-source": (_starving_source_run, ("fraction",)),
}


def digests():
    """Case name -> digest, checking the timebases agree."""
    out = {}
    for name, (run, timebases) in CASES.items():
        (digest,) = {_digest(run(tb)) for tb in timebases}
        out[name] = digest
    return out


def test_the_cases_cover_every_registry_entry():
    from repro.scenarios.registry import ALGORITHMS, FAULTS, SCHEDULES, SOURCES

    specs = [*SPECS.values(), *SST_SPECS.values()]
    assert {s.algorithm for s in specs} == set(ALGORITHMS.names())
    assert {s.schedule["name"] for s in specs} == set(SCHEDULES.names())
    assert {f["kind"] for s in specs for f in s.faults} == set(FAULTS.names())
    sources = {s.source["name"] for s in specs if s.source is not None}
    sources |= {"bursty" if s.burst > 1 else "uniform"
                for s in specs if s.source is None and s.rho is not None}
    assert sources == set(SOURCES.names())


@pytest.mark.parametrize("name", sorted(CASES))
def test_object_signature_matches_golden(name):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    run, timebases = CASES[name]
    for timebase in timebases:
        assert _digest(run(timebase)) == expected, (name, timebase)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
