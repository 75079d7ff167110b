"""The core perf benchmark suite: the timebase fast path, measured.

This module gives the repo a *perf trajectory*: a small, fixed set of
representative runs (AO-ARRoW, CA-ARRoW, slotted Aloha and the ABS SST
election at several ``n`` / ``R``), each executed on both internal
timebases —

* ``fraction``: the historical always-correct exact-rational path, and
* ``lattice``: the scaled-integer tick path of
  :class:`~repro.core.timebase.TickLattice` —

with an inline parity assertion that the two executions are
observably identical (events, deliveries with exact delivery times,
channel counters, final clock).  The result is one report document in
the ``benchmarks/results`` form (``{"name", "preamble", "tables",
"meta"}``), so ``repro bench diff --tolerance`` can police events/sec
regressions across PRs while the deterministic columns stay
byte-exact.

Two tables:

* ``cases`` — deterministic identity: event counts, deliveries,
  the detected lattice denominator, parity.  Exact at any tolerance.
* ``speedup`` — one row: the geometric mean of the per-case
  lattice-over-fraction wall-time ratios.  Numeric, compared within
  ``--tolerance`` by CI.  The ratio (not events/sec) is the
  *machine-portable* regression signal — absolute throughput differs
  by far more than any sane tolerance between a dev box and a CI
  runner — and the geomean (not the per-case ratios) is the
  *noise-proof* one: individual short quick-mode cases wobble past
  25% on a busy runner, while averaging across six cases is stable
  and still drops when the fast path rots.

Per-case speedups and absolute events/sec (plus wall seconds,
repeats, the quick flag) ride in the identity-exempt ``meta`` block:
reported, rendered for humans, never failed on.  So do the probes that
CI's perf-smoke job gates with steps of its own: ``exec_overhead``
(the exec engine's bookkeeping on the serial path),
``observe_overhead`` (what the ``--metrics`` pack and the streamed
JSONL artifact add to a run), ``cache_hit`` (its relay ratio) and the
large rrw fleets' start per engine in ``fleet``.

Entry points: ``repro bench perf`` (CLI) and
``benchmarks/bench_perf_core.py`` (pytest-benchmark wrapper) both call
:func:`run_perf` / :func:`write_report`.
"""

from __future__ import annotations

import gc
import io
import json
import pathlib
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.collector import collector_paused
from ..core.simulator import execution_signature

__all__ = [
    "ADAPTIVE_WIN_MIN",
    "DEFAULT_CASES",
    "FLEET_CASES",
    "FLEET_WIN_MIN",
    "NARROW_WIN_MIN",
    "OBSERVE_CASES",
    "PerfCase",
    "geometric_mean_speedup",
    "run_perf",
    "write_report",
]

#: Report name — keys the results artifact and the CI baseline.
REPORT_NAME = "perf_core"


@dataclass(frozen=True)
class PerfCase:
    """One benchmarked configuration.

    ``horizon`` / ``quick_horizon`` bound dynamic runs; SST cases run
    ``elections`` / ``quick_elections`` back-to-back elections instead
    (one ABS election is far too short to time on its own).  The quick
    variants keep CI smoke runs under a second per case while the row
    set — and therefore the diffable table shape — stays identical to
    a full run.
    """

    name: str
    algorithm: str
    n: int
    max_slot: str = "2"
    rho: Optional[str] = "1/2"
    seed: int = 0
    burst: int = 1
    horizon: int = 2500
    quick_horizon: int = 600
    kind: str = "dynamic"  # "dynamic" | "sst"
    elections: int = 40
    quick_elections: int = 8
    schedule: str = "worst"
    #: Fleet cases only: minimum policed speedup of the engine
    #: ``engine="auto"`` picks over the other one.  ``None`` means the
    #: case is informational — its ``win`` cell stays "-" and
    #: ``repro bench diff`` never fails on it.
    win_min: Optional[float] = None


#: The default lattice-eligible suite (the acceptance set for the
#: tentpole's >= 3x events/sec criterion).  All cases use the ``worst``
#: cyclic schedule, which declares a time lattice, so ``timebase="auto"``
#: resolves to the tick path.
DEFAULT_CASES: Tuple[PerfCase, ...] = (
    PerfCase(name="ao-arrow-n8-R2", algorithm="ao-arrow", n=8),
    PerfCase(name="ca-arrow-n8-R2", algorithm="ca-arrow", n=8),
    PerfCase(
        name="ca-arrow-n16-R2",
        algorithm="ca-arrow",
        n=16,
        horizon=1500,
        quick_horizon=400,
    ),
    PerfCase(
        name="ca-arrow-n8-R5/2", algorithm="ca-arrow", n=8, max_slot="5/2"
    ),
    PerfCase(name="aloha-n8-R2", algorithm="aloha", n=8, seed=3),
    # 16 quick elections, not fewer: the speedup ratio of a shorter
    # batch is noisy enough to trip the CI diff tolerance either way.
    PerfCase(
        name="abs-sst-n64-R2",
        algorithm="abs",
        n=64,
        rho=None,
        kind="sst",
        quick_elections=16,
    ),
)


#: Fleet-scaling suite: lattice-eligible fleet scenarios at
#: n = 1e2 .. 1e5 stations, plus two narrow fleets below the batch
#: crossover, run once on each engine (object vs the vectorized batch
#: kernel) with parity asserted; the ``auto`` column is the engine
#: ``engine="auto"`` resolves to.  Each ``win`` cell is "yes" only
#: while auto's pick beats the other engine by that case's ``win_min``
#: — an exact-compare cell, so ``repro bench diff`` fails the moment
#: either the vectorized win or the engine choice rots, at any
#: tolerance.  The n=1e4 rows are the batch headlines: the
#: non-adaptive token ring (``rrw``) is held to :data:`FLEET_WIN_MIN`;
#: the adaptive families (ARRoW, ABS) run masked-update programs with
#: bounded per-tick sub-step chains and more synchronization, so their
#: policed floor is :data:`ADAPTIVE_WIN_MIN`.  The narrow random-schedule
#: fleets (about one slot end per tick) are held to
#: :data:`NARROW_WIN_MIN` in the object loop's favour.  Horizons shrink
#: as n grows to hold events per case (and the object-path wall time)
#: roughly constant.

#: The policed batch-over-object speedup at the non-adaptive fleet
#: headline (rrw, n=1e4).
FLEET_WIN_MIN = 10.0

#: The policed floor for the adaptive-family headlines (n=1e4): the
#: >= 5x acceptance criterion for ARRoW and ABS under the
#: masked-update batch programs.
ADAPTIVE_WIN_MIN = 5.0

#: The policed object-over-batch speedup on the narrow fleets, where
#: ``engine="auto"`` must keep the run on the object loop.
NARROW_WIN_MIN = 2.0

FLEET_CASES: Tuple[PerfCase, ...] = (
    PerfCase(name="fleet-rrw-n1e2", algorithm="rrw", n=100,
             schedule="sync", horizon=1200, quick_horizon=300),
    PerfCase(name="fleet-rrw-n1e3", algorithm="rrw", n=1_000,
             schedule="sync", horizon=150, quick_horizon=50),
    PerfCase(name="fleet-rrw-n1e4", algorithm="rrw", n=10_000,
             schedule="sync", horizon=16, quick_horizon=12,
             win_min=FLEET_WIN_MIN),
    PerfCase(name="fleet-rrw-n1e5", algorithm="rrw", n=100_000,
             schedule="sync", horizon=6, quick_horizon=2),
    PerfCase(name="fleet-ao-arrow-n1e3", algorithm="ao-arrow", n=1_000,
             schedule="sync", horizon=150, quick_horizon=50),
    PerfCase(name="fleet-ao-arrow-n1e4", algorithm="ao-arrow", n=10_000,
             schedule="sync", horizon=24, quick_horizon=20,
             win_min=ADAPTIVE_WIN_MIN),
    PerfCase(name="fleet-abs-n1e3", algorithm="abs", n=1_000,
             schedule="sync", rho=None, horizon=150, quick_horizon=50),
    PerfCase(name="fleet-abs-n1e4", algorithm="abs", n=10_000,
             schedule="sync", rho=None, horizon=16, quick_horizon=12,
             win_min=ADAPTIVE_WIN_MIN),
    PerfCase(name="fleet-ao-arrow-random-n8", algorithm="ao-arrow", n=8,
             schedule="random", horizon=1200, quick_horizon=300,
             win_min=NARROW_WIN_MIN),
    PerfCase(name="fleet-rrw-random-n16", algorithm="rrw", n=16,
             schedule="random", horizon=600, quick_horizon=150,
             win_min=NARROW_WIN_MIN),
)


#: The runs of the ``observe_overhead`` probe: four bundled scenarios
#: (``scenarios/*.json``) at a quarter of their horizon, the length
#: perfbench's ``serve-stream`` workload streams them at.
OBSERVE_CASES: Tuple[PerfCase, ...] = (
    PerfCase(name="rrw_sync", algorithm="rrw", n=4, max_slot="1",
             schedule="sync", horizon=1250, quick_horizon=400),
    PerfCase(name="ca_arrow_worst", algorithm="ca-arrow", n=4,
             horizon=1250, quick_horizon=400),
    PerfCase(name="aloha_random", algorithm="aloha", n=4, seed=3,
             schedule="random", horizon=500, quick_horizon=160),
    PerfCase(name="ao_arrow_worst", algorithm="ao-arrow", n=4, burst=3,
             horizon=1250, quick_horizon=400),
)


def _case_spec(case: PerfCase):
    from ..scenarios import ScenarioSpec

    return ScenarioSpec(
        algorithm=case.algorithm,
        n=case.n,
        max_slot=case.max_slot,
        schedule=case.schedule,
        rho=case.rho,
        burst=case.burst,
        seed=case.seed,
        horizon=max(case.horizon, 1),
    )


def _timed(section):
    """``(section(), seconds)``, timed with the cyclic collector paused.

    The collector runs first, so garbage left by earlier work does not
    fall due inside the section, and the pause restores whatever state
    the collector was in.
    """
    gc.collect()
    with collector_paused():
        began = perf_counter()
        value = section()
        elapsed = perf_counter() - began
    return value, elapsed


def _run_dynamic(case: PerfCase, timebase: str, horizon: int):
    """One timed dynamic run: (execution signature, events, wall_s, timebase).

    The engine is pinned to the object loop: this suite isolates the
    timebase effect, and letting ``engine="auto"`` promote eligible
    cases to the batch kernel would fold the vectorization win into the
    fraction-vs-lattice ratio.  The batch kernel has its own suite
    (:data:`FLEET_CASES`).
    """
    spec = _case_spec(case)
    sim = spec.build(timebase=timebase, engine="object")
    began = perf_counter()
    sim.run(until_time=horizon)
    wall = perf_counter() - began
    return execution_signature(sim), sim.events_processed, wall, sim.timebase


def _run_sst(case: PerfCase, timebase: str, elections: int):
    """``elections`` back-to-back ABS elections, timed as one sample."""
    spec = _case_spec(case)
    events = 0
    ends = []
    slots = []
    began = perf_counter()
    for _ in range(elections):
        sim = spec.build(timebase=timebase, engine="object")
        end = sim.run_until_success(max_events=5_000_000)
        events += sim.events_processed
        ends.append(end)
        slots.append(sim.max_slots_elapsed())
    wall = perf_counter() - began
    fingerprint = (events, tuple(ends), tuple(slots))
    return fingerprint, events, wall, sim.timebase


def _run_case(
    case: PerfCase, timebase: str, quick: bool, repeats: int
):
    """Best-of-``repeats`` timing for one case on one timebase."""
    best = None
    for _ in range(max(repeats, 1)):
        if case.kind == "sst":
            sample = _run_sst(
                case,
                timebase,
                case.quick_elections if quick else case.elections,
            )
        else:
            sample = _run_dynamic(
                case,
                timebase,
                case.quick_horizon if quick else case.horizon,
            )
        if best is None or sample[2] < best[2]:
            best = sample
        if best is not None and sample[0] != best[0]:
            raise RuntimeError(
                f"{case.name}: non-deterministic repeat on the "
                f"{timebase} timebase"
            )
    return best


def _run_fleet(case: PerfCase, engine: str, horizon: int):
    """One fleet run on one engine, its set-up timed apart.

    Set-up is construction plus ``sim.run(until_time=0)``, which opens
    every station's first slot: per station on the object loop, in
    bulk on the batch kernel (``BatchKernel.start``, which also loads
    the programs).  The start alone is timed too: the build and the
    young collection after it cost both engines the same, so only the
    start tells them apart.  At n=1e5 set-up would swamp the short
    horizons these cases use, so the run is timed from there.  On the
    kernel the run owns the programs' and the schedule's load on entry
    and the programs' store on exit, real per-run costs of the fast
    path that the reported events/sec must own; nothing here reads the
    runtimes, so they are never written back.  Returns ``(signature,
    events, run seconds, engine, set-up seconds, start seconds)``.
    """
    spec = _case_spec(case)
    began = perf_counter()
    sim = spec.build(engine=engine)
    built = perf_counter()
    sim.run(until_time=0)
    start = perf_counter() - built
    # Set-up runs with the cyclic collector paused, so the young
    # collection over what it allocated falls due at the next
    # allocation; taking it here charges it to set-up, not to the run.
    gc.collect(0)
    setup = perf_counter() - began
    began = perf_counter()
    sim.run(until_time=horizon)
    wall = perf_counter() - began
    return (execution_signature(sim), sim.events_processed, wall,
            sim.engine, setup, start)


def _best_fleet(case: PerfCase, engine: str, samples: Sequence[tuple]):
    """The fastest run, set-up and start among one engine's repeats of
    a fleet case (each the fastest of its own)."""
    if any(sample[0] != samples[0][0] for sample in samples):
        raise RuntimeError(
            f"{case.name}: non-deterministic repeat on the {engine} engine"
        )
    best = min(samples, key=lambda sample: sample[2])
    return (*best[:4], min(sample[4] for sample in samples),
            min(sample[5] for sample in samples))


def _measure_fleet(
    suite: Sequence[PerfCase], quick: bool, repeats: int
) -> List[Dict[str, Any]]:
    """Object-vs-batch measurements with per-case parity asserted, and
    the engine ``engine="auto"`` picks (resolved at construction)."""
    measured: List[Dict[str, Any]] = []
    for case in suite:
        auto = _case_spec(case).build().engine
        horizon = case.quick_horizon if quick else case.horizon
        # The engines' repeats alternate, so a host that slows down
        # part-way through a case weighs on both.
        samples: Dict[str, List[tuple]] = {"object": [], "batch": []}
        for _ in range(max(repeats, 1)):
            for engine, runs in samples.items():
                runs.append(_run_fleet(case, engine, horizon))
        obj_fp, events, obj_s, obj_engine, obj_setup, obj_start = (
            _best_fleet(case, "object", samples["object"])
        )
        bat_fp, bat_events, bat_s, bat_engine, bat_setup, bat_start = (
            _best_fleet(case, "batch", samples["batch"])
        )
        if obj_fp != bat_fp or events != bat_events:
            raise RuntimeError(
                f"{case.name}: batch/object parity violation — the "
                "vectorized kernel changed the observable execution"
            )
        if (obj_engine, bat_engine) != ("object", "batch"):
            raise RuntimeError(
                f"{case.name}: expected object vs batch, got "
                f"{obj_engine} vs {bat_engine}"
            )
        speedup = round(obj_s / bat_s, 2)
        win = "-"
        if case.win_min is not None:
            picked = speedup if auto == "batch" else round(bat_s / obj_s, 2)
            win = "yes" if picked >= case.win_min else f"NO ({picked}x)"
        measured.append(
            {
                "case": case.name,
                "algorithm": case.algorithm,
                "n": case.n,
                "R": case.max_slot,
                "work": (
                    f"horizon {case.quick_horizon if quick else case.horizon}"
                ),
                "events": events,
                "auto": auto,
                "object_s": obj_s,
                "batch_s": bat_s,
                "object_setup_s": obj_setup,
                "batch_setup_s": bat_setup,
                "object_start_s": obj_start,
                "batch_start_s": bat_start,
                "object_evps": round(events / obj_s),
                "batch_evps": round(events / bat_s),
                "speedup": speedup,
                "win_min": (
                    "-" if case.win_min is None else f">={case.win_min:g}x"
                ),
                "win": win,
            }
        )
    return measured


def _measure_exec_overhead(quick: bool, repeats: int) -> Dict[str, Any]:
    """The engine's bookkeeping tax: ``run_tasks(jobs=1)`` vs a bare loop.

    The resilience machinery (retry accounting, health ledger, result
    callbacks) must stay effectively free on the serial fast path — CI
    asserts the ratio reported here stays under 5%.  Tasks are small
    real simulations, not no-ops: the policed quantity is the tax on
    realistic work, and a no-op loop would measure pure dispatch (noise
    on any shared runner).
    """
    from ..scenarios import ScenarioSpec
    from .pool import run_tasks

    # Enough work that scheduler noise cannot read as bookkeeping: the
    # policed ratio divides by raw_s, so raw_s must dwarf timer jitter.
    horizon = 300 if quick else 500
    count = 12 if quick else 16
    repeats = max(repeats, 3)
    spec = ScenarioSpec(
        algorithm="ca-arrow",
        n=4,
        max_slot="2",
        schedule="worst",
        rho="1/2",
        seed=0,
        horizon=horizon,
    )

    def one_run() -> int:
        sim = spec.build()
        sim.run(until_time=horizon)
        return sim.events_processed

    tasks = [one_run] * count
    raw_s = engine_s = best_ratio = None
    # Noise defenses, because the gate is one-sided (fail only when
    # overhead > 5%) while shared runners jitter far more than the true
    # cost (~0.1%).  GC pauses (the sims allocate heavily) are
    # milliseconds — enough to masquerade as bookkeeping — so each
    # section runs under :func:`_timed`.  Machine speed also drifts
    # *between* sections (frequency scaling, noisy neighbours), so each
    # repeat times raw/engine/raw back to back and compares the engine
    # against the *slower* raw sandwich half: a spike that slows the
    # engine section also shows in a neighbouring raw section, while a
    # sustained regression inflates every repeat and still trips the
    # gate.  Best repeat wins.  ``run_tasks(jobs=1)`` runs the tasks in
    # this process, so nothing forks inside a pause.
    def bare() -> List[int]:
        return [task() for task in tasks]

    for _ in range(repeats):
        raw_values, raw_before = _timed(bare)
        run, engine_elapsed = _timed(lambda: run_tasks(tasks, jobs=1))
        if run.values != raw_values:
            raise RuntimeError(
                "exec overhead probe: engine and bare loop disagreed"
            )
        _, raw_after = _timed(bare)
        denominator = max(raw_before, raw_after)
        ratio = engine_elapsed / denominator
        if best_ratio is None or ratio < best_ratio:
            best_ratio = ratio
            raw_s, engine_s = denominator, engine_elapsed
    return {
        "tasks": count,
        "raw_s": round(raw_s, 4),
        "engine_s": round(engine_s, 4),
        "overhead": round(max(0.0, best_ratio - 1.0), 4),
    }


#: The ways ``observe_overhead`` runs each case: unobserved, with the
#: ``--metrics`` pack, and with the pack plus a streamed JSONL artifact.
_OBSERVE_MODES = ("bare", "metrics", "stream")


def _observed_run(case: PerfCase, horizon: int, mode: str):
    """One run of ``case`` observed as ``mode``; ``(signature, seconds)``.

    The run is pinned to the object loop, where every observed run
    goes.  The observers are attached the way ``repro run`` attaches
    them (``repro.service.runner``): the pack before the build, the
    writer after it.  The streamed run is timed up to its closed
    artifact, since the writer holds its last block until ``close``.
    """
    from ..obs import JsonlRunWriter, ProbeBus, RunManifest, SimulationMetrics

    spec = _case_spec(case)
    bus = pack = writer = None
    if mode != "bare":
        bus = ProbeBus()
        pack = SimulationMetrics()
        pack.attach(bus)
    sim = spec.build(probes=bus, engine="object")
    if mode == "stream":
        writer = JsonlRunWriter(
            stream=io.StringIO(),
            manifest=RunManifest.create(spec=spec.canonical()),
            metrics=pack,
        ).attach(bus)

    def section() -> None:
        sim.run(until_time=horizon)
        if writer is not None:
            writer.close(sim=sim)

    _, elapsed = _timed(section)
    return execution_signature(sim), elapsed


def _measure_observe_overhead(
    suite: Sequence[PerfCase], quick: bool, repeats: int
) -> Dict[str, Any]:
    """What observing a run costs on the object loop, per case and overall.

    Each case runs bare, with :class:`~repro.obs.SimulationMetrics`
    (``--metrics``) and with the pack plus a
    :class:`~repro.obs.JsonlRunWriter` streaming to memory; the three
    runs of a repeat go back to back, and each mode keeps its fastest
    of at least five repeats (the runs take milliseconds).  Observation must not change the execution, so the three
    signatures must agree.  The ratios divide by the bare run; the
    overall ones divide summed seconds.  CI's perf-smoke job gates the
    overall ratios.
    """
    repeats = max(repeats, 5)
    cases: Dict[str, Any] = {}
    totals = dict.fromkeys(_OBSERVE_MODES, 0.0)
    for case in suite:
        horizon = case.quick_horizon if quick else case.horizon
        best: Dict[str, float] = {}
        signatures = set()
        for _ in range(repeats):
            for mode in _OBSERVE_MODES:
                signature, elapsed = _observed_run(case, horizon, mode)
                signatures.add(signature)
                best[mode] = min(best.get(mode, elapsed), elapsed)
        if len(signatures) != 1:
            raise RuntimeError(
                f"{case.name}: observing the run changed its execution"
            )
        for mode in _OBSERVE_MODES:
            totals[mode] += best[mode]
        cases[case.name] = {
            "horizon": horizon,
            **{f"{mode}_s": round(best[mode], 4) for mode in _OBSERVE_MODES},
            "metrics": round(best["metrics"] / best["bare"], 2),
            "stream": round(best["stream"] / best["bare"], 2),
        }
    bare = totals["bare"]
    return {
        "repeats": repeats,
        "cases": cases,
        "metrics": round(totals["metrics"] / bare, 2) if bare else None,
        "stream": round(totals["stream"] / bare, 2) if bare else None,
    }


#: The ``cache_hit`` probe's grid cells, (algorithm, schedule, n, rho),
#: small fleets of the shape of perfbench's ``grid-small`` cells.
_HIT_CELLS = (
    ("ca-arrow", "worst", 3, "3/10"),
    ("ao-arrow", "random", 5, "2/5"),
    ("aloha", "sync", 6, "1/2"),
    ("mbtf", "worst", 8, "3/5"),
    ("rrw", "random", 10, "7/10"),
    ("ca-arrow", "sync", 12, "4/5"),
)
_HIT_GRID_SIZE = 12


def _hit_grid_request(cache_dir: str):
    """A fresh request for the twelve-cell grid (each cell twice, reseeded)."""
    from ..scenarios import ScenarioSpec
    from ..service import RunOptions, RunRequest

    specs = []
    for index in range(_HIT_GRID_SIZE):
        algorithm, schedule, n, rho = _HIT_CELLS[index % len(_HIT_CELLS)]
        specs.append(ScenarioSpec(
            name=f"hit{index}-{algorithm}-n{n}", algorithm=algorithm, n=n,
            max_slot="2", schedule=schedule, rho=rho, seed=index,
            horizon=120))
    return RunRequest(specs=tuple(specs), command="grid",
                      options=RunOptions(cache=True, cache_dir=cache_dir))


def _measure_cache_hit(repeats: int) -> Dict[str, Any]:
    """What a cache hit costs, against what reading the cache costs.

    In this process: a warm twelve-cell grid ``execute()`` (keys, reads,
    the history row) against the twelve bare
    :meth:`~repro.exec.ResultCache.get` reads it makes.  Over HTTP: a
    ``repro serve`` daemon on a thread replays a cached streamed run
    (the ``ca_arrow_worst`` case of :data:`OBSERVE_CASES`); the replay
    through :func:`~repro.service.submit_request` is set against a raw
    ``urlopen(...).read()`` of the same request, and must relay exactly
    the raw body's records.  Each figure is the best of at least five.
    """
    import tempfile
    import threading
    import urllib.request

    from ..analysis.experiments import _cell_payload
    from ..obs import history_enabled
    from ..service import (
        RunOptions,
        RunRequest,
        create_server,
        execute,
        submit_request,
    )
    from .cache import ResultCache

    repeats = max(repeats, 5)
    best: Dict[str, float] = {}

    def keep(name: str, seconds: float) -> None:
        best[name] = min(best.get(name, seconds), seconds)

    with tempfile.TemporaryDirectory(prefix="repro-perf-hit-") as root:
        cache_dir = f"{root}/grid"
        request = _hit_grid_request(cache_dir)
        execute(request)
        cache = ResultCache(cache_dir)
        stride = request.options.backlog_stride
        keys = [cache.key_for(_cell_payload(spec, stride))
                for spec in request.specs]
        for _ in range(repeats):
            request = _hit_grid_request(cache_dir)
            began = perf_counter()
            result = execute(request)
            keep("grid_s", perf_counter() - began)
            if result.served_from != "cache":
                raise RuntimeError("cache hit probe: the warm grid missed")
            began = perf_counter()
            for key in keys:
                cache.get(key)
            keep("reads_s", perf_counter() - began)

        server = create_server("127.0.0.1", 0, cache_dir=f"{root}/serve",
                               quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_port}"
            replay = RunRequest(specs=(_case_spec(OBSERVE_CASES[1]),),
                                options=RunOptions())
            submit_request(url, replay, out=io.StringIO(), timeout=120)
            raw_request = urllib.request.Request(
                url + "/run", data=replay.to_json(indent=None).encode("utf-8"),
                headers={"Content-Type": "application/json"}, method="POST")
            for _ in range(repeats):
                out = io.StringIO()
                began = perf_counter()
                envelope = submit_request(url, replay, out=out, timeout=120)
                keep("relay_s", perf_counter() - began)
                began = perf_counter()
                with urllib.request.urlopen(raw_request, timeout=120) as reply:
                    body = reply.read().decode("utf-8")
                keep("raw_s", perf_counter() - began)
                records = body[:body.rstrip("\n").rfind("\n") + 1]
                if envelope.get("served_from") != "cache" or \
                        out.getvalue() != records:
                    raise RuntimeError(
                        "cache hit probe: the relayed replay differs from "
                        "the daemon's body"
                    )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
    return {
        "repeats": repeats,
        "cells": _HIT_GRID_SIZE,
        "history": history_enabled(),
        **{name: round(seconds, 5) for name, seconds in best.items()},
        "records": records.count("\n"),
        "relay_ratio": round(best["relay_s"] / best["raw_s"], 2),
    }


def geometric_mean_speedup(rows: Sequence[Dict[str, Any]]) -> float:
    """Geometric mean of per-case speedups (ratio of ratios safe)."""
    product = 1.0
    for row in rows:
        product *= row["speedup"]
    return product ** (1.0 / len(rows)) if rows else 0.0


def run_perf(
    cases: Optional[Sequence[PerfCase]] = None,
    quick: bool = False,
    repeats: Optional[int] = None,
    fleet_cases: Optional[Sequence[PerfCase]] = None,
) -> Dict[str, Any]:
    """Run the suite; returns the results-form report document.

    Every case is executed on both timebases (and every fleet case on
    both engines) and the observable executions are asserted identical
    before any number is reported — a perf result that broke parity
    would be worthless.  Pass ``fleet_cases=()`` to skip the fleet
    block (e.g. when benchmarking a custom case list).
    """
    suite = tuple(DEFAULT_CASES if cases is None else cases)
    # A custom `cases` list opts out of the default fleet block and the
    # observation probe too: tests and ad-hoc benchmarking pass tiny
    # cases and should not pay for 1e5-station runs they never asked for.
    if fleet_cases is None:
        fleet_suite = FLEET_CASES if cases is None else ()
    else:
        fleet_suite = tuple(fleet_cases)
    observe_suite = OBSERVE_CASES if cases is None else ()
    if repeats is None:
        # Even quick mode takes best-of-2: a single noisy sample can
        # swing the speedup ratio past any reasonable CI tolerance.
        repeats = 2 if quick else 3
    measured: List[Dict[str, Any]] = []
    for case in suite:
        frac_fp, events, frac_s, _ = _run_case(case, "fraction", quick, repeats)
        lat_fp, lat_events, lat_s, lattice = _run_case(
            case, "lattice", quick, repeats
        )
        if frac_fp != lat_fp or events != lat_events:
            raise RuntimeError(
                f"{case.name}: lattice/fraction parity violation — "
                "the fast timebase changed the observable execution"
            )
        if not lattice.is_lattice:
            raise RuntimeError(
                f"{case.name}: expected a tick lattice, got "
                f"{lattice.describe()}"
            )
        measured.append(
            {
                "case": case.name,
                "algorithm": case.algorithm,
                "n": case.n,
                "R": case.max_slot,
                "work": (
                    f"{case.quick_elections if quick else case.elections}"
                    " elections"
                    if case.kind == "sst"
                    else f"horizon {case.quick_horizon if quick else case.horizon}"
                ),
                "denominator": lattice.denominator,
                "events": events,
                "fraction_s": frac_s,
                "lattice_s": lat_s,
                "fraction_evps": round(events / frac_s),
                "lattice_evps": round(events / lat_s),
                "speedup": round(frac_s / lat_s, 2),
            }
        )

    fleet = _measure_fleet(fleet_suite, quick, repeats)

    case_rows = [
        [
            row["case"],
            row["algorithm"],
            row["n"],
            row["R"],
            row["work"],
            row["denominator"],
            row["events"],
            "object",
            "ok",
        ]
        for row in measured
    ]
    geomean = round(geometric_mean_speedup(measured), 2)
    tables: List[Dict[str, Any]] = [
        {
            "headers": [
                "case",
                "algorithm",
                "n",
                "R",
                "work",
                "D",
                "events",
                "engine",
                "parity",
            ],
            "rows": case_rows,
        },
        {
            "headers": ["case", "speedup"],
            "rows": [["geomean", geomean]],
        },
    ]
    if fleet:
        # The fleet table is all exact-compare cells: deterministic
        # event counts, the engine auto picks, plus each headline's
        # "win" marker next to the exact floor it is policed against.  Machine-varying
        # throughput and speedups live in meta["fleet"].
        tables.append(
            {
                "headers": [
                    "case",
                    "algorithm",
                    "n",
                    "R",
                    "work",
                    "events",
                    "engines",
                    "auto",
                    "parity",
                    "win_min",
                    "win",
                ],
                "rows": [
                    [
                        row["case"],
                        row["algorithm"],
                        row["n"],
                        row["R"],
                        row["work"],
                        row["events"],
                        "object/batch",
                        row["auto"],
                        "ok",
                        row["win_min"],
                        row["win"],
                    ]
                    for row in fleet
                ],
            }
        )
    document: Dict[str, Any] = {
        "name": REPORT_NAME,
        "preamble": [
            "core perf suite: events/sec on the fraction vs tick-lattice "
            "timebase",
            "fleet suite: events/sec on the object vs vectorized batch "
            "engine at n = 8..1e5, and the engine auto picks",
            "parity asserted per case: both paths produce identical "
            "executions",
            f"mode: {'quick (CI smoke)' if quick else 'full'}",
        ],
        "tables": tables,
        "meta": {
            "quick": quick,
            "repeats": repeats,
            "geomean_speedup": geomean,
            # Identity-exempt like everything else in meta; CI's
            # perf-smoke job asserts overhead stays under 5%, and
            # bounds both observe_overhead ratios.
            "exec_overhead": _measure_exec_overhead(quick, repeats),
            "observe_overhead": (
                _measure_observe_overhead(observe_suite, quick, repeats)
                if observe_suite else None
            ),
            # perf-smoke bounds relay_ratio; the grid and history
            # figures are reported only (fsync speed is the host's).
            "cache_hit": (
                _measure_cache_hit(repeats) if observe_suite else None
            ),
            "wall_s": round(
                sum(r["fraction_s"] + r["lattice_s"] for r in measured)
                + sum(r["object_s"] + r["batch_s"] for r in fleet),
                3,
            ),
            "python": sys.version.split()[0],
            # Absolute throughput is a fact about the machine, not the
            # code — informational only, never diffed as drift.
            "throughput": {
                row["case"]: {
                    "fraction_ev/s": row["fraction_evps"],
                    "lattice_ev/s": row["lattice_evps"],
                    "speedup": row["speedup"],
                }
                for row in measured
            },
            # Set-up (build + first slot) and the start (first slot
            # alone) are timed apart from the run; the ev/s columns
            # leave them out.
            "fleet": {
                row["case"]: {
                    "object_ev/s": row["object_evps"],
                    "batch_ev/s": row["batch_evps"],
                    "speedup": row["speedup"],
                    "object_setup_s": round(row["object_setup_s"], 4),
                    "batch_setup_s": round(row["batch_setup_s"], 4),
                    "object_start_s": round(row["object_start_s"], 4),
                    "batch_start_s": round(row["batch_start_s"], 4),
                }
                for row in fleet
            },
        },
    }
    return document


def _render_table(block: Dict[str, Any]) -> List[str]:
    headers = [str(h) for h in block["headers"]]
    rows = [[str(cell) for cell in row] for row in block["rows"]]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths))

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return lines


def render_report(document: Dict[str, Any]) -> List[str]:
    """Human-readable lines for one report document.

    Includes the (diff-exempt) per-case events/sec from ``meta`` —
    humans want the absolute numbers even though CI only polices the
    speedup ratios.
    """
    lines = list(document.get("preamble", []))
    for block in document.get("tables", []):
        lines.append("")
        lines.extend(_render_table(block))
    throughput = (document.get("meta") or {}).get("throughput") or {}
    if throughput:
        lines.append("")
        lines.extend(
            _render_table(
                {
                    "headers": ["case", "fraction_ev/s", "lattice_ev/s",
                                "speedup"],
                    "rows": [
                        [case, cell["fraction_ev/s"], cell["lattice_ev/s"],
                         cell["speedup"]]
                        for case, cell in throughput.items()
                    ],
                }
            )
        )
    observe = (document.get("meta") or {}).get("observe_overhead") or {}
    if observe:
        lines.append("")
        lines.extend(
            _render_table(
                {
                    "headers": ["observed run", "horizon", "bare_s",
                                "metrics_x", "stream_x"],
                    "rows": [
                        [case, cell["horizon"], cell["bare_s"],
                         cell["metrics"], cell["stream"]]
                        for case, cell in observe["cases"].items()
                    ] + [["overall", "-", "-", observe["metrics"],
                          observe["stream"]]],
                }
            )
        )
    hit = (document.get("meta") or {}).get("cache_hit") or {}
    if hit:
        lines.append("")
        lines.extend(
            _render_table(
                {
                    "headers": ["cache hit", "best_s", "vs"],
                    "rows": [
                        [f"grid of {hit['cells']} (history "
                         f"{'on' if hit['history'] else 'off'})",
                         hit["grid_s"], "-"],
                        [f"{hit['cells']} bare reads", hit["reads_s"], "-"],
                        [f"replay of {hit['records']} records",
                         hit["relay_s"], f"{hit['relay_ratio']}x raw"],
                        ["raw read of the replay", hit["raw_s"], "-"],
                    ],
                }
            )
        )
    fleet = (document.get("meta") or {}).get("fleet") or {}
    if fleet:
        lines.append("")
        lines.extend(
            _render_table(
                {
                    "headers": ["case", "object_ev/s", "batch_ev/s",
                                "speedup", "object_setup_s", "batch_setup_s",
                                "object_start_s", "batch_start_s"],
                    "rows": [
                        [case, cell["object_ev/s"], cell["batch_ev/s"],
                         cell["speedup"], cell["object_setup_s"],
                         cell["batch_setup_s"], cell["object_start_s"],
                         cell["batch_start_s"]]
                        for case, cell in fleet.items()
                    ],
                }
            )
        )
    return lines


def write_report(
    document: Dict[str, Any], results_dir: "str | pathlib.Path"
) -> Tuple[pathlib.Path, pathlib.Path]:
    """Persist ``<name>.json`` + ``<name>.txt`` under ``results_dir``.

    The JSON mirror is exactly what :func:`repro.exec.diff_results`
    consumes; the text file is for humans and EXPERIMENTS.md links.
    """
    root = pathlib.Path(results_dir)
    root.mkdir(parents=True, exist_ok=True)
    name = document["name"]
    json_path = root / f"{name}.json"
    json_path.write_text(
        json.dumps(document, indent=2, sort_keys=False) + "\n"
    )
    txt_path = root / f"{name}.txt"
    txt_path.write_text("\n".join(render_report(document)) + "\n")
    return json_path, txt_path
