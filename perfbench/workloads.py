"""Seeded request sequences for the three benchmark workloads.

Everything here is plain JSON: the generator imports nothing from
``repro``, so the program under test only ever sees the generated
``RunRequest`` documents.  The *shape* of every workload (families,
fleet sizes, schedules, rates, horizons, request order pattern) is
fixed; the seed only picks the scenario seeds, a small horizon jitter
and the order of the serving mix.  That keeps the amount of work per
run the same from seed to seed while the inputs still differ.

Each entry of ``generate(...)["requests"]`` is::

    {"label": str, "transport": "inproc" | "http",
     "expect": "exec" | "cache" | "mixed", "request": <RunRequest JSON>}

``expect`` is the provenance the reply must report (``served_from``);
a mismatch is a correctness failure.
"""

from __future__ import annotations

import json
import pathlib
import random
from typing import Any, Dict, List

WORKLOADS = ("grid-small", "fleet-large", "serve-stream")

#: A seed kept out of tuning, for verifying later performance claims.
HELDOUT_SEED = 90210

#: The base cells of every small-fleet grid: (family, faults, schedule,
#: n, rho).  All grids are built from them, so the cold, warm and mixed
#: requests form three separate latency classes and the medians and the
#: tail fall inside a class, not between two.
_GRID_CELLS = (
    ("ca-arrow", (), "worst", 3, "3/10"),
    ("ao-arrow", (), "random", 5, "2/5"),
    ("aloha", (), "sync", 6, "1/2"),
    ("mbtf", (), "worst", 8, "3/5"),
    ("rrw", (), "random", 10, "7/10"),
    ("ca-arrow-ft", ({"kind": "crash", "station": 2, "at_slot": 40},),
     "sync", 12, "4/5"),
    ("ca-arrow", ({"kind": "jam-periodic", "station": 100, "period": 12,
                   "burst": 1},), "worst", 14, "9/10"),
    ("ao-arrow", (), "sync", 16, "1/2"),
)
#: Cells re-seeded in a mixed request, in order; a grid re-seeds the
#: first quarter of them (the first two take one cell on each engine).
_RESEEDED = (3, 5, 1, 7)
#: Grid sizes: the base cells, then repeats of them with fresh seeds.
#: One size for all four grids, so that each request class (cold, warm,
#: mixed) holds requests of one cost: a percentile that fell between
#: two sizes would jump with the number of rounds in a run.
_GRID_SIZES = (12, 12, 12, 12)
_GRID_HORIZON = 300
#: Cache-served repeats of each grid, per variant.  Hits are two thirds
#: of the requests or more, so the request median falls well inside
#: their class rather than at its upper edge.
_GRID_WARM_REPEATS = 4

#: (algorithm, schedule, n, rho, horizon) of the large-fleet runs.
_FLEETS = (
    ("rrw", "sync", 100_000, "1/2", 4),
    ("mbtf", "sync", 10_000, "1/2", 20),
    ("ao-arrow", "worst", 10_000, "1/2", 20),
    ("ca-arrow", "worst", 10_000, "1/2", 20),
    ("abs", "worst", 10_000, None, 20),
    ("aloha", "random", 10_000, "1/2", 20),
)
#: The spec the large-fleet workload sends as a cached one-cell grid.
_FLEET_PROBE = ("rrw", "sync", 10_000, "1/2", 20)
_FLEET_PROBE_HITS = 2

#: Streamed runs use the bundled scenarios with their horizon cut to
#: this fraction, so one round of the serving mix stays a few seconds.
_STREAM_HORIZON_DIVISOR = 4
#: (bundled scenario stem, n) of the seed-varied siblings.
_STREAM_SIBLINGS = (
    ("ca_arrow_worst", 3),
    ("ao_arrow_worst", 5),
    ("aloha_random", 7),
    ("rrw_sync", 9),
)
#: (algorithm, n) of the leader-election (``sst``) requests.
_SST = (("abs", 9), ("doubling", 5), ("randomized", 7))

#: Fewest rounds a run makes, whatever ``--seconds`` says, so that the
#: tail percentile always has at least ten samples beyond it.
MIN_ROUNDS = {"grid-small": 4, "fleet-large": 7, "serve-stream": 4}


def _spec(**fields: Any) -> Dict[str, Any]:
    spec = {"scenario": 1}
    spec.update(fields)
    return spec


def _request(command: str, specs: List[Dict[str, Any]],
             options: Dict[str, Any]) -> Dict[str, Any]:
    return {"request": 1, "command": command, "specs": specs,
            "options": options}


def _grid_small(rng: random.Random) -> List[Dict[str, Any]]:
    options = dict(engine="auto", jobs=2, cache=True)
    items: List[Dict[str, Any]] = []
    for grid, size in enumerate(_GRID_SIZES):
        cells = []
        for slot in range(size):
            algorithm, faults, schedule, n, rho = _GRID_CELLS[slot % len(_GRID_CELLS)]
            cells.append(_spec(
                name=f"g{grid}c{slot}-{algorithm}-{schedule}-n{n}",
                algorithm=algorithm, n=n, max_slot="2",
                schedule={"name": schedule}, rho=rho,
                horizon=str(_GRID_HORIZON + rng.randrange(12)),
                seed=rng.randrange(1 << 30), faults=list(faults),
                labels={"grid": str(grid), "family": algorithm}))
        request = _request("grid", cells, options)
        items.append({"label": f"grid{grid}/cold", "transport": "inproc",
                      "expect": "exec", "request": request})
        for variant in "ab":
            items += [{"label": f"grid{grid}/warm-{variant}{repeat}",
                       "transport": "inproc", "expect": "cache",
                       "request": request}
                      for repeat in range(_GRID_WARM_REPEATS)]
            mixed = [dict(cell) for cell in cells]
            for slot in _RESEEDED[:size // 4]:
                mixed[slot]["seed"] = rng.randrange(1 << 30)
            items.append({"label": f"grid{grid}/mixed-{variant}",
                          "transport": "inproc", "expect": "mixed",
                          "request": _request("grid", mixed, options)})
    return items


def _fleet_spec(rng: random.Random, algorithm: str, schedule: str, n: int,
                rho: Any, horizon: int) -> Dict[str, Any]:
    return _spec(
        name=f"{algorithm}-{schedule}-n{n}",
        algorithm=algorithm,
        n=n,
        max_slot="1" if schedule == "sync" else "2",
        schedule={"name": schedule},
        rho=rho,
        horizon=str(horizon),
        seed=rng.randrange(1 << 30),
        labels={"family": algorithm},
    )


def _fleet_large(rng: random.Random) -> List[Dict[str, Any]]:
    runs = [
        {"label": f"run/{algorithm}-n{n}", "transport": "inproc",
         "expect": "exec",
         "request": _request(
             "run", [_fleet_spec(rng, algorithm, schedule, n, rho, horizon)],
             dict(engine="auto"))}
        for algorithm, schedule, n, rho, horizon in _FLEETS
    ]
    # A fixed order: the peak RSS of the process and the collector's
    # work per run depend on which huge fleets came before.
    probe = _request("grid", [_fleet_spec(rng, *_FLEET_PROBE)],
                     dict(engine="auto", jobs=1, cache=True))
    items = runs + [{"label": "probe/cold", "transport": "inproc",
                     "expect": "exec", "request": probe}]
    items += [{"label": f"probe/warm{i}", "transport": "inproc",
               "expect": "cache", "request": probe}
              for i in range(_FLEET_PROBE_HITS)]
    return items


def _bundled(root: pathlib.Path) -> Dict[str, Dict[str, Any]]:
    """The repository's bundled scenarios, by file stem."""
    found = {path.stem: json.loads(path.read_text(encoding="utf-8"))
             for path in sorted((root / "scenarios").glob("*.json"))}
    if not found:
        raise FileNotFoundError(f"no bundled scenarios under {root}/scenarios")
    return found


def _serve_stream(rng: random.Random, root: pathlib.Path
                  ) -> List[Dict[str, Any]]:
    bundled = _bundled(root)
    distinct = []
    for stem, spec in bundled.items():
        if spec.get("rho") is None:
            continue  # leader-election scenarios are sent as sst below
        spec = dict(spec)
        horizon = int(spec["horizon"]) // _STREAM_HORIZON_DIVISOR
        spec["horizon"] = str(horizon + rng.randrange(8))
        distinct.append((f"run/{stem}", "run", spec))
    for stem, n in _STREAM_SIBLINGS:
        spec = dict(bundled[stem])
        horizon = int(spec["horizon"]) // _STREAM_HORIZON_DIVISOR
        spec.update(name=f"{stem}-n{n}", n=n, seed=rng.randrange(1 << 30),
                    horizon=str(horizon + rng.randrange(8)))
        distinct.append((f"run/{stem}-n{n}", "run", spec))
    for algorithm, n in _SST:
        spec = _spec(name=f"sst-{algorithm}-n{n}", algorithm=algorithm, n=n,
                     max_slot="2", schedule={"name": "worst"},
                     seed=rng.randrange(1 << 30))
        distinct.append((f"sst/{algorithm}-n{n}", "sst", spec))
    # Every distinct request is sent twice; shuffling the doubled list
    # keeps the first copy of each a miss and the second a replay.
    sequence = [entry for entry in distinct for _ in range(2)]
    rng.shuffle(sequence)
    seen = set()
    items = []
    for label, command, spec in sequence:
        repeat = label in seen
        seen.add(label)
        items.append({
            "label": label + ("/again" if repeat else ""),
            "transport": "http",
            # The daemon replays run artifacts from its cache; sst
            # requests are never cached and always execute.
            "expect": "cache" if repeat and command == "run" else "exec",
            "request": _request(command, [spec], dict()),
        })
    return items


def _warmup(workload: str, root: pathlib.Path) -> List[Dict[str, Any]]:
    """Requests sent, untimed, before the sequence of an end-to-end round.

    One of each kind the sequence sends (executed and cache-served), on
    small inputs whose cache keys no sequence request shares, so the
    first timed request does not pay for lazy imports and first-use
    set-up that the rest never see.  They are the same for every seed.
    """
    rng = random.Random(f"warmup:{workload}")
    if workload == "grid-small":
        cells = [_spec(name=f"warmup-c{slot}-{algorithm}-{schedule}-n{n}",
                       algorithm=algorithm, n=n, max_slot="2",
                       schedule={"name": schedule}, rho=rho, horizon="80",
                       seed=rng.randrange(1 << 30), faults=list(faults))
                 for slot, (algorithm, faults, schedule, n, rho)
                 in enumerate(_GRID_CELLS)]
        grid = _request("grid", cells, dict(engine="auto", jobs=2, cache=True))
        sends = [("grid", "exec", grid), ("grid/again", "cache", grid)]
    elif workload == "fleet-large":
        sends = [(f"run/{algorithm}", "exec", _request(
                     "run", [_fleet_spec(rng, algorithm, schedule, 1000, rho, 4)],
                     dict(engine="auto")))
                 for algorithm, schedule, _, rho, _ in _FLEETS]
        algorithm, schedule, _, rho, horizon = _FLEET_PROBE
        probe = _request("grid", [_fleet_spec(rng, algorithm, schedule, 1000,
                                              rho, horizon)],
                         dict(engine="auto", jobs=1, cache=True))
        sends += [("probe", "exec", probe), ("probe/again", "cache", probe)]
    else:
        spec = dict(_bundled(root)["ca_arrow_worst"])
        spec.update(name="warmup-ca_arrow_worst", n=4, horizon="200",
                    seed=rng.randrange(1 << 30))
        run = _request("run", [spec], dict())
        sst = _request("sst", [_spec(name="warmup-sst", algorithm="abs", n=4,
                                     max_slot="2", schedule={"name": "worst"},
                                     seed=rng.randrange(1 << 30))], dict())
        sends = [("run", "exec", run), ("run/again", "cache", run),
                 ("sst", "exec", sst)]
    transport = "http" if workload == "serve-stream" else "inproc"
    return [{"label": f"warmup/{label}", "transport": transport,
             "expect": expect, "request": request}
            for label, expect, request in sends]


#: The tail percentile each workload reports, fixed so it is comparable
#: across runs; ``MIN_ROUNDS`` rounds leave at least ten samples beyond it.
#: Each lands inside one class of request (cold grids, the ao-arrow
#: fleet, executed streams) rather than between two classes, where it
#: would jump from run to run.  The request counts per class are chosen
#: the same way for the medians: grid-small sends more warm than other
#: requests, so the request median falls among the cache hits, and more
#: mixed than cold grids, so the miss median falls among the mixed ones;
#: fleet-large sends two cache hits, so the request median falls on the
#: ca-arrow run.
TAIL_PERCENTILE = {"grid-small": 94, "fleet-large": 83, "serve-stream": 90}


def generate(workload: str, seed: int, root: pathlib.Path) -> Dict[str, Any]:
    """The request sequence of one round of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "grid-small":
        items = _grid_small(rng)
    elif workload == "fleet-large":
        items = _fleet_large(rng)
    elif workload == "serve-stream":
        items = _serve_stream(rng, root)
    else:
        raise ValueError(f"unknown workload {workload!r} "
                         f"(expected one of {', '.join(WORKLOADS)})")
    return {"workload": workload, "seed": seed,
            "tail_percentile": TAIL_PERCENTILE[workload],
            "warmup": _warmup(workload, root),
            "requests": items}
