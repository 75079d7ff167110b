"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload grid-small --seed 1 --seconds 20 --trace 0

``--trace 0`` runs rounds of the workload, each in a fresh process and
each after an untimed warm-up, until ``--seconds`` have passed (and at
least ``MIN_ROUNDS`` of them), and prints every end-to-end metric, its
times scaled to the reference host speed of ``speed.py``.  ``--trace 1``
runs one untraced and one traced round of the same inputs and prints
every per-layer metric, the tracing overhead and the engine guard.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status
is 0 only when every correctness check passed.  Generated requests and
per-round results are kept under ``.perfbench-runs/`` for replay with
``repro submit`` (any request) or ``repro scenario run`` (run specs).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

#: Every end-to-end metric, with its unit.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("request_p50_s", "s"),
    ("request_tail_s", "s"),
    ("miss_p50_s", "s"),
    ("hit_p50_s", "s"),
    ("ttfb_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Whole-run budget; the contract allows 180 s.
_TIME_LIMIT_S = 170.0
#: Set-up samples per run: one per round, topped up by rounds that exit
#: once ready.
_SETUP_SAMPLES = 11


class RoundFailed(RuntimeError):
    """A round process crashed, hung or wrote no result."""


def _run_round(run_dir: pathlib.Path, index: int, trace: int,
               deadline: float, setup_only: bool = False,
               warmup: bool = False) -> Dict[str, Any]:
    """Run one round in its own process group; return its result.

    With ``setup_only`` the round exits once it is ready, and only its
    set-up time is returned.  With ``warmup`` it sends the untimed
    warm-up requests before its sequence.
    """
    workdir = run_dir / f"round{index}"
    workdir.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["REPRO_HISTORY_DB"] = str(workdir / "history.db")
    env.pop("REPRO_NO_HISTORY", None)
    cmd = [sys.executable, str(HERE / "round.py"),
           "--inputs", str(run_dir / "inputs.json"),
           "--workdir", str(workdir), "--trace", str(trace),
           "--round", str(index)] + (["--setup-only"] if setup_only else [])
    cmd += ["--warmup"] if warmup else []
    before = speed.probe()
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        if ready.strip() != "READY":
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            raise RoundFailed(f"round {index} exited before it was ready")
        # The round waits for GO, so this probe does not share the host
        # with its timed requests.
        setup_s = speed.scale(setup_s, before, speed.probe())
        proc.communicate("GO\n",
                         timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RoundFailed(f"round {index} exited with {proc.returncode}")
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"round {index} overran the time limit") from None
    finally:
        # The group holds the round, its pool workers and its daemon.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir / "cache", ignore_errors=True)
    if setup_only:
        return {"setup_s": setup_s}
    with open(workdir / "result.json", encoding="utf-8") as handle:
        result = json.load(handle)
    result["setup_s"] = setup_s
    return result


def _percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(rounds: List[Dict[str, Any]], setups: List[float], tail: int
                ) -> Tuple[Dict[str, float], Dict[str, str]]:
    """End-to-end metric values and how each was taken."""
    latencies = [x for r in rounds for x in r["latencies"]]
    served = [s for r in rounds for s in r["served"]]
    hits = [x for x, s in zip(latencies, served) if s == "cache"]
    misses = [x for x, s in zip(latencies, served) if s != "cache"]
    beyond = sum(1 for x in latencies if x > _percentile(latencies, tail))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "events_per_s": statistics.median(r["events"] / r["wall_s"]
                                          for r in rounds),
        "request_p50_s": statistics.median(latencies),
        "request_tail_s": _percentile(latencies, tail),
        "miss_p50_s": statistics.median(misses),
        "hit_p50_s": statistics.median(hits),
        "ttfb_p50_s": statistics.median(x for r in rounds for x in r["ttfb"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    per_round = f"median of {len(rounds)} rounds"
    raw_wall = statistics.median(r["raw_wall_s"] for r in rounds)
    host = statistics.median(r["speed"] for r in rounds)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"{per_round}; {raw_wall:.4g} s as measured, "
                  f"host at {host:.3g}x the reference speed",
        "events_per_s": per_round,
        "peak_rss_mb": per_round,
        "request_p50_s": f"{len(latencies)} requests",
        "request_tail_s": f"p{tail} of {len(latencies)} requests, "
                          f"{beyond} beyond it",
        "miss_p50_s": f"{len(misses)} executed requests",
        "hit_p50_s": f"{len(hits)} cache-served requests",
        "ttfb_p50_s": f"{len(latencies)} requests",
    }
    return values, notes


def _engine_counts(engines: List[List[List[str]]]) -> Dict[str, int]:
    flat = [entry[0] for request in engines for entry in request]
    return {"core.engine.batch_requests": flat.count("batch"),
            "core.engine.object_requests": flat.count("object")}


def _traced(plain: Dict[str, Any], traced: Dict[str, Any],
            inputs: Dict[str, Any]) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of a traced round, and the engine-guard verdict."""
    values = dict(traced["layers"])
    guard = values.pop("_guard")
    problems = []
    if plain["engines"] != traced["engines"]:
        problems.append("engine guard: resolved engine, timebase or "
                        "engine_described differs between the untraced "
                        "and the traced round")
    streamed = sum(1 for item, served in zip(inputs["requests"], traced["served"])
                   if item["transport"] == "http"
                   and item["request"]["command"] == "run" and served == "exec")
    expected = {"guard.phase_profilers": 0, "guard.tracers": 0,
                "guard.tracer_active": 0, "guard.probe_buses": streamed}
    for name, want in expected.items():
        if guard.get(name, 0) != want:
            problems.append(f"engine guard: {name} = {guard.get(name, 0)}, "
                            f"expected {want}")
    values.update(_engine_counts(traced["engines"]))
    # At the reference speed: the two rounds may meet different host speeds.
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    attempted = plain["attempted"] + traced["attempted"]
    values["error_rate"] = (plain["failed"] + traced["failed"]
                            + bool(problems)) / attempted
    return values, problems


def _write_inputs(run_dir: pathlib.Path, inputs: Dict[str, Any]) -> None:
    """The generated requests, one replayable RunRequest file each."""
    (run_dir / "requests").mkdir(parents=True)
    with open(run_dir / "inputs.json", "w", encoding="utf-8") as handle:
        json.dump(inputs, handle, indent=1)
    for number, item in enumerate(inputs["requests"]):
        stem = re.sub(r"[^A-Za-z0-9_.-]+", "_", item["label"])
        path = run_dir / "requests" / f"{number:03d}-{stem}.json"
        path.write_text(json.dumps(item["request"], indent=2) + "\n",
                        encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run it "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + _TIME_LIMIT_S
    began = time.monotonic()
    inputs = workloads.generate(args.workload, args.seed, ROOT)
    run_dir = (ROOT / ".perfbench-runs"
               / f"{args.workload}-seed{args.seed}-trace{args.trace}"
               f"-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    _write_inputs(run_dir, inputs)

    rounds: List[Dict[str, Any]] = []
    problems: List[str] = []
    try:
        if args.trace:
            plain = _run_round(run_dir, 0, 0, deadline)
            traced = _run_round(run_dir, 1, 1, deadline)
            rounds = [plain, traced]
            values, problems = _traced(plain, traced, inputs)
            units = dict(layers.PER_LAYER_METRICS)
            notes = {"residual_s": "traced wall minus accounted self times",
                     "trace.overhead_s": "traced minus untraced wall_s"}
        else:
            while (len(rounds) < workloads.MIN_ROUNDS[args.workload]
                   or time.monotonic() - began < args.seconds):
                rounds.append(_run_round(run_dir, len(rounds), 0, deadline,
                                         warmup=True))
            setups = [r["setup_s"] for r in rounds]
            while len(setups) < _SETUP_SAMPLES:
                setups.append(_run_round(run_dir, len(setups), 0, deadline,
                                         setup_only=True)["setup_s"])
            values, notes = _end_to_end(rounds, setups,
                                        inputs["tail_percentile"])
            units = dict(END_TO_END)
    except RoundFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False,
                          "attempted": max(1, sum(r["attempted"] for r in rounds)),
                          "failed": max(1, sum(r["failed"] for r in rounds)),
                          "metrics": {}}))
        return 1

    attempted = sum(r["attempted"] for r in rounds)
    failed = min(attempted, sum(r["failed"] for r in rounds) + bool(problems))
    problems += [failure for r in rounds for failure in r["failures"]]
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} requests={attempted} failed={failed}")
    for name, unit in units.items():
        note = notes.get(name)
        print(f"  {name:28s} {values[name]:.6g} {unit}"
              + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
