"""One round of a workload, in a fresh process.

``run.py`` launches this file once per round, so set-up time includes
interpreter start-up and imports.  The round validates the generated
requests, starts the daemon for ``serve-stream``, prints ``READY``,
waits for ``GO`` on standard input, then sends every request in order
from one closed-loop client (the next request leaves only after the
previous reply), timing the reference probe of ``speed.py`` between
requests.  Afterwards, outside the timed region, it checks the replies
and writes ``result.json``::

    echo GO | python3 perfbench/round.py --inputs FILE --workdir DIR --trace 0|1 --round K

The round owns a fresh cache directory and history database under
``DIR``; it never touches the repository's own cache.
"""

from __future__ import annotations

import argparse
import gc
import glob
import io
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import speed  # noqa: E402

#: Manifest and summary fields that legitimately differ between two
#: executions of the same request.
_VOLATILE = {"manifest": ("created_at",),
             "summary": ("wall_time_s", "events_per_second")}

#: Executed results re-run on the object x fraction oracle per round.
#: One large fleet on that path takes 4-7 s, so ``fleet-large`` checks
#: one in its first round only.
_ORACLE_SAMPLES = {"grid-small": 2, "fleet-large": 1, "serve-stream": 2}
#: Streamed runs re-executed locally per round.
_LOCAL_STREAMS = 2
#: Pool width of the grid requests (``options.jobs``).
_JOBS = 2


class _Sink:
    """The client's stream sink: keeps records, notes the first byte."""

    def __init__(self) -> None:
        self.first: Optional[float] = None
        self.parts: List[str] = []

    def write(self, text: str) -> int:
        if self.first is None:
            self.first = perf_counter()
        self.parts.append(text)
        return len(text)

    def text(self) -> str:
        return "".join(self.parts)


def _start_daemon(trace: bool, cache_dir: str, spool: str
                  ) -> Tuple[subprocess.Popen, str]:
    """Spawn the daemon on a free port; return it once /version answers."""
    from repro.service.client import ServiceError, fetch_version

    if trace:
        cmd = [sys.executable, os.path.join(HERE, "daemon.py"),
               "--cache-dir", cache_dir, "--spool", spool]
    else:
        cmd = [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
               "--port", "0", "--cache-dir", cache_dir, "--quiet"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        if match is None:
            raise RuntimeError(f"daemon did not report its port: {line!r}")
        url = f"http://127.0.0.1:{match.group(1)}"
        deadline = time.monotonic() + 30.0
        while True:
            try:
                fetch_version(url, timeout=5.0)
                return proc, url
            except ServiceError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)
    except BaseException:
        _stop_daemon(proc)
        raise


def _stop_daemon(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def _engines(result: Any) -> List[List[str]]:
    """Resolved (engine, timebase, engine_described) of every result."""
    if result.report is not None:
        return [[c.engine, c.timebase, c.engine_described]
                for c in result.report.results]
    return [[result.engine, result.timebase, ""]]


def _send(service: Any, request: Any, url: Optional[str]) -> Dict[str, Any]:
    """One request; its latency, first-byte time, provenance and reply."""
    started = perf_counter()
    if url is None:
        result = service.execute(request)
        ended = perf_counter()
        # execute() hands back the whole reply at once.
        return {"latency": ended - started, "ttfb": ended - started,
                "served": result.served_from, "ok": result.ok,
                "engines": _engines(result), "result": result}
    sink = _Sink()
    envelope = service.submit_request(url, request, out=sink, timeout=120)
    ended = perf_counter()
    # An sst reply has no record before its envelope.
    first = sink.first if sink.first is not None else ended
    return {"latency": ended - started, "ttfb": first - started,
            "served": envelope.get("served_from", ""),
            "ok": envelope.get("status") == "ok",
            "engines": [[envelope.get("engine", ""),
                         envelope.get("timebase", ""), ""]],
            "envelope": envelope, "stream": sink.text()}


def _warm_up(service: Any, items: List[Dict[str, Any]], cache_dir: str,
             url: Optional[str]) -> List[str]:
    """Send the warm-up requests; one message per reply that went wrong."""
    from repro.service import RunRequest

    failures = []
    for number, item in enumerate(items):
        request = RunRequest.from_json(item["request"]).replace_options(
            cache_dir=cache_dir)
        try:
            out = _send(service, request, url)
        except Exception as exc:
            failures.append(f"warm-up {number} ({item['label']}): "
                            f"{type(exc).__name__}: {exc}")
            continue
        if not out["ok"] or out["served"] != item["expect"]:
            failures.append(f"warm-up {number} ({item['label']}): status ok="
                            f"{out['ok']}, served from {out['served']!r}, "
                            f"expected {item['expect']!r}")
    return failures


def _records(text: str) -> List[Dict[str, Any]]:
    """Stream records with the per-execution fields removed."""
    records = []
    for line in text.splitlines():
        record = json.loads(line)
        for key in _VOLATILE.get(record.get("type"), ()):
            record.pop(key, None)
        if record.get("type") == "summary":
            # The metric pack's wall-clock throughput gauge.
            record.get("metrics", {}).pop("events_per_second", None)
        records.append(record)
    return records


def _summary_events(text: str) -> int:
    for line in reversed(text.splitlines()):
        record = json.loads(line)
        if record.get("type") == "summary":
            return int(record["slot_events"])
    raise ValueError("stream has no summary record")


def _collision_free_required(spec: Any) -> bool:
    """CA-ARRoW never collides (Thm 6) unless a jammer is in the channel."""
    return (spec.algorithm in ("ca-arrow", "ca-arrow-ft")
            and not any(f["kind"].startswith("jam") for f in spec.faults))


def _oracle(spec: Any, stride: int = 8) -> Tuple[Any, int]:
    """Metrics and peak backlog on the object loop over exact fractions."""
    from repro.analysis import collect_metrics
    from repro.core import Trace

    trace = Trace(backlog_stride=stride)
    sim = spec.build(trace=trace, timebase="fraction", engine="object")
    sim.run(until_time=spec.horizon)
    return collect_metrics(sim), trace.max_backlog


def _base_label(item: Dict[str, Any]) -> str:
    return item["label"].split("/again")[0]


def _check(workload: str, seed: int, round_index: int,
           items: List[Dict[str, Any]], requests: List[Any],
           outcomes: List[Dict[str, Any]], cache_dir: str) -> List[str]:
    """The correctness gate; returns one message per failed check."""
    import repro.service as service

    rng = random.Random(f"check:{workload}:{seed}:{round_index}")
    failures: List[str] = []

    def fail(index: int, message: str) -> None:
        failures.append(f"request {index} ({items[index]['label']}): {message}")

    for index, (item, request, out) in enumerate(zip(items, requests, outcomes)):
        if "error" in out:
            fail(index, out["error"])
            continue
        if not out["ok"]:
            fail(index, "reply status is not ok")
        if out["served"] != item["expect"]:
            fail(index, f"served from {out['served']!r}, "
                        f"expected {item['expect']!r}")
        result = out.get("result")
        for position, spec in enumerate(request.specs):
            if not _collision_free_required(spec):
                continue
            if result is None:
                collisions = out["envelope"].get("collisions", 0)
            elif result.report is not None:
                collisions = result.report.results[position].metrics.collisions
            else:
                collisions = result.metrics.collisions
            if collisions:
                fail(index, f"{spec.name}: {collisions} collisions under CA-ARRoW")
    if failures:
        return failures

    # Cache-served grid rows equal the rows that were executed.
    def rows(index: int) -> List[Any]:
        return [(c.as_row(), c.engine, c.timebase, c.engine_described)
                for c in outcomes[index]["result"].report.results]

    groups: Dict[str, Dict[str, int]] = {}
    for index, request in enumerate(requests):
        if request.command == "grid":
            group, phase = items[index]["label"].rsplit("/", 1)
            groups.setdefault(group, {})[phase] = index
    for phases in groups.values():
        cold_index = phases.pop("cold")
        cold, cold_specs = rows(cold_index), requests[cold_index].specs
        for index in phases.values():
            got = rows(index)
            if any(got[p] != cold[p]
                   for p, spec in enumerate(requests[index].specs)
                   if spec == cold_specs[p]):
                fail(index, "cache-served rows differ from the executed rows")

    # A seeded sample of executed results against the oracle.  Left out
    # because the oracle path would take minutes: the n=10^5 fleet, and
    # ABS at n=10^4 (174 s measured).
    executed = [(index, position, spec)
                for index, (request, out) in enumerate(zip(requests, outcomes))
                if out["served"] != "cache" and request.command != "sst"
                for position, spec in enumerate(request.specs)
                if spec.n <= 10_000 and not (spec.algorithm == "abs"
                                             and spec.n > 1_000)]
    samples = _ORACLE_SAMPLES[workload]
    if workload == "fleet-large" and round_index:
        samples = 0
    samples = min(samples, len(executed))
    for index, position, spec in rng.sample(executed, samples):
        metrics, peak = _oracle(spec)
        out = outcomes[index]
        result = out.get("result")
        if result is None:
            envelope = out["envelope"]
            got = tuple(envelope.get(k)
                        for k in ("delivered", "backlog", "collisions"))
            want = (metrics.delivered, metrics.backlog, metrics.collisions)
        elif result.report is not None:
            cell = result.report.results[position]
            got, want = (cell.metrics, cell.peak_backlog), (metrics, peak)
        else:
            got, want = result.metrics, metrics
        if got != want:
            fail(index, f"{spec.name}: differs from the object x fraction oracle")

    if workload == "serve-stream":
        first: Dict[str, int] = {}
        for index, request in enumerate(requests):
            if request.command != "run":
                continue
            label = _base_label(items[index])
            if label not in first:
                first[label] = index
            elif outcomes[index]["stream"] != outcomes[first[label]]["stream"]:
                fail(index, "cache-served stream is not byte-equal "
                            "to the executed stream")
        for index in rng.sample(sorted(first.values()),
                                min(_LOCAL_STREAMS, len(first))):
            buffer = io.StringIO()
            service.execute(requests[index], artifact_stream=buffer,
                            history_db=os.path.join(cache_dir, "local.db"))
            if _records(buffer.getvalue()) != _records(outcomes[index]["stream"]):
                fail(index, "streamed records differ from a local execute()")
    return failures


def _described(history_db: str) -> List[str]:
    """``engine_described`` of every recorded ``run``, oldest first."""
    from repro.obs import RunHistory

    entries = RunHistory(history_db).query(kind="run", limit=100_000)
    return [str(entry.extra.get("engine", "")) for entry in reversed(entries)]


def _sst_events(requests: List[Any], outcomes: List[Dict[str, Any]],
                recorder: layers.Recorder, history_db: str) -> int:
    """Slot-end events of the executed sst requests, replayed locally."""
    import repro.service as service

    before = recorder.counts.get("core.simulator.events", 0)
    for request, out in zip(requests, outcomes):
        if request.command == "sst" and out["served"] == "exec":
            service.execute(request, history_db=history_db)
    return recorder.counts.get("core.simulator.events", 0) - before


def _peak_rss_mb() -> float:
    """Largest RSS of this process and every reaped child (pool, daemon)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once ready (an extra set-up sample)")
    parser.add_argument("--warmup", action="store_true",
                        help="send the untimed warm-up requests first")
    args = parser.parse_args()
    warm_failures: List[str] = []

    with open(args.inputs, encoding="utf-8") as handle:
        inputs = json.load(handle)
    workload, seed = inputs["workload"], inputs["seed"]
    items = inputs["requests"]
    spool = os.path.join(args.workdir, "spool")
    cache_dir = os.path.join(args.workdir, "cache")
    os.makedirs(spool, exist_ok=True)

    recorder = layers.Recorder(spool, role="client")
    if args.trace:
        layers.install_layers(recorder)
    else:
        layers.install_counter(recorder)
    import repro.service as service
    from repro.service import RunRequest

    requests = [RunRequest.from_json(item["request"]).replace_options(
        cache_dir=cache_dir) for item in items]

    daemon = url = None
    outcomes: List[Dict[str, Any]] = []
    try:
        if workload == "serve-stream":
            daemon, url = _start_daemon(bool(args.trace), cache_dir, spool)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        sys.stdin.readline()  # GO: the launcher has timed the set-up
        if args.warmup:
            warm_failures = _warm_up(service, inputs["warmup"], cache_dir,
                                     url)
            # Count and spool only what the sequence does.
            recorder.clear()
            for path in glob.glob(os.path.join(spool, "*.json")):
                os.remove(path)
        # The reference probe runs between requests, outside the timed
        # intervals; each request is scaled by the probes on either side.
        probes = [speed.probe()]
        for index, request in enumerate(requests):
            recorder.request_id = index
            if url is None:
                # Each in-process request starts from a collected heap, as
                # in a fresh process, so no request pays for the garbage
                # of the ones before it.  The collection is not timed.
                gc.collect()
            try:
                outcomes.append(_send(service, request, url))
            except Exception as exc:  # counted in error_rate, never fatal
                outcomes.append({"error": f"{type(exc).__name__}: {exc}",
                                 "latency": 0.0, "ttfb": 0.0, "served": "",
                                 "ok": False, "engines": []})
            probes.append(speed.probe())
        recorder.request_id = None
        # The sequence's wall time is the sum of its request latencies:
        # the closed-loop client does nothing else between them.
        wall = sum(out["latency"] for out in outcomes)
        for out, before, after in zip(outcomes, probes, probes[1:]):
            out["raw_latency"] = out["latency"]
            out["latency"] = speed.scale(out["latency"], before, after)
            out["ttfb"] = speed.scale(out["ttfb"], before, after)
    finally:
        if daemon is not None:
            _stop_daemon(daemon)
    events = recorder.counts.get("core.simulator.events", 0)
    others = []
    for path in sorted(glob.glob(os.path.join(spool, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            others.append(json.load(handle))
    layer_values = None
    if args.trace:
        layer_values = layers.layer_metrics(recorder.snapshot(), others,
                                            wall, _JOBS)
    peak_rss = _peak_rss_mb()

    # -- outside the timed region ------------------------------------
    if workload == "serve-stream":
        events = sum(_summary_events(out["stream"])
                     for request, out in zip(requests, outcomes)
                     if request.command == "run" and out["served"] == "exec")
        events += _sst_events(requests, outcomes, recorder,
                              os.path.join(args.workdir, "replay.db"))
        described = _described(os.path.join(cache_dir, "history.db"))
    else:
        events += sum(snap["counts"].get("core.simulator.events", 0)
                      for snap in others)
        described = _described(os.environ["REPRO_HISTORY_DB"])
    # engine_described of a run comes from its run-history row; rows are
    # in execution order, and a replay reports its original's.
    by_label: Dict[str, str] = {}
    rows = iter(described)
    if args.warmup:  # the executed warm-up runs were recorded first
        for item in inputs["warmup"]:
            if item["request"]["command"] == "run" and item["expect"] == "exec":
                next(rows, "")
    for item, request, out in zip(items, requests, outcomes):
        if request.command == "run" and out["engines"]:
            if out["served"] == "exec":
                by_label[_base_label(item)] = next(rows, "")
            out["engines"][0][2] = by_label.get(_base_label(item), "")
    failures = warm_failures + _check(workload, seed, args.round, items,
                                      requests, outcomes, cache_dir)
    failed = {message.split(" (", 1)[0] for message in failures}

    result = {
        "wall_s": sum(out["latency"] for out in outcomes),
        "raw_wall_s": wall,
        "speed": speed.REFERENCE_S / statistics.median(probes),
        "attempted": len(items),
        "failed": min(len(failed), len(items)),
        "failures": failures,
        "latencies": [out["latency"] for out in outcomes],
        "raw_latencies": [out["raw_latency"] for out in outcomes],
        "probes": probes,
        "ttfb": [out["ttfb"] for out in outcomes],
        "served": [out["served"] for out in outcomes],
        "engines": [out["engines"] for out in outcomes],
        "events": events,
        "peak_rss_mb": peak_rss,
        "layers": layer_values,
    }
    with open(os.path.join(args.workdir, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
