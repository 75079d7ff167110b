"""Command-line interface: run any of the paper's systems from a shell.

Every run the CLI constructs goes through the declarative scenario
layer (:mod:`repro.scenarios`): flags build a
:class:`~repro.scenarios.ScenarioSpec`, the spec builds the simulator.
The same spec can live in a JSON file — ``repro scenario run`` of the
file is byte-identical to the equivalent ``repro run`` flags.

The CLI is a transport: it parses flags into specs and a
:class:`~repro.service.RunRequest` and renders what comes back.  The
spec, the options and :func:`~repro.service.plan` check the values, and
:func:`main` turns their errors into a one-line exit; the CLI itself
checks flag syntax only.

The subcommands cover the repository's surface:

* ``run``       — dynamic packet transmission (AO-/CA-ARRoW, baselines)
                  under a chosen slot adversary, workload and optional
                  fault injection (``--faults``);
* ``grid``      — an algorithm x rho experiment grid on the
                  :mod:`repro.exec` process pool (``--jobs``), with
                  content-addressed result caching (``--no-cache`` to
                  bypass), CSV export, and fault tolerance: per-cell
                  ``--task-timeout`` and ``--retries``, plus a
                  ``--journal`` checkpoint so an interrupted run
                  ``--resume``\\ s recomputing only missing cells;
* ``scenario``  — the declarative layer itself: ``list`` registries and
                  bundled specs, ``validate`` spec files, ``run`` a
                  spec file (or replay a JSONL artifact's embedded spec);
* ``serve``     — the run-service HTTP daemon (:mod:`repro.service`):
                  accepts ``RunRequest`` JSON over localhost, streams
                  the JSONL artifact back incrementally, serves repeat
                  submissions from the result cache;
* ``submit``    — the matching client: POST a scenario file (or a full
                  ``RunRequest`` document) to a running daemon;
* ``sst``       — single-successful-transmission / leader election
                  (ABS, unknown-R doubling, randomized);
* ``adversary`` — execute a theorem construction (Thm 2 mirror,
                  Thm 4 collision forcer, Thm 5 rate-one);
* ``bounds``    — print every closed-form bound for given parameters;
* ``diagram``   — print the Fig. 3/5/6 automata as text or Graphviz DOT;
* ``stats``     — summarize a saved JSONL run artifact;
* ``trace``     — summarize a flight-recorder trace (``--trace`` on
                  ``run``/``grid``/``bench perf`` records one:
                  Perfetto-loadable Chrome trace-event JSON);
* ``history``   — the persistent run-history index: ``list``, ``show``
                  or ``query`` every recorded completion
                  (``.repro-cache/history.db``);
* ``bench``     — benchmark artifact tooling (``bench diff`` compares
                  two ``benchmarks/results`` directories and exits
                  nonzero on any value drift);
* ``cache``     — inspect, clear, or ``verify`` (re-hash and
                  quarantine corrupt entries) the ``.repro-cache``
                  result cache.

Examples::

    python -m repro run --algorithm ca-arrow --n 4 --max-slot 2 \
        --rho 1/2 --horizon 5000 --schedule worst
    python -m repro run --algorithm ca-arrow-ft --n 4 --rho 2/5 \
        --faults crash:2@40
    python -m repro scenario run scenarios/ca_arrow_worst.json
    python -m repro scenario validate scenarios/
    python -m repro stats out.jsonl
    python -m repro grid --algorithms ca-arrow,ao-arrow --rhos 1/2,9/10 \
        --n 4 --horizon 20000 --jobs 4 --csv grid.csv
    python -m repro bench diff results-main benchmarks/results
    python -m repro sst --algorithm abs --n 16 --max-slot 2 --schedule random --seed 7
    python -m repro adversary mirror --n 64 --realized-r 4
    python -m repro bounds --n 8 --max-slot 2 --rho 3/4 --burstiness 2
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

from .algorithms import ABSLeaderElection, NaiveTDMA
from .analysis import (
    abs_slot_upper_bound,
    ao_queue_bound_L,
    ao_sync_silence_threshold,
    ca_gap_slots,
    ca_queue_bound_L,
    mbtf_queue_bound,
    sst_lower_bound_slots,
)
from .core import as_time
from .core.errors import ConfigurationError
from .exec import JournalMismatch
from .lowerbounds import (
    force_collision_or_overflow,
    measure_rate_one_instability,
    run_mirror_adversary,
    verify_mirror_execution,
)
from .obs import (
    Tracer,
    activate,
    deactivate,
    git_sha,
    record_completion,
    render_summary,
    summarize_run,
)
from .scenarios import ALGORITHMS, FAULTS, SCHEDULES, SOURCES, ScenarioSpec, load_spec
from .service import (
    COMMANDS,
    RunOptions,
    RunRequest,
    RunResult,
    ServiceError,
    execute,
    options_from_args,
)
from .service.request import ENGINES, TIMEBASES

#: Where the bundled scenario files live, relative to the repo root.
BUNDLED_SCENARIOS_DIR = "scenarios"


def _parse_fault_flag(text: str) -> Dict[str, Any]:
    """One ``--faults`` occurrence -> one fault entry dict.

    Two syntaxes::

        crash:SID@SLOT                  # shorthand for the common case
        KIND:key=value,key=value        # e.g. jam-periodic:burst=1,period=12
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if not kind:
        raise SystemExit(f"--faults: missing fault kind in {text!r}")
    if kind == "crash" and "@" in rest and "=" not in rest:
        station, _, at_slot = rest.partition("@")
        try:
            return {
                "kind": "crash",
                "station": int(station),
                "at_slot": int(at_slot),
            }
        except ValueError:
            raise SystemExit(
                f"--faults: expected crash:SID@SLOT, got {text!r}"
            ) from None
    entry: Dict[str, Any] = {"kind": kind}
    if rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise SystemExit(
                    f"--faults: expected key=value in {text!r}, got {item!r}"
                )
            key = key.strip()
            value = value.strip()
            try:
                entry[key] = int(value)
            except ValueError:
                entry[key] = value
    return entry


def _int_flag(flag: str, text: str) -> int:
    """A flag's integer value; text that is not one names the flag."""
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(
            f"{flag}: expected an integer, got {text!r}"
        ) from None


def _dynamic_algorithm_or_exit(name: str) -> None:
    """Reject non-fleet names with the historical error shape.

    The rule for flag-built runs only: a spec file may name any
    registered algorithm, SST ones included.
    """
    if name not in ALGORITHMS.names(kind="dynamic"):
        raise SystemExit(
            f"unknown algorithm {name!r} "
            f"(use {' | '.join(ALGORITHMS.names(kind='dynamic'))})"
        )


def _flag_spec(
    args: argparse.Namespace,
    algorithm: str,
    rho: str,
    labels: Optional[Dict[str, str]] = None,
) -> ScenarioSpec:
    """One spec from the shared scenario flags: ``run``, or a ``grid`` cell."""
    _dynamic_algorithm_or_exit(algorithm)
    return ScenarioSpec(
        algorithm=algorithm,
        n=args.n,
        max_slot=args.max_slot,
        schedule=args.schedule,
        rho=rho,
        burst=args.burst,
        horizon=args.horizon,
        seed=args.seed,
        faults=tuple(_parse_fault_flag(text) for text in (args.faults or ())),
        labels=labels or {},
    )


def _file_spec(path: str, args: argparse.Namespace) -> ScenarioSpec:
    """A spec file (or a JSONL artifact's spec) with --horizon/--seed applied."""
    overrides = {
        name: getattr(args, name)
        for name in ("horizon", "seed")
        if getattr(args, name) is not None
    }
    return load_spec(path).replace(**overrides)


@contextmanager
def _tracing(path: Optional[str]) -> Iterator[Optional[Tracer]]:
    """Activate the flight recorder around a command body.

    With no path this is a no-op (tracing stays zero-cost off).  With
    one, a :class:`Tracer` is active for the body and the Chrome trace
    is exported — even when the body fails, so a crashed grid still
    leaves its evidence behind.
    """
    if not path:
        yield None
        return
    tracer = activate(Tracer())
    try:
        yield tracer
    finally:
        deactivate()
        try:
            target = tracer.export_chrome(path)
        except OSError as exc:
            raise SystemExit(f"cannot write trace {path!r}: {exc}") from None
        print(f"trace: {target}")


def _run_spec(spec: ScenarioSpec, args: argparse.Namespace) -> int:
    """Route one spec through the service (``run`` / ``scenario run``)."""
    request = RunRequest(
        specs=(spec,), command="run", options=options_from_args(args)
    )
    with _tracing(args.trace):
        _render_run(spec, execute(request), args)
    return 0


def _render_run(
    spec: ScenarioSpec, result: RunResult, args: argparse.Namespace
) -> None:
    """Print one run result — byte-identical to the pre-service CLI.

    The header line is golden-pinned (tests/golden/) — engine and
    timebase are run options, surfaced via --verbose-engine instead.
    """
    metrics = result.metrics
    print(f"algorithm={spec.algorithm} n={spec.n} R={spec.max_slot} "
          f"rho={spec.rho} schedule={spec.schedule_display()} "
          f"horizon={spec.horizon}")
    if args.verbose_engine:
        detail = f" ({result.engine_detail})" if result.engine_detail else ""
        print(f"  engine:         {result.engine}/"
              f"{result.timebase}{detail}")
    print(f"  delivered:      {metrics.delivered}")
    print(f"  backlog:        {metrics.backlog} (peak {metrics.max_backlog})")
    print(f"  collisions:     {metrics.collisions}")
    print(f"  control msgs:   {metrics.control_transmissions}")
    print(f"  throughput:     {float(metrics.throughput_cost):.4f} cost/time")
    if metrics.mean_latency is not None:
        print(f"  mean latency:   {float(metrics.mean_latency):.2f}")
    if args.metrics:
        print("metrics:")
        for line in result.metrics_lines:
            print(f"  {line}")
    if args.profile:
        print("profile:")
        for line in result.profile_lines:
            print(f"  {line}")
    if result.artifact_path is not None:
        print(f"artifact:         {result.artifact_path}")


def _cmd_run(args: argparse.Namespace) -> int:
    return _run_spec(_flag_spec(args, args.algorithm, args.rho), args)


def _cmd_stats(args: argparse.Namespace) -> int:
    from .obs import load_run

    try:
        artifact = load_run(args.artifact)
    except OSError as exc:
        raise SystemExit(f"cannot read {args.artifact!r}: {exc}") from None
    if artifact.manifest is None and not artifact.records:
        raise SystemExit(
            f"{args.artifact!r} is not a repro run artifact "
            "(no manifest or event records; expected a --emit-jsonl file)"
        )
    stats = summarize_run(artifact)
    for line in render_summary(stats):
        print(line)
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from .obs import render_trace_summary, summarize_trace

    try:
        summary = summarize_trace(args.trace_file)
    except OSError as exc:
        raise SystemExit(f"cannot read {args.trace_file!r}: {exc}") from None
    except ValueError as exc:
        raise SystemExit(f"{args.trace_file!r}: {exc}") from None
    for line in render_trace_summary(summary, top=args.top):
        print(line)
    return 0


def _history_or_exit(args: argparse.Namespace) -> Any:
    """The history index behind ``--db``, erroring on an explicit miss.

    A *default* database that does not exist yet just means nothing
    has been recorded — an empty listing, not an error.  An explicitly
    named one that is missing is a user mistake and exits nonzero.
    """
    from .obs import RunHistory

    if args.db is not None and not pathlib.Path(args.db).exists():
        raise SystemExit(f"cannot read {args.db!r}: no such history database")
    return RunHistory(args.db)


def _cmd_history(args: argparse.Namespace) -> int:
    import sqlite3

    from .obs.history import render_entries, render_entry

    history = _history_or_exit(args)
    try:
        if args.history_command == "show":
            entry = history.get(args.id)
            if entry is None:
                raise SystemExit(
                    f"no history row with id {args.id} in {history.path}"
                )
            for line in render_entry(entry):
                print(line)
            return 0
        if args.history_command == "query":
            entries = history.query(
                kind=args.kind,
                name_like=args.name,
                status=args.status,
                since=args.since,
                limit=args.limit,
                engine=args.engine,
                timebase=args.timebase,
                served=args.served,
            )
        else:
            entries = history.list(limit=args.limit)
    except sqlite3.Error as exc:
        raise SystemExit(f"cannot read {history.path}: {exc}") from None
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read {history.path}: {exc}") from None
    for line in render_entries(entries):
        print(line)
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    def names(text: str) -> List[str]:
        return [name.strip() for name in text.split(",") if name.strip()]

    # Each cell carries its algorithm and rho as labels (the report's
    # columns).
    specs = tuple(
        _flag_spec(args, algorithm, rho, {"algorithm": algorithm, "rho": rho})
        for algorithm in names(args.algorithms)
        for rho in names(args.rhos)
    )
    request = RunRequest(
        specs=specs, command="grid", options=options_from_args(args)
    )
    with _tracing(args.trace):
        grid = execute(request)
    report = grid.report
    header = (
        f"{'name':<24} {'stable':<8} {'delivered':>9} {'backlog':>7} "
        f"{'peak':>5} {'coll':>5} {'thr':>7}  {'engine/timebase':<15}"
    )
    print(header)
    print("-" * len(header))
    for result in report.results:
        # Cached rows predating the engine field render as "-" rather
        # than guessing what executed them.
        engine_note = (
            f"{result.engine}/{result.timebase}" if result.timebase else "-"
        )
        print(
            f"{result.name:<24} "
            f"{'stable' if result.stable else 'UNSTABLE':<8} "
            f"{result.metrics.delivered:>9} {result.metrics.backlog:>7} "
            f"{result.peak_backlog:>5} {result.metrics.collisions:>5} "
            f"{float(result.metrics.throughput_cost):>7.3f}  "
            f"{engine_note:<15}"
        )
    cache_note = (
        f"cache: {report.cache_hits} hit / {report.cache_misses} miss "
        f"({args.cache_dir})"
        if request.options.cache
        else "cache: disabled"
    )
    print(
        f"grid: {len(report.results)} cells in {report.wall_s:.2f}s "
        f"jobs={report.jobs} mode={report.mode} | {cache_note}"
    )
    if grid.journal_path is not None:
        journal_note = f"journal: {grid.journal_path}"
        if report.journal_hits:
            journal_note += f" ({report.journal_hits} cells resumed)"
        print(journal_note)
    if report.health.disturbed:
        print(f"health: {report.health.render()}")
    if grid.csv_path:
        print(f"csv:  {grid.csv_path}")
    if report.failures:
        print(f"FAILED cells ({len(report.failures)}):", file=sys.stderr)
        for failure in report.failures:
            print(f"  {failure.summary()}", file=sys.stderr)
        return 1
    return 0


def _scenario_files(paths: Sequence[str]) -> List[pathlib.Path]:
    """Expand files/directories into the list of spec files to process."""
    files: List[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            found = sorted(path.glob("*.json"))
            if not found:
                raise SystemExit(f"no *.json scenario files under {raw!r}")
            files.extend(found)
        else:
            files.append(path)
    return files


def _cmd_scenario_list(args: argparse.Namespace) -> int:
    print("algorithms (dynamic):")
    for name in ALGORITHMS.names(kind="dynamic"):
        print(f"  {ALGORITHMS.get(name).describe()}")
    print("algorithms (sst):")
    for name in ALGORITHMS.names(kind="sst"):
        print(f"  {ALGORITHMS.get(name).describe()}")
    other = ALGORITHMS.names()
    extras = [n for n in other if ALGORITHMS.get(n).meta.get("kind")
              not in ("dynamic", "sst")]
    if extras:
        print("algorithms (other):")
        for name in extras:
            print(f"  {ALGORITHMS.get(name).describe()}")
    print("schedules:")
    for entry in SCHEDULES.entries():
        print(f"  {entry.describe()}")
    print("sources:")
    for entry in SOURCES.entries():
        print(f"  {entry.describe()}")
    print("faults:")
    for entry in FAULTS.entries():
        print(f"  {entry.describe()}")
    bundled = pathlib.Path(args.dir)
    if bundled.is_dir():
        files = sorted(bundled.glob("*.json"))
        if files:
            print(f"bundled scenarios ({bundled}/):")
            for path in files:
                try:
                    spec = load_spec(path)
                    note = (f"{spec.algorithm} n={spec.n} R={spec.max_slot} "
                            f"schedule={spec.schedule_display()}")
                except ConfigurationError as exc:
                    note = f"INVALID: {exc}"
                print(f"  {path.name:<28} {note}")
    return 0


def _cmd_scenario_validate(args: argparse.Namespace) -> int:
    failures = 0
    for path in _scenario_files(args.paths):
        try:
            spec = load_spec(path)
            # Building exercises every registry name and parameter.
            spec.build()
        except ConfigurationError as exc:
            failures += 1
            print(f"FAIL {path}: {exc}")
            continue
        print(f"ok   {path}: {spec.name} "
              f"(algorithm={spec.algorithm} n={spec.n} R={spec.max_slot} "
              f"schedule={spec.schedule_display()})")
    if failures:
        print(f"{failures} invalid scenario file(s)")
        return 1
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    return _run_spec(_file_spec(args.spec, args), args)


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    from .exec import diff_results

    try:
        report = diff_results(args.old, args.new, tolerance=args.tolerance)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    for line in report.render():
        print(line)
    return report.exit_code()


def _cmd_bench_perf(args: argparse.Namespace) -> int:
    from .exec.perf import render_report, run_perf, write_report

    with _tracing(args.trace):
        document = run_perf(quick=args.quick)
    for line in render_report(document):
        print(line)
    meta = document["meta"]
    print(f"\ngeomean speedup: {meta['geomean_speedup']}x "
          f"(wall {meta['wall_s']}s, best of {meta['repeats']})")
    targets = [args.results_dir]
    if args.update_baseline:
        targets.append(args.baseline_dir)
    primary_json = None
    for target in targets:
        json_path, txt_path = write_report(document, target)
        if primary_json is None:
            primary_json = json_path
        print(f"wrote {json_path} and {txt_path}")
    record_completion(
        "bench",
        "perf_core",
        wall_s=float(meta.get("wall_s") or 0) or None,
        jobs=1,
        mode="serial",
        git_sha=git_sha(),
        artifact_path=str(primary_json) if primary_json else None,
        trace_path=args.trace,
        extra={"geomean_speedup": meta.get("geomean_speedup"),
               "quick": bool(args.quick)},
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .exec import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.cache_command == "clear":
        dropped = cache.clear()
        print(f"cleared {dropped} cached results from {cache.root}")
        return 0
    if args.cache_command == "verify":
        verification = cache.verify()
        print(
            f"verified {verification.checked} entries: {verification.ok} ok, "
            f"{len(verification.quarantined)} quarantined"
        )
        for path in verification.quarantined:
            print(f"  quarantined: {path}", file=sys.stderr)
        return 0 if verification.clean else 1
    entries = list(cache.entries())
    print(f"root:    {cache.root}")
    print(f"entries: {len(entries)}")
    print(f"size:    {cache.size_bytes()} bytes")
    print(f"salt:    {cache.salt[:16]}… (changes with any repro source edit)")
    return 0


def _cmd_sst(args: argparse.Namespace) -> int:
    spec = ScenarioSpec(
        algorithm=args.algorithm,
        n=args.n,
        max_slot=args.max_slot,
        schedule=args.schedule,
        seed=args.seed,
        rho=None,
    )
    result = execute(RunRequest(
        specs=(spec,), command="sst", options=options_from_args(args)
    ))
    if not result.ok:
        print("SST NOT solved within the event budget")
        return 1
    payload = result.sst or {}
    print(f"algorithm={args.algorithm} n={args.n} R={spec.max_slot} "
          f"schedule={args.schedule}")
    print(f"  solved at:      t = {payload['solved_at']}")
    winner = payload.get("winner")
    print(f"  winner:         station {winner if winner is not None else '?'}")
    print(f"  max slots used: {payload['max_slots']}")
    print(f"  Theorem 1 bound (known R): {payload['bound']}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import serve_forever

    return serve_forever(args.host, args.port, args.cache_dir, quiet=args.quiet)


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import submit_request

    try:
        text = pathlib.Path(args.target).read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"cannot read {args.target!r}: {exc}") from None
    try:
        probe = json.loads(text)
    except json.JSONDecodeError:
        probe = None
    if isinstance(probe, dict) and (
        "specs" in probe or "spec" in probe or "request" in probe
    ):
        # A full RunRequest document: submit it as-is.
        request = RunRequest.from_json(probe)
    else:
        # A scenario spec file (or JSONL artifact): wrap it in a request
        # built from the submit flags, exactly like `scenario run`.
        request = RunRequest(
            specs=(_file_spec(args.target, args),), command=args.command,
            options=options_from_args(args),
        )
    out = None
    try:
        if args.out:
            try:
                out = open(args.out, "w", encoding="utf-8")
            except OSError as exc:
                raise SystemExit(f"cannot write {args.out!r}: {exc}") from None
        envelope = submit_request(
            args.url, request, out=out, timeout=args.timeout
        )
    finally:
        if out is not None:
            out.close()
    print(f"submitted {request.command} to {args.url}")
    print(f"  name:        {envelope.get('name', '?')}")
    print(f"  status:      {envelope.get('status', '?')}")
    print(f"  served from: {envelope.get('served_from', '?')}")
    if "delivered" in envelope:
        print(f"  delivered:   {envelope['delivered']}")
        print(f"  backlog:     {envelope['backlog']}")
    if "cells" in envelope:
        print(f"  cells:       {envelope['cells']} "
              f"({envelope.get('cache_hits', 0)} cache hits)")
    if "wall_s" in envelope:
        print(f"  wall:        {envelope['wall_s']}s")
    if envelope.get("history_id") is not None:
        print(f"  history id:  {envelope['history_id']}")
    if args.out:
        print(f"artifact:         {args.out}")
    return 0 if envelope.get("status") == "ok" else 1


def _cmd_adversary_mirror(args: argparse.Namespace) -> int:
    r = _int_flag("--realized-r", args.realized_r)
    factory = lambda sid: ABSLeaderElection(sid, r)  # noqa: E731
    result = run_mirror_adversary(factory, args.n, r)
    verify_mirror_execution(factory, result)
    print(f"mirror adversary vs ABS: n={args.n} r={r}")
    print(f"  phases sustained:  {len(result.phases)}")
    print(f"  slots forced:      {result.slots_forced}")
    print(f"  formula bound:     {float(sst_lower_bound_slots(args.n, r)):.1f}")
    print(f"  survivors:         {result.survivors}")
    print("  realized schedule replayed: 0 successes (verified)")
    return 0


def _cmd_adversary_thm4(args: argparse.Namespace) -> int:
    result = force_collision_or_overflow(
        lambda sid: NaiveTDMA(sid, 2),
        queue_limit=args.queue_limit,
        rho=args.rho,
        max_slot_length=args.max_slot,
    )
    print(f"Theorem 4 vs NaiveTDMA: L={args.queue_limit} rho={args.rho} "
          f"R={args.max_slot}")
    print(f"  outcome:     {result.outcome}")
    print(f"  S / alpha / beta: {result.start_slot} / "
          f"{result.probe_s1.first_attempt_offset} / "
          f"{result.probe_s2.first_attempt_offset}")
    if result.collision_time is not None:
        print(f"  X / Y:       {result.slot_length_s1} / {result.slot_length_s2}")
        print(f"  collision at t = {result.collision_time} (replayed)")
    return 0


def _cmd_adversary_rate1(args: argparse.Namespace) -> int:
    _dynamic_algorithm_or_exit(args.algorithm)
    spec = ScenarioSpec(
        algorithm=args.algorithm,
        n=args.n,
        max_slot=args.max_slot,
        seed=args.seed,
        rho=None,
    )
    report = measure_rate_one_instability(
        spec.build_fleet(),
        max_slot_length=spec.max_slot,
        horizon=args.horizon,
    )
    print(f"Theorem 5 vs {args.algorithm}: n={args.n} R={spec.max_slot} "
          f"horizon={args.horizon}")
    print(f"  backlog slope:  {report.slope:.4f} packets/time")
    print(f"  final backlog:  {report.final_backlog} (peak {report.max_backlog})")
    print(f"  delivered:      {report.delivered}")
    print(f"  verdict:        "
          f"{'UNSTABLE (grew unboundedly)' if report.grew_unboundedly else 'inconclusive'}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    n, max_slot = args.n, as_time(args.max_slot)
    rho, b = as_time(args.rho), as_time(args.burstiness)
    # Every bound is computed before anything prints, so a rejected
    # parameter ends the command with its one-line error alone.
    lines = [
        f"closed-form bounds at n={n}, R={max_slot}, rho={rho}, b={b}:",
        f"  ABS slots (Thm 1):            {abs_slot_upper_bound(n, max_slot)}",
        f"  SST lower bound (Thm 2, r=R): "
        f"{float(sst_lower_bound_slots(n, max_slot)):.1f}",
        f"  AO-ARRoW queue cost L (Thm 3): "
        f"{float(ao_queue_bound_L(n, max_slot, rho, b, max_slot)):.1f}",
        f"  AO-ARRoW sync threshold:       "
        f"{ao_sync_silence_threshold(max_slot)} slots",
        f"  CA-ARRoW gap:                  {ca_gap_slots(max_slot)} slots",
        f"  CA-ARRoW queue cost (Thm 6):   "
        f"{float(ca_queue_bound_L(n, max_slot, rho, b)):.1f}",
        f"  MBTF sync reference 2(n^2+b):  {float(mbtf_queue_bound(n, b)):.1f}",
    ]
    print("\n".join(lines))
    return 0


def _cmd_diagram(args: argparse.Namespace) -> int:
    from .viz import ALL_DIAGRAMS, render_all_text

    if args.name == "all":
        print(render_all_text())
        return 0
    try:
        diagram = ALL_DIAGRAMS[args.name]
    except KeyError:
        raise SystemExit(
            f"unknown diagram {args.name!r} "
            f"(use {' | '.join(sorted(ALL_DIAGRAMS))} | all)"
        ) from None
    print(diagram.to_dot() if args.dot else diagram.to_text())
    return 0


def _scenario_flags_parent() -> argparse.ArgumentParser:
    """The shared scenario flags — one definition keeps ``run`` and
    ``grid`` (and any future spec-built subcommand) in sync."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--n", type=int, default=4)
    parent.add_argument("--max-slot", default="2", help="the bound R")
    parent.add_argument("--burst", type=int, default=1)
    parent.add_argument("--horizon", default="5000")
    parent.add_argument("--schedule", default="worst",
                        help="slot adversary (see `repro scenario list`)")
    parent.add_argument("--seed", type=int, default=0)
    parent.add_argument(
        "--faults", action="append", metavar="SPEC",
        help="inject a fault; crash:SID@SLOT or KIND:key=val,key=val "
             "(repeatable; see `repro scenario list`)",
    )
    return parent


#: Every run-option flag, declared once: its RunOptions field and the
#: argparse keywords.  The flag is the field in dashes, the dest is the
#: field, and the default is the RunOptions default, so
#: :func:`~repro.service.options_from_args` reads the flags back by
#: field name; the service validates the values.
_OPTION_FLAGS: Dict[str, Dict[str, Any]] = {
    "metrics": dict(action="store_true",
                    help="attach the metric instruments and report them"),
    "emit_jsonl": dict(metavar="PATH",
                       help="stream a manifest + per-event JSONL artifact"),
    "profile": dict(action="store_true",
                    help="report wall time per simulator phase"),
    "progress": dict(type=int, metavar="N",
                     help="print a progress line every N slot events"),
    "timebase": dict(choices=TIMEBASES,
                     help="internal time representation (observably "
                     "identical; 'auto' uses integer ticks when the "
                     "scenario declares a time lattice)"),
    "engine": dict(choices=ENGINES,
                   help="run loop (observably identical; 'auto' uses the "
                   "vectorized batch kernel when every component is "
                   "batch-eligible and about 20 or more slots end per "
                   "tick, else the per-object loop)"),
    "trace": dict(metavar="PATH",
                  help="record a flight-recorder trace and export Chrome "
                  "trace-event JSON (Perfetto-loadable)"),
    "backlog_stride": dict(type=int,
                           help="trace sampling stride (passed to every cell)"),
    "jobs": dict(type=int, help="worker processes (0 = one per CPU core)"),
    "cache_dir": dict(help="result cache + history database directory"),
    "task_timeout": dict(type=float, metavar="SECONDS",
                         help="kill any cell running longer than this "
                         "(pool mode; killed cells count as retries)"),
    "retries": dict(type=int,
                    help="re-run a failed/crashed/timed-out cell up to N "
                    "more times (deterministic backoff)"),
    "journal": dict(metavar="PATH",
                    help="checkpoint completed cells to this JSONL file as "
                    "they finish"),
    "resume": dict(action="store_true",
                   help="restore completed cells from the journal and "
                   "recompute only the missing ones (default journal: "
                   "<cache-dir>/grid-journal.jsonl)"),
    "csv": dict(metavar="PATH", help="also write results as CSV"),
    "max_events": dict(type=int),
}

#: The switch forms ``grid`` takes instead: caching is on unless
#: ``--no-cache``, and ``--progress`` reports every cell.
#: :func:`~repro.service.options_from_args` maps both onto their fields.
_GRID_SWITCHES: Dict[str, Dict[str, Any]] = {
    "no_cache": dict(action="store_true",
                     help="bypass the content-addressed result cache"),
    "progress": dict(action="store_true",
                     help="report per-cell progress on stderr"),
}


def _option_flags(
    parser: argparse.ArgumentParser, *fields: str, switches: bool = False
) -> None:
    """Add the run-option flags of ``fields`` to ``parser``, in order.

    With ``switches`` (``grid``), a field with a switch form takes it.
    """
    defaults = RunOptions()
    for name in fields:
        flag = "--" + name.replace("_", "-")
        if switches and name in _GRID_SWITCHES:
            parser.add_argument(flag, **_GRID_SWITCHES[name])
        else:
            parser.add_argument(
                flag, default=getattr(defaults, name), **_OPTION_FLAGS[name]
            )


def _run_flags(parser: argparse.ArgumentParser) -> None:
    """The option and report flags shared by ``run`` and ``scenario run``."""
    _option_flags(parser, "metrics", "emit_jsonl", "profile", "progress",
                  "timebase", "engine")
    parser.add_argument("--verbose-engine", action="store_true",
                        help="print the resolved engine/timebase, plus the "
                        "promotion path (which vector programs matched) "
                        "when auto picked the batch kernel or the demotion "
                        "reason when it fell back to the object loop")
    _option_flags(parser, "trace")


def _version_string() -> str:
    from . import __version__

    return f"repro {__version__} ({git_sha() or 'unknown'})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bounded-asynchrony MAC: algorithms, adversaries, bounds "
        "(ICDCS 2024 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=_version_string(),
                        help="print package version and git commit")
    sub = parser.add_subparsers(dest="command", required=True)
    scenario_flags = _scenario_flags_parent()

    run_p = sub.add_parser("run", parents=[scenario_flags],
                           help="dynamic packet transmission")
    run_p.add_argument("--algorithm", default="ca-arrow")
    run_p.add_argument("--rho", default="1/2")
    _run_flags(run_p)
    run_p.set_defaults(handler=_cmd_run)

    stats_p = sub.add_parser("stats", help="summarize a saved JSONL run")
    stats_p.add_argument("artifact", help="path to a --emit-jsonl artifact")
    stats_p.set_defaults(handler=_cmd_stats)

    grid_p = sub.add_parser(
        "grid", parents=[scenario_flags],
        help="run an algorithm x rho experiment grid (parallel, cached)",
    )
    grid_p.add_argument("--algorithms", default="ca-arrow,ao-arrow",
                        help="comma-separated algorithm names")
    grid_p.add_argument("--rhos", default="3/10,1/2,7/10,9/10",
                        help="comma-separated injection rates")
    _option_flags(grid_p, "backlog_stride", "jobs", "no_cache", "cache_dir",
                  "task_timeout", "retries", "journal", "resume", "csv",
                  "progress", "engine", "trace", switches=True)
    grid_p.set_defaults(handler=_cmd_grid)

    trace_p = sub.add_parser(
        "trace", help="inspect a flight-recorder trace (--trace output)"
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    tsum_p = trace_sub.add_parser(
        "summarize",
        help="per-span self-time totals and the retry/timeout timeline",
    )
    tsum_p.add_argument("trace_file", help="a --trace Chrome trace-event JSON")
    tsum_p.add_argument("--top", type=int, default=12,
                        help="span kinds to show in the self-time ranking")
    tsum_p.set_defaults(handler=_cmd_trace_summarize)

    history_p = sub.add_parser(
        "history", help="the persistent run-history index (every completion)"
    )
    history_sub = history_p.add_subparsers(dest="history_command", required=True)
    hlist_p = history_sub.add_parser("list", help="most recent runs first")
    hshow_p = history_sub.add_parser("show", help="every recorded fact of one run")
    hshow_p.add_argument("id", type=int, help="history row id (from list)")
    hquery_p = history_sub.add_parser(
        "query", help="filter by kind / name substring / status / date"
    )
    hquery_p.add_argument("--kind", default=None,
                          help="run | grid | sst | serve | bench")
    hquery_p.add_argument("--name", default=None,
                          help="case-insensitive name substring")
    hquery_p.add_argument("--status", default=None, help="ok | failed")
    hquery_p.add_argument("--since", default=None, metavar="ISO",
                          help="ISO date(time) prefix, e.g. 2026-08")
    hquery_p.add_argument("--engine", default=None,
                          choices=("batch", "batch(adaptive)",
                                   "batch(nonadaptive)", "object"),
                          help="runs executed by this engine — recorded "
                          "with the resolved program family, so 'batch' "
                          "matches both batch(adaptive) and "
                          "batch(nonadaptive) (grids match when any cell "
                          "used it)")
    hquery_p.add_argument("--timebase", default=None,
                          choices=("lattice", "fraction"),
                          help="runs executed on this timebase")
    hquery_p.add_argument("--served", default=None,
                          choices=("cache", "journal", "mixed", "exec"),
                          help="provenance: where the result came from")
    for history_cmd in (hlist_p, hshow_p, hquery_p):
        history_cmd.add_argument(
            "--db", default=None,
            help="history database path (default: .repro-cache/history.db, "
            "or $REPRO_HISTORY_DB)")
        history_cmd.set_defaults(handler=_cmd_history)
    for history_cmd in (hlist_p, hquery_p):
        history_cmd.add_argument("--limit", type=int, default=20,
                                 help="rows to show")

    scenario_p = sub.add_parser(
        "scenario", help="declarative scenarios: list, validate, run"
    )
    scenario_sub = scenario_p.add_subparsers(dest="scenario_command", required=True)
    slist_p = scenario_sub.add_parser(
        "list", help="registered algorithms/schedules/sources/faults + bundled specs"
    )
    slist_p.add_argument("--dir", default=BUNDLED_SCENARIOS_DIR,
                         help="bundled scenarios directory to list")
    slist_p.set_defaults(handler=_cmd_scenario_list)
    svalidate_p = scenario_sub.add_parser(
        "validate", help="strictly validate scenario spec files (or directories)"
    )
    svalidate_p.add_argument("paths", nargs="+",
                             help="spec files and/or directories of *.json")
    svalidate_p.set_defaults(handler=_cmd_scenario_validate)
    srun_p = scenario_sub.add_parser(
        "run", help="run a spec file (or replay a JSONL artifact's spec)"
    )
    srun_p.add_argument("spec", help="scenario .json file or --emit-jsonl artifact")
    srun_p.add_argument("--horizon", default=None,
                        help="override the spec's horizon")
    srun_p.add_argument("--seed", type=int, default=None,
                        help="override the spec's seed")
    _run_flags(srun_p)
    srun_p.set_defaults(handler=_cmd_scenario_run)

    serve_p = sub.add_parser(
        "serve",
        help="HTTP daemon: accept RunRequest JSON, stream artifacts back",
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (keep it loopback: the daemon "
                         "has no authentication)")
    serve_p.add_argument("--port", type=int, default=8765,
                         help="TCP port (0 = pick a free one)")
    _option_flags(serve_p, "cache_dir")
    serve_p.add_argument("--quiet", action="store_true",
                         help="suppress per-request access logging")
    serve_p.set_defaults(handler=_cmd_serve)

    submit_p = sub.add_parser(
        "submit",
        help="send a scenario or RunRequest file to a repro serve daemon",
    )
    submit_p.add_argument("target",
                          help="scenario .json, --emit-jsonl artifact, or a "
                          "full RunRequest document")
    submit_p.add_argument("--url", default="http://127.0.0.1:8765",
                          help="daemon base URL")
    submit_p.add_argument("--out", metavar="PATH", default=None,
                          help="write the streamed JSONL artifact here")
    submit_p.add_argument("--timeout", type=float, default=None,
                          metavar="SECONDS", help="socket timeout")
    submit_p.add_argument("--command", choices=list(COMMANDS), default="run",
                          help="how the daemon should execute a scenario "
                          "file (RunRequest documents carry their own)")
    submit_p.add_argument("--horizon", default=None,
                          help="override a scenario file's horizon")
    submit_p.add_argument("--seed", type=int, default=None,
                          help="override a scenario file's seed")
    _option_flags(submit_p, "engine", "timebase")
    submit_p.set_defaults(handler=_cmd_submit)

    bench_p = sub.add_parser("bench", help="benchmark artifact tooling")
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=True)
    bdiff_p = bench_sub.add_parser(
        "diff",
        help="compare two results directories; nonzero exit on value drift",
    )
    bdiff_p.add_argument("old", help="baseline benchmarks/results directory")
    bdiff_p.add_argument("new", help="candidate benchmarks/results directory")
    bdiff_p.add_argument("--tolerance", type=float, default=0.0,
                         metavar="REL",
                         help="relative tolerance for float cells "
                         "(0.25 = 25%%; default exact); integer, string "
                         "and boolean cells always compare exactly")
    bdiff_p.set_defaults(handler=_cmd_bench_diff)
    bperf_p = bench_sub.add_parser(
        "perf",
        help="core perf suite: events/sec, fraction vs tick-lattice timebase",
    )
    bperf_p.add_argument("--quick", action="store_true",
                         help="short horizons, one repeat (CI smoke)")
    bperf_p.add_argument("--results-dir", default="benchmarks/results",
                         help="where to write perf_core.json / .txt")
    bperf_p.add_argument("--update-baseline", action="store_true",
                         help="also write the report to the baseline dir "
                         "(regenerate with --quick so CI row counts match)")
    bperf_p.add_argument("--baseline-dir", default="benchmarks/baselines",
                         help="baseline directory for --update-baseline")
    _option_flags(bperf_p, "trace")
    bperf_p.set_defaults(handler=_cmd_bench_perf)

    cache_p = sub.add_parser("cache", help="inspect or clear the result cache")
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    for name, blurb in (
        ("info", "entry count, size, code salt"),
        ("clear", "drop every cached result"),
        ("verify", "re-hash every entry; quarantine corrupt ones"),
    ):
        cache_cmd = cache_sub.add_parser(name, help=blurb)
        _option_flags(cache_cmd, "cache_dir")
        cache_cmd.set_defaults(handler=_cmd_cache)

    sst_p = sub.add_parser("sst", help="leader election / SST")
    sst_p.add_argument("--algorithm", default="abs")
    sst_p.add_argument("--n", type=int, default=8)
    sst_p.add_argument("--max-slot", default="2")
    sst_p.add_argument("--schedule", default="worst")
    sst_p.add_argument("--seed", type=int, default=0)
    _option_flags(sst_p, "max_events")
    sst_p.set_defaults(handler=_cmd_sst)

    adv_p = sub.add_parser("adversary", help="run a theorem construction")
    adv_sub = adv_p.add_subparsers(dest="construction", required=True)
    mirror_p = adv_sub.add_parser(
        "mirror", help="Thm 2: the mirror adversary against ABS"
    )
    mirror_p.add_argument("--n", type=int, default=64)
    mirror_p.add_argument("--realized-r", default="4")
    mirror_p.set_defaults(handler=_cmd_adversary_mirror)
    thm4_p = adv_sub.add_parser(
        "thm4", help="Thm 4: force a collision or a queue overflow"
    )
    thm4_p.add_argument("--queue-limit", type=int, default=16)
    thm4_p.add_argument("--rho", default="1/2")
    thm4_p.add_argument("--max-slot", default="2")
    thm4_p.set_defaults(handler=_cmd_adversary_thm4)
    rate1_p = adv_sub.add_parser(
        "rate1", help="Thm 5: backlog growth at injection rate 1"
    )
    rate1_p.add_argument("--n", type=int, default=64)
    rate1_p.add_argument("--max-slot", default="2")
    rate1_p.add_argument("--algorithm", default="ca-arrow")
    rate1_p.add_argument("--horizon", default="5000")
    rate1_p.add_argument("--seed", type=int, default=0)
    rate1_p.set_defaults(handler=_cmd_adversary_rate1)

    bounds_p = sub.add_parser("bounds", help="print closed-form bounds")
    bounds_p.add_argument("--n", type=int, default=8)
    bounds_p.add_argument("--max-slot", default="2")
    bounds_p.add_argument("--rho", default="1/2")
    bounds_p.add_argument("--burstiness", default="2")
    bounds_p.set_defaults(handler=_cmd_bounds)

    diagram_p = sub.add_parser(
        "diagram", help="print an automaton diagram (Figs. 3/5/6)"
    )
    diagram_p.add_argument("name", nargs="?", default="all")
    diagram_p.add_argument("--dot", action="store_true",
                           help="emit Graphviz DOT instead of text")
    diagram_p.set_defaults(handler=_cmd_diagram)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigurationError, JournalMismatch, ServiceError) as exc:
        # The service names what it rejected (``options.jobs: ...``):
        # one line on stderr and exit status 1, never a traceback.
        raise SystemExit(str(exc)) from None
    except KeyboardInterrupt:
        # Interrupted runs exit promptly but nonzero; any grid journal
        # keeps its completed cells for a follow-up --resume.
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`) — not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
