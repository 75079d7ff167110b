"""Shared table emission for the benchmark harness.

Every bench regenerates one of the paper's tables/figures (see the
experiment index in DESIGN.md).  Tables are printed to stdout (the
``-s`` pytest default makes them land in ``bench_output.txt``) and
mirrored into ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can
reference stable artifacts.  Set ``REPRO_BENCH_RESULTS_DIR`` to write
them elsewhere (CI regenerates into a temporary directory and diffs it
against the committed reports).

Each report is *also* mirrored into ``benchmarks/results/<name>.json``
with the same values in machine-readable form, so bench trajectories
can be diffed across PRs without parsing fixed-width text.  The lines
returned by :func:`table` remember their structure (headers + cells);
:func:`emit` collects every table block it is handed — however the
caller concatenated title lines around it — and writes::

    {
      "name": "<report name>",
      "preamble": ["title line", ...],
      "tables": [{"headers": [...], "rows": [[...], ...]}, ...]
    }

Cells that are JSON-native (int/float/bool/str/None) are stored as-is;
anything else (exact :class:`~fractions.Fraction` values, enums) is
stored as the same string the text table prints.

A report may also carry a ``meta`` block (``emit(..., meta={...})``) of
timing/environment facts — wall seconds, jobs, cache hit counts.  Meta
is *identity-exempt*: ``repro bench diff`` reports its deltas but never
fails on them, and byte-identity of regenerated artifacts is promised
for the preamble + tables (and the whole ``.txt``), not for meta.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, Iterable, List, Optional, Sequence

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def results_dir() -> pathlib.Path:
    """Where reports are written: ``REPRO_BENCH_RESULTS_DIR`` when set,
    else the committed ``benchmarks/results/``."""
    raw = os.environ.get("REPRO_BENCH_RESULTS_DIR", "").strip()
    return pathlib.Path(raw) if raw else RESULTS_DIR


def bench_jobs(default: int = 1) -> int:
    """Worker processes for benches that fan out on the exec pool.

    Controlled by ``REPRO_BENCH_JOBS`` (0 = one per core), so
    ``REPRO_BENCH_JOBS=4 pytest benchmarks/ --benchmark-only`` runs
    every adopted grid in parallel.  Results are bit-identical at any
    value — only wall time changes.
    """
    raw = os.environ.get("REPRO_BENCH_JOBS", "").strip()
    return int(raw) if raw else default


def bench_cache():
    """The shared content-addressed cache for bench grids.

    Enabled by default under ``.repro-cache/`` (so a re-run of an
    unchanged bench is near-instant); disable with
    ``REPRO_BENCH_NO_CACHE=1`` or point elsewhere with
    ``REPRO_BENCH_CACHE_DIR``.  Returns None when disabled.
    """
    if os.environ.get("REPRO_BENCH_NO_CACHE", "").strip():
        return None
    from repro.exec import ResultCache

    return ResultCache(os.environ.get("REPRO_BENCH_CACHE_DIR", ".repro-cache"))


def service_grid(specs: Sequence[Any], *, backlog_stride: int = 8):
    """Run a spec grid through the run-service layer.

    The bench-harness equivalent of ``repro grid``: the specs become a
    :class:`~repro.service.RunRequest` with the environment-derived
    bench options (``REPRO_BENCH_JOBS`` / ``REPRO_BENCH_NO_CACHE`` /
    ``REPRO_BENCH_CACHE_DIR``) and execute on the one shared pipeline
    every other transport uses.  Returns the underlying
    :class:`~repro.analysis.GridReport`, so existing ``grid_meta`` /
    row-zipping call sites work unchanged — cache identity is
    preserved because cells are still keyed by spec canonical JSON.
    """
    from repro.service import RunOptions, RunRequest, execute

    options = RunOptions(
        jobs=bench_jobs(),
        cache=not os.environ.get("REPRO_BENCH_NO_CACHE", "").strip(),
        cache_dir=os.environ.get("REPRO_BENCH_CACHE_DIR", ".repro-cache"),
        backlog_stride=backlog_stride,
    )
    request = RunRequest(specs=tuple(specs), command="grid", options=options)
    return execute(request).report


def grid_meta(report) -> Dict[str, Any]:
    """The standard ``meta`` block for a :class:`GridReport`-backed bench."""
    meta = {
        "wall_s": round(report.wall_s, 3),
        "jobs": report.jobs,
        "mode": report.mode,
        "cells": len(report.results),
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
    }
    health = getattr(report, "health", None)
    if health is not None:
        meta["health"] = health.as_dict()
    journal_hits = getattr(report, "journal_hits", 0)
    if journal_hits:
        meta["journal_hits"] = journal_hits
    failures = getattr(report, "failures", ())
    if failures:
        meta["failed_cells"] = [f.name for f in failures]
    return meta


class _TableBlock:
    """Structured payload behind one rendered table."""

    __slots__ = ("headers", "rows")

    def __init__(self, headers: List[str], rows: List[List[Any]]) -> None:
        self.headers = headers
        self.rows = rows

    def to_dict(self) -> Dict[str, Any]:
        return {"headers": self.headers, "rows": self.rows}


class _TableLine(str):
    """A rendered table line that remembers the block it came from.

    Being a plain ``str`` subclass keeps every existing call pattern
    (``["title"] + table(...)``, joining, printing) working unchanged
    while :func:`emit` can still recover the structure.
    """

    block: _TableBlock

    def __new__(cls, text: str, block: _TableBlock) -> "_TableLine":
        line = super().__new__(cls, text)
        line.block = block
        return line


def _json_cell(cell: Any) -> Any:
    """A cell as stored in the JSON mirror: native when possible."""
    if cell is None or isinstance(cell, (bool, int, float, str)):
        return cell
    return str(cell)


def emit(
    name: str, lines: Iterable[str], meta: Optional[Dict[str, Any]] = None
) -> str:
    """Print a named report block and persist it under :func:`results_dir`.

    Writes both ``<name>.txt`` (the exact text) and ``<name>.json`` (the
    same values, machine-readable).  ``meta``, when given, lands in the
    JSON only — timing/environment facts that ``repro bench diff``
    reports but never fails on.
    """
    root = results_dir()
    root.mkdir(parents=True, exist_ok=True)
    materialized = list(lines)
    body = "\n".join(materialized)
    block = f"\n===== {name} =====\n{body}\n"
    print(block)
    (root / f"{name}.txt").write_text(body + "\n")

    tables: List[_TableBlock] = []
    preamble: List[str] = []
    for line in materialized:
        table_block = getattr(line, "block", None)
        if table_block is None:
            preamble.append(str(line))
        elif not tables or tables[-1] is not table_block:
            tables.append(table_block)
    document = {
        "name": name,
        "preamble": preamble,
        "tables": [t.to_dict() for t in tables],
    }
    if meta:
        document["meta"] = meta
    artifact = root / f"{name}.json"
    artifact.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    _record_history(name, meta, artifact)
    return block


def _record_history(
    name: str, meta: Optional[Dict[str, Any]], artifact: pathlib.Path
) -> None:
    """Index this bench table in the run-history database (best-effort).

    Rides the standard ``meta`` block: the :func:`grid_meta` fields map
    straight onto history columns, anything else lands in ``extra``.
    """
    try:
        from repro.obs.artifacts import git_sha
        from repro.obs.history import record_completion
    except ImportError:
        return
    meta = dict(meta or {})
    health = meta.pop("health", None)
    record_completion(
        "bench",
        name,
        wall_s=meta.pop("wall_s", None),
        jobs=meta.pop("jobs", None),
        mode=meta.pop("mode", None),
        cells=meta.pop("cells", 0) or 0,
        cache_hits=meta.pop("cache_hits", 0) or 0,
        cache_misses=meta.pop("cache_misses", 0) or 0,
        journal_hits=meta.pop("journal_hits", 0) or 0,
        health=health if isinstance(health, dict) else None,
        git_sha=git_sha(),
        artifact_path=str(artifact),
        extra=meta or None,
    )


def table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> List[str]:
    """Fixed-width text table: headers + one line per row.

    The returned lines carry the structured block for the JSON mirror.
    """
    raw_rows = [list(row) for row in rows]
    materialized = [[str(cell) for cell in row] for row in raw_rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))
    block = _TableBlock(
        headers=[str(h) for h in headers],
        rows=[[_json_cell(cell) for cell in row] for row in raw_rows],
    )
    lines = [fmt(list(headers)), fmt(["-" * width for width in widths])]
    lines.extend(fmt(row) for row in materialized)
    return [_TableLine(line, block) for line in lines]
