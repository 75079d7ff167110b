"""Bench-trajectory diffing over ``benchmarks/results/*.json`` artifacts.

PR 2 made every bench table machine-readable: each report mirrors to
``benchmarks/results/<name>.json`` as ``{"name", "preamble",
"tables": [{"headers", "rows"}, ...]}`` (plus an optional ``"meta"``
block carrying timing/environment facts such as ``wall_s`` and
``jobs``).  This module compares two such directories table-by-table
so a bench trajectory becomes *enforceable*: CI can re-run the
benches and fail when any reproduced value drifts.

Severity model:

* value / header / preamble / row-count changes → **changed** (fails);
* a report present in old but absent in new → **missing** (fails);
* a report only in new → **added** (informational — new benches are
  not regressions);
* ``meta`` differences (wall time, jobs, cache counters) are reported
  as deltas but never fail — timing is environment, not behavior.

Used by ``repro bench diff <old> <new>`` and importable directly::

    from repro.exec import diff_results
    report = diff_results("results-main", "results-pr")
    print("\\n".join(report.render()))
    raise SystemExit(report.exit_code())
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

__all__ = ["DiffReport", "ReportDiff", "diff_results", "load_results"]

#: Per-report cap on rendered drift lines; the count is always exact.
MAX_DETAIL_LINES = 20


def load_results(directory: "str | Path") -> Dict[str, Dict[str, Any]]:
    """Parse every ``<name>.json`` artifact in a results directory."""
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"not a results directory: {root}")
    out: Dict[str, Dict[str, Any]] = {}
    for path in sorted(root.glob("*.json")):
        with open(path) as handle:
            document = json.load(handle)
        out[document.get("name", path.stem)] = document
    return out


@dataclass(slots=True)
class ReportDiff:
    """Comparison outcome for one named report."""

    name: str
    status: str  # "identical" | "changed" | "missing" | "added"
    notes: List[str] = field(default_factory=list)
    drift_count: int = 0  # exact number of changed cells/lines

    @property
    def fails(self) -> bool:
        return self.status in ("changed", "missing")


def _cell_text(value: Any) -> str:
    return json.dumps(value) if not isinstance(value, str) else value


def _cells_match(old_cell: Any, new_cell: Any, tolerance: float) -> bool:
    """Exact equality, or float cells within relative ``tolerance``.

    Every other cell (ints, strings, bools, nulls) compares exactly —
    tolerance is for measured quantities, which reports write as
    floats, not for identities such as event counts.  An old value of
    exactly 0 admits no relative error, so only ``new == 0`` matches.
    """
    if old_cell == new_cell:
        return True
    if tolerance > 0 and isinstance(old_cell, float) and isinstance(
        new_cell, float
    ):
        if old_cell == 0:
            return False
        return abs(new_cell - old_cell) / abs(old_cell) <= tolerance
    return False


def _diff_tables(
    old: Dict[str, Any], new: Dict[str, Any], tolerance: float = 0.0
) -> "tuple[List[str], int]":
    """Detail lines + exact drift count for one report body."""
    notes: List[str] = []
    drifts = 0

    old_pre, new_pre = old.get("preamble", []), new.get("preamble", [])
    if old_pre != new_pre:
        drifts += 1
        notes.append(f"preamble changed: {old_pre!r} -> {new_pre!r}")

    old_tables, new_tables = old.get("tables", []), new.get("tables", [])
    if len(old_tables) != len(new_tables):
        drifts += 1
        notes.append(f"table count {len(old_tables)} -> {len(new_tables)}")
    for t, (old_t, new_t) in enumerate(zip(old_tables, new_tables)):
        headers = old_t.get("headers", [])
        if headers != new_t.get("headers", []):
            drifts += 1
            notes.append(
                f"table {t}: headers {headers!r} -> {new_t.get('headers')!r}"
            )
            continue
        old_rows, new_rows = old_t.get("rows", []), new_t.get("rows", [])
        if len(old_rows) != len(new_rows):
            drifts += 1
            notes.append(f"table {t}: row count {len(old_rows)} -> {len(new_rows)}")
        for r, (old_row, new_row) in enumerate(zip(old_rows, new_rows)):
            for c in range(max(len(old_row), len(new_row))):
                old_cell = old_row[c] if c < len(old_row) else "<absent>"
                new_cell = new_row[c] if c < len(new_row) else "<absent>"
                if not _cells_match(old_cell, new_cell, tolerance):
                    drifts += 1
                    column = headers[c] if c < len(headers) else f"col{c}"
                    notes.append(
                        f"table {t} row {r} [{column}]: "
                        f"{_cell_text(old_cell)} -> {_cell_text(new_cell)}"
                    )
    return notes, drifts


def _meta_notes(old: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """Informational deltas (wall time etc.) — never counted as drift."""
    old_meta, new_meta = old.get("meta") or {}, new.get("meta") or {}
    notes: List[str] = []
    old_wall, new_wall = old_meta.get("wall_s"), new_meta.get("wall_s")
    if isinstance(old_wall, (int, float)) and isinstance(new_wall, (int, float)):
        if old_wall > 0:
            notes.append(
                f"wall time {old_wall:.3f}s -> {new_wall:.3f}s "
                f"({new_wall / old_wall:.2f}x)"
            )
        elif old_wall != new_wall:
            notes.append(f"wall time {old_wall}s -> {new_wall}s")
    for key in sorted(set(old_meta) | set(new_meta)):
        if key == "wall_s":
            continue
        if old_meta.get(key) != new_meta.get(key):
            notes.append(f"meta[{key}]: {old_meta.get(key)!r} -> {new_meta.get(key)!r}")
    return notes


@dataclass(slots=True)
class DiffReport:
    """Full comparison of two results directories."""

    old_dir: str
    new_dir: str
    entries: List[ReportDiff]

    def by_status(self, status: str) -> List[ReportDiff]:
        return [entry for entry in self.entries if entry.status == status]

    @property
    def clean(self) -> bool:
        """True when nothing changed or went missing."""
        return not any(entry.fails for entry in self.entries)

    def exit_code(self) -> int:
        return 0 if self.clean else 1

    def render(self) -> List[str]:
        """Human-readable report, failures first."""
        lines = [f"bench diff: {self.old_dir} -> {self.new_dir}"]
        order = {"changed": 0, "missing": 1, "added": 2, "identical": 3}
        for entry in sorted(
            self.entries, key=lambda e: (order.get(e.status, 9), e.name)
        ):
            marker = {"changed": "!", "missing": "-", "added": "+"}.get(
                entry.status, "="
            )
            suffix = f" ({entry.drift_count} drifts)" if entry.drift_count else ""
            lines.append(f"{marker} {entry.name}: {entry.status}{suffix}")
            shown = entry.notes[:MAX_DETAIL_LINES]
            lines.extend(f"    {note}" for note in shown)
            if len(entry.notes) > len(shown):
                lines.append(f"    ... and {len(entry.notes) - len(shown)} more")
        changed, missing = self.by_status("changed"), self.by_status("missing")
        added = self.by_status("added")
        lines.append(
            f"{len(self.entries)} reports: "
            f"{len(self.by_status('identical'))} identical, "
            f"{len(changed)} changed, {len(missing)} missing, {len(added)} added"
        )
        return lines


def diff_results(
    old_dir: "str | Path", new_dir: "str | Path", tolerance: float = 0.0
) -> DiffReport:
    """Compare two ``benchmarks/results`` directories report-by-report.

    ``tolerance`` relaxes the comparison for *float* table cells: a
    new value within ``tolerance * |old|`` (relative) of the old one is
    not drift.  The default ``0.0`` keeps the historical exact-identity
    semantics; perf-smoke CI passes e.g. ``0.25`` so measured ratios
    may wobble while identity cells (names, integer counts, booleans)
    stay byte-exact.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    old_docs = load_results(old_dir)
    new_docs = load_results(new_dir)
    entries: List[ReportDiff] = []
    for name in sorted(set(old_docs) | set(new_docs)):
        if name not in new_docs:
            entries.append(
                ReportDiff(name=name, status="missing", notes=["absent in new run"])
            )
            continue
        if name not in old_docs:
            entries.append(
                ReportDiff(name=name, status="added", notes=["new report"])
            )
            continue
        notes, drifts = _diff_tables(old_docs[name], new_docs[name], tolerance)
        notes.extend(_meta_notes(old_docs[name], new_docs[name]))
        entries.append(
            ReportDiff(
                name=name,
                status="changed" if drifts else "identical",
                notes=notes,
                drift_count=drifts,
            )
        )
    return DiffReport(old_dir=str(old_dir), new_dir=str(new_dir), entries=entries)
