"""Persistent run-history index: every completed run, queryable forever.

The flight recorder's other half (see :mod:`repro.obs.tracing` for the
in-flight spans): an SQLite database under ``.repro-cache/history.db``
that records one row per completed request.  Rows are written in one
place, :func:`repro.service.execute` (kinds ``run``/``grid``/``sst``);
the daemon adds kind-``serve`` rows only for what ``execute`` never
sees (artifact-cache replays, runs that fail mid-stream), and the bench
harness records kind-``bench`` rows for the tables it emits.  Each row
carries *what* ran (kind, name, spec hash), *how* it went (cell counts,
cache hits, wall time, the :class:`~repro.exec.RunHealth` ledger,
ok/failed status), *which code* ran it (git SHA), and *where the
evidence lives* (artifact and trace paths).  The ``repro history
list/show/query`` subcommands read it back; the schema is documented in
``docs/tracing.md``.

Design constraints:

* **Recording never breaks a run.**  Producers record through
  :func:`record_completion`, which swallows every failure (read-only
  filesystem, locked database, missing directory) and returns ``None``
  instead.  History is forensics, not a dependency.
* **Opt-out, not opt-in.**  Recording is automatic (the index is only
  useful if it is complete) but honors ``REPRO_NO_HISTORY=1``; the
  database path follows the result cache it sits next to and can be
  pointed elsewhere with ``REPRO_HISTORY_DB``.
* **Append-only.**  A row is inserted once, at completion, with every
  fact it will ever carry; nothing is updated or deleted afterwards.

SQLite keeps the index robust against concurrent writers (two grids
sharing one cache directory) via its own locking; a 5-second busy
timeout covers the burst when a parallel bench suite lands many rows
at once — in the same spirit as dnf's history database.

Rows are written through one connection per process and database path,
opened (and its schema made) on first use and shared by every thread
under one lock; each row still commits by itself.  The connection is
opened again in a forked child, when the file was removed or replaced
(``repro cache clear`` removes it with the cache), and after a write
through it raised.  At most four are held; the least recently used is
closed.  Readers open a connection per call.
"""

from __future__ import annotations

import json
import os
import pathlib
import sqlite3
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "HistoryEntry",
    "RunHistory",
    "default_db_path",
    "history_enabled",
    "record_completion",
    "served_from",
]

#: History schema version, stored in SQLite's ``user_version`` pragma.
HISTORY_SCHEMA_VERSION = 1

#: Default database location — next to the result cache it indexes.
DEFAULT_DB = ".repro-cache/history.db"

_CREATE = """
CREATE TABLE IF NOT EXISTS runs (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    created_at    TEXT    NOT NULL,
    kind          TEXT    NOT NULL,
    name          TEXT    NOT NULL,
    status        TEXT    NOT NULL DEFAULT 'ok',
    cells         INTEGER NOT NULL DEFAULT 0,
    cache_hits    INTEGER NOT NULL DEFAULT 0,
    cache_misses  INTEGER NOT NULL DEFAULT 0,
    journal_hits  INTEGER NOT NULL DEFAULT 0,
    wall_s        REAL,
    jobs          INTEGER,
    mode          TEXT,
    spec_hash     TEXT,
    cache_key     TEXT,
    git_sha       TEXT,
    health        TEXT,
    artifact_path TEXT,
    trace_path    TEXT,
    extra         TEXT
);
CREATE INDEX IF NOT EXISTS runs_kind ON runs (kind);
CREATE INDEX IF NOT EXISTS runs_created ON runs (created_at);
"""

_COLUMNS = (
    "created_at", "kind", "name", "status", "cells", "cache_hits",
    "cache_misses", "journal_hits", "wall_s", "jobs", "mode",
    "spec_hash", "cache_key", "git_sha", "health", "artifact_path",
    "trace_path", "extra",
)

_INSERT = (
    f"INSERT INTO runs ({', '.join(_COLUMNS)}) "
    f"VALUES ({', '.join('?' for _ in _COLUMNS)})"
)

#: Most writer connections a process holds at once.
_MAX_WRITERS = 4


@dataclass(slots=True)
class _Writer:
    """A held writer connection and what it was opened against."""

    connection: sqlite3.Connection
    pid: int
    file_id: Tuple[int, int]


#: Writer connections by database path, least recently used first.
_WRITERS: "OrderedDict[str, _Writer]" = OrderedDict()
_WRITERS_LOCK = threading.Lock()


def _reset_lock_in_child() -> None:
    # A fork taken while another thread held the lock would leave it
    # held in the child for good.  The connections need no reset: their
    # pid tells the child to open its own.
    global _WRITERS_LOCK
    _WRITERS_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_lock_in_child)


def _file_id(path: str) -> Optional[Tuple[int, int]]:
    try:
        stat = os.stat(path)
    except FileNotFoundError:
        return None
    return stat.st_dev, stat.st_ino


def _open_writer(path: pathlib.Path) -> _Writer:
    """A connection to ``path`` with the schema made."""
    path.parent.mkdir(parents=True, exist_ok=True)
    connection = sqlite3.connect(str(path), timeout=5.0, check_same_thread=False)
    try:
        connection.execute("PRAGMA busy_timeout = 5000")
        connection.executescript(_CREATE)
        connection.execute(f"PRAGMA user_version = {HISTORY_SCHEMA_VERSION}")
        stat = os.stat(path)
    except BaseException:
        connection.close()
        raise
    return _Writer(connection, os.getpid(), (stat.st_dev, stat.st_ino))


def _writer_for(path: pathlib.Path) -> _Writer:
    """The held connection to ``path``, opened again when stale.

    Called with :data:`_WRITERS_LOCK` held.
    """
    key = str(path)
    writer = _WRITERS.pop(key, None)
    if writer is not None and (
        writer.pid != os.getpid() or writer.file_id != _file_id(key)
    ):
        writer.connection.close()
        writer = None
    if writer is None:
        writer = _open_writer(path)
        while len(_WRITERS) >= _MAX_WRITERS:
            _WRITERS.popitem(last=False)[1].connection.close()
    _WRITERS[key] = writer
    return writer


def default_db_path() -> str:
    """Where history rows land unless a caller points elsewhere."""
    return os.environ.get("REPRO_HISTORY_DB", "").strip() or DEFAULT_DB


def history_enabled() -> bool:
    """Automatic recording is on unless ``REPRO_NO_HISTORY`` is set."""
    return not os.environ.get("REPRO_NO_HISTORY", "").strip()


def served_from(cells: int, cache_hits: int, journal_hits: int) -> str:
    """How results were obtained: ``cache``/``journal``/``mixed``/``exec``.

    ``cache`` means every cell came out of the content-addressed result
    cache (nothing executed); ``mixed`` means some did.

    >>> served_from(2, 2, 0), served_from(2, 1, 0), served_from(0, 0, 0)
    ('cache', 'mixed', 'exec')
    """
    if cells and cache_hits >= cells:
        return "cache"
    if cells and journal_hits >= cells:
        return "journal"
    if cache_hits or journal_hits:
        return "mixed"
    return "exec"


@dataclass(slots=True)
class HistoryEntry:
    """One recorded execution, as read back from the index."""

    id: int
    created_at: str
    kind: str
    name: str
    status: str = "ok"
    cells: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    journal_hits: int = 0
    wall_s: Optional[float] = None
    jobs: Optional[int] = None
    mode: Optional[str] = None
    spec_hash: Optional[str] = None
    cache_key: Optional[str] = None
    git_sha: Optional[str] = None
    health: Dict[str, Any] = field(default_factory=dict)
    artifact_path: Optional[str] = None
    trace_path: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def served_from(self) -> str:
        """How the results were obtained (see :func:`served_from`)."""
        return served_from(self.cells, self.cache_hits, self.journal_hits)

    def disturbed(self) -> bool:
        """True when the health ledger recorded any recovery activity."""
        return any(bool(v) for v in self.health.values())


def _entry_from_row(row: sqlite3.Row) -> HistoryEntry:
    def _json(text: Optional[str]) -> Dict[str, Any]:
        if not text:
            return {}
        try:
            value = json.loads(text)
        except ValueError:
            return {}
        return value if isinstance(value, dict) else {}

    return HistoryEntry(
        id=row["id"],
        created_at=row["created_at"],
        kind=row["kind"],
        name=row["name"],
        status=row["status"],
        cells=row["cells"],
        cache_hits=row["cache_hits"],
        cache_misses=row["cache_misses"],
        journal_hits=row["journal_hits"],
        wall_s=row["wall_s"],
        jobs=row["jobs"],
        mode=row["mode"],
        spec_hash=row["spec_hash"],
        cache_key=row["cache_key"],
        git_sha=row["git_sha"],
        health=_json(row["health"]),
        artifact_path=row["artifact_path"],
        trace_path=row["trace_path"],
        extra=_json(row["extra"]),
    )


class RunHistory:
    """The on-disk index: record at completion, query any time.

    >>> import tempfile, os
    >>> history = RunHistory(os.path.join(tempfile.mkdtemp(), "h.db"))
    >>> run_id = history.record("grid", "demo", cells=4, cache_hits=4)
    >>> entry = history.get(run_id)
    >>> (entry.kind, entry.name, entry.served_from)
    ('grid', 'demo', 'cache')
    """

    def __init__(self, path: Union[str, pathlib.Path, None] = None) -> None:
        self.path = pathlib.Path(path if path is not None else default_db_path())

    @contextmanager
    def _connect(self) -> Iterator[sqlite3.Connection]:
        """A reader's connection, closed when the block ends."""
        connection = sqlite3.connect(str(self.path), timeout=5.0)
        try:
            connection.row_factory = sqlite3.Row
            connection.execute("PRAGMA busy_timeout = 5000")
            yield connection
        finally:
            connection.close()

    # -- writing --------------------------------------------------------

    def record(
        self,
        kind: str,
        name: str,
        *,
        status: str = "ok",
        cells: int = 0,
        cache_hits: int = 0,
        cache_misses: int = 0,
        journal_hits: int = 0,
        wall_s: Optional[float] = None,
        jobs: Optional[int] = None,
        mode: Optional[str] = None,
        spec_hash: Optional[str] = None,
        cache_key: Optional[str] = None,
        git_sha: Optional[str] = None,
        health: Optional[Dict[str, Any]] = None,
        artifact_path: Optional[str] = None,
        trace_path: Optional[str] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Insert one completion row; returns its id."""
        values = (
            time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            kind,
            name,
            status,
            int(cells),
            int(cache_hits),
            int(cache_misses),
            int(journal_hits),
            wall_s if wall_s is None else round(float(wall_s), 6),
            jobs,
            mode,
            spec_hash,
            cache_key,
            git_sha,
            json.dumps(health, sort_keys=True) if health else None,
            str(artifact_path) if artifact_path else None,
            str(trace_path) if trace_path else None,
            json.dumps(extra, sort_keys=True, default=str) if extra else None,
        )
        with _WRITERS_LOCK:
            writer = _writer_for(self.path)
            try:
                cursor = writer.connection.execute(_INSERT, values)
                writer.connection.commit()
            except BaseException:
                del _WRITERS[str(self.path)]
                writer.connection.close()
                raise
            return int(cursor.lastrowid)

    # -- reading --------------------------------------------------------

    def get(self, run_id: int) -> Optional[HistoryEntry]:
        """One entry by id, or None."""
        if not self.path.exists():
            return None
        with self._connect() as connection:
            row = connection.execute(
                "SELECT * FROM runs WHERE id = ?", (run_id,)
            ).fetchone()
        return _entry_from_row(row) if row is not None else None

    def query(
        self,
        *,
        kind: Optional[str] = None,
        name_like: Optional[str] = None,
        status: Optional[str] = None,
        since: Optional[str] = None,
        limit: int = 50,
        engine: Optional[str] = None,
        timebase: Optional[str] = None,
        served: Optional[str] = None,
    ) -> List[HistoryEntry]:
        """Filtered entries, newest first.

        ``name_like`` is a case-insensitive substring match; ``since``
        compares against the ISO ``created_at`` stamp lexically (so any
        prefix — ``2026-08``, a full timestamp — works).

        ``engine``/``timebase`` match the execution provenance recorded
        in ``extra`` (a grid matches ``engine`` when *any* of its cells
        used it); ``served`` matches :attr:`HistoryEntry.served_from`
        (``cache``/``journal``/``mixed``/``exec``).  These three filter
        in Python after the SQL pass, since they live in the JSON
        ``extra`` column.

        Recorded engines carry the resolved program family —
        ``batch(adaptive)`` / ``batch(nonadaptive)`` — so, like the
        timebase filter, ``engine`` matches either the full recorded
        value or its family name before the parenthesis
        (``engine="batch"`` matches both variants).
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        if not self.path.exists():
            return []
        clauses: List[str] = []
        params: List[Any] = []
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if name_like is not None:
            clauses.append("name LIKE ?")
            params.append(f"%{name_like}%")
        if status is not None:
            clauses.append("status = ?")
            params.append(status)
        if since is not None:
            clauses.append("created_at >= ?")
            params.append(since)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        post_filtered = engine or timebase or served
        # Post-filters can reject arbitrarily many SQL rows, so the SQL
        # LIMIT must not apply until after they run (-1 = unlimited).
        sql_limit = -1 if post_filtered else limit
        with self._connect() as connection:
            rows = connection.execute(
                f"SELECT * FROM runs{where} ORDER BY id DESC LIMIT ?",
                (*params, sql_limit),
            ).fetchall()
        entries = [_entry_from_row(row) for row in rows]
        if engine is not None:
            def engine_matches(value: Any) -> bool:
                recorded = str(value or "")
                return recorded == engine or recorded.split("(")[0] == engine

            entries = [
                e for e in entries
                if engine_matches(e.extra.get("engine"))
                or any(
                    engine_matches(v) for v in (e.extra.get("engines") or ())
                )
            ]
        if timebase is not None:
            # Recorded values carry the lattice pitch ("lattice(1/2)");
            # filter on the family name before the parenthesis.
            entries = [
                e for e in entries
                if str(e.extra.get("timebase") or "").split("(")[0] == timebase
            ]
        if served is not None:
            entries = [e for e in entries if e.served_from == served]
        return entries[:limit]

    def list(self, limit: int = 20) -> List[HistoryEntry]:
        """The most recent entries, newest first."""
        return self.query(limit=limit)

    def count(self) -> int:
        """Total recorded rows (0 for a missing database)."""
        if not self.path.exists():
            return 0
        with self._connect() as connection:
            row = connection.execute("SELECT COUNT(*) AS n FROM runs").fetchone()
        return int(row["n"])


def record_completion(
    kind: str,
    name: str,
    *,
    db_path: Union[str, pathlib.Path, None] = None,
    **fields: Any,
) -> Optional[int]:
    """Best-effort automatic recording — the producers' entry point.

    Returns the new row id, or ``None`` when recording is disabled
    (``REPRO_NO_HISTORY``) or failed for any environmental reason.  A
    run must never die because its history could not be written.
    """
    if not history_enabled():
        return None
    try:
        return RunHistory(db_path).record(kind, name, **fields)
    except Exception:
        return None


def render_entries(entries: List[HistoryEntry]) -> List[str]:
    """The ``repro history list/query`` table, one line per entry."""
    if not entries:
        return ["(no recorded runs)"]
    headers = ("id", "when", "kind", "name", "cells", "served",
               "wall", "status", "health")
    rows = []
    for entry in entries:
        health = "-"
        if entry.disturbed():
            parts = [
                f"{key}={value}"
                for key, value in entry.health.items()
                if value
            ]
            health = ",".join(parts)
        rows.append(
            (
                str(entry.id),
                entry.created_at[:19],
                entry.kind,
                entry.name if len(entry.name) <= 34 else entry.name[:31] + "...",
                str(entry.cells) if entry.cells else "-",
                entry.served_from,
                f"{entry.wall_s:.2f}s" if entry.wall_s is not None else "-",
                entry.status,
                health,
            )
        )
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows
    )
    return lines


def render_entry(entry: HistoryEntry) -> List[str]:
    """The ``repro history show`` detail block."""
    lines = [
        f"id:           {entry.id}",
        f"created:      {entry.created_at}",
        f"kind:         {entry.kind}",
        f"name:         {entry.name}",
        f"status:       {entry.status}",
        f"served from:  {entry.served_from}",
    ]
    if entry.cells:
        lines.append(
            f"cells:        {entry.cells} "
            f"(cache {entry.cache_hits} hit / {entry.cache_misses} miss, "
            f"journal {entry.journal_hits})"
        )
    if entry.wall_s is not None:
        lines.append(f"wall:         {entry.wall_s:.3f}s")
    if entry.jobs is not None:
        lines.append(f"jobs:         {entry.jobs} ({entry.mode or '?'})")
    if entry.spec_hash:
        lines.append(f"spec hash:    {entry.spec_hash}")
    if entry.cache_key:
        lines.append(f"cache key:    {entry.cache_key}")
    if entry.git_sha:
        lines.append(f"git:          {entry.git_sha}")
    if entry.health:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(entry.health.items()))
        lines.append(f"health:       {pairs}")
    if entry.artifact_path:
        lines.append(f"artifact:     {entry.artifact_path}")
    if entry.trace_path:
        lines.append(f"trace:        {entry.trace_path}")
    if entry.extra:
        pairs = " ".join(f"{k}={v}" for k, v in sorted(entry.extra.items()))
        lines.append(f"extra:        {pairs}")
    return lines
