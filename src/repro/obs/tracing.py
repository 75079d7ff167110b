"""Flight recorder: hierarchical spans across the fork boundary.

The exec engine (pool, retries, timeouts, cache, journal) and the
simulator itself know *what* happened; this module records *where the
wall clock went* while it happened.  A :class:`Tracer` collects
**spans** — named intervals with a monotonic start, a duration,
structured attributes, and a parent id — and exports them as Chrome
trace-event JSON, loadable in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.  Span taxonomy and the on-disk format are
documented in ``docs/tracing.md``.

Design constraints, in order:

1. **Zero cost when off.**  Tracing is opt-in (``--trace`` on the
   CLI); every producer guards with ``tracer = current_tracer()`` /
   ``if tracer is not None`` — one module-global load per call site.
   The existing ``exec_overhead`` perf probe polices the serial task
   path staying under its 5% budget.
2. **Fork-safe.**  Grid cells execute in forked workers.  The active
   tracer is inherited through fork (a module global), spans buffered
   in a child are appended to a per-pid **spool file** (one JSONL line
   per span, ``O_APPEND``-safe), and the parent merges every spool at
   export time.  A child detects the fork by pid change and drops any
   buffer inherited from the parent, so nothing is double-counted.
   Span ids are pid-qualified, so ids never collide across processes.
3. **Deterministic content.**  Span names, attributes, parent/child
   structure and counts are functions of the execution alone — two
   runs of the same scenario produce the same span tree; only
   timestamps (and pids) differ.  Attributes never embed clocks.

Timestamps come from ``time.perf_counter_ns`` (CLOCK_MONOTONIC on
Linux), which is comparable across parent and forked children, so
parent-side attempt spans correctly *contain* the worker-side cell
spans they supervised.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import tempfile
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Union

__all__ = [
    "Span",
    "Tracer",
    "activate",
    "current_tracer",
    "deactivate",
    "load_trace",
    "render_trace_summary",
    "summarize_trace",
]

#: Trace-format version, recorded in exported metadata.
TRACE_VERSION = 1


def _now_us() -> int:
    """Microseconds on the shared monotonic clock."""
    return time.perf_counter_ns() // 1000


class Span:
    """One recorded interval; mutable while open, frozen semantics after.

    ``args`` is the structured-attribute dict (Chrome's name for span
    attributes); :meth:`set` merges more attributes while the span is
    open — the idiom for outcomes that are only known at the end
    (``span.set(outcome="timeout")``).
    """

    __slots__ = ("name", "cat", "ts", "dur", "pid", "tid", "id", "parent", "args")

    def __init__(
        self,
        name: str,
        cat: str,
        ts: int,
        dur: int,
        pid: int,
        tid: int,
        span_id: str,
        parent: Optional[str],
        args: Dict[str, Any],
    ) -> None:
        self.name = name
        self.cat = cat
        self.ts = ts
        self.dur = dur
        self.pid = pid
        self.tid = tid
        self.id = span_id
        self.parent = parent
        self.args = args

    def set(self, **attrs: Any) -> "Span":
        """Merge attributes into the span (outcomes, counts)."""
        self.args.update(attrs)
        return self

    def to_record(self) -> Dict[str, Any]:
        """The span as one JSON-native dict (spool line / export unit)."""
        return {
            "name": self.name,
            "cat": self.cat,
            "ts": self.ts,
            "dur": self.dur,
            "pid": self.pid,
            "tid": self.tid,
            "id": self.id,
            "parent": self.parent,
            "args": self.args,
        }


class Tracer:
    """Collects spans in-process and merges forked children's spools.

    Usage (the CLI does exactly this)::

        tracer = Tracer()
        activate(tracer)
        try:
            ...  # run a grid; pool/cache/cell code records spans
        finally:
            deactivate()
        tracer.export_chrome("out.json")

    ``spool_dir`` is where forked children append their spans; by
    default a private temp directory, removed by :meth:`close` /
    :meth:`export_chrome`.  The tracer is single-threaded by design —
    the simulator and the pool's parent loop are too.
    """

    def __init__(self, spool_dir: Union[str, pathlib.Path, None] = None) -> None:
        if spool_dir is None:
            self._spool = pathlib.Path(tempfile.mkdtemp(prefix="repro-trace-"))
            self._owns_spool = True
        else:
            self._spool = pathlib.Path(spool_dir)
            self._spool.mkdir(parents=True, exist_ok=True)
            self._owns_spool = False
        self._root_pid = os.getpid()
        self._pid = os.getpid()
        self._counter = 0
        self._buffer: List[Span] = []
        self._stack: List[Span] = []
        self._pushed_tid: List[bool] = []
        self._tid_stack: List[int] = [0]
        #: Worker pids announced by the pool, for process-name metadata.
        self.worker_pids: Dict[int, str] = {}

    # -- fork handling --------------------------------------------------

    def _check_fork(self) -> None:
        """After a fork, drop state inherited from the parent's buffer."""
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._counter = 0
            self._buffer = []
            # The open-span stack is kept: spans opened in the parent
            # are this process's ancestors — new spans parent to them,
            # but only the parent process will ever *close* them.
            self._stack = list(self._stack)
            self._pushed_tid = list(self._pushed_tid)

    @property
    def spool_dir(self) -> pathlib.Path:
        return self._spool

    def _next_id(self) -> str:
        self._counter += 1
        return f"{self._pid}:{self._counter}"

    # -- recording ------------------------------------------------------

    @property
    def current_parent(self) -> Optional[str]:
        return self._stack[-1].id if self._stack else None

    def begin(
        self,
        name: str,
        cat: str = "repro",
        tid: Optional[int] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span; pair with :meth:`end` (or use :meth:`span`).

        The explicit begin/end form exists for call sites whose control
        flow does not fit a ``with`` block — the pool's retry loop ends
        the same attempt span from three different exits.
        """
        self._check_fork()
        pushed_tid = tid is not None
        if pushed_tid:
            self._tid_stack.append(tid)
        span = Span(
            name=name,
            cat=cat,
            ts=_now_us(),
            dur=0,
            pid=self._pid,
            tid=self._tid_stack[-1],
            span_id=self._next_id(),
            parent=self.current_parent,
            args=dict(attrs),
        )
        self._stack.append(span)
        self._pushed_tid.append(pushed_tid)
        return span

    def end(self, span: Span, **attrs: Any) -> Span:
        """Close the innermost open span (must be ``span``) and buffer it."""
        if attrs:
            span.args.update(attrs)
        span.dur = _now_us() - span.ts
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
            if self._pushed_tid.pop():
                self._tid_stack.pop()
        self._buffer.append(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        cat: str = "repro",
        tid: Optional[int] = None,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Record one interval around a ``with`` body.

        ``tid`` sets the Chrome thread lane for this span *and* every
        span opened inside it (the pool uses the task index, so each
        grid cell gets its own lane).  Attributes given here — plus any
        added via ``span.set`` inside the body — are exported as
        ``args``.
        """
        span = self.begin(name, cat, tid=tid, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def add_span(
        self,
        name: str,
        cat: str = "repro",
        *,
        ts: int,
        dur: int,
        pid: Optional[int] = None,
        tid: Optional[int] = None,
        parent: Optional[str] = None,
        **attrs: Any,
    ) -> Span:
        """Record a span with explicit timing (parent-side bookkeeping).

        The pool uses this for attempt/worker spans whose start it
        observed earlier (and whose process may be dead by now);
        ``pid``/``tid`` default to this process and the current lane.
        """
        self._check_fork()
        span = Span(
            name=name,
            cat=cat,
            ts=ts,
            dur=max(0, dur),
            pid=self._pid if pid is None else pid,
            tid=self._tid_stack[-1] if tid is None else tid,
            span_id=self._next_id(),
            parent=parent if parent is not None else self.current_parent,
            args=dict(attrs),
        )
        self._buffer.append(span)
        return span

    def now_us(self) -> int:
        """The tracer's clock, for explicit :meth:`add_span` timing."""
        return _now_us()

    # -- spool / merge --------------------------------------------------

    def flush(self) -> None:
        """Append buffered spans to this process's spool file.

        Forked workers call this after each task; the parent does not
        need to (its buffer is merged directly at export), but flushing
        in the parent is harmless — pid-keyed spool files make the
        merge idempotent per process.
        """
        self._check_fork()
        if not self._buffer:
            return
        path = self._spool / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as stream:
            for span in self._buffer:
                stream.write(
                    json.dumps(span.to_record(), separators=(",", ":")) + "\n"
                )
        self._buffer = []

    def _spool_records(self) -> List[Dict[str, Any]]:
        records: List[Dict[str, Any]] = []
        if not self._spool.exists():
            return records
        for path in sorted(self._spool.glob("spans-*.jsonl")):
            try:
                text = path.read_text(encoding="utf-8")
            except OSError:
                continue
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    continue  # torn tail of a killed worker
        return records

    def spans(self) -> List[Dict[str, Any]]:
        """Every recorded span (buffer + spools), as plain dicts.

        Sorted by start time then id, so the order is stable for a
        given set of timestamps.
        """
        records = [span.to_record() for span in self._buffer]
        records.extend(self._spool_records())
        records.sort(key=lambda r: (r["ts"], r["pid"], r["id"]))
        return records

    # -- export ---------------------------------------------------------

    def export_chrome(
        self, path: Union[str, pathlib.Path], *, cleanup: bool = True
    ) -> pathlib.Path:
        """Write Chrome trace-event JSON; returns the path written.

        The document is ``{"traceEvents": [...]}`` with one complete
        (``"ph": "X"``) event per span plus process/thread metadata
        events, timestamps re-based so the trace starts at zero.  Load
        it in Perfetto or ``chrome://tracing`` as-is.
        """
        records = self.spans()
        base = min((r["ts"] for r in records), default=0)
        events: List[Dict[str, Any]] = []
        seen_pids: Dict[int, str] = {}
        for record in records:
            pid = record["pid"]
            if pid not in seen_pids:
                if pid == self._root_pid:
                    seen_pids[pid] = "repro"
                else:
                    seen_pids[pid] = self.worker_pids.get(pid, f"worker-{pid}")
            events.append(
                {
                    "ph": "X",
                    "name": record["name"],
                    "cat": record["cat"],
                    "ts": record["ts"] - base,
                    "dur": record["dur"],
                    "pid": pid,
                    "tid": record["tid"],
                    "args": dict(
                        record["args"],
                        span=record["id"],
                        parent=record["parent"],
                    ),
                }
            )
        metadata = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
            for pid, label in sorted(seen_pids.items())
        ]
        document = {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro", "traceVersion": TRACE_VERSION},
        }
        target = pathlib.Path(path)
        if target.parent != pathlib.Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
        if cleanup:
            self.close()
        return target

    def close(self) -> None:
        """Remove the private spool directory (owned tempdirs only)."""
        if self._owns_spool and self._spool.exists():
            shutil.rmtree(self._spool, ignore_errors=True)


#: The process-wide active tracer; forked children inherit it.
_ACTIVE: Optional[Tracer] = None


def activate(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-wide active tracer."""
    global _ACTIVE
    _ACTIVE = tracer
    return tracer


def deactivate() -> None:
    """Clear the active tracer (does not export or close it)."""
    global _ACTIVE
    _ACTIVE = None


def current_tracer() -> Optional[Tracer]:
    """The active tracer, or None when tracing is off (the hot check)."""
    return _ACTIVE


# -- reading exported traces -------------------------------------------


def load_trace(path: Union[str, pathlib.Path]) -> List[Dict[str, Any]]:
    """Read an exported Chrome trace back; returns the ``X`` events.

    Raises ``ValueError`` when the file is not a trace produced here
    (or by anything else emitting ``traceEvents``).
    """
    raw = pathlib.Path(path).read_text(encoding="utf-8")
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a JSON trace file: {exc}") from None
    if isinstance(document, list):
        events = document
    elif isinstance(document, dict) and isinstance(
        document.get("traceEvents"), list
    ):
        events = document["traceEvents"]
    else:
        raise ValueError("no traceEvents array found")
    return [e for e in events if isinstance(e, dict) and e.get("ph") == "X"]


def summarize_trace(path: Union[str, pathlib.Path]) -> Dict[str, Any]:
    """Aggregate a trace: per-name totals/self-time + failure timeline.

    Self-time subtracts each span's direct children (linked by the
    ``args.parent`` ids the exporter embeds), so a ``pool`` span is not
    charged for the attempts it supervised.
    """
    events = load_trace(path)
    child_dur: Dict[str, int] = {}
    for event in events:
        parent = (event.get("args") or {}).get("parent")
        if parent:
            child_dur[parent] = child_dur.get(parent, 0) + int(event.get("dur", 0))
    names: Dict[str, Dict[str, Any]] = {}
    attempts: List[Dict[str, Any]] = []
    pids = set()
    for event in events:
        args = event.get("args") or {}
        dur = int(event.get("dur", 0))
        span_id = args.get("span")
        self_us = max(0, dur - child_dur.get(span_id, 0)) if span_id else dur
        entry = names.setdefault(
            event.get("name", "?"), {"count": 0, "total_us": 0, "self_us": 0}
        )
        entry["count"] += 1
        entry["total_us"] += dur
        entry["self_us"] += self_us
        pids.add(event.get("pid"))
        if event.get("name") == "attempt":
            attempts.append(
                {
                    "ts": int(event.get("ts", 0)),
                    "dur": dur,
                    "task": args.get("task"),
                    "attempt": args.get("attempt"),
                    "outcome": args.get("outcome"),
                    "retried": bool(args.get("retried")),
                }
            )
    attempts.sort(key=lambda a: a["ts"])
    return {
        "path": str(path),
        "events": len(events),
        "processes": len(pids),
        "names": names,
        "attempts": attempts,
        "retries": sum(1 for a in attempts if a["retried"]),
        "timeouts": sum(1 for a in attempts if a["outcome"] == "timeout"),
        "crashes": sum(1 for a in attempts if a["outcome"] == "crash"),
        "errors": sum(1 for a in attempts if a["outcome"] == "error"),
    }


def render_trace_summary(summary: Dict[str, Any], top: int = 12) -> List[str]:
    """Human-readable lines for one :func:`summarize_trace` result."""
    lines = [
        f"trace: {summary['path']}",
        f"spans: {summary['events']} across {summary['processes']} process(es)",
    ]
    ranked = sorted(
        summary["names"].items(), key=lambda kv: kv[1]["self_us"], reverse=True
    )
    if ranked:
        lines.append(f"top spans by self-time (of {len(ranked)} kinds):")
        width = max(len(name) for name, _ in ranked[:top])
        for name, entry in ranked[:top]:
            lines.append(
                f"  {name:<{width}}  n={entry['count']:<6} "
                f"self={entry['self_us'] / 1e6:9.4f}s "
                f"total={entry['total_us'] / 1e6:9.4f}s"
            )
    disturbed = [a for a in summary["attempts"] if a["outcome"] != "ok" or a["retried"]]
    if disturbed:
        lines.append(
            f"retry/timeout timeline ({summary['retries']} retried, "
            f"{summary['timeouts']} timeouts, {summary['crashes']} crashes, "
            f"{summary['errors']} errors):"
        )
        base = summary["attempts"][0]["ts"] if summary["attempts"] else 0
        for a in disturbed:
            lines.append(
                f"  +{(a['ts'] - base) / 1e6:8.3f}s task={a['task']} "
                f"attempt={a['attempt']} outcome={a['outcome']}"
                + (" -> retried" if a["retried"] else "")
            )
    elif summary["attempts"]:
        lines.append(
            f"attempts: {len(summary['attempts'])}, all first-try ok"
        )
    return lines
