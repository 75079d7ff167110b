"""Run artifacts: manifests, streaming JSONL export, and the reader.

One simulation run becomes one JSONL file:

* line 1 — the **manifest**: what was run (config, n, R, rho,
  adversary, seed), by which code (package version, git SHA), when;
* then a stream of **event records** in simulation order (``slot``,
  ``arrival``, ``delivery``, ``collision``), every exact rational
  serialized as a fraction string (``"3/2"``) so nothing is rounded;
* optionally interleaved **metrics snapshots**;
* last line — the **summary**: wall time, event count, and (when a
  :class:`~repro.obs.metrics.SimulationMetrics` was attached) the final
  registry snapshot.

The format is append-only and line-delimited on purpose: a crashed or
interrupted run still leaves a readable prefix, and a million-slot run
streams to disk instead of accumulating in memory.  Read artifacts back
with :func:`load_run`; summarize them with :func:`summarize_run` (the
``repro stats`` subcommand).

The writer keeps the run's internal ticks until the text: event
records are formatted from fixed templates (byte-equal to
``json.dumps(record, separators=(",", ":"))``), a tick count becomes
its fraction text with one ``gcd``, and the stream receives blocks of
up to :data:`BLOCK_RECORDS` records.  The manifest goes out, flushed,
on its own before the run starts.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import IO, Any, Callable, Dict, List, Optional, Union

from .metrics import SimulationMetrics
from .probes import (
    ArrivalEvent,
    CollisionEvent,
    DeliveryEvent,
    ProbeBus,
    SlotEndEvent,
)

#: Artifact schema version; bump when record fields change shape.
SCHEMA_VERSION = 1

#: Most records :class:`JsonlRunWriter` holds before it writes them to
#: its stream in one call.
BLOCK_RECORDS = 256


def _frac(value: Any) -> str:
    """Serialize an exact time/duration losslessly."""
    return str(value)


def parse_time(text: Union[str, int]) -> Fraction:
    """Parse a time serialized by :func:`_frac` back to an exact rational."""
    return Fraction(text)


#: Per-process memo for :func:`git_sha` — the answer cannot change
#: mid-run, and a 1000-cell grid creates a manifest per cell; without
#: the memo that is a thousand ``git rev-parse`` subprocess forks.
_GIT_SHA_CACHE: Dict[Optional[str], Optional[str]] = {}


def git_sha(start: Optional[pathlib.Path] = None) -> Optional[str]:
    """Current git commit of the source tree, best-effort (None off-repo).

    Memoized per process, keyed by the lookup directory (``None`` for
    the default, so a repeat call resolves no path); forked workers
    inherit the parent's memo, so a grid pays at most one subprocess
    spawn total.
    """
    memo_key = None if start is None else str(start)
    if memo_key in _GIT_SHA_CACHE:
        return _GIT_SHA_CACHE[memo_key]
    cwd = start if start is not None else pathlib.Path(__file__).resolve().parent
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        _GIT_SHA_CACHE[memo_key] = None
        return None
    sha = (proc.stdout.strip() or None) if proc.returncode == 0 else None
    _GIT_SHA_CACHE[memo_key] = sha
    return sha


def _dumps(record: Dict[str, Any]) -> str:
    return json.dumps(record, separators=(",", ":")) + "\n"


def _tick_text(denominator: int) -> Callable[[int], str]:
    """``ticks -> str(Fraction(ticks, denominator))``, without the Fraction."""

    def text(ticks: int) -> str:
        common = gcd(ticks, denominator)
        if common == denominator:
            return str(ticks // common)
        return f"{ticks // common}/{denominator // common}"

    return text


@dataclass(slots=True)
class RunManifest:
    """Everything needed to attribute and re-run one simulation.

    ``spec`` carries the canonical JSON of the
    :class:`~repro.scenarios.ScenarioSpec` that produced the run, when
    there was one — which makes the artifact *replayable*: ``repro
    scenario run <artifact.jsonl>`` rebuilds and re-runs it bit-for-bit.
    """

    config: Dict[str, Any]
    created_at: str = ""
    repro_version: Optional[str] = None
    git_commit: Optional[str] = None
    schema_version: int = SCHEMA_VERSION
    spec: Optional[Dict[str, Any]] = None
    health: Optional[Dict[str, Any]] = None

    @classmethod
    def create(
        cls,
        *,
        spec: Optional[Dict[str, Any]] = None,
        health: Optional[Dict[str, Any]] = None,
        **config: Any,
    ) -> "RunManifest":
        """Build a manifest from run parameters, stamping code identity.

        Exact rationals in the config are serialized as fraction
        strings; everything else must already be JSON-representable.
        ``spec`` takes the scenario's canonical dict
        (:meth:`~repro.scenarios.ScenarioSpec.canonical`); ``health``
        takes an execution-resilience ledger
        (:meth:`repro.exec.RunHealth.as_dict`) when the artifact came
        out of a fault-tolerant engine run.
        """
        try:
            from .. import __version__ as version
        except Exception:  # pragma: no cover - defensive
            version = None
        clean = {
            key: (_frac(value) if isinstance(value, Fraction) else value)
            for key, value in config.items()
        }
        return cls(
            config=clean,
            created_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            repro_version=version,
            git_commit=git_sha(),
            spec=spec,
            health=health,
        )

    def to_record(self) -> Dict[str, Any]:
        record = {
            "type": "manifest",
            "schema_version": self.schema_version,
            "created_at": self.created_at,
            "repro_version": self.repro_version,
            "git_commit": self.git_commit,
            "config": self.config,
        }
        if self.spec is not None:
            record["spec"] = self.spec
        if self.health is not None:
            record["health"] = self.health
        return record


class JsonlRunWriter:
    """Streams a run's events (and manifest + summary) to a JSONL file.

    Usage::

        bus = ProbeBus()
        writer = JsonlRunWriter("out.jsonl", RunManifest.create(algorithm="ao-arrow"))
        writer.attach(bus)
        sim = Simulator(..., probes=bus)
        sim.run(until_time=100_000)
        writer.close(sim=sim)

    ``slot_stride`` thins the (dominant) slot records: ``k`` keeps every
    k-th slot-end of the run while arrivals, deliveries and collisions
    are always written exactly.

    Instead of a ``path``, an already-open text ``stream`` may be given
    (the ``repro serve`` daemon streams records over HTTP this way);
    exactly one of the two is required, and an external stream is
    flushed but never closed by :meth:`close`.
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path, None] = None,
        manifest: Optional[RunManifest] = None,
        slot_stride: int = 1,
        metrics: Optional[SimulationMetrics] = None,
        metrics_every: Optional[int] = None,
        *,
        stream: Optional[IO[str]] = None,
    ) -> None:
        if slot_stride < 1:
            raise ValueError(f"slot_stride must be >= 1, got {slot_stride}")
        if metrics_every is not None and metrics_every < 1:
            raise ValueError(f"metrics_every must be >= 1, got {metrics_every}")
        if (path is None) == (stream is None):
            raise ValueError("exactly one of path and stream is required")
        self.path = pathlib.Path(path) if path is not None else None
        self.metrics = metrics
        self._slot_stride = slot_stride
        self._metrics_every = metrics_every
        self._slot_events = 0
        self._wall_start = time.perf_counter()
        self._detach: Optional[Callable[[], None]] = None
        self._owns_stream = stream is None
        self._stream: Optional[IO[str]] = (
            self.path.open("w", encoding="utf-8")
            if self.path is not None
            else stream
        )
        #: Formatted records not yet handed to the stream.
        self._block: List[str] = []
        # The timebase of the run being written, and its tick -> text.
        self._timebase: Any = None
        self._text: Callable[[Any], str] = str
        if manifest is not None:
            self._stream.write(_dumps(manifest.to_record()))
            self._stream.flush()

    # -- low-level ------------------------------------------------------

    def _add(self, line: str) -> None:
        block = self._block
        block.append(line)
        if len(block) >= BLOCK_RECORDS:
            self._write_block()

    def _write_block(self) -> None:
        if self._stream is None or not self._block:
            return
        text = "".join(self._block)
        self._block.clear()
        self._stream.write(text)

    def _use_timebase(self, timebase: Any) -> None:
        self._timebase = timebase
        self._text = _tick_text(timebase.denominator) if timebase.is_lattice else str

    def flush(self) -> None:
        """Write every held record to the stream and flush it.

        :meth:`close` does this too; call it alone when the run raises,
        so the records emitted before the failure are not lost.
        """
        if self._stream is not None:
            self._write_block()
            self._stream.flush()

    # -- probe callbacks ------------------------------------------------

    def _on_slot_end(self, event: SlotEndEvent) -> None:
        self._slot_events += 1
        if self._slot_events % self._slot_stride == 0:
            if event.timebase is not self._timebase:
                self._use_timebase(event.timebase)
            text = self._text
            span = event.internal_interval
            action = event.action
            if not action.is_transmit:
                doing = "listen"
            elif action.carries_packet:
                doing = "transmit_packet"
            else:
                doing = "transmit_control"
            packet = event.carried_packet_id
            # A Feedback member's value is its lower-cased name.
            self._add(
                f'{{"type":"slot","sid":{event.station_id},'
                f'"idx":{event.slot_index},"start":"{text(span.start)}",'
                f'"end":"{text(span.end)}","action":"{doing}",'
                f'"fb":"{event.feedback._value_}","q":{event.queue_size},'
                f'"delivered":{"true" if event.delivered else "false"},'
                f'"backlog":{event.backlog},'
                f'"pkt":{"null" if packet is None else packet}}}\n'
            )
        if (
            self._metrics_every is not None
            and self.metrics is not None
            and self._slot_events % self._metrics_every == 0
        ):
            self._add(_dumps(
                {
                    "type": "metrics",
                    "at_event": self._slot_events,
                    "data": self.metrics.snapshot(),
                }
            ))

    def _on_arrival(self, event: ArrivalEvent) -> None:
        self._add(
            f'{{"type":"arrival","pkt":{event.packet_id},'
            f'"sid":{event.station_id},"t":"{event.at!s}",'
            f'"backlog":{event.backlog}}}\n'
        )

    def _on_delivery(self, event: DeliveryEvent) -> None:
        self._add(
            f'{{"type":"delivery","pkt":{event.packet_id},'
            f'"sid":{event.station_id},"t":"{event.at!s}",'
            f'"latency":"{event.latency!s}","cost":"{event.cost!s}",'
            f'"backlog":{event.backlog}}}\n'
        )

    def _on_collision(self, event: CollisionEvent) -> None:
        if event.timebase is not self._timebase:
            self._use_timebase(event.timebase)
        text = self._text
        span = event.internal_interval
        self._add(
            f'{{"type":"collision","sid":{event.station_id},'
            f'"start":"{text(span.start)}","end":"{text(span.end)}",'
            f'"control":{"true" if event.is_control else "false"}}}\n'
        )

    # -- lifecycle ------------------------------------------------------

    def attach(self, bus: ProbeBus) -> "JsonlRunWriter":
        self._detach = bus.subscribe_many(
            {
                "slot_end": self._on_slot_end,
                "arrival": self._on_arrival,
                "delivery": self._on_delivery,
                "collision": self._on_collision,
            }
        )
        return self

    def close(self, sim: Any = None) -> Optional[pathlib.Path]:
        """Detach, write the summary record, flush, and close the file.

        An external ``stream`` is flushed but left open (its owner
        decides when the transport ends); the returned path is ``None``
        in that case.
        """
        if self._detach is not None:
            self._detach()
            self._detach = None
        if self._stream is not None:
            wall = time.perf_counter() - self._wall_start
            summary: Dict[str, Any] = {
                "type": "summary",
                "wall_time_s": round(wall, 6),
                "slot_events": self._slot_events,
                "events_per_second": (
                    round(self._slot_events / wall, 2) if wall > 0 else None
                ),
            }
            if sim is not None:
                summary["horizon"] = _frac(sim.now)
                summary["delivered"] = len(sim.delivered_packets)
                summary["backlog"] = sim.total_backlog
                summary["collisions"] = sim.channel.stats.collisions
            if self.metrics is not None:
                summary["metrics"] = self.metrics.snapshot()
            self._block.append(_dumps(summary))
            self._write_block()
            if self._owns_stream:
                self._stream.close()
            else:
                try:
                    self._stream.flush()
                except (OSError, ValueError):
                    pass  # the transport died mid-stream; records are lost anyway
            self._stream = None
        return self.path

    def __enter__(self) -> "JsonlRunWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


@dataclass(slots=True)
class RunArtifact:
    """A parsed JSONL run: manifest + event records + summary."""

    path: Optional[pathlib.Path]
    manifest: Optional[Dict[str, Any]]
    records: List[Dict[str, Any]] = field(default_factory=list)
    summary: Optional[Dict[str, Any]] = None

    def of_type(self, record_type: str) -> List[Dict[str, Any]]:
        """All event records of one type, in stream order."""
        return [r for r in self.records if r.get("type") == record_type]


def load_run(path: Union[str, pathlib.Path]) -> RunArtifact:
    """Read a JSONL run artifact written by :class:`JsonlRunWriter`.

    Tolerates a truncated final line (interrupted run): complete records
    up to that point are returned.
    """
    resolved = pathlib.Path(path)
    manifest: Optional[Dict[str, Any]] = None
    summary: Optional[Dict[str, Any]] = None
    records: List[Dict[str, Any]] = []
    with resolved.open("r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break  # truncated tail of an interrupted run
            kind = record.get("type")
            if kind == "manifest":
                manifest = record
            elif kind == "summary":
                summary = record
            else:
                records.append(record)
    return RunArtifact(
        path=resolved, manifest=manifest, records=records, summary=summary
    )


def summarize_run(
    run: Union[RunArtifact, str, pathlib.Path],
) -> Dict[str, Any]:
    """Aggregate a saved run into the quantities ``repro stats`` prints.

    Works from the event stream alone, so it summarizes interrupted runs
    (no summary record) and runs written without metrics attached.
    """
    artifact = run if isinstance(run, RunArtifact) else load_run(run)
    slots = artifact.of_type("slot")
    arrivals = artifact.of_type("arrival")
    deliveries = artifact.of_type("delivery")
    collisions = artifact.of_type("collision")

    feedback_mix: Dict[str, int] = {"ack": 0, "silence": 0, "busy": 0}
    slot_lengths: Dict[str, int] = {}
    max_backlog = 0
    horizon = Fraction(0)
    for record in slots:
        feedback_mix[record["fb"]] = feedback_mix.get(record["fb"], 0) + 1
        length = _frac(parse_time(record["end"]) - parse_time(record["start"]))
        slot_lengths[length] = slot_lengths.get(length, 0) + 1
        horizon = max(horizon, parse_time(record["end"]))
    for record in arrivals + deliveries + slots:
        backlog = record.get("backlog")
        if backlog is not None and backlog > max_backlog:
            max_backlog = backlog

    summary = artifact.summary or {}
    latencies = [parse_time(r["latency"]) for r in deliveries]
    mean_latency = (
        sum(latencies, Fraction(0)) / len(latencies) if latencies else None
    )
    return {
        "path": str(artifact.path) if artifact.path else None,
        "config": (artifact.manifest or {}).get("config", {}),
        "git_commit": (artifact.manifest or {}).get("git_commit"),
        "slot_events": summary.get("slot_events", len(slots)),
        "slot_records": len(slots),
        "horizon": _frac(horizon) if slots else summary.get("horizon"),
        "feedback_mix": feedback_mix,
        "slot_length_histogram": dict(
            sorted(slot_lengths.items(), key=lambda kv: Fraction(kv[0]))
        ),
        "arrivals": len(arrivals),
        "delivered": summary.get("delivered", len(deliveries)),
        "collisions": summary.get("collisions", len(collisions)),
        "max_backlog": max_backlog,
        "final_backlog": summary.get("backlog"),
        "mean_latency": _frac(mean_latency) if mean_latency is not None else None,
        "wall_time_s": summary.get("wall_time_s"),
        "events_per_second": summary.get("events_per_second"),
    }


def render_summary(stats: Dict[str, Any]) -> List[str]:
    """Human-readable lines for one :func:`summarize_run` result."""
    lines: List[str] = []
    config = stats.get("config") or {}
    if config:
        pairs = " ".join(f"{k}={v}" for k, v in config.items())
        lines.append(f"run: {pairs}")
    if stats.get("git_commit"):
        lines.append(f"git: {stats['git_commit']}")
    lines.append(
        f"slot events: {stats['slot_events']} "
        f"(records kept: {stats['slot_records']})"
    )
    if stats.get("horizon") is not None:
        lines.append(f"horizon: t = {stats['horizon']}")
    mix = stats["feedback_mix"]
    total = sum(mix.values()) or 1
    lines.append(
        "feedback mix: "
        + "  ".join(
            f"{kind}={count} ({100.0 * count / total:.1f}%)"
            for kind, count in mix.items()
        )
    )
    histogram = stats["slot_length_histogram"]
    if histogram:
        lines.append(
            "slot lengths: "
            + "  ".join(f"{length}: {count}" for length, count in histogram.items())
        )
    lines.append(
        f"packets: arrivals={stats['arrivals']} delivered={stats['delivered']} "
        f"max_backlog={stats['max_backlog']}"
    )
    lines.append(f"collisions: {stats['collisions']}")
    if stats.get("mean_latency") is not None:
        lines.append(
            f"mean latency: {float(Fraction(stats['mean_latency'])):.2f} "
            f"(exact {stats['mean_latency']})"
        )
    if stats.get("wall_time_s") is not None:
        eps = stats.get("events_per_second")
        eps_text = f" ({eps:.0f} events/s)" if isinstance(eps, (int, float)) else ""
        lines.append(f"wall time: {stats['wall_time_s']:.3f}s{eps_text}")
    return lines
