"""The frozen, JSON-round-trippable description of one service run.

A :class:`RunRequest` is the unit of work every transport speaks: one
command (``run`` / ``grid`` / ``sst``), the
:class:`~repro.scenarios.ScenarioSpec`\\ (s) to execute, and a
:class:`RunOptions` block carrying the *run* options — engine,
timebase, jobs, cache, journal/resume, timeouts/retries, artifact and
trace paths.  Exactly like the scenario layer, validation is strict
and eager: unknown keys, out-of-range values and wrong types raise
:class:`~repro.core.errors.ConfigurationError` naming the offending
field (``options.jobs``, ``specs[2]``), and
``from_json(to_json(r)) == r`` holds for every valid request.

Options are deliberately *not* part of the specs: a spec describes the
paper's model (and keys the result cache), while options describe how
this particular submission should execute — observably identical
results either way.

>>> from repro.scenarios import ScenarioSpec
>>> spec = ScenarioSpec(algorithm="ca-arrow", n=3, rho="1/2", horizon=400)
>>> request = RunRequest(specs=(spec,))
>>> RunRequest.from_json(request.to_json()) == request
True
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from ..core.errors import ConfigurationError
from ..scenarios import ScenarioSpec

__all__ = [
    "COMMANDS",
    "OPTION_FIELDS",
    "SERVICE_SCHEMA_VERSION",
    "RunOptions",
    "RunRequest",
    "options_from_args",
]

#: Bump when the request JSON field set changes shape.
SERVICE_SCHEMA_VERSION = 1

#: The commands a request may name, in CLI order.
COMMANDS = ("run", "grid", "sst")

_ENGINES = ("auto", "batch", "object")
_TIMEBASES = ("auto", "lattice", "fraction")

#: Top-level keys accepted by :meth:`RunRequest.from_json`.
_REQUEST_KEYS = ("request", "command", "spec", "specs", "options")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunOptions:
    """How a request executes — everything that is *not* the model.

    Every field is JSON-native and optional; the defaults reproduce a
    bare ``repro run`` (serial, uncached, no artifacts).  Grid-only
    fields (``jobs``, ``journal``, …) are validated unconditionally so
    a request built for one command can be replayed as another.
    """

    #: Run loop: ``auto`` picks the vectorized batch kernel when eligible
    #: and wide enough (about 20 or more slot ends per tick).
    engine: str = "auto"
    #: Internal time representation (observably identical either way).
    timebase: str = "auto"
    #: Worker processes for grids (0 = one per CPU core).
    jobs: int = 1
    #: Memoize grid cells in the content-addressed result cache.
    cache: bool = False
    #: Where that cache (and its history database) lives.
    cache_dir: str = ".repro-cache"
    #: Trace sampling stride passed to every cell.
    backlog_stride: int = 8
    #: Kill any grid cell running longer than this many seconds.
    task_timeout: Optional[float] = None
    #: Re-run a failed/crashed/timed-out cell up to N more times.
    retries: int = 0
    #: Checkpoint completed grid cells to this JSONL file.
    journal: Optional[str] = None
    #: Restore completed cells from the journal before executing.
    resume: bool = False
    #: Export a flight-recorder trace here (managed by the caller).
    trace: Optional[str] = None
    #: Attach the metric instruments and report their snapshot.
    metrics: bool = False
    #: Report wall time per simulator phase.
    profile: bool = False
    #: Progress cadence (events); 0 disables progress reporting.
    progress: int = 0
    #: Stream a manifest + per-event JSONL artifact to this path.
    emit_jsonl: Optional[str] = None
    #: Also write grid results as CSV to this path.
    csv: Optional[str] = None
    #: Event budget for the SST solve phase.
    max_events: int = 2_000_000

    def __post_init__(self) -> None:
        _require(
            self.engine in _ENGINES,
            f"options.engine: expected one of {'/'.join(_ENGINES)}, "
            f"got {self.engine!r}",
        )
        _require(
            self.timebase in _TIMEBASES,
            f"options.timebase: expected one of {'/'.join(_TIMEBASES)}, "
            f"got {self.timebase!r}",
        )
        _require(
            _is_int(self.jobs) and self.jobs >= 0,
            f"options.jobs: must be an integer >= 0, got {self.jobs!r}",
        )
        _require(
            isinstance(self.cache, bool),
            f"options.cache: must be a boolean, got {self.cache!r}",
        )
        _require(
            isinstance(self.cache_dir, str) and self.cache_dir,
            f"options.cache_dir: must be a non-empty string, "
            f"got {self.cache_dir!r}",
        )
        _require(
            _is_int(self.backlog_stride) and self.backlog_stride >= 1,
            f"options.backlog_stride: must be an integer >= 1, "
            f"got {self.backlog_stride!r}",
        )
        if self.task_timeout is not None:
            _require(
                isinstance(self.task_timeout, (int, float))
                and not isinstance(self.task_timeout, bool)
                and float(self.task_timeout) > 0,
                f"options.task_timeout: must be a positive number of "
                f"seconds, got {self.task_timeout!r}",
            )
            object.__setattr__(self, "task_timeout", float(self.task_timeout))
        _require(
            _is_int(self.retries) and self.retries >= 0,
            f"options.retries: must be an integer >= 0, got {self.retries!r}",
        )
        _require(
            _is_int(self.progress) and self.progress >= 0,
            f"options.progress: must be an integer >= 0, got {self.progress!r}",
        )
        _require(
            _is_int(self.max_events) and self.max_events >= 1,
            f"options.max_events: must be an integer >= 1, "
            f"got {self.max_events!r}",
        )
        for name in ("journal", "trace", "emit_jsonl", "csv"):
            value = getattr(self, name)
            _require(
                value is None or (isinstance(value, str) and value),
                f"options.{name}: must be a non-empty path or null, "
                f"got {value!r}",
            )
        for name in ("resume", "metrics", "profile"):
            value = getattr(self, name)
            _require(
                isinstance(value, bool),
                f"options.{name}: must be a boolean, got {value!r}",
            )

    def canonical(self) -> Dict[str, Any]:
        """The canonical JSON-native form (all fields, declared order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, document: Mapping[str, Any]) -> "RunOptions":
        """Strictly parse an options mapping; unknown keys are rejected."""
        if not isinstance(document, Mapping):
            raise ConfigurationError(
                f"options: expected a JSON object, got {document!r}"
            )
        unknown = sorted(set(document) - set(OPTION_FIELDS))
        if unknown:
            raise ConfigurationError(
                f"options: unknown key(s): {', '.join(unknown)} "
                f"(accepted: {', '.join(OPTION_FIELDS)})"
            )
        return cls(**dict(document))


#: Every key accepted inside a request's ``options`` object.
OPTION_FIELDS = tuple(f.name for f in fields(RunOptions))


@dataclass(frozen=True)
class RunRequest:
    """One unit of service work: a command, its specs, its options.

    ``run`` and ``sst`` take exactly one spec; ``grid`` takes one or
    more (one per cell, in cell order).  Specs may be given as
    :class:`~repro.scenarios.ScenarioSpec` instances or as their JSON
    mappings — anything else is rejected eagerly.
    """

    specs: Tuple[ScenarioSpec, ...] = ()
    command: str = "run"
    options: RunOptions = field(default_factory=RunOptions)

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        _require(
            self.command in COMMANDS,
            f"command: expected one of {'/'.join(COMMANDS)}, "
            f"got {self.command!r}",
        )
        if isinstance(self.specs, (ScenarioSpec, Mapping)):
            set_(self, "specs", (self.specs,))
        _require(
            isinstance(self.specs, (tuple, list)),
            f"specs: expected a list of scenario specs, got {self.specs!r}",
        )
        coerced = []
        for index, spec in enumerate(self.specs):
            if isinstance(spec, ScenarioSpec):
                coerced.append(spec)
                continue
            if isinstance(spec, Mapping):
                try:
                    coerced.append(ScenarioSpec.from_json(spec))
                except ConfigurationError as exc:
                    raise ConfigurationError(f"specs[{index}]: {exc}") from None
                continue
            raise ConfigurationError(
                f"specs[{index}]: expected a scenario spec or mapping, "
                f"got {spec!r}"
            )
        set_(self, "specs", tuple(coerced))
        _require(bool(self.specs), "specs: at least one scenario is required")
        if self.command in ("run", "sst"):
            _require(
                len(self.specs) == 1,
                f"specs: command {self.command!r} takes exactly one "
                f"scenario, got {len(self.specs)}",
            )
        if isinstance(self.options, Mapping):
            set_(self, "options", RunOptions.from_json(self.options))
        _require(
            isinstance(self.options, RunOptions),
            f"options: expected a RunOptions or mapping, got {self.options!r}",
        )

    @property
    def spec(self) -> ScenarioSpec:
        """The single spec of a ``run``/``sst`` request (first, for grids)."""
        return self.specs[0]

    # -- serialization --------------------------------------------------

    def canonical(self) -> Dict[str, Any]:
        """The canonical JSON-native form — what ``to_json`` writes."""
        return {
            "request": SERVICE_SCHEMA_VERSION,
            "command": self.command,
            "specs": [spec.canonical() for spec in self.specs],
            "options": self.options.canonical(),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.canonical(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(
        cls, document: Union[str, bytes, Mapping[str, Any]]
    ) -> "RunRequest":
        """Parse and strictly validate a request document.

        ``document`` may be JSON text or an already-parsed mapping.  A
        single spec may be given under ``spec`` instead of ``specs``;
        unknown keys are rejected by name so a typo cannot silently
        fall back to a default.
        """
        if isinstance(document, (str, bytes)):
            try:
                document = json.loads(document)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"request JSON is malformed: {exc}"
                ) from None
        if not isinstance(document, Mapping):
            raise ConfigurationError(
                f"request document must be a JSON object, got {document!r}"
            )
        unknown = sorted(set(document) - set(_REQUEST_KEYS))
        if unknown:
            raise ConfigurationError(
                f"unknown request key(s): {', '.join(unknown)} "
                f"(accepted: {', '.join(_REQUEST_KEYS)})"
            )
        version = document.get("request", SERVICE_SCHEMA_VERSION)
        if version != SERVICE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"request: unsupported schema version {version!r} "
                f"(this build reads version {SERVICE_SCHEMA_VERSION})"
            )
        if "spec" in document and "specs" in document:
            raise ConfigurationError(
                "request: give either 'spec' or 'specs', not both"
            )
        specs = document.get("specs", document.get("spec"))
        if specs is None:
            raise ConfigurationError("specs: required key is missing")
        kwargs: Dict[str, Any] = {"specs": specs}
        if "command" in document:
            kwargs["command"] = document["command"]
        if "options" in document and document["options"] is not None:
            kwargs["options"] = document["options"]
        return cls(**kwargs)

    def replace_options(self, **changes: Any) -> "RunRequest":
        """A copy with option ``changes`` applied (re-validated)."""
        import dataclasses

        return dataclasses.replace(
            self, options=dataclasses.replace(self.options, **changes)
        )


def options_from_args(args: argparse.Namespace) -> RunOptions:
    """The one CLI→options resolver, shared by every subcommand.

    Each subcommand defines only the flags it supports; everything it
    does not define falls back to the :class:`RunOptions` default.
    This is the single place the flag names map onto option fields, so
    the CLI and the service cannot drift.
    """
    progress = getattr(args, "progress", 0)
    if isinstance(progress, bool):  # grid's --progress is a switch
        progress = 1 if progress else 0
    # Subcommands without --no-cache never cached; grid caches unless
    # the user opted out.
    no_cache = getattr(args, "no_cache", None)
    cache = False if no_cache is None else not no_cache
    defaults = RunOptions()
    return RunOptions(
        engine=getattr(args, "engine", defaults.engine),
        timebase=getattr(args, "timebase", defaults.timebase),
        jobs=getattr(args, "jobs", defaults.jobs),
        cache=cache,
        cache_dir=getattr(args, "cache_dir", defaults.cache_dir),
        backlog_stride=getattr(args, "backlog_stride", defaults.backlog_stride),
        task_timeout=getattr(args, "task_timeout", defaults.task_timeout),
        retries=getattr(args, "retries", defaults.retries),
        journal=getattr(args, "journal", defaults.journal),
        resume=getattr(args, "resume", defaults.resume),
        trace=getattr(args, "trace", defaults.trace),
        metrics=getattr(args, "metrics", defaults.metrics),
        profile=getattr(args, "profile", defaults.profile),
        progress=progress,
        emit_jsonl=getattr(args, "emit_jsonl", defaults.emit_jsonl),
        csv=getattr(args, "csv", defaults.csv),
        max_events=getattr(args, "max_events", defaults.max_events),
    )
