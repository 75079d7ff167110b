"""The frozen, JSON-serializable description of one simulation run.

The paper's model is a small tuple — stations ``[n]``, bound ``R``, a
slot adversary, an arrival process at rate ``rho`` — and a
:class:`ScenarioSpec` is exactly that tuple as *data*: every field is
JSON-representable, every name resolves through a
:mod:`~repro.scenarios.registry`, and ``build()`` turns the spec into a
ready :class:`~repro.core.simulator.Simulator`.  Because a spec is
data, it can

* cross a process boundary without pickling closures,
* key the :mod:`repro.exec` result cache by canonical JSON (cosmetic
  edits to calling code no longer invalidate cached results),
* ride inside a run artifact's manifest so any saved run is replayable
  with ``repro scenario run``, and
* live in a ``scenarios/*.json`` file next to the repo.

Validation is strict and eager: unknown JSON keys, ``R < 1``,
``rho >= 1`` and unregistered names all raise
:class:`~repro.core.errors.ConfigurationError` naming the offending
field.

>>> spec = ScenarioSpec(algorithm="ca-arrow", n=3, rho="1/2", horizon=800)
>>> ScenarioSpec.from_json(spec.to_json()) == spec
True
>>> sim = spec.build()
>>> _ = sim.run(until_time=spec.horizon)
>>> sim.channel.stats.collisions
0
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from ..core.collector import collector_paused
from ..core.errors import ConfigurationError
from ..core.simulator import Simulator
from ..core.timebase import TimeLike, as_time
from .registry import ALGORITHMS, FAULTS, SCHEDULES, SOURCES

__all__ = ["SCHEMA_VERSION", "ScenarioSpec", "load_spec"]

#: Bump when the JSON field set changes shape.
SCHEMA_VERSION = 1

#: Every key accepted by :meth:`ScenarioSpec.from_json`.
_JSON_KEYS = (
    "scenario",
    "name",
    "algorithm",
    "n",
    "max_slot",
    "schedule",
    "rho",
    "burst",
    "source",
    "horizon",
    "seed",
    "faults",
    "labels",
)


def _canon_params(value: Any, where: str) -> Any:
    """Canonicalize a parameter tree to JSON-native values.

    Fractions become fraction strings; mappings get string keys and
    sorted order; sequences become lists.  The result round-trips
    through JSON unchanged, which is what makes
    ``from_json(to_json(s)) == s`` hold for every valid spec.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Mapping):
        return {
            str(key): _canon_params(item, where)
            for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [_canon_params(item, where) for item in value]
    raise ConfigurationError(
        f"{where}: {value!r} is not JSON-representable"
    )


def _canon_named(
    value: Union[str, Mapping[str, Any]], field_name: str
) -> Dict[str, Any]:
    """Canonicalize a ``name-or-dict`` field to its dict form."""
    if isinstance(value, str):
        return {"name": value}
    if isinstance(value, Mapping):
        if "name" not in value:
            raise ConfigurationError(
                f"{field_name}: missing 'name' in {dict(value)!r}"
            )
        if not isinstance(value["name"], str):
            raise ConfigurationError(
                f"{field_name}: 'name' must be a string, got {value['name']!r}"
            )
        return _canon_params(dict(value), field_name)
    raise ConfigurationError(
        f"{field_name}: expected a name or a mapping, got {value!r}"
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-specified run of the paper's model, as plain data.

    Args:
        algorithm: Registered fleet name (see ``ALGORITHMS.names()``).
        n: Number of stations (the paper's ``[n]``).
        max_slot: The asynchrony bound ``R`` (slot lengths live in
            ``[1, R]``); anything :func:`~repro.core.timebase.as_time`
            accepts.
        schedule: Slot-adversary name or ``{"name": ..., **params}``.
        rho: Injection rate in ``(0, 1)``, or ``None`` for no arrivals
            (the SST setting).
        burst: Packets per burst; ``1`` means evenly spaced arrivals.
        source: Optional explicit arrival-source name/dict; ``None``
            picks ``uniform``/``bursty`` from ``burst``.
        horizon: Default run length for ``build()``-and-run consumers.
        seed: Seed for randomized fleets/schedules/sources.
        faults: Fault-injection entries, each
            ``{"kind": <registered>, **params}``.
        labels: Free-form strings copied into results and artifacts.
        name: Display name; derived from algorithm/rho when empty.
    """

    algorithm: str
    n: int
    max_slot: TimeLike = Fraction(2)
    schedule: Union[str, Mapping[str, Any]] = "worst"
    rho: Optional[TimeLike] = None
    burst: int = 1
    source: Optional[Union[str, Mapping[str, Any]]] = None
    horizon: TimeLike = Fraction(5000)
    seed: int = 0
    faults: Sequence[Mapping[str, Any]] = ()
    labels: Mapping[str, str] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        if not isinstance(self.algorithm, str) or not self.algorithm:
            raise ConfigurationError(
                f"algorithm: expected a registered name, got {self.algorithm!r}"
            )
        ALGORITHMS.get(self.algorithm)  # unregistered -> clear error
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ConfigurationError(f"n: must be an integer >= 1, got {self.n!r}")
        try:
            set_(self, "max_slot", as_time(self.max_slot))
        except ConfigurationError as exc:
            raise ConfigurationError(f"max_slot: {exc}") from None
        if self.max_slot < 1:
            raise ConfigurationError(
                f"max_slot: the bound R must be >= 1, got {self.max_slot}"
            )
        set_(self, "schedule", _canon_named(self.schedule, "schedule"))
        SCHEDULES.get(self.schedule["name"])
        if self.rho is not None:
            try:
                set_(self, "rho", as_time(self.rho))
            except ConfigurationError as exc:
                raise ConfigurationError(f"rho: {exc}") from None
            if self.rho <= 0:
                raise ConfigurationError(f"rho: must be > 0, got {self.rho}")
            if self.rho >= 1:
                raise ConfigurationError(
                    f"rho: no algorithm is stable at rho >= 1 (Theorem 5); "
                    f"got {self.rho}"
                )
        if (
            not isinstance(self.burst, int)
            or isinstance(self.burst, bool)
            or self.burst < 1
        ):
            raise ConfigurationError(
                f"burst: must be an integer >= 1, got {self.burst!r}"
            )
        if self.source is not None:
            set_(self, "source", _canon_named(self.source, "source"))
            SOURCES.get(self.source["name"])
        try:
            set_(self, "horizon", as_time(self.horizon))
        except ConfigurationError as exc:
            raise ConfigurationError(f"horizon: {exc}") from None
        if self.horizon <= 0:
            raise ConfigurationError(
                f"horizon: must be > 0, got {self.horizon}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigurationError(f"seed: must be an integer, got {self.seed!r}")
        faults: List[Dict[str, Any]] = []
        for index, entry in enumerate(self.faults):
            where = f"faults[{index}]"
            if not isinstance(entry, Mapping):
                raise ConfigurationError(
                    f"{where}: expected a mapping with a 'kind', got {entry!r}"
                )
            if "kind" not in entry:
                raise ConfigurationError(f"{where}: missing 'kind'")
            kind = entry["kind"]
            if not isinstance(kind, str):
                raise ConfigurationError(
                    f"{where}.kind: must be a string, got {kind!r}"
                )
            FAULTS.get(kind)
            faults.append(_canon_params(dict(entry), where))
        set_(self, "faults", tuple(faults))
        if not isinstance(self.labels, Mapping):
            raise ConfigurationError(
                f"labels: expected a mapping of strings, got {self.labels!r}"
            )
        labels = {}
        for key, value in self.labels.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise ConfigurationError(
                    f"labels: keys and values must be strings, "
                    f"got {key!r}: {value!r}"
                )
            labels[key] = value
        set_(self, "labels", labels)
        if not isinstance(self.name, str):
            raise ConfigurationError(f"name: must be a string, got {self.name!r}")
        if not self.name:
            derived = (
                self.algorithm
                if self.rho is None
                else f"{self.algorithm}@rho={self.rho}"
            )
            set_(self, "name", derived)

    # -- serialization --------------------------------------------------

    def canonical(self) -> Dict[str, Any]:
        """The canonical JSON-native form (stable across processes).

        This exact dictionary is what ``to_json`` writes, what run
        manifests embed, and what the :mod:`repro.exec` cache hashes
        for spec-backed tasks.
        """
        return {
            "scenario": SCHEMA_VERSION,
            "name": self.name,
            "algorithm": self.algorithm,
            "n": self.n,
            "max_slot": str(self.max_slot),
            "schedule": self.schedule,
            "rho": None if self.rho is None else str(self.rho),
            "burst": self.burst,
            "source": self.source,
            "horizon": str(self.horizon),
            "seed": self.seed,
            "faults": list(self.faults),
            "labels": dict(self.labels),
        }

    def __cache_form__(self) -> Dict[str, Any]:
        """Hook consumed by :func:`repro.exec.cache.fingerprint`."""
        return {"scenario-spec": self.canonical()}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.canonical(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(
        cls, document: Union[str, bytes, Mapping[str, Any]]
    ) -> "ScenarioSpec":
        """Parse and strictly validate a spec document.

        ``document`` may be JSON text or an already-parsed mapping.
        Unknown keys are rejected by name so a typo (``"rbo"``) cannot
        silently fall back to a default.
        """
        if isinstance(document, (str, bytes)):
            try:
                document = json.loads(document)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"scenario JSON is malformed: {exc}") from None
        if not isinstance(document, Mapping):
            raise ConfigurationError(
                f"scenario document must be a JSON object, got {document!r}"
            )
        unknown = sorted(set(document) - set(_JSON_KEYS))
        if unknown:
            raise ConfigurationError(
                f"unknown scenario key(s): {', '.join(unknown)} "
                f"(accepted: {', '.join(_JSON_KEYS)})"
            )
        version = document.get("scenario", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigurationError(
                f"scenario: unsupported schema version {version!r} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        for required in ("algorithm", "n"):
            if required not in document:
                raise ConfigurationError(f"{required}: required key is missing")
        kwargs: Dict[str, Any] = {
            "algorithm": document["algorithm"],
            "n": document["n"],
        }
        for key in ("name", "max_slot", "schedule", "rho", "burst", "source",
                    "horizon", "seed", "faults", "labels"):
            if key in document and document[key] is not None:
                kwargs[key] = document[key]
        return cls(**kwargs)

    def replace(self, **changes: Any) -> "ScenarioSpec":
        """A copy with ``changes`` applied (re-validated from scratch)."""
        return dataclasses.replace(self, **changes)

    # -- construction ---------------------------------------------------

    def build_fleet(self) -> Dict[int, Any]:
        """The station algorithms, with every fault entry applied."""
        fleet = ALGORITHMS.get(self.algorithm).builder(self)
        by_kind: Dict[str, List[Mapping[str, Any]]] = {}
        for entry in self.faults:
            by_kind.setdefault(entry["kind"], []).append(entry)
        for kind, entries in by_kind.items():
            fleet = FAULTS.get(kind).builder(self, fleet, entries)
        return fleet

    def build_schedule(self) -> Any:
        """The slot adversary."""
        entry = SCHEDULES.get(self.schedule["name"])
        params = {k: v for k, v in self.schedule.items() if k != "name"}
        try:
            return entry.builder(self, **params)
        except TypeError as exc:
            raise ConfigurationError(
                f"schedule: {self.schedule['name']!r} rejected its "
                f"parameters: {exc}"
            ) from None

    def build_source(self) -> Optional[Any]:
        """The arrival source (``None`` when ``rho`` is ``None``)."""
        if self.source is not None:
            entry = SOURCES.get(self.source["name"])
            params = {k: v for k, v in self.source.items() if k != "name"}
            try:
                return entry.builder(self, **params)
            except TypeError as exc:
                raise ConfigurationError(
                    f"source: {self.source['name']!r} rejected its "
                    f"parameters: {exc}"
                ) from None
        if self.rho is None:
            return None
        name = "bursty" if self.burst > 1 else "uniform"
        return SOURCES.get(name).builder(self)

    def build(
        self,
        *,
        initial_packets: int = 0,
        trace: Optional[Any] = None,
        keep_channel_history: bool = False,
        probes: Optional[Any] = None,
        profiler: Optional[Any] = None,
        timebase: Any = "auto",
        engine: str = "auto",
    ) -> Simulator:
        """A ready :class:`~repro.core.simulator.Simulator` for this spec.

        ``timebase`` selects the simulator's internal time
        representation (``"auto"`` / ``"lattice"`` / ``"fraction"`` or
        an adapter instance) and ``engine`` the run loop
        (``"auto"`` / ``"batch"`` / ``"object"``).  Both are *run*
        options, not part of the spec: the observable execution is
        bit-for-bit identical either way, so they never participate in
        serialization or cache keys.
        """
        with collector_paused():
            return Simulator(
                self.build_fleet(),
                self.build_schedule(),
                max_slot_length=self.max_slot,
                arrival_source=self.build_source(),
                initial_packets=initial_packets,
                trace=trace,
                keep_channel_history=keep_channel_history,
                probes=probes,
                profiler=profiler,
                timebase=timebase,
                engine=engine,
            )

    def schedule_display(self) -> str:
        """Compact human form of the schedule (``worst``, ``fixed{...}``)."""
        params = {k: v for k, v in self.schedule.items() if k != "name"}
        if not params:
            return self.schedule["name"]
        rendered = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        return f"{self.schedule['name']}[{rendered}]"


def load_spec(path: Union[str, pathlib.Path]) -> ScenarioSpec:
    """Load a spec from a ``.json`` file *or* a JSONL run artifact.

    Run artifacts written by ``repro run --emit-jsonl`` embed the spec
    in their manifest, so any saved run replays with
    ``repro scenario run <artifact>``.
    """
    resolved = pathlib.Path(path)
    try:
        text = resolved.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read {str(resolved)!r}: {exc}") from None
    first_line = text.lstrip().split("\n", 1)[0]
    try:
        probe = json.loads(first_line)
    except json.JSONDecodeError:
        probe = None
    if isinstance(probe, Mapping) and probe.get("type") == "manifest":
        embedded = probe.get("spec") or (probe.get("config") or {}).get("spec")
        if embedded is None:
            raise ConfigurationError(
                f"{str(resolved)!r} is a run artifact without an embedded "
                "scenario spec (written before the scenario layer?)"
            )
        return ScenarioSpec.from_json(embedded)
    return ScenarioSpec.from_json(text)
