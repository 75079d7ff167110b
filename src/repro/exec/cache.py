"""Content-addressed result cache for grid cells and served artifacts.

Re-running an unchanged grid should cost nothing.  Each task (one grid
cell, one daemon-served run artifact) is keyed by a SHA-256 over its
*canonicalized* configuration — the scenario spec's canonical JSON,
horizon, backlog stride — plus a **code-version salt**: a hash of
every ``repro`` source file.  Any change to the package's code, or to
any knob that could change the simulation, changes the key; the old
entries simply stop being addressed (content addressing *is* the
invalidation rule).  Explicit invalidation is still available via
:meth:`ResultCache.invalidate` / :meth:`ResultCache.clear` and the
``repro cache clear`` CLI, and every consumer exposes a ``--no-cache``
escape hatch.

Entries are pickled (protocol-highest) under ``.repro-cache/`` —
pickle, not JSON, because results carry exact
:class:`~fractions.Fraction` values that must round-trip losslessly::

    .repro-cache/
      ab/abcdef0123....pkl      # two-level fan-out by key prefix

:func:`fingerprint` describes exactly the values a payload holds:
JSON-native values, floats, Fractions, sequences, mappings, and
objects exposing ``__cache_form__()`` (a method returning a JSON-native
description of everything behavior-relevant).
:class:`repro.scenarios.ScenarioSpec` is such an object, so a cell's key
is identical whether its spec was built in Python or parsed from a
``scenarios/*.json`` file.  Anything else raises :class:`TypeError`.

Crash and concurrency hardening (see ``docs/robustness.md``): entries
are written scratch-file-then-rename (atomic on POSIX) under a
process-unique scratch name (pid + a monotonic counter — two
processes can never collide the way the old ``id(self)`` naming
could), writers serialize on an advisory ``fcntl`` file lock, and
every entry carries its own SHA-256 digest so a torn write is
*detected*, not deserialized: ``get`` treats it as a miss and drops
it, and :meth:`ResultCache.verify` (``repro cache verify``) re-hashes
every entry and quarantines the corrupt ones.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator, List, Mapping, Optional

try:  # Advisory inter-process locking is POSIX-only; degrade quietly.
    import fcntl
except ImportError:  # pragma: no cover - Windows
    fcntl = None  # type: ignore[assignment]

from ..obs.tracing import current_tracer

__all__ = [
    "MISS",
    "CacheVerification",
    "ResultCache",
    "canonical_key",
    "code_salt",
    "fingerprint",
]


class _Miss:
    """Sentinel distinguishing 'not cached' from a cached ``None``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<cache MISS>"


MISS = _Miss()


#: Values :func:`fingerprint` returns as they are, by exact type.
_PLAIN = frozenset({str, int, bool, type(None)})

#: ``json.dumps(text)`` for a str, without building an encoder.
_encode_str = json.encoder.encode_basestring_ascii


def _encode_key(key: Any) -> str:
    """A mapping key's text in a fingerprint."""
    return json.dumps(fingerprint(key), sort_keys=True)


def fingerprint(value: Any) -> Any:
    """Canonical, JSON-serializable content description of ``value``.

    Equal configurations map to equal fingerprints across processes
    and runs; configurations that differ in any behavior-relevant way
    map to different ones.  Raises :class:`TypeError` for a value
    outside the payload vocabulary (see the module docstring).

    >>> fingerprint({"rho": Fraction(1, 2), "n": [3, 4]})
    {'mapping': {'"rho"': {'fraction': '1/2'}, '"n"': [3, 4]}}
    """
    # The exact types a spec's canonical form is made of come first; a
    # str mapping key is encoded as ``json.dumps(key)`` encodes it.
    kind = type(value)
    if kind in _PLAIN:
        return value
    if kind is dict:
        return {
            "mapping": {
                _encode_str(k) if type(k) is str else _encode_key(k):
                    fingerprint(v)
                for k, v in value.items()
            }
        }
    if kind is list or kind is tuple:
        return [fingerprint(item) for item in value]
    if kind is Fraction:
        return {"fraction": str(value)}
    if value is None or isinstance(value, (bool, int, str)):
        return value
    form = getattr(value, "__cache_form__", None)
    if form is not None and callable(form):
        return {
            "kind": "cache-form",
            "class": f"{type(value).__module__}.{type(value).__qualname__}",
            "form": fingerprint(form()),
        }
    if isinstance(value, float):
        return {"float": repr(value)}
    if isinstance(value, Fraction):
        return {"fraction": str(value)}
    if isinstance(value, (list, tuple)):
        return [fingerprint(item) for item in value]
    if isinstance(value, Mapping):
        return {
            "mapping": {_encode_key(k): fingerprint(v) for k, v in value.items()}
        }
    raise TypeError(
        f"cannot fingerprint a {type(value).__qualname__}: a cache payload "
        "holds JSON-native values, Fractions and __cache_form__ objects"
    )


#: ``json.dumps(document, sort_keys=True, separators=(",", ":"))``,
#: with one encoder for every key.
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_key(payload: Mapping[str, Any], salt: str = "") -> str:
    """SHA-256 hex digest of a canonicalized payload (plus a salt)."""
    document = {"salt": salt, "payload": fingerprint(payload)}
    blob = _KEY_ENCODER.encode(document)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_CODE_SALT: Optional[str] = None


def code_salt() -> str:
    """Hash of every ``repro`` source file — the code-version salt.

    Computed once per process.  Because the salt is folded into every
    cache key, editing any module under ``src/repro/`` atomically
    invalidates the entire cache: stale results are never addressed
    again.
    """
    global _CODE_SALT
    if _CODE_SALT is None:
        package_root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_SALT = digest.hexdigest()
    return _CODE_SALT


#: Entry format marker; bumping it orphans (never mis-reads) old entries.
_ENTRY_MAGIC = b"repro-cache-1 "

#: Scratch files are unique per (process, put): pid + monotonic counter.
_SCRATCH_COUNTER = itertools.count()


def _encode_entry(value: Any) -> bytes:
    """Self-verifying on-disk form: magic + SHA-256(payload) + payload."""
    blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(blob).hexdigest().encode("ascii")
    return _ENTRY_MAGIC + digest + b"\n" + blob


def _decode_entry(data: bytes) -> Any:
    """Inverse of :func:`_encode_entry`; raises ``ValueError`` on damage."""
    if not data.startswith(_ENTRY_MAGIC):
        raise ValueError("not a repro cache entry (bad magic)")
    header, newline, blob = data.partition(b"\n")
    if not newline:
        raise ValueError("truncated cache entry (no payload)")
    digest = header[len(_ENTRY_MAGIC):].decode("ascii", "replace")
    if hashlib.sha256(blob).hexdigest() != digest:
        raise ValueError("cache entry digest mismatch (torn write?)")
    return pickle.loads(blob)


class _CacheLock:
    """Advisory inter-process lock on ``<root>/.lock`` (``fcntl.flock``).

    Serializes writers (``put``/``clear``/``verify``) across
    processes; readers stay lock-free — the write-then-rename protocol
    plus per-entry digests already make reads safe.  On platforms
    without ``fcntl`` the lock degrades to a no-op.
    """

    def __init__(self, root: Path) -> None:
        self.path = root / ".lock"
        self._handle = None

    def __enter__(self) -> "_CacheLock":
        if fcntl is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a+b")
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
        return self

    def __exit__(self, *_exc: Any) -> None:
        if self._handle is not None:
            try:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            finally:
                self._handle.close()
                self._handle = None


@dataclass(slots=True)
class CacheVerification:
    """Outcome of one :meth:`ResultCache.verify` pass."""

    checked: int = 0
    ok: int = 0
    quarantined: List[Path] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.quarantined


class ResultCache:
    """Pickle-backed content-addressed store under one root directory.

    >>> import tempfile
    >>> cache = ResultCache(tempfile.mkdtemp(), salt="s1")
    >>> key = cache.key_for({"kind": "demo", "n": 3})
    >>> cache.get(key) is MISS
    True
    >>> cache.put(key, Fraction(22, 7))
    >>> cache.get(key)
    Fraction(22, 7)
    >>> (cache.hits, cache.misses, cache.stores)
    (1, 1, 1)
    """

    def __init__(
        self, root: "str | Path" = ".repro-cache", *, salt: Optional[str] = None
    ) -> None:
        self.root = Path(root)
        self.salt = code_salt() if salt is None else salt
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key_for(self, payload: Mapping[str, Any]) -> str:
        """Content-address a task configuration (salt included)."""
        return canonical_key(payload, salt=self.salt)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def lock(self) -> _CacheLock:
        """The cache's advisory inter-process writer lock."""
        return _CacheLock(self.root)

    def get(self, key: str) -> Any:
        """The cached value, or :data:`MISS`.  Corrupt entries = miss.

        Corruption (torn write, digest mismatch, version skew) can
        never surface as data: the entry's own SHA-256 is checked
        before unpickling, and a damaged entry is dropped so the next
        run recomputes and re-stores it.
        """
        tracer = current_tracer()
        if tracer is None:
            return self._get(key)
        with tracer.span("cache.get", key=key[:16]) as span:
            value = self._get(key)
            span.set(outcome="miss" if value is MISS else "hit")
            return value

    def _get(self, key: str) -> Any:
        # path_for(key) as text: a hit pays for the read, not for pathlib.
        path = os.path.join(self.root, key[:2], key + ".pkl")
        try:
            with open(path, "rb") as handle:
                value = _decode_entry(handle.read())
        except FileNotFoundError:
            self.misses += 1
            return MISS
        except Exception:
            # Truncated write, version skew — drop it and recompute.
            Path(path).unlink(missing_ok=True)
            self.misses += 1
            return MISS
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Persist atomically (write-then-rename) under the key.

        The scratch name embeds this process's pid and a monotonic
        counter, so concurrent writers (two grid runs sharing one
        cache) can never scribble on each other's scratch file; the
        advisory lock additionally serializes the writes themselves.
        """
        tracer = current_tracer()
        if tracer is None:
            self._put(key, value)
            return
        with tracer.span("cache.store", key=key[:16]):
            self._put(key, value)

    def _put(self, key: str, value: Any) -> None:
        path = self.path_for(key)
        with self.lock():
            path.parent.mkdir(parents=True, exist_ok=True)
            scratch = self._scratch_for(path)
            scratch.write_bytes(_encode_entry(value))
            scratch.replace(path)
        self.stores += 1

    @staticmethod
    def _scratch_for(path: Path) -> Path:
        return path.with_suffix(
            f".tmp.{os.getpid()}.{next(_SCRATCH_COUNTER)}"
        )

    def invalidate(self, key: str) -> bool:
        """Drop one entry; True if it existed."""
        path = self.path_for(key)
        existed = path.exists()
        path.unlink(missing_ok=True)
        return existed

    def clear(self) -> int:
        """Remove every entry; returns the number dropped."""
        with self.lock():
            dropped = sum(1 for _ in self.entries())
            if self.root.exists():
                shutil.rmtree(self.root)
        return dropped

    def verify(self) -> CacheVerification:
        """Re-hash every entry; quarantine the ones that fail.

        Each entry's stored SHA-256 is recomputed over its payload and
        the payload is test-unpickled.  Entries that fail either check
        (torn writes, bit rot, format skew) are moved — not deleted —
        to ``<root>/quarantine/`` with a ``.corrupt`` suffix, where
        :meth:`entries` no longer sees them, so the evidence survives
        while the cache returns to a provably-sound state.
        """
        report = CacheVerification()
        with self.lock():
            for path in list(self.entries()):
                report.checked += 1
                try:
                    _decode_entry(path.read_bytes())
                except Exception:
                    quarantine = self.root / "quarantine"
                    quarantine.mkdir(parents=True, exist_ok=True)
                    target = quarantine / f"{path.name}.corrupt"
                    path.replace(target)
                    report.quarantined.append(target)
                else:
                    report.ok += 1
        return report

    def entries(self) -> Iterator[Path]:
        """Every persisted entry file currently on disk."""
        if self.root.exists():
            yield from sorted(
                path
                for path in self.root.glob("*/*.pkl")
                if path.parent.name != "quarantine"
            )

    def size_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.entries())
