"""``repro serve`` — the run service over HTTP, stdlib only.

A long-lived :class:`~http.server.ThreadingHTTPServer` that accepts
:class:`~repro.service.RunRequest` JSON and executes it on the same
:func:`~repro.service.execute` pipeline the CLI uses.  No third-party
dependencies: requests ride ``http.server``, responses stream as
HTTP/1.1 chunked NDJSON (one JSON record per line).  A run's manifest
goes out as a chunk of its own before the simulation starts; its event
records follow in chunks of up to
:data:`~repro.obs.artifacts.BLOCK_RECORDS` records as the run produces
them, each chunk framed with one socket write.

Endpoints:

* ``GET /version`` — package version, git SHA, schema versions.
* ``GET /healthz`` — liveness probe.
* ``POST /run`` — a ``RunRequest`` document.  ``run`` requests stream
  the JSONL artifact (manifest, event records, summary) incrementally
  and finish with one ``{"type": "service", ...}`` envelope record;
  ``grid``/``sst`` requests execute first and then stream one
  ``{"type": "result", ...}`` record per cell plus the envelope.
  Malformed requests get a 400 whose ``error`` names the offending
  field, exactly like local validation.

Cache semantics: a repeated ``run`` submission is served straight from
the daemon's content-addressed :class:`~repro.exec.ResultCache`
(``X-Repro-Served-From: cache``, no simulation); grids reuse the
per-cell cache the CLI shares.  Every submission adds one row to the
daemon's run-history index next to its cache: executed requests are
recorded by :func:`~repro.service.execute` under their own kind
(``run``/``grid``/``sst``), and the daemon records kind ``serve`` only
for what ``execute`` never sees — artifact-cache replays and run
submissions that fail mid-stream — so ``repro history query --kind
serve --served cache`` audits what the daemon answered without
executing.

Client-supplied *paths* never touch the server's filesystem: incoming
options are sanitized — artifact/trace/csv/journal paths dropped, the
cache pinned to the daemon's own directory, and progress and profiling,
whose reports never leave the daemon, switched off — before planning.
Bind to localhost (the default) unless you trust the network; there is
no authentication layer.
"""

from __future__ import annotations

import io
import json
import pathlib
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, IO

from ..core.errors import ConfigurationError
from ..exec import JournalMismatch, ResultCache
from ..obs import git_sha
from .request import SERVICE_SCHEMA_VERSION, RunRequest
from .runner import RunResult, execute, record_history

__all__ = ["ServiceServer", "create_server", "serve_forever"]


def _version_payload() -> Dict[str, Any]:
    from .. import __version__
    from ..scenarios.spec import SCHEMA_VERSION as SCENARIO_SCHEMA_VERSION

    return {
        "version": __version__,
        "git_sha": git_sha(),
        "request_schema": SERVICE_SCHEMA_VERSION,
        "scenario_schema": SCENARIO_SCHEMA_VERSION,
    }


def _sanitize(request: RunRequest, cache_dir: str) -> RunRequest:
    """Strip every client-supplied path from an incoming request.

    The daemon decides where artifacts, caches and journals live; a
    remote request must not be able to write (or resume from) an
    arbitrary server path.  Tracing and progress are per-process
    facilities that make no sense over the wire, and the daemon sends
    no profile report, so all three are dropped too: a run must not
    pay per-event clock reads for a report nobody receives.
    """
    return request.replace_options(
        emit_jsonl=None,
        trace=None,
        csv=None,
        journal=None,
        resume=False,
        progress=0,
        profile=False,
        cache_dir=cache_dir,
        cache=request.command == "grid",
    )


class _ChunkedWriter:
    """A text sink framing each ``write()`` as one HTTP/1.1 chunk."""

    def __init__(self, raw: IO[bytes]) -> None:
        self._raw = raw

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        if data:
            self._raw.write(b"%X\r\n%s\r\n" % (len(data), data))
        return len(text)

    def flush(self) -> None:
        self._raw.flush()

    def finish(self) -> None:
        """Terminate the chunked body."""
        self._raw.write(b"0\r\n\r\n")
        self._raw.flush()


class _TeeStream:
    """Duplicate writes to the wire and an in-memory buffer (for caching)."""

    def __init__(self, primary: _ChunkedWriter, buffer: io.StringIO) -> None:
        self._primary = primary
        self._buffer = buffer

    def write(self, text: str) -> int:
        self._buffer.write(text)
        return self._primary.write(text)

    def flush(self) -> None:
        self._primary.flush()


class ServiceServer(ThreadingHTTPServer):
    """The daemon: one thread per connection, shared cache + history."""

    daemon_threads = True
    #: Serialize executions so concurrent submissions cannot interleave
    #: fork-pool scheduling; queued requests wait their turn (the
    #: streaming protocol keeps their connections alive meanwhile).
    execute_lock: threading.Lock

    def __init__(self, address, handler, cache_dir: str, quiet: bool) -> None:
        super().__init__(address, handler)
        self.cache_dir = cache_dir
        self.artifact_cache = ResultCache(cache_dir)
        self.history_db = pathlib.Path(cache_dir) / "history.db"
        self.quiet = quiet
        self.execute_lock = threading.Lock()


class ServiceHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    server: ServiceServer  # narrowed for type checkers

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    # -- plumbing -------------------------------------------------------

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _begin_stream(self, served_from: str) -> _ChunkedWriter:
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("X-Repro-Served-From", served_from)
        self.end_headers()
        return _ChunkedWriter(self.wfile)

    # -- endpoints ------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        if self.path == "/version":
            self._send_json(200, _version_payload())
        elif self.path == "/healthz":
            self._send_json(200, {"status": "ok"})
        else:
            self._send_json(
                404,
                {"error": f"no such endpoint {self.path!r} "
                          "(use /version, /healthz, or POST /run)"},
            )

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        if self.path != "/run":
            self._send_json(
                404, {"error": f"no such endpoint {self.path!r} (POST /run)"}
            )
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self._send_json(400, {"error": "bad Content-Length"})
            return
        body = self.rfile.read(length) if length else b""
        try:
            request = _sanitize(
                RunRequest.from_json(body.decode("utf-8")),
                self.server.cache_dir,
            )
        except (ConfigurationError, UnicodeDecodeError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        try:
            if request.command == "run":
                self._serve_run(request)
            else:
                self._serve_bulk(request)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream; nothing to answer

    # -- run: incremental artifact stream with artifact-level cache -----

    def _serve_run(self, request: RunRequest) -> None:
        started = time.perf_counter()
        cache = self.server.artifact_cache
        key = cache.key_for(
            {"kind": "serve-artifact", "request": request.canonical()}
        )
        stored = cache.get(key)
        if isinstance(stored, dict) and "artifact" in stored:
            envelope = dict(stored.get("envelope") or {})
            envelope["served_from"] = "cache"
            chunks = self._begin_stream("cache")
            chunks.write(stored["artifact"])
            replay = RunResult(
                command="run",
                name=envelope.get("name", request.spec.name),
                status=envelope.get("status", "ok"),
                wall_s=time.perf_counter() - started,
                engine=envelope.get("engine", request.options.engine),
                timebase=envelope.get("timebase", request.options.timebase),
                cache_hits=1,
            )
            envelope["history_id"] = record_history(
                request, replay, self.server.history_db, kind="serve"
            )
            chunks.write(json.dumps({"type": "service", **envelope}) + "\n")
            chunks.finish()
            return
        chunks = self._begin_stream("exec")
        buffer = io.StringIO()
        tee = _TeeStream(chunks, buffer)
        try:
            with self.server.execute_lock:
                result = execute(
                    request,
                    artifact_stream=tee,
                    history_db=self.server.history_db,
                )
        except Exception as exc:  # stream already open: report in-band
            failed = RunResult(
                command="run",
                name=request.spec.name,
                status="failed",
                wall_s=time.perf_counter() - started,
                engine=request.options.engine,
                timebase=request.options.timebase,
            )
            record_history(
                request, failed, self.server.history_db, kind="serve"
            )
            chunks.write(
                json.dumps({"type": "error", "error": str(exc)}) + "\n"
            )
            chunks.finish()
            return
        envelope = result.envelope()
        cache.put(key, {"artifact": buffer.getvalue(), "envelope": envelope})
        chunks.write(json.dumps({"type": "service", **envelope}) + "\n")
        chunks.finish()

    # -- grid / sst: execute, then stream result records ----------------

    def _serve_bulk(self, request: RunRequest) -> None:
        try:
            with self.server.execute_lock:
                result = execute(request, history_db=self.server.history_db)
        except (ConfigurationError, JournalMismatch) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        except Exception as exc:
            self._send_json(500, {"error": str(exc)})
            return
        envelope = result.envelope()
        chunks = self._begin_stream(result.served_from)
        if result.report is not None:
            for row in result.report.results:
                record = {"type": "result", **row.as_row()}
                if row.timebase:
                    record["engine"] = row.engine
                    record["timebase"] = row.timebase
                chunks.write(json.dumps(record) + "\n")
        chunks.write(json.dumps({"type": "service", **envelope}) + "\n")
        chunks.finish()


def create_server(
    host: str = "127.0.0.1",
    port: int = 0,
    cache_dir: str = ".repro-cache",
    *,
    quiet: bool = False,
) -> ServiceServer:
    """Bind the daemon (``port=0`` picks a free port; see ``server_port``)."""
    return ServiceServer((host, port), ServiceHandler, cache_dir, quiet)


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 8765,
    cache_dir: str = ".repro-cache",
    *,
    quiet: bool = False,
) -> int:
    """Run the daemon until interrupted — the ``repro serve`` body."""
    try:
        server = create_server(host, port, cache_dir, quiet=quiet)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot bind {host}:{port}: {exc}"
        ) from None
    print(
        f"repro serve: listening on http://{host}:{server.server_port} "
        f"(cache: {cache_dir})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0
