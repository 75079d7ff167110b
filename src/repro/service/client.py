"""``repro submit`` — the HTTP client for a ``repro serve`` daemon.

Stdlib only (:mod:`urllib`): POST a :class:`~repro.service.RunRequest`
to ``/run``, stream the NDJSON response as it arrives — artifact/event
records to an optional output stream, the trailing
``{"type": "service", ...}`` envelope back to the caller.
``urllib`` transparently decodes the chunked transfer encoding, so
records are seen line-by-line while the simulation is still running
(the daemon sends them in blocks, the manifest first on its own).  Only
lines that can be the envelope or an in-band error — those containing
``service`` or ``error`` — are parsed; every other line goes to the
output stream verbatim.

The daemon ends every stream with its envelope or an in-band error, so
a stream that ends without either was cut (say, the daemon died): that
is an error, never a success.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request
from typing import IO, Any, Dict, Optional

__all__ = ["ServiceError", "submit_request"]


class ServiceError(RuntimeError):
    """The daemon rejected the request or the transport failed."""


def _http_error_detail(exc: urllib.error.HTTPError) -> str:
    """The daemon's ``error`` field, or the bare HTTP status."""
    try:
        payload = json.loads(exc.read().decode("utf-8"))
        if isinstance(payload, dict) and payload.get("error"):
            return str(payload["error"])
    except Exception:
        pass
    return f"HTTP {exc.code} {exc.reason}"


def submit_request(
    url: str,
    request: Any,
    *,
    out: Optional[IO[str]] = None,
    timeout: Optional[float] = None,
) -> Dict[str, Any]:
    """POST ``request`` to ``<url>/run``; returns the service envelope.

    ``request`` is a :class:`~repro.service.RunRequest` (anything with
    ``to_json``).  Artifact and result records are written to ``out``
    verbatim (one JSON line each) as they stream in; the final
    ``service`` record is returned as a dict with the response's
    ``X-Repro-Served-From`` header folded in as ``served_from``.
    Raises :class:`ServiceError` on any transport or daemon error —
    including an in-band ``{"type": "error"}`` record, a connection
    that fails mid-stream and a stream that ends without its envelope;
    the message says how many records had been passed on by then.
    """
    body = request.to_json(indent=None).encode("utf-8")
    http_request = urllib.request.Request(
        url.rstrip("/") + "/run",
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        response = urllib.request.urlopen(http_request, timeout=timeout)
    except urllib.error.HTTPError as exc:
        raise ServiceError(_http_error_detail(exc)) from None
    except urllib.error.URLError as exc:
        raise ServiceError(f"cannot reach {url}: {exc.reason}") from None
    envelope: Optional[Dict[str, Any]] = None
    records = 0
    with response:
        served_from = response.headers.get("X-Repro-Served-From", "")
        lines = iter(response)
        while True:
            try:
                raw = next(lines, b"")
            except (http.client.HTTPException, OSError) as exc:
                raise ServiceError(
                    f"the stream from {url} broke after {records} record(s): "
                    f"{exc!r}"
                ) from None
            if not raw:
                break
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            if "service" in line or "error" in line:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    record = None
                kind = record.get("type") if isinstance(record, dict) else None
                if kind == "service":
                    envelope = record
                    continue
                if kind == "error":
                    raise ServiceError(str(record.get("error", "daemon error")))
            if out is not None:
                out.write(line if line.endswith("\n") else line + "\n")
            records += 1
    if envelope is None:
        raise ServiceError(
            f"the stream from {url} ended without its envelope after "
            f"{records} record(s); the run's result is unknown"
        )
    envelope.setdefault("served_from", served_from or "exec")
    return envelope


def fetch_version(url: str, *, timeout: Optional[float] = None) -> Dict[str, Any]:
    """GET ``<url>/version`` — the daemon's identity payload."""
    try:
        with urllib.request.urlopen(
            url.rstrip("/") + "/version", timeout=timeout
        ) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        raise ServiceError(_http_error_detail(exc)) from None
    except urllib.error.URLError as exc:
        raise ServiceError(f"cannot reach {url}: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ServiceError(f"{url}/version returned malformed JSON: {exc}") from None
