"""``repro submit`` — the HTTP client for a ``repro serve`` daemon.

Stdlib only (:mod:`urllib`): POST a :class:`~repro.service.RunRequest`
to ``/run``, stream the NDJSON response as it arrives — artifact/event
records to an optional output stream, the trailing
``{"type": "service", ...}`` envelope back to the caller.
``urllib`` transparently decodes the chunked transfer encoding; the
client reads the body as it arrives, up to 64 KB at a time, while the
simulation is still running (the daemon sends records in blocks, the
manifest first on its own).  Each run of whole lines goes to the output
stream verbatim with one write, and a trailing partial line waits for
the next read.  Only a run holding a line that can be the envelope or
an in-band error — one containing ``service`` or ``error`` — or a line
that does not start with ``{`` (a blank one, say) is split into lines
and read one by one.

The daemon ends every stream with its envelope or an in-band error, so
a stream that ends without either was cut (say, the daemon died): that
is an error, never a success.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request
from typing import IO, Any, Dict, Optional, Tuple

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


#: The most one read of a streamed reply asks for.
_READ_SIZE = 65536


def _relay(
    text: str, out: Optional[IO[str]], envelope: Optional[Dict[str, Any]]
) -> Tuple[int, Optional[Dict[str, Any]]]:
    """Pass a run of whole lines on to ``out``; ``(records, envelope)``.

    A run whose every line starts with ``{`` and that holds neither
    ``service`` nor ``error`` is all records, and goes on with one
    write.  Any other run is split on ``"\n"`` and read line by line:
    blank lines are dropped, the envelope is kept back and an in-band
    error raises once the records before it are written.
    """
    lines = text.count("\n")
    if (text[0] == "{" and text.count("\n{") == lines - 1
            and "service" not in text and "error" not in text):
        if out is not None:
            out.write(text)
        return lines, envelope
    kept = []
    for line in text.split("\n")[:-1]:
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
                if out is not None and kept:
                    out.write("".join(kept))
                raise ServiceError(str(record.get("error", "daemon error")))
        kept.append(line + "\n")
    if out is not None and kept:
        out.write("".join(kept))
    return len(kept), envelope


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
        tail = b""
        while True:
            try:
                block = response.read1(_READ_SIZE)
            except (http.client.HTTPException, OSError) as exc:
                # http.client closes the response when the next chunk's
                # size line is missing, as when the daemon stopped between
                # two chunks; that is where the stream ended.
                if not (isinstance(exc, http.client.IncompleteRead)
                        and response.isclosed()):
                    raise ServiceError(
                        f"the stream from {url} broke after {records} "
                        f"record(s): {exc!r}"
                    ) from None
                block = b""
            if block:
                block = tail + block
                end = block.rfind(b"\n") + 1
                block, tail = block[:end], block[end:]
            elif tail:
                # The last line has no newline; it is still a line.
                block, tail = tail + b"\n", b""
            else:
                break
            if block:
                relayed, envelope = _relay(block.decode("utf-8"), out, envelope)
                records += relayed
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
