"""What a streamed run delivers when it fails, and what the client keeps.

The JSONL writer hands its stream blocks of records and the daemon
frames each block as one chunk, so a record can sit in a buffer while
the run goes on.  A run that raises mid-stream must still leave every
record emitted before the failure in the ``--emit-jsonl`` file, and in
a daemon's stream ahead of the in-band ``error`` record.

The client parses only the lines that can be the daemon's envelope or
an in-band error and passes every other line through verbatim; names
that contain those words must not change what it returns or writes.
A stream cut before its envelope is an error, wherever the cut falls.
"""

import gc
import io
import json
import os
import pathlib
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.core import LISTEN, TRANSMIT_PACKET, ProtocolError, StationAlgorithm
from repro.obs import ProbeBus
from repro.scenarios import ALGORITHMS, ScenarioSpec
from repro.scenarios.registry import RegistryEntry
from repro.service import (
    RunOptions,
    RunRequest,
    ServiceError,
    create_server,
    execute,
    submit_request,
)

#: The slot index from which a station with an empty queue sends anyway.
_FAIL_FROM = 300


class _LateEmptySender(StationAlgorithm):
    """Sends its packets in its round-robin turn; late on, it also sends
    a packet it does not have, which the simulator rejects."""

    def __init__(self, station_id, n):
        self.turn = station_id - 1
        self.n = n

    def first_action(self, ctx):
        return LISTEN

    def on_slot_end(self, ctx):
        if ctx.queue_size == 0:
            return TRANSMIT_PACKET if ctx.slot_index >= _FAIL_FROM else LISTEN
        if ctx.slot_index % self.n == self.turn:
            return TRANSMIT_PACKET
        return LISTEN


@pytest.fixture()
def late_sender(monkeypatch):
    """A registered fleet of :class:`_LateEmptySender` (removed after)."""
    name = "test-late-empty-sender"
    monkeypatch.setitem(ALGORITHMS._entries, name, RegistryEntry(
        name=name,
        builder=lambda spec: {
            i: _LateEmptySender(i, spec.n) for i in range(1, spec.n + 1)
        },
        meta={"kind": "dynamic", "family": name},
    ))
    return ScenarioSpec(algorithm=name, n=3, max_slot="2", schedule="worst",
                        rho="1/2", horizon="1000", seed=0)


@pytest.fixture()
def daemon(tmp_path):
    server = create_server(
        "127.0.0.1", 0, cache_dir=str(tmp_path / "serve-cache"), quiet=True
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _observed(spec):
    """The events a bus subscriber sees before the run raises."""
    seen = []
    bus = ProbeBus()
    bus.subscribe_many({
        "slot_end": lambda e: seen.append(("slot", e.station_id, e.slot_index)),
        "arrival": lambda e: seen.append(("arrival", e.packet_id)),
        "delivery": lambda e: seen.append(("delivery", e.packet_id)),
        "collision": lambda e: seen.append(
            ("collision", e.station_id, str(e.interval.start))),
    })
    sim = spec.build(probes=bus)
    with pytest.raises(ProtocolError, match="from an empty queue"):
        sim.run(until_time=spec.horizon)
    return seen


def _events(text):
    """The event records of a stream, as :func:`_observed` names them."""
    out = []
    for line in text.splitlines():
        record = json.loads(line)
        kind = record["type"]
        if kind == "slot":
            out.append(("slot", record["sid"], record["idx"]))
        elif kind in ("arrival", "delivery"):
            out.append((kind, record["pkt"]))
        elif kind == "collision":
            out.append(("collision", record["sid"], record["start"]))
    return out


class TestFailureMidStream:
    def test_emit_jsonl_keeps_every_record_before_the_failure(
        self, late_sender, tmp_path
    ):
        expected = _observed(late_sender)
        assert len(expected) > 1000  # several writer blocks' worth
        path = tmp_path / "run.jsonl"
        request = RunRequest(specs=(late_sender,),
                             options=RunOptions(emit_jsonl=str(path)))
        with pytest.raises(ProtocolError, match="from an empty queue"):
            execute(request)
        # Read the file once the failed run is gone, as a user reads it
        # after the command has exited.
        gc.collect()
        text = path.read_text(encoding="utf-8")
        kinds = [json.loads(line)["type"] for line in text.splitlines()]
        assert kinds[0] == "manifest" and "summary" not in kinds
        assert _events(text) == expected

    def test_daemon_streams_every_record_before_the_error(
        self, late_sender, daemon
    ):
        expected = _observed(late_sender)
        _, url = daemon
        out = io.StringIO()
        with pytest.raises(ServiceError, match="from an empty queue"):
            submit_request(url, RunRequest(specs=(late_sender,)), out=out,
                           timeout=60)
        assert _events(out.getvalue()) == expected


def _spec(**overrides):
    base = dict(algorithm="ca-arrow", n=3, max_slot=2, schedule="worst",
                rho="1/2", horizon=300, seed=0)
    base.update(overrides)
    return ScenarioSpec(**base)


def _without_volatile(text):
    records = [json.loads(line) for line in text.splitlines()]
    for record in records:
        for key in ("created_at", "wall_time_s", "events_per_second"):
            record.pop(key, None)
        record.get("metrics", {}).pop("events_per_second", None)
    return records


class TestClientPassThrough:
    def test_names_with_envelope_words_stream_every_record(self, daemon):
        _, url = daemon
        spec = _spec(name="an error in the service")
        request = RunRequest(specs=(spec,))
        out = io.StringIO()
        envelope = submit_request(url, request, out=out, timeout=60)
        assert envelope["type"] == "service"
        assert (envelope["status"], envelope["name"]) == ("ok", spec.name)
        assert envelope["served_from"] == "exec"

        local = io.StringIO()
        execute(request, artifact_stream=local)
        assert _without_volatile(out.getvalue()) == \
            _without_volatile(local.getvalue())
        assert out.getvalue().endswith("\n")
        assert '"type": "service"' not in out.getvalue()

    def test_in_band_error_still_raises(self, daemon, monkeypatch):
        _, url = daemon
        from repro.service import server as server_module

        def explode(*args, **kwargs):
            raise RuntimeError("service error: no service today")

        monkeypatch.setattr(server_module, "execute", explode)
        out = io.StringIO()
        with pytest.raises(ServiceError, match="no service today"):
            submit_request(url, RunRequest(specs=(_spec(),)), out=out,
                           timeout=60)
        assert out.getvalue() == ""

    def test_grid_submission_still_writes_result_rows(self, daemon):
        _, url = daemon
        specs = (_spec(name="service-a", rho="3/10"),
                 _spec(name="error-b", rho="7/10"))
        request = RunRequest(specs=specs, command="grid")
        out = io.StringIO()
        envelope = submit_request(url, request, out=out, timeout=60)
        assert (envelope["status"], envelope["cells"]) == ("ok", 2)
        rows = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [row["type"] for row in rows] == ["result", "result"]
        local = execute(request.replace_options(cache=False))
        assert [row["delivered"] for row in rows] == \
            [cell.as_row()["delivered"] for cell in local.report.results]


class _Replay(BaseHTTPRequestHandler):
    """Sends the server's recorded chunks, then drops the connection:
    after ``cut`` whole chunks and ``partial`` bytes of the next one."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002
        pass

    def do_POST(self):  # noqa: N802 - http.server naming
        self.rfile.read(int(self.headers["Content-Length"]))
        chunks, cut, partial = (
            self.server.chunks, self.server.cut, self.server.partial
        )
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        for data in chunks[:cut]:
            self.wfile.write(b"%X\r\n%s\r\n" % (len(data), data))
        if partial:
            data = chunks[cut]
            self.wfile.write(b"%X\r\n%s" % (len(data), data[:partial]))
        self.close_connection = True


@pytest.fixture()
def recorded_stream(daemon, monkeypatch):
    """The chunks a real daemon sends for one run, envelope last."""
    from repro.service import server as server_module

    chunks = []
    write = server_module._ChunkedWriter.write

    def recording(self, text):
        chunks.append(text.encode("utf-8"))
        return write(self, text)

    monkeypatch.setattr(server_module._ChunkedWriter, "write", recording)
    _, url = daemon
    request = RunRequest(specs=(_spec(),))
    submit_request(url, request, out=io.StringIO(), timeout=60)
    assert b'"type": "service"' in chunks[-1] and len(chunks) >= 3
    return request, chunks


@pytest.fixture()
def replay():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Replay)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _received(chunks, cut, partial):
    """The whole records a client has read when the stream stops."""
    data = b"".join(chunks[:cut]) + chunks[cut][:partial]
    return data[:data.rfind(b"\n") + 1]


class TestCutStream:
    def test_every_cut_is_an_error(self, recorded_stream, replay):
        request, chunks = recorded_stream
        server, url = replay
        server.chunks = chunks
        cuts = [(cut, 0) for cut in range(len(chunks))]
        cuts.append((1, len(chunks[1]) // 2))
        for server.cut, server.partial in cuts:
            out = io.StringIO()
            received = _received(chunks, server.cut, server.partial)
            sent = received.count(b"\n")
            with pytest.raises(ServiceError, match=f"after {sent} record"):
                submit_request(url, request, out=out, timeout=60)
            assert out.getvalue().encode("utf-8") == received

    def test_submit_exits_1_with_one_line(self, recorded_stream, replay,
                                          tmp_path):
        request, chunks = recorded_stream
        server, url = replay
        server.chunks, server.cut, server.partial = chunks, 2, 0
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(request.specs[0].to_json(), encoding="utf-8")
        out_path = tmp_path / "out.jsonl"
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "submit", str(spec_path),
             "--url", url, "--out", str(out_path), "--timeout", "60"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 1
        assert completed.stdout == ""
        received = _received(chunks, 2, 0)
        sent = received.count(b"\n")
        [line] = completed.stderr.splitlines()
        assert f"after {sent} record(s)" in line
        assert out_path.read_bytes() == received
