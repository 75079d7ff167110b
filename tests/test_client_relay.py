"""How ``submit_request`` relays a daemon's stream to its output.

The client reads the body in blocks and passes each run of whole lines
on with one write; it splits a block into lines and parses them only
when the block holds a line that can be the envelope or an in-band
error (one containing ``service`` or ``error``) or a line that does not
start with ``{`` (a blank one, say).  A stub daemon here sends a body
whose records carry those words inside their values, or do not, and
whose last line has no newline.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.scenarios import ScenarioSpec
from repro.service import RunRequest, ServiceError, submit_request

REQUEST = RunRequest(specs=(ScenarioSpec(
    algorithm="ca-arrow", n=3, max_slot="2", schedule="worst", rho="1/2",
    horizon=100, seed=0),))


#: Records read whole, and records that are split into lines and read
#: one by one because each holds a word of the envelope or an error.
PLAIN = ("listen", "ack")
WORDY = ("service", "error", "an error in the service")


def _record(index, words=WORDY):
    """One record line: by default a word the envelope or an error
    carries, and characters that ``str.splitlines`` splits on and
    ``"\\n"`` does not."""
    note = words[index % len(words)]
    return (f'{{"type":"slot","idx":{index},"note":"{note}",'
            '"text":"\u00e9\u2603\x0b\x85\u2028"}\n')


ENVELOPE = json.dumps({"type": "service", "status": "ok", "name": "relay"})


class _Stub(BaseHTTPRequestHandler):
    """Sends ``server.chunks`` as chunks.  With ``server.lockstep`` set,
    each chunk goes out only once the client has written the records of
    the one before, so no two chunks ever share one read."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002
        pass

    def do_POST(self):  # noqa: N802 - http.server naming
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        sink = self.server.sink
        for data in self.server.chunks:
            if self.server.lockstep:
                with sink.written:
                    sink.written.wait_for(
                        lambda: sink.text().count("\n") >= sink.expected,
                        timeout=30,
                    )
                sink.expected += data.count(b"\n")
            self.wfile.write(b"%X\r\n%s\r\n" % (len(data), data))
        self.wfile.write(b"0\r\n\r\n")


class _Sink:
    """The client's ``out``: keeps every write and signals each one."""

    def __init__(self):
        self.parts = []
        self.written = threading.Condition()
        self.expected = 0

    def write(self, text):
        with self.written:
            self.parts.append(text)
            self.written.notify_all()
        return len(text)

    def text(self):
        return "".join(self.parts)


@pytest.fixture()
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    server.lockstep = False
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _chunks(body, size):
    return [body[i:i + size] for i in range(0, len(body), size)]


class TestRelay:
    @pytest.mark.parametrize("words", [PLAIN, WORDY])
    @pytest.mark.parametrize("size", [7, 100, 4096, 1 << 20])
    def test_out_is_the_body_without_its_envelope(self, stub, size, words):
        server, url = stub
        records = "".join(_record(i, words) for i in range(400))
        body = (records + ENVELOPE).encode("utf-8")  # no final newline
        server.chunks, server.sink = _chunks(body, size), _Sink()
        envelope = submit_request(url, REQUEST, out=server.sink, timeout=60)
        assert envelope["name"] == "relay"
        assert envelope["served_from"] == "exec"
        assert server.sink.text() == records

    @pytest.mark.parametrize("words", [PLAIN, WORDY])
    def test_one_write_per_chunk(self, stub, words):
        server, url = stub
        records = [_record(i, words) for i in range(600)]
        # Blocks of 20 records (about 2 KB), the envelope on its own:
        # every chunk fits in one read of the client's socket buffer.
        chunks = ["".join(records[i:i + 20]).encode("utf-8")
                  for i in range(0, len(records), 20)]
        assert max(map(len, chunks)) < 8000
        server.chunks = chunks + [ENVELOPE.encode("utf-8") + b"\n"]
        server.sink, server.lockstep = _Sink(), True
        submit_request(url, REQUEST, out=server.sink, timeout=60)
        assert server.sink.text() == "".join(records)
        assert len(server.sink.parts) <= len(chunks)

    @pytest.mark.parametrize("words", [PLAIN, WORDY])
    @pytest.mark.parametrize("blank", ["\n", "  \n", "\r\n", "\u3000\n"])
    def test_blank_lines_are_dropped_and_not_counted(self, stub, words, blank):
        server, url = stub
        records = [_record(i, words) for i in range(3)]
        for body in (blank + "".join(records),
                     records[0] + blank + records[1] + records[2]):
            # Each ends without an envelope.
            server.chunks, server.sink = [body.encode("utf-8")], _Sink()
            with pytest.raises(ServiceError, match="after 3 record"):
                submit_request(url, REQUEST, out=server.sink, timeout=60)
            assert server.sink.text() == "".join(records)

    def test_a_last_line_without_newline_is_a_record(self, stub):
        server, url = stub
        body = (_record(0) + _record(1).rstrip("\n")).encode("utf-8")
        server.chunks, server.sink = _chunks(body, 50), _Sink()
        with pytest.raises(ServiceError, match="ended without its envelope "
                                               "after 2 record"):
            submit_request(url, REQUEST, out=server.sink, timeout=60)
        assert server.sink.text() == _record(0) + _record(1)

    def test_records_before_an_in_band_error_are_written(self, stub):
        server, url = stub
        error = json.dumps({"type": "error", "error": "the run failed"})
        body = (_record(0) + _record(1) + error + "\n" + _record(2))
        server.chunks, server.sink = [body.encode("utf-8")], _Sink()
        with pytest.raises(ServiceError, match="the run failed"):
            submit_request(url, REQUEST, out=server.sink, timeout=60)
        assert server.sink.text() == _record(0) + _record(1)

    def test_a_character_split_across_chunks(self, stub):
        server, url = stub
        records = "".join(_record(i) for i in range(40))
        body = (records + ENVELOPE + "\n").encode("utf-8")
        # Cut inside every multi-byte character.
        cuts = [i + 1 for i, byte in enumerate(body) if byte >= 0xC0]
        server.chunks = [body[a:b] for a, b in zip([0] + cuts, cuts + [None])]
        server.sink = _Sink()
        submit_request(url, REQUEST, out=server.sink, timeout=60)
        assert server.sink.text() == records
