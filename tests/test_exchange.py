"""The sync client's HTTP exchange against a scripted raw-socket server:
the bytes of each request, the reply framings it accepts, and the replies it
refuses as transient failures."""

import http.client
import json
import socket
import threading
import urllib.parse

import pytest

from glucokit.data import GlucoseValue
from glucokit.telemetry import ReadingRecord, RetryPolicy, SyncStats, UploadQueue, sync
from glucokit.telemetry.client import _connection


def record(i):
    return ReadingRecord(f"r-{i:04d}", "p-1", f"2026-02-01T08:{i:02d}:00Z",
                         GlucoseValue(100.0 + i, "capillary"), "mpr3:capillary", "dev-1")


def no_sleep(_):
    pass


def ok(i, head=b""):
    """A kept-alive 200 acking record i, framed by Content-Length."""
    body = json.dumps({"ack": f"r-{i:04d}"}).encode()
    return b"HTTP/1.1 200 OK\r\n%sContent-Length: %d\r\n\r\n%s" % (head, len(body), body)


def chunked(body: bytes, *sizes) -> bytes:
    """body cut into chunks of the given sizes, then the rest, as chunked framing."""
    out, rest = b"", body
    for n in (*sizes, len(body)):
        piece, rest = rest[:n], rest[n:]
        if piece:
            out += b"%x;ext=1\r\n%s\r\n" % (len(piece), piece)
    return out + b"0\r\nX-Trailer: t\r\n\r\n"


class ScriptedServer:
    """Answers each request with the next scripted reply, as raw bytes; a
    scripted reply with close=True closes the connection after it."""

    def __init__(self, replies):
        self.replies = list(replies)  # (reply bytes, close after it)
        self.requests = []  # (head lines, body) as received
        self.connections = 0
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(0.05)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        return "http://127.0.0.1:%d" % self._sock.getsockname()[1]

    def _serve(self):
        while self.replies and not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except TimeoutError:
                continue
            self.connections += 1
            conn.settimeout(5)
            with conn, conn.makefile("rb") as rf:
                try:
                    self._answer(conn, rf)
                except OSError:
                    pass  # the client gave up on this connection

    def _answer(self, conn, rf):
        while self.replies:
            lines = []
            while (line := rf.readline()) not in (b"\r\n", b""):
                lines.append(line)
            if not lines:
                return  # the client closed the connection
            length = next(int(v) for k, _, v in (h.partition(b":") for h in lines)
                          if k.lower() == b"content-length")
            self.requests.append((lines, rf.read(length)))
            reply, close = self.replies.pop(0)
            conn.sendall(reply)
            if close:
                return

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5)
        self._sock.close()


@pytest.fixture()
def serve():
    servers = []

    def start(*replies):
        servers.append(ScriptedServer(replies))
        return servers[-1]

    yield start
    for s in servers:
        s.close()


@pytest.fixture()
def wire(monkeypatch):
    """The client's connections, each a list of the bytes of its sendall calls."""
    connections = []
    original = http.client.HTTPConnection.connect

    class Recording:
        def __init__(self, sock, sent):
            self._sock, self._sent = sock, sent

        def sendall(self, data):
            self._sent.append(bytes(data))
            return self._sock.sendall(data)

        def __getattr__(self, name):
            return getattr(self._sock, name)

    def connect(self):
        original(self)
        connections.append([])
        self.sock = Recording(self.sock, connections[-1])

    monkeypatch.setattr(http.client.HTTPConnection, "connect", connect)
    return connections


@pytest.fixture()
def queue(tmp_path):
    with UploadQueue(tmp_path / "q") as q:
        yield q


def run(q, url, max_attempts=2):
    return sync(q, url, RetryPolicy(max_attempts=max_attempts, jitter=0.0), sleep_fn=no_sleep)


def test_each_attempt_is_one_write_of_the_whole_request(serve, wire, queue):
    server = serve((b"HTTP/1.1 503 Busy\r\nContent-Length: 0\r\n\r\n", False),
                   (ok(0), False), (ok(1), False))
    queue.enqueue(record(0))
    queue.enqueue(record(1))
    assert run(queue, server.url) == SyncStats(uploaded=2, dead_lettered=0, remaining=0,
                                               attempts=3)
    [sent] = wire
    assert len(sent) == 3 == len(server.requests)
    port = server.url.rsplit(":", 1)[1]
    for data, (lines, body), i in zip(sent, server.requests, (0, 0, 1)):
        head, _, tail = data.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0] == b"POST /v1/readings HTTP/1.1"
        headers = dict(line.split(b": ", 1) for line in head.split(b"\r\n")[1:])
        want = json.dumps(record(i).to_wire()).encode()
        assert headers == {b"Host": f"127.0.0.1:{port}".encode(),
                           b"Accept-Encoding": b"identity",
                           b"Content-Type": b"application/json",
                           b"Content-Length": str(len(want)).encode()}
        assert tail == body == want
        assert data == b"".join(lines) + b"\r\n" + body


@pytest.mark.parametrize("url", [
    "http://127.0.0.1:80", "http://127.0.0.1:8080/ingest", "https://example.org",
    "https://example.org:8443", "http://[::1]:8080", "http://Bücher.example:81",
    "http://[::1]", "https://[::1]/x",
])
def test_host_is_what_http_client_sends(url):
    link = _connection(url, 1.0)
    conn = link._conn
    parts = urllib.parse.urlsplit(url)
    assert (conn.host, conn.port) == (parts.hostname, parts.port or conn.default_port)
    conn.putrequest("POST", "/v1/readings")  # buffers the lines; connects nowhere
    assert conn._buffer[1:] == link._head.split(b"\r\n")[1:3]  # Host, Accept-Encoding


@pytest.mark.parametrize("sizes", [(), (1,), (3, 5, 2)])
def test_chunked_reply(serve, wire, queue, sizes):
    body = json.dumps({"ack": "r-0000"}).encode()
    server = serve((b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                    + chunked(body, *sizes), False), (ok(1), False))
    queue.enqueue(record(0))
    queue.enqueue(record(1))
    assert run(queue, server.url).attempts == 2
    assert len(wire) == 1 and server.connections == 1  # the link stays open


def test_http_1_0_reply_framed_by_close(serve, wire, queue):
    reply = b'HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n{"ack": "r-%04d"}'
    server = serve((reply % 0, True), (reply % 1, True))
    queue.enqueue(record(0))
    queue.enqueue(record(1))
    assert run(queue, server.url) == SyncStats(uploaded=2, dead_lettered=0, remaining=0,
                                               attempts=2)
    assert [len(sent) for sent in wire] == [1, 1] and server.connections == 2


def test_connection_close_reply_reconnects(serve, wire, queue):
    server = serve((ok(0, b"Connection: keep-alive, close\r\n"), True), (ok(1), False))
    queue.enqueue(record(0))
    queue.enqueue(record(1))
    assert run(queue, server.url).uploaded == 2
    assert len(wire) == 2 == server.connections


def test_interim_replies_are_skipped(serve, wire, queue):
    server = serve((b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 102 Processing\r\nX: y\r\n\r\n"
                    + ok(0), False), (ok(1), False))
    queue.enqueue(record(0))
    queue.enqueue(record(1))
    assert run(queue, server.url, max_attempts=1) == SyncStats(
        uploaded=2, dead_lettered=0, remaining=0, attempts=2)
    assert len(wire) == 1


def test_line_and_header_caps_admit_their_limit(serve, wire, queue):
    line = b"X-Long: " + b"a" * (65536 - len(b"X-Long: \r\n")) + b"\r\n"
    assert len(line) == 65536
    server = serve((ok(0, line), False), (ok(1, b"X-H: 1\r\n" * 99), False))
    queue.enqueue(record(0))
    queue.enqueue(record(1))  # 99 and Content-Length: 100 headers
    assert run(queue, server.url, max_attempts=1).uploaded == 2
    assert len(wire) == 1


BAD_REPLIES = {
    "long-header-line": ok(0, b"X-Long: " + b"a" * (65537 - len(b"X-Long: \r\n")) + b"\r\n"),
    "long-status-line": b"HTTP/1.1 200 " + b"O" * 65536 + b"\r\n\r\n",
    "101-headers": ok(0, b"X-H: 1\r\n" * 100),
    "short-body": b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n" + b'{"ack": "r-0000"}',
    "bad-content-length": b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n{}",
    "bad-chunk-size": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
    "chunk-cut-short": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n20\r\n{}",
    "bad-status-line": b"HTTP/1.1 2000 OK\r\n\r\n",
    "not-http": b"SSH-2.0-OpenSSH\r\n\r\n",
    "no-reply": b"",
}


@pytest.mark.parametrize("name", list(BAD_REPLIES))
def test_bad_reply_is_transient_and_the_next_attempt_reconnects(serve, wire, queue, name):
    server = serve((BAD_REPLIES[name], True), (ok(0), False))
    queue.enqueue(record(0))
    assert run(queue, server.url) == SyncStats(uploaded=1, dead_lettered=0, remaining=0,
                                               attempts=2)
    assert [len(sent) for sent in wire] == [1, 1] and server.connections == 2
    assert queue.pending() == []
