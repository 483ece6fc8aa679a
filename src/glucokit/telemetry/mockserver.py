"""In-process mock of the readings endpoint, with fault injection.

Serves the real wire protocol, POST /v1/readings, and answers any other path
404. Faults are set in process, through the faults dict: fail_next (503s),
reject_next (400s), drop_next (connection cut with no response), latency and
every_other (alternating 503s); snapshot() reads the store and reset() clears
it and the faults. A reading is checked by ReadingRecord.from_wire, the upload
queue's own rule, and one it refuses gets a 400 with its message; a body is
decoded only for a request that reaches that check. Runs a threading TCP
server on localhost in a daemon thread; each request is read through one
buffered reader, with the sync client's limits on lines and headers, and each
reply goes out in one write.
"""

from __future__ import annotations

import json
import re
import socketserver
import threading
import time
from http import HTTPStatus

from ..errors import DataError, NetworkError
from .client import FramingError, read_fields, read_line
from .queue import ReadingRecord

_FAULT_COUNTERS = ("fail_next", "reject_next", "drop_next")
_NO_FAULTS = {**dict.fromkeys(_FAULT_COUNTERS, 0), "latency": 0.0, "every_other": False}
_PHRASES = {status.value: status.phrase.encode() for status in HTTPStatus}


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = daemon_threads = True  # as ThreadingHTTPServer sets them

    def handle_error(self, request, client_address):
        pass  # clients killed mid-request reset connections; not worth a traceback


class MockEndpoint:
    """Readings sink keyed by reading_id; duplicate POSTs ack without storing."""

    def __init__(self, port: int = 0, host: str = "127.0.0.1"):
        self._lock = threading.Lock()
        self.store: dict[str, dict] = {}
        self.faults = dict(_NO_FAULTS)
        self.request_count = 0
        handler = _make_handler(self)
        try:
            self._server = _Server((host, port), handler)
        except OSError as exc:
            raise NetworkError(f"cannot bind mock endpoint on {host}:{port}: {exc}") from None
        # short poll so stop() does not dawdle half a second per endpoint
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "MockEndpoint":
        if not self._thread.is_alive() and not self._thread.ident:
            self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()

    def __enter__(self) -> "MockEndpoint":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- state used by the handler ------------------------------------------

    def take_fault(self) -> str | None:
        """Consume one pending fault, if any; returns its name."""
        faults = self.faults
        if faults["fail_next"] <= 0 and faults["reject_next"] <= 0 and faults["drop_next"] <= 0:
            return None  # nothing armed, so nothing to take the lock for
        with self._lock:
            for name in _FAULT_COUNTERS:
                if self.faults[name] > 0:
                    self.faults[name] -= 1
                    return name
        return None

    def accept(self, record: dict) -> None:
        """Store a wire record unless its reading_id is already stored."""
        with self._lock:
            self.store.setdefault(record["reading_id"], record)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "count": len(self.store),
                "ids": list(self.store.keys()),
                "records": list(self.store.values()),
            }

    def reset(self) -> None:
        with self._lock:
            self.store.clear()
            self.faults.update(_NO_FAULTS)
            self.request_count = 0


def _make_handler(owner: MockEndpoint):
    class Handler(socketserver.StreamRequestHandler):
        protocol_version = "HTTP/1.1"
        # pipelined replies and a 100 Continue go out back to back
        disable_nagle_algorithm = True

        def handle(self):
            self.close_connection = False
            while not self.close_connection:
                self._answer()

        def _answer(self) -> None:
            """Read one request and reply to it, framed as the sync client
            frames replies; a request that cannot be served closes the
            connection, with the status codes http.server gives."""
            self.close_connection = True  # until a POST is known to be framed
            try:
                words = read_line(self.rfile).decode("latin-1").split()
            except FramingError as exc:
                return self._error(414, f"request {exc}")
            if not words:  # end of stream, or a blank line
                return
            keep = len(words) >= 3
            if keep and words[-1] != "HTTP/1.1":  # the common version needs no regex
                match = re.fullmatch(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})", words[-1])
                if not match:
                    return self._error(400, f"bad request version {words[-1]!r}")
                version = int(match[1]), int(match[2])
                if version >= (2, 0):
                    return self._error(505, f"{words[-1]} is not supported")
                keep = version >= (1, 1)
            keep = keep and self.protocol_version >= "HTTP/1.1"
            if not 2 <= len(words) <= 3 or len(words) == 2 and words[0] != "GET":
                return self._error(400, f"bad request line {' '.join(words)[:80]!r}")
            method, path = words[:2]
            try:  # the first of a repeated header counts
                fields = dict(reversed(read_fields(self.rfile)))
            except FramingError as exc:
                return self._error(431, str(exc))
            if fields.get(b"expect") == b"100-continue" and keep:
                self.wfile.write(b"%s 100 Continue\r\n\r\n" % self.protocol_version.encode())
            if method != "POST":
                return self._error(501, f"unsupported method {method!r}")
            connection = fields.get(b"connection")
            self.close_connection = connection == b"close" or not (
                keep or connection == b"keep-alive" and self.protocol_version >= "HTTP/1.1")
            body = self._read_body(fields.get(b"content-length", b"0"))
            if path == "/v1/readings":
                return self._post_reading(body)
            self._error(404, f"no such path {path}")

        def _error(self, code: int, message: str) -> None:
            self._reply(code, b'{"error": %s}' % json.dumps(message).encode())

        def _reply(self, code: int, body: bytes) -> None:
            """Send the status line, headers and JSON body in one write."""
            self.wfile.write(b"%s %d %s\r\nContent-Type: application/json\r\n"
                             b"Content-Length: %d\r\n%s\r\n%s" % (
                                 self.protocol_version.encode(), code,
                                 _PHRASES[code], len(body),
                                 b"Connection: close\r\n" if self.close_connection else b"",
                                 body))

        def _read_body(self, length: bytes) -> bytes:
            """Consume the request body; empty when its length is not ASCII
            digits. On a kept-alive connection an unread body would be parsed
            as the next request line, so every POST reads it before any
            reply. It is decoded only when the reading reaches the store."""
            try:
                n = int(length) if length.isdigit() else -1
            except ValueError:  # more digits than int() converts
                n = -1
            if n < 0:  # the body cannot be framed, so neither can the next request
                self.close_connection = True
                return b""
            return self.rfile.read(n)

        def _drop(self) -> None:
            try:
                self.connection.shutdown(2)
            except OSError:
                pass
            self.close_connection = True

        def _post_reading(self, data: bytes):
            latency = owner.faults["latency"]
            if latency > 0:
                time.sleep(latency)
            with owner._lock:
                owner.request_count += 1
                count = owner.request_count
            if owner.faults["every_other"] and count % 2 == 1:
                return self._error(503, "injected alternating failure")
            fault = owner.take_fault()
            if fault == "fail_next":
                return self._error(503, "injected transient failure")
            if fault == "reject_next":
                return self._error(400, "injected permanent rejection")
            if fault == "drop_next":
                return self._drop()
            try:
                body = json.loads(data.decode("utf-8"))
            except (ValueError, RecursionError):
                return self._error(400, "body is not valid JSON")
            try:
                ReadingRecord.from_wire(body)
            except DataError as exc:
                return self._error(400, str(exc))
            owner.accept(body)
            self._reply(200, b'{"ack": %s}' % json.dumps(body["reading_id"]).encode())

    return Handler
