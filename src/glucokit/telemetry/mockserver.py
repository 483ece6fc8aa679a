"""In-process mock of the readings endpoint, with fault injection.

Serves the real wire protocol, POST /v1/readings, and answers any other path
404. Faults are set in process, through the faults dict: fail_next (503s),
reject_next (400s), drop_next (connection cut with no response), latency and
every_other (alternating 503s); snapshot() reads the store and reset() clears
it and the faults. A reading is checked by ReadingRecord.from_wire, the upload
queue's own rule, and one it refuses gets a 400 with its message. Runs a
ThreadingHTTPServer on localhost in a daemon thread.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import DataError, NetworkError
from .queue import ReadingRecord

_FAULT_COUNTERS = ("fail_next", "reject_next", "drop_next")
_NO_FAULTS = {**dict.fromkeys(_FAULT_COUNTERS, 0), "latency": 0.0, "every_other": False}


class MockEndpoint:
    """Readings sink keyed by reading_id; duplicate POSTs ack without storing."""

    def __init__(self, port: int = 0, host: str = "127.0.0.1"):
        self._lock = threading.Lock()
        self.store: dict[str, dict] = {}
        self.faults = dict(_NO_FAULTS)
        self.request_count = 0
        handler = _make_handler(self)
        try:
            self._server = ThreadingHTTPServer((host, port), handler)
        except OSError as exc:
            raise NetworkError(f"cannot bind mock endpoint on {host}:{port}: {exc}") from None
        # clients killed mid-request reset connections; not worth a traceback
        self._server.handle_error = lambda *args: None
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
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # a reply is two writes (headers, body); with Nagle on, the body of a
        # kept-alive reply waits for the client's delayed ACK, about 40 ms
        disable_nagle_algorithm = True

        def log_message(self, *args):  # keep test output quiet
            pass

        def _reply(self, code: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _read_body(self) -> dict | None:
            """Consume the request body; None when it is not JSON. On a
            kept-alive connection an unread body would be parsed as the next
            request line, so every POST reads it before any reply."""
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                length = -1
            if length < 0:  # the body cannot be framed, so neither can the next request
                self.close_connection = True
                return None
            try:
                return json.loads(self.rfile.read(length).decode("utf-8"))
            except (ValueError, RecursionError):
                return None

        def _drop(self) -> None:
            try:
                self.connection.shutdown(2)
            except OSError:
                pass
            self.close_connection = True

        def do_POST(self):
            body = self._read_body()
            if self.path == "/v1/readings":
                return self._post_reading(body)
            self._reply(404, {"error": f"no such path {self.path}"})

        def _post_reading(self, body: dict | None):
            latency = owner.faults["latency"]
            if latency > 0:
                time.sleep(latency)
            with owner._lock:
                owner.request_count += 1
                count = owner.request_count
            if owner.faults["every_other"] and count % 2 == 1:
                return self._reply(503, {"error": "injected alternating failure"})
            fault = owner.take_fault()
            if fault == "fail_next":
                return self._reply(503, {"error": "injected transient failure"})
            if fault == "reject_next":
                return self._reply(400, {"error": "injected permanent rejection"})
            if fault == "drop_next":
                return self._drop()
            if body is None:
                return self._reply(400, {"error": "body is not valid JSON"})
            try:
                ReadingRecord.from_wire(body)
            except DataError as exc:
                return self._reply(400, {"error": str(exc)})
            owner.accept(body)
            self._reply(200, {"ack": body["reading_id"]})

    return Handler
