"""At-least-once uploader over HTTP; the endpoint dedupes on reading_id.

Transient failures (5xx, dropped connections, timeouts) back off exponentially
with jitter and retry up to max_attempts; 4xx responses are permanent and send
the record to the dead-letter log. Sleeping and randomness are injectable so
tests run instantly and deterministically.
"""

from __future__ import annotations

import http.client
import json
import math
import re
import time
import urllib.parse
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from ..data import Checked, Rule
from ..errors import DataError, NetworkError
from .queue import UploadQueue

# the most upload attempts per record in one sync; at the default 2 s
# max_delay a record that always fails backs off for about 3 minutes
MAX_ATTEMPTS = 100


@dataclass(frozen=True)
class RetryPolicy(Checked):
    base_delay: float = 0.1
    max_delay: float = 2.0
    jitter: Annotated[float, Rule(ge=0, le=1)] = 0.1  # fractional; delay *= 1 + jitter*U(-1, 1)
    max_attempts: Annotated[int, Rule(ge=1, le=MAX_ATTEMPTS)] = 6

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.base_delay <= self.max_delay:
            raise DataError("need 0 < base_delay <= max_delay")

    def delay(self, attempt: int, rng: np.random.Generator) -> float:
        base = min(self.base_delay * (2.0 ** attempt), self.max_delay)
        return base * (1.0 + self.jitter * float(rng.uniform(-1.0, 1.0)))


@dataclass(frozen=True)
class SyncStats:
    uploaded: int
    dead_lettered: int
    remaining: int
    attempts: int

    def drained(self) -> bool:
        return self.remaining == 0


class _Transient(Exception):
    """Retryable upload failure (5xx, connection trouble, timeout)."""


def _connection(endpoint: str, timeout: float) -> "_Exchange":
    """One keep-alive link to the readings path of the endpoint.

    Checking the URL here, once, makes a malformed one a DataError before any
    attempt. A path prefix is kept: http://h:p/ingest posts to
    /ingest/v1/readings.
    """
    if not 0 < timeout < math.inf:
        raise DataError(f"timeout must be a finite number of seconds > 0, got {timeout!r}")
    try:
        parts = urllib.parse.urlsplit(endpoint)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError("need an http:// or https:// URL with a host")
        cls = http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        # .port raises on a bad port; a None port would let http.client read one
        # from the host's last colon, so [::1] would become host ':' port 1
        conn = cls(parts.hostname, parts.port or cls.default_port, timeout=timeout)
        path = parts.path.rstrip("/") + "/v1/readings"
        if not re.fullmatch(r"[!-~]+", path):  # the request line is ASCII
            raise ValueError("path must be printable ASCII without spaces")
        return _Exchange(conn, path)
    except (ValueError, http.client.InvalidURL) as exc:
        raise DataError(f"endpoint {endpoint!r}: {exc}") from None


# http.client's caps on one status or header line and on the header count
_MAX_LINE, _MAX_HEADERS = 65536, 100


class FramingError(_Transient):
    """Bytes from the peer that cannot be framed as an HTTP/1.1 message."""


def read_line(fp) -> bytes:
    """One line of a message head, at most _MAX_LINE bytes with its end."""
    line = fp.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise FramingError(f"line longer than {_MAX_LINE} bytes")
    return line


def read_fields(fp) -> list[tuple[bytes, bytes]]:
    """A header block up to its blank line or EOF, as (name, value) pairs
    stripped and lowercased, at most _MAX_HEADERS of them."""
    fields = []
    for _ in range(_MAX_HEADERS + 1):
        line = read_line(fp)
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, _, value = line.partition(b":")
        fields.append((name.strip().lower(), value.strip().lower()))
    raise FramingError(f"more than {_MAX_HEADERS} headers")


class _Exchange:
    """POSTs over one keep-alive connection. The HTTPConnection only opens
    the socket (TCP_NODELAY, TLS for https, the per-operation timeout); each
    request goes out in one write, and the reply is framed here: 1xx replies
    skipped, then a chunked, Content-Length or close-delimited body."""

    def __init__(self, conn: http.client.HTTPConnection, path: str):
        self._conn = conn
        self._reader = None  # buffered reader on the open socket; None while closed
        try:  # the Host value http.client sends
            host = conn.host.encode("ascii")
        except UnicodeEncodeError:
            host = conn.host.encode("idna")
        if b":" in host:  # an IPv6 literal, without its zone
            host = b"[" + host.partition(b"%")[0] + b"]"
        if conn.port != conn.default_port:
            host += b":%d" % conn.port
        self._head = (b"POST %s HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n"
                      b"Content-Type: application/json\r\nContent-Length: "
                      % (path.encode("ascii"), host))

    def post(self, body: bytes) -> tuple[int, str, bytes]:
        """The reply's status, reason and body."""
        try:
            if self._reader is None:
                self._conn.connect()
                self._reader = self._conn.sock.makefile("rb")
            self._conn.sock.sendall(b"%s%d\r\n\r\n%s" % (self._head, len(body), body))
            status, reason, reply, keep = self._read_reply()
        except (OSError, _Transient) as exc:
            # a failed exchange leaves the connection unusable; close it so
            # the next post opens a fresh one
            self.close()
            raise _Transient(str(exc) or type(exc).__name__) from None
        if not keep:
            self.close()
        return status, reason, reply

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        self._conn.close()

    def _read_reply(self) -> tuple[int, str, bytes, bool]:
        status = 100
        while status < 200:
            line = read_line(self._reader)
            if not line:
                raise _Transient("endpoint closed the connection without a reply")
            parts = line.split(None, 2)
            if (len(parts) < 2 or not parts[0].startswith(b"HTTP/")
                    or not re.fullmatch(rb"[1-9]\d\d", parts[1])):
                raise _Transient(f"bad status line {line[:80]!r}")
            status = int(parts[1])
            reason = parts[2].strip().decode("latin-1") if len(parts) > 2 else ""
            close, length, chunked = parts[0] != b"HTTP/1.1", None, False
            for name, value in read_fields(self._reader):
                if name == b"content-length":
                    length = value
                elif name == b"transfer-encoding":
                    chunked = value.rsplit(b",", 1)[-1].strip() == b"chunked"
                elif name == b"connection":
                    close = close or b"close" in [t.strip() for t in value.split(b",")]
        if status in (204, 304):
            reply = b""
        elif chunked:
            reply = self._read_chunked()
        elif length is not None:
            if not length.isdigit():
                raise _Transient(f"bad Content-Length {length[:20]!r}")
            reply = self._read(int(length))
        else:
            reply, close = self._reader.read(), True
        return status, reason, reply, not close

    def _read(self, n: int) -> bytes:
        data = self._reader.read(n)
        if len(data) < n:
            raise _Transient(f"reply body cut short: {len(data)} of {n} bytes")
        return data

    def _read_chunked(self) -> bytes:
        chunks = []
        while True:
            size = read_line(self._reader).split(b";", 1)[0].strip()
            if not re.fullmatch(rb"[0-9A-Fa-f]+", size):
                raise _Transient(f"bad chunk size {size[:20]!r}")
            n = int(size, 16)
            if n == 0:
                break
            chunks.append(self._read(n))
            if self._read(2) != b"\r\n":
                raise _Transient("chunk not followed by CRLF")
        read_fields(self._reader)  # trailer fields
        return b"".join(chunks)


def _post_record(link: _Exchange, body: bytes, reading_id: str) -> str:
    status, reason, reply = link.post(body)
    if not 200 <= status < 300:
        detail = reply.decode("utf-8", "replace")[:200]
        if 400 <= status < 500:
            raise NetworkError(f"HTTP {status}: {detail or reason}")
        raise _Transient(f"HTTP {status}: {detail or reason}")
    try:
        payload = json.loads(reply.decode("utf-8"))
    except (ValueError, RecursionError):  # not UTF-8, not JSON, or nested too deep
        raise _Transient("endpoint reply is not JSON") from None
    ack = payload.get("ack") if isinstance(payload, dict) else None
    if ack != reading_id:
        raise _Transient(f"endpoint acked {ack!r}, expected {reading_id!r}")
    return ack


def sync(queue: UploadQueue, endpoint: str, retry: RetryPolicy | None = None, *,
         timeout: float = 10.0, sleep_fn=time.sleep,
         rng: np.random.Generator | None = None) -> SyncStats:
    """Upload every pending record in order.

    Stops early when one record exhausts its attempts (the endpoint is
    presumed down); whatever was acknowledged stays acknowledged. Each dead
    letter is fsynced as it is written. The acks are committed with one
    fsync when the run ends, however it ends, so once sync returns or raises
    its progress is durable. A power loss before then loses at most this
    run's acks: the next sync re-posts those records, and the endpoint
    deduplicates them on reading_id. Every attempt goes over one HTTP/1.1
    keep-alive connection, reopened on the next attempt after a failure or a
    server-side close; `timeout` applies to each socket operation.
    """
    retry = retry or RetryPolicy()
    rng = rng or np.random.default_rng()
    link = _connection(endpoint, timeout)
    uploaded = dead = attempts_total = 0
    records = queue.pending()
    try:
        for record in records:
            body = json.dumps(record.to_wire()).encode("utf-8")
            for attempt in range(retry.max_attempts):
                attempts_total += 1
                try:
                    _post_record(link, body, record.reading_id)
                except NetworkError as exc:
                    queue.mark_dead(record, str(exc))
                    dead += 1
                    break
                except _Transient:
                    if attempt + 1 < retry.max_attempts:
                        sleep_fn(retry.delay(attempt, rng))
                    continue
                queue.mark_acked(record.reading_id)
                uploaded += 1
                break
            else:
                break  # attempts exhausted: the endpoint is presumed down
    finally:
        link.close()
        queue.commit()
    # every record before the one that stopped the run was acked or dead-lettered
    return SyncStats(uploaded=uploaded, dead_lettered=dead,
                     remaining=len(records) - uploaded - dead, attempts=attempts_total)
