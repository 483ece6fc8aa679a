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
from .queue import ReadingRecord, UploadQueue

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


def _connection(endpoint: str, timeout: float) -> tuple[http.client.HTTPConnection, str]:
    """One keep-alive connection to the endpoint and the readings path on it.

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
        conn = cls(parts.hostname, parts.port, timeout=timeout)  # .port raises on a bad port
        path = parts.path.rstrip("/") + "/v1/readings"
        if not re.fullmatch(r"[!-~]+", path):  # http.client sends the request line as ASCII
            raise ValueError("path must be printable ASCII without spaces")
    except (ValueError, http.client.InvalidURL) as exc:
        raise DataError(f"endpoint {endpoint!r}: {exc}") from None
    return conn, path


def _post_record(conn: http.client.HTTPConnection, path: str, record: ReadingRecord) -> str:
    body = json.dumps(record.to_wire()).encode("utf-8")
    try:
        conn.request("POST", path, body, {"Content-Type": "application/json"})
        with conn.getresponse() as resp:
            status, reason, reply = resp.status, resp.reason, resp.read()
    except (http.client.HTTPException, OSError) as exc:
        # a failed exchange leaves the connection unusable; close it so the
        # next request opens a fresh one
        conn.close()
        raise _Transient(str(exc)) from None
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
    if ack != record.reading_id:
        raise _Transient(f"endpoint acked {ack!r}, expected {record.reading_id!r}")
    return ack


def sync(queue: UploadQueue, endpoint: str, retry: RetryPolicy | None = None, *,
         timeout: float = 10.0, sleep_fn=time.sleep,
         rng: np.random.Generator | None = None) -> SyncStats:
    """Upload every pending record in order; partial progress is durable.

    Stops early when one record exhausts its attempts (the endpoint is
    presumed down); whatever was acknowledged stays acknowledged. Every
    attempt goes over one HTTP/1.1 keep-alive connection, reopened on the
    next attempt after a failure or a server-side close; `timeout` applies
    to each socket operation.
    """
    retry = retry or RetryPolicy()
    rng = rng or np.random.default_rng()
    conn, path = _connection(endpoint, timeout)
    uploaded = dead = attempts_total = 0
    records = queue.pending()
    try:
        for record in records:
            for attempt in range(retry.max_attempts):
                attempts_total += 1
                try:
                    _post_record(conn, path, record)
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
        conn.close()
    # every record before the one that stopped the run was acked or dead-lettered
    return SyncStats(uploaded=uploaded, dead_lettered=dead,
                     remaining=len(records) - uploaded - dead, attempts=attempts_total)
