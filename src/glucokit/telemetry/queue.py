"""Durable upload queue: a write-ahead JSONL log plus acknowledgment log.

Directory layout (all files append-only during normal operation):

    queue.log       one JSON record per line, enqueue order
    acked.log       one acknowledged reading_id per line
    deadletter.log  one JSON {record..., "reason"} per line

A record is pending iff it appears in queue.log and its id is in neither
acked.log nor deadletter.log. Every append is flushed and fsynced before the
call returns, so an enqueue or ack that returned survives a crash. A torn
final line (no trailing newline) is ignored on open; a malformed line that
is not the final one means real corruption and is an error.
"""

from __future__ import annotations

import json
import os
import re
import threading
from dataclasses import dataclass

from ..data import GLUCOSE_KINDS, GlucoseValue
from ..errors import DataError

QUEUE_LOG = "queue.log"
ACKED_LOG = "acked.log"
DEADLETTER_LOG = "deadletter.log"

WIRE_FIELDS = (
    "reading_id", "patient_id", "timestamp_utc", "glucose_mgdl",
    "glucose_kind", "model_tag", "device_id",
)

_TIMESTAMP_RE = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z$")


@dataclass(frozen=True)
class ReadingRecord:
    """One glucose reading bound for the cloud; reading_id doubles as the
    idempotency key, so retried uploads are harmless."""

    reading_id: str
    patient_id: str
    timestamp_utc: str  # ISO-8601, seconds precision, e.g. 2026-01-31T08:15:00Z
    glucose: GlucoseValue
    model_tag: str
    device_id: str

    def __post_init__(self):
        for name in ("reading_id", "patient_id", "model_tag", "device_id"):
            v = getattr(self, name)
            if not isinstance(v, str) or not v:
                raise DataError(f"{name} must be a non-empty string, got {v!r}")
        if not _TIMESTAMP_RE.match(self.timestamp_utc):
            raise DataError(
                f"timestamp_utc must look like 2026-01-31T08:15:00Z, got {self.timestamp_utc!r}"
            )

    def to_wire(self) -> dict:
        """The exact JSON body the endpoint expects (field set is fixed)."""
        return {
            "reading_id": self.reading_id,
            "patient_id": self.patient_id,
            "timestamp_utc": self.timestamp_utc,
            "glucose_mgdl": self.glucose.value_mgdl,
            "glucose_kind": self.glucose.kind,
            "model_tag": self.model_tag,
            "device_id": self.device_id,
        }

    @classmethod
    def from_wire(cls, d: dict) -> "ReadingRecord":
        extra = set(d) - set(WIRE_FIELDS)
        missing = set(WIRE_FIELDS) - set(d)
        if extra or missing:
            raise DataError(f"bad record fields: extra {sorted(extra)}, missing {sorted(missing)}")
        if d["glucose_kind"] not in GLUCOSE_KINDS:
            raise DataError(f"bad glucose_kind {d['glucose_kind']!r}")
        return cls(
            reading_id=d["reading_id"],
            patient_id=d["patient_id"],
            timestamp_utc=d["timestamp_utc"],
            glucose=GlucoseValue(float(d["glucose_mgdl"]), d["glucose_kind"]),
            model_tag=d["model_tag"],
            device_id=d["device_id"],
        )


def _read_lines(path) -> list[str]:
    """Complete lines of a log file; a torn final line is dropped."""
    if not os.path.exists(path):
        return []
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        return []
    torn = not data.endswith(b"\n")
    lines = data.decode("utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if torn and lines:
        lines.pop()
    return lines


class UploadQueue:
    """Crash-safe pending-readings store. One writer and one syncer may run
    concurrently; every mutation holds the internal lock."""

    def __init__(self, directory):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.Lock()
        self._records: list[ReadingRecord] = []
        self._ids: set[str] = set()
        self._acked: set[str] = set()
        self._dead: dict[str, tuple[ReadingRecord, str]] = {}
        self._last_ts: dict[str, str] = {}
        self._load()
        self._queue_fh = open(self._path(QUEUE_LOG), "ab")
        self._acked_fh = open(self._path(ACKED_LOG), "ab")
        self._dead_fh = open(self._path(DEADLETTER_LOG), "ab")

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def _load(self) -> None:
        for lineno, line in enumerate(_read_lines(self._path(QUEUE_LOG)), start=1):
            try:
                rec = ReadingRecord.from_wire(json.loads(line))
            except (json.JSONDecodeError, DataError) as exc:
                raise DataError(f"{QUEUE_LOG} line {lineno}: corrupt entry: {exc}") from None
            self._records.append(rec)
            self._ids.add(rec.reading_id)
            prev = self._last_ts.get(rec.device_id)
            if prev is None or rec.timestamp_utc >= prev:
                self._last_ts[rec.device_id] = rec.timestamp_utc
        self._acked = set(_read_lines(self._path(ACKED_LOG)))
        for lineno, line in enumerate(_read_lines(self._path(DEADLETTER_LOG)), start=1):
            # each line holds the full wire record, so a dead letter outlives
            # the compaction that drops it from queue.log
            try:
                entry = json.loads(line)
                rec = ReadingRecord.from_wire({k: v for k, v in entry.items() if k != "reason"})
                self._dead[rec.reading_id] = (rec, entry.get("reason", ""))
            except (AttributeError, ValueError, DataError) as exc:
                raise DataError(f"{DEADLETTER_LOG} line {lineno}: corrupt entry: {exc!r}") from None

    @staticmethod
    def _append(fh, text: str) -> None:
        fh.write(text.encode("utf-8") + b"\n")
        fh.flush()
        os.fsync(fh.fileno())

    def known_ids(self) -> set[str]:
        with self._lock:
            return set(self._ids)

    def enqueue(self, record: ReadingRecord) -> None:
        """Durably persist a reading; returns only after the bytes are synced."""
        with self._lock:
            if record.reading_id in self._ids:
                raise DataError(f"reading_id {record.reading_id!r} already enqueued")
            prev = self._last_ts.get(record.device_id)
            if prev is not None and record.timestamp_utc < prev:
                raise DataError(
                    f"timestamp {record.timestamp_utc} precedes the last enqueued "
                    f"timestamp {prev} for device {record.device_id!r}"
                )
            self._append(self._queue_fh, json.dumps(record.to_wire(), sort_keys=True))
            self._records.append(record)
            self._ids.add(record.reading_id)
            self._last_ts[record.device_id] = record.timestamp_utc

    def pending(self) -> list[ReadingRecord]:
        """Unacknowledged, non-dead records in enqueue order."""
        with self._lock:
            return [
                r for r in self._records
                if r.reading_id not in self._acked and r.reading_id not in self._dead
            ]

    def pending_count(self) -> int:
        return len(self.pending())

    def mark_acked(self, reading_id: str) -> None:
        with self._lock:
            if reading_id in self._acked:
                return
            self._append(self._acked_fh, reading_id)
            self._acked.add(reading_id)

    def mark_dead(self, record: ReadingRecord, reason: str) -> None:
        with self._lock:
            if record.reading_id in self._dead:
                return
            entry = dict(record.to_wire())
            entry["reason"] = reason
            self._append(self._dead_fh, json.dumps(entry, sort_keys=True))
            self._dead[record.reading_id] = (record, reason)

    def dead_letters(self) -> list[tuple[ReadingRecord, str]]:
        with self._lock:
            return list(self._dead.values())

    def acked_count(self) -> int:
        with self._lock:
            return len(self._acked)

    def compact(self) -> None:
        """Rewrite queue.log keeping only pending records; manual housekeeping.

        Never called by sync, so a sync run leaves queue.log byte-identical.
        """
        with self._lock:
            keep = [
                r for r in self._records
                if r.reading_id not in self._acked and r.reading_id not in self._dead
            ]
            tmp = self._path(QUEUE_LOG + ".tmp")
            with open(tmp, "wb") as fh:
                for r in keep:
                    fh.write(json.dumps(r.to_wire(), sort_keys=True).encode("utf-8") + b"\n")
                fh.flush()
                os.fsync(fh.fileno())
            self._queue_fh.close()
            os.replace(tmp, self._path(QUEUE_LOG))
            # the rename must be durable before acked.log is emptied, or a
            # power loss could bring back the old queue.log with no acks
            dir_fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
            self._queue_fh = open(self._path(QUEUE_LOG), "ab")
            self._records = keep
            self._ids = {r.reading_id for r in keep}
            with open(self._path(ACKED_LOG), "wb") as fh:
                fh.flush()
                os.fsync(fh.fileno())
            self._acked_fh.close()
            self._acked_fh = open(self._path(ACKED_LOG), "ab")
            self._acked = set()

    def close(self) -> None:
        for fh in (self._queue_fh, self._acked_fh, self._dead_fh):
            try:
                fh.close()
            except OSError:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
