"""Durable upload queue: a write-ahead JSONL log plus acknowledgment log.

Directory layout:

    queue.log             one JSON record per line, enqueue order
    acked.log             one acknowledged reading_id per line
    deadletter.log        one JSON {record..., "reason"} per line
    last_timestamps.json  one line: each device's last enqueued timestamp,
                          written by compaction
    lock                  the flock that orders compaction against other
                          open queues

A record is pending iff it appears in queue.log and its id is in neither
acked.log nor deadletter.log. Every append is flushed before the call returns,
so an enqueue, ack or dead letter that returned survives a crash of the
process. Enqueues and dead letters are also fsynced before they return, since
each is then a record's only copy, so they survive a power loss too. Acks are
group-committed: commit() fsyncs acked.log once, and sync and close call it,
so every ack is durable once the sync that made it has returned. A power loss
mid-sync can lose only that sync's acks; their records are pending again and
the next sync re-posts them, which the endpoint deduplicates on reading_id. A
torn final line (no trailing newline, left by a crash mid-append) is ignored
on open; a malformed line that is not the final one means real corruption and
is an error. Each append holds an exclusive flock on its log while it checks
the tail and writes, so a torn tail it sees was left by a crash, not by
another queue's append in flight. Before appending to a log that ends in a
torn line, a queue cuts the fragment, or the new line would join it; it does
so only when no other queue has the directory open (see below), and otherwise
refuses the append with a DataError, changing no file. An open alone never
rewrites a log.

An open decodes and validates every complete line of all three logs: each
queue.log line and dead letter is read as a ReadingRecord, and only the
pending ones of queue.log are kept. pending_count() is O(1).

Compaction bounds what an open reads. Once COMPACT_AT lines of queue.log are
settled (acked or dead-lettered), the next enqueue rewrites queue.log with only
the pending records and empties acked.log; dead letters stay. Open, sync and
close never rewrite queue.log. Every open queue holds a shared flock on `lock`
until it is closed, and compaction needs it exclusive, so it happens only
when no other queue (in this process or another) has the directory open; an
enqueue that cannot have it skips compaction and appends as usual. An open
therefore waits only while another process is compacting. A reading acked
and then compacted away is no longer known to the queue and can be enqueued
again; the endpoint deduplicates it on reading_id.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import threading
from dataclasses import dataclass
from typing import Annotated

from ..data import Checked, GlucoseValue, Rule
from ..errors import DataError

QUEUE_LOG = "queue.log"
ACKED_LOG = "acked.log"
DEADLETTER_LOG = "deadletter.log"
LAST_TIMESTAMPS = "last_timestamps.json"
LOCK_FILE = "lock"

# settled queue.log lines at which an enqueue compacts first; a device that
# syncs every 12 readings reads at most COMPACT_AT + 12 lines per open
COMPACT_AT = 64

WIRE_FIELDS = (
    "reading_id", "patient_id", "timestamp_utc", "glucose_mgdl",
    "glucose_kind", "model_tag", "device_id",
)

_WIRE_KEYS = frozenset(WIRE_FIELDS)

# e.g. 2026-01-31T08:15:00Z: months 01-12, days 01-31, hours 00-23, minutes and
# seconds 00-59, ASCII digits only (\d would take any script's digits)
_TIMESTAMP = (r"[0-9]{4}-(?:0[1-9]|1[0-2])-(?:0[1-9]|[12][0-9]|3[01])"
              r"T(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]Z")
_Id = Annotated[str, Rule(nonempty=True, says="{name} must be a non-empty string, got {v}")]

# the C scanner behind json.loads, without its whitespace stripping: each log
# line is exactly one JSON value
_scan = json.JSONDecoder().scan_once


def _write(fh, data: bytes) -> None:
    fh.write(data)
    fh.flush()


def _durable(op: str, fn, *args):
    """Run one durability operation ("write", "fsync", "replace" or
    "truncate"). Every one the queue makes goes through here, so a test can
    count them and inject a crash before any of them."""
    return fn(*args)


def _decode_line(line: str):
    """The JSON value that spans the whole line."""
    try:
        value, end = _scan(line, 0)
    except StopIteration as exc:
        raise json.JSONDecodeError("Expecting value", line, exc.value) from None
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    return value


@dataclass(frozen=True)
class ReadingRecord(Checked):
    """One glucose reading bound for the cloud; reading_id doubles as the
    idempotency key, so retried uploads are harmless."""

    reading_id: _Id
    patient_id: _Id
    timestamp_utc: Annotated[str, Rule(  # ISO-8601, seconds precision
        pattern=_TIMESTAMP, says="{name} must look like 2026-01-31T08:15:00Z, got {v}")]
    glucose: GlucoseValue
    model_tag: _Id
    device_id: _Id

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
        if not isinstance(d, dict):
            raise DataError(f"entry must be a JSON object, got {d!r}")
        if d.keys() != _WIRE_KEYS:
            extra = set(d) - _WIRE_KEYS
            missing = _WIRE_KEYS - set(d)
            raise DataError(f"bad record fields: extra {sorted(extra)}, missing {sorted(missing)}")
        glucose = GlucoseValue(d["glucose_mgdl"], d["glucose_kind"])
        return cls(d["reading_id"], d["patient_id"], d["timestamp_utc"], glucose,
                   d["model_tag"], d["device_id"])


def _torn_tail(fh) -> bool:
    """Whether the log ends in a line without its newline."""
    size = os.fstat(fh.fileno()).st_size
    return size > 0 and os.pread(fh.fileno(), 1, size - 1) != b"\n"


def _read_lines(path) -> list[str]:
    """Complete lines of a log file; a torn final line is dropped."""
    if not os.path.exists(path):
        return []
    with open(path, "rb") as fh:
        data = fh.read()
    # cut the torn tail as bytes: acked.log holds raw ids, so a crash can
    # split a multi-byte character
    data = data[:data.rfind(b"\n") + 1]
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{os.path.basename(path)} line {lineno}: corrupt entry: {exc}") from None
    return text.split("\n")[:-1]


class UploadQueue:
    """Crash-safe pending-readings store. Queues in several threads or
    processes may share a directory: each append holds its log's flock, and
    compaction runs only when this queue has the directory alone."""

    def __init__(self, directory):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.Lock()
        self._flock_fh = open(self._path(LOCK_FILE), "ab")
        try:
            fcntl.flock(self._flock_fh, fcntl.LOCK_SH)
            self._load()
        except BaseException:
            self._flock_fh.close()
            raise
        # readable too, so an append can check the last byte
        self._logs = {name: open(self._path(name), "a+b")
                      for name in (QUEUE_LOG, ACKED_LOG, DEADLETTER_LOG)}
        self._uncommitted = False  # an ack appended since the last commit()

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def _load(self) -> None:
        self._pending: dict[str, ReadingRecord] = {}  # enqueue order
        self._ids: set[str] = set()  # every reading_id in queue.log
        self._dead: dict[str, tuple[ReadingRecord, str]] = {}
        self._last_ts: dict[str, str] = {}
        self._acked = set(_read_lines(self._path(ACKED_LOG)))
        self._read_log(LAST_TIMESTAMPS, self._load_last_timestamps)
        self._read_log(DEADLETTER_LOG, self._load_dead_letter)
        self._read_log(QUEUE_LOG, lambda entry: self._take(ReadingRecord.from_wire(entry)))

    def _read_log(self, name: str, load_entry) -> None:
        for lineno, line in enumerate(_read_lines(self._path(name)), start=1):
            try:
                load_entry(_decode_line(line))
            except (ValueError, RecursionError, DataError) as exc:
                raise DataError(f"{name} line {lineno}: corrupt entry: {exc}") from None

    def _load_last_timestamps(self, entry) -> None:
        if not isinstance(entry, dict):
            raise DataError(f"expected a JSON object, got {entry!r}")
        for device, ts in entry.items():
            if not device or not isinstance(ts, str) or not re.fullmatch(_TIMESTAMP, ts):
                raise DataError(f"bad last timestamp {ts!r} for device {device!r}")
        self._last_ts.update(entry)

    def _load_dead_letter(self, entry) -> None:
        # each line holds the full wire record, so a dead letter outlives
        # the compaction that drops it from queue.log
        reason = entry.pop("reason", "") if isinstance(entry, dict) else ""
        rec = ReadingRecord.from_wire(entry)
        self._dead[rec.reading_id] = (rec, reason)

    def _take(self, rec: ReadingRecord) -> None:
        """Take a queue.log record into the state: its id, its device's last
        timestamp and, unless acked or dead-lettered, the pending records."""
        rid, device, ts = rec.reading_id, rec.device_id, rec.timestamp_utc
        if rid not in self._acked and rid not in self._dead:
            self._pending[rid] = rec
        self._ids.add(rid)
        prev = self._last_ts.get(device)
        if prev is None or ts >= prev:
            self._last_ts[device] = ts

    def _append(self, name: str, text: str, fsync: bool = True) -> None:
        # the log's flock makes a torn tail seen here a crash's, not that of
        # another queue's append still in flight
        fh = self._logs[name]
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            if _torn_tail(fh):
                self._if_alone(lambda: self._cut_torn_tail(name))
                if self._logs[name] is not fh:  # another queue compacted: a new queue.log
                    fh = self._logs[name]
                    fcntl.flock(fh, fcntl.LOCK_EX)
                if _torn_tail(fh):
                    raise DataError(f"{name} ends in a torn line and another queue has "
                                    f"the directory open; not appending")
            _durable("write", _write, fh, text.encode("utf-8") + b"\n")
            if fsync:
                _durable("fsync", os.fsync, fh.fileno())
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)

    def _cut_torn_tail(self, name: str) -> None:
        with open(self._path(name), "r+b") as fh:
            _durable("truncate", fh.truncate, fh.read().rfind(b"\n") + 1)
            _durable("fsync", os.fsync, fh.fileno())

    def known_ids(self) -> set[str]:
        """The reading_ids in queue.log: pending ones, and settled ones not
        yet compacted away."""
        with self._lock:
            return set(self._ids)

    def enqueue(self, record: ReadingRecord) -> None:
        """Durably persist a reading; returns only after the bytes are synced.

        Compacts first once COMPACT_AT lines of queue.log are settled and no
        other queue has the directory open.
        """
        with self._lock:
            if len(self._ids) - len(self._pending) >= COMPACT_AT:
                self._if_alone(self._compact)
            if record.reading_id in self._ids:
                raise DataError(f"reading_id {record.reading_id!r} already enqueued")
            prev = self._last_ts.get(record.device_id)
            if prev is not None and record.timestamp_utc < prev:
                raise DataError(
                    f"timestamp {record.timestamp_utc} precedes the last enqueued "
                    f"timestamp {prev} for device {record.device_id!r}"
                )
            self._append(QUEUE_LOG, json.dumps(record.to_wire(), sort_keys=True))
            self._take(record)

    def pending(self) -> list[ReadingRecord]:
        """Unacknowledged, non-dead records in enqueue order."""
        with self._lock:
            return list(self._pending.values())

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def mark_acked(self, reading_id: str) -> None:
        """Append the ack and flush it, so other queues see it and a crash of
        the process keeps it. It is not fsynced: it survives a power loss
        once commit() returns. Until then a power loss can lose it, and the
        record is re-posted and deduplicated upstream."""
        with self._lock:
            if reading_id in self._acked:
                return
            self._append(ACKED_LOG, reading_id, fsync=False)
            self._acked.add(reading_id)
            self._pending.pop(reading_id, None)
            self._uncommitted = True

    def commit(self) -> None:
        """Make every ack this queue has appended durable with one fsync of
        acked.log; does nothing if there is none since the last commit."""
        with self._lock:
            if self._uncommitted:
                _durable("fsync", os.fsync, self._logs[ACKED_LOG].fileno())
                self._uncommitted = False

    def mark_dead(self, record: ReadingRecord, reason: str) -> None:
        with self._lock:
            if record.reading_id in self._dead:
                return
            entry = dict(record.to_wire())
            entry["reason"] = reason
            self._append(DEADLETTER_LOG, json.dumps(entry, sort_keys=True))
            self._dead[record.reading_id] = (record, reason)
            self._pending.pop(record.reading_id, None)

    def dead_letters(self) -> list[tuple[ReadingRecord, str]]:
        with self._lock:
            return list(self._dead.values())

    def acked_count(self) -> int:
        with self._lock:
            return len(self._acked)

    def compact(self) -> bool:
        """Rewrite queue.log keeping only pending records and empty acked.log,
        as enqueue does at COMPACT_AT settled lines.

        Returns False, changing nothing, while another queue has the
        directory open. Never called by sync, so a sync run leaves queue.log
        byte-identical.
        """
        with self._lock:
            return self._if_alone(self._compact)

    def _if_alone(self, work) -> bool:
        """Run work() under the exclusive flock if no other queue has the
        directory open; returns whether it ran."""
        # drop the shared flock before asking for the exclusive one: on Linux
        # a failed conversion drops it anyway
        fcntl.flock(self._flock_fh, fcntl.LOCK_UN)
        try:
            fcntl.flock(self._flock_fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            ran = False
        else:
            work()
            ran = True
        finally:
            fcntl.flock(self._flock_fh, fcntl.LOCK_SH)
        # another queue may have compacted while this one held no flock
        on_disk = os.stat(self._path(QUEUE_LOG))
        held = os.fstat(self._logs[QUEUE_LOG].fileno())
        if (on_disk.st_dev, on_disk.st_ino) != (held.st_dev, held.st_ino):
            self._load()
            self._reopen_queue_log()
        return ran

    def _compact(self) -> None:
        # queues that had the directory open may have appended since this
        # one loaded, so compact what the files hold
        self._load()
        # each device's last timestamp must outlive the records that carry
        # it, so it is durable before they are dropped
        self._replace(LAST_TIMESTAMPS, json.dumps(self._last_ts, sort_keys=True) + "\n")
        # the rename is durable before acked.log is emptied, or a power loss
        # could bring back the old queue.log with no acks
        self._replace(QUEUE_LOG, "".join(json.dumps(r.to_wire(), sort_keys=True) + "\n"
                                         for r in self._pending.values()))
        self._reopen_queue_log()
        self._ids = set(self._pending)
        _durable("truncate", self._logs[ACKED_LOG].truncate, 0)
        _durable("fsync", os.fsync, self._logs[ACKED_LOG].fileno())
        self._acked = set()

    def _replace(self, name: str, text: str) -> None:
        """Atomically and durably replace a file by write, fsync and rename."""
        tmp = self._path(name + ".tmp")
        with open(tmp, "wb") as fh:
            _durable("write", _write, fh, text.encode("utf-8"))
            _durable("fsync", os.fsync, fh.fileno())
        _durable("replace", os.replace, tmp, self._path(name))
        dir_fd = os.open(self.directory, os.O_RDONLY)
        try:
            _durable("fsync", os.fsync, dir_fd)
        finally:
            os.close(dir_fd)

    def _reopen_queue_log(self) -> None:
        self._logs[QUEUE_LOG].close()
        self._logs[QUEUE_LOG] = open(self._path(QUEUE_LOG), "a+b")

    def close(self) -> None:
        """Commit the acks, then close the logs and release the flock. The
        logs are closed even if the commit fails, and its OSError is raised;
        a second close does nothing."""
        try:
            self.commit()
        finally:
            self._uncommitted = False  # nothing left to commit through closed logs
            for fh in (*self._logs.values(), self._flock_fh):
                try:
                    fh.close()
                except OSError:
                    pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
