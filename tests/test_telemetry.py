"""Durable queue semantics, retry policy, and sync against the mock endpoint."""

import collections
import contextlib
import dataclasses
import fcntl
import http.client
import json
import os
import shutil
import socket
import socketserver
import stat
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import glucokit
from glucokit.data import GlucoseValue
from glucokit.errors import DataError
from glucokit.telemetry import (
    MockEndpoint,
    ReadingRecord,
    RetryPolicy,
    SyncStats,
    UploadQueue,
    sync,
)
from glucokit.telemetry import queue as queue_module
from glucokit.telemetry.queue import (
    ACKED_LOG, COMPACT_AT, DEADLETTER_LOG, LAST_TIMESTAMPS, QUEUE_LOG, WIRE_FIELDS,
)


def record(i, device="dev-1", patient="p-1", minute=None):
    return ReadingRecord(
        reading_id=f"r-{i:04d}",
        patient_id=patient,
        timestamp_utc=f"2026-02-01T08:{minute if minute is not None else i:02d}:00Z",
        glucose=GlucoseValue(100.0 + i, "capillary"),
        model_tag="mpr3:capillary",
        device_id=device,
    )


def timed_record(i, device="dev-1"):
    """Reading i of a device, taken i minutes after midnight (i < 1440)."""
    return ReadingRecord(
        reading_id=f"r-{i:04d}",
        patient_id="p-1",
        timestamp_utc=f"2026-02-01T{i // 60:02d}:{i % 60:02d}:00Z",
        glucose=GlucoseValue(100.0 + i, "capillary"),
        model_tag="mpr3:capillary",
        device_id=device,
    )


def no_sleep(_):
    pass


def log_ids(d) -> list[str]:
    return [json.loads(line)["reading_id"] for line in (d / QUEUE_LOG).read_text().splitlines()]


# a python that imports this glucokit, for tests that need other processes
SRC_DIR = os.path.dirname(os.path.dirname(glucokit.__file__))
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p))

# holds the queue in argv[1] open until its stdin closes
HOLD_OPEN = """
import sys
from glucokit.telemetry import UploadQueue
with UploadQueue(sys.argv[1]):
    print("open", flush=True)
    sys.stdin.read()
"""

# enqueues readings 0..argv[3] of device argv[2], one open each, as
# `predict --enqueue` does; the pauses between readings are when a queue can
# have the directory alone and compact
ENQUEUE_READINGS = """
import sys
import time
from glucokit.data import GlucoseValue
from glucokit.telemetry import ReadingRecord, UploadQueue
qdir, device, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
for i in range(n):
    with UploadQueue(qdir) as q:
        q.enqueue(ReadingRecord(
            reading_id=f"{device}-{i:04d}", patient_id="p-1",
            timestamp_utc=f"2026-02-01T{i // 60:02d}:{i % 60:02d}:00Z",
            glucose=GlucoseValue(100.0 + i, "capillary"),
            model_tag="mpr3:capillary", device_id=device,
        ))
    time.sleep(0.005)
"""


def wire_line(i, **changes) -> str:
    """record(i) as its queue.log line, with some wire fields replaced."""
    d = record(i).to_wire()
    d.update(changes)
    return json.dumps(d, sort_keys=True)


# complete log lines that are not a valid record; each must be a corrupt entry
CORRUPT_ENTRIES = {
    "int": "5",
    "null": "null",
    "array": "[]",
    "glucose-text": wire_line(1, glucose_mgdl="abc"),
    "glucose-numeric-text": wire_line(1, glucose_mgdl="120"),
    "glucose-array": wire_line(1, glucose_mgdl=[1]),
    "glucose-bool": wire_line(1, glucose_mgdl=True),
    "glucose-huge-int": wire_line(1, glucose_mgdl=10 ** 400),
    "timestamp-int": wire_line(1, timestamp_utc=5),
    "timestamp-newline": wire_line(1, timestamp_utc="2026-02-01T08:01:00Z\n"),
    "reading-id-array": wire_line(1, reading_id=[1]),
    "trailing-data": wire_line(1) + " x",
}


class TestReadingRecord:
    def test_wire_round_trip(self):
        r = record(3)
        assert ReadingRecord.from_wire(r.to_wire()) == r
        assert set(r.to_wire()) == set(WIRE_FIELDS)

    def test_extra_wire_field_rejected(self):
        d = record(0).to_wire()
        d["shoe_size"] = 42
        with pytest.raises(DataError, match="extra"):
            ReadingRecord.from_wire(d)

    def test_missing_wire_field_rejected(self):
        d = record(0).to_wire()
        del d["device_id"]
        with pytest.raises(DataError, match="missing"):
            ReadingRecord.from_wire(d)

    def test_bad_glucose_kind_rejected(self):
        d = record(0).to_wire()
        d["glucose_kind"] = "plasma"
        with pytest.raises(DataError, match="glucose_kind"):
            ReadingRecord.from_wire(d)

    @pytest.mark.parametrize("ts", [
        "2026-02-01 08:00:00",       # missing T/Z
        "2026-02-01T08:00:00+00:00", # offset form not accepted
        "2026-2-1T08:00:00Z",        # unpadded
        "2026-13-45T99:99:99Z",      # no such month, day, hour, minute or second
        "2026-02-01T24:00:00Z",      # hours run 00-23
        "\u0662\u0660\u0662\u0666-02-01T08:00:00Z",  # Arabic-Indic digits
    ])
    def test_timestamp_shape_enforced(self, ts):
        with pytest.raises(DataError, match="timestamp"):
            ReadingRecord(
                reading_id="r-1", patient_id="p-1", timestamp_utc=ts,
                glucose=GlucoseValue(100.0, "capillary"),
                model_tag="t", device_id="d",
            )

    def test_empty_identifier_rejected(self):
        with pytest.raises(DataError, match="device_id"):
            ReadingRecord(
                reading_id="r-1", patient_id="p-1",
                timestamp_utc="2026-02-01T08:00:00Z",
                glucose=GlucoseValue(100.0, "capillary"),
                model_tag="t", device_id="",
            )


class TestUploadQueue:
    def test_enqueue_preserves_order(self, tmp_path):
        with UploadQueue(tmp_path / "q") as q:
            for i in range(5):
                q.enqueue(record(i))
            assert [r.reading_id for r in q.pending()] == [f"r-{i:04d}" for i in range(5)]
            assert q.pending_count() == 5

    def test_duplicate_id_rejected(self, tmp_path):
        with UploadQueue(tmp_path / "q") as q:
            q.enqueue(record(1))
            with pytest.raises(DataError, match="already enqueued"):
                q.enqueue(record(1))

    def test_per_device_timestamps_must_not_regress(self, tmp_path):
        with UploadQueue(tmp_path / "q") as q:
            q.enqueue(record(1, minute=30))
            with pytest.raises(DataError, match="precedes"):
                q.enqueue(record(2, minute=10))
            q.enqueue(record(3, device="dev-2", minute=10))  # other device is fine
            q.enqueue(record(4, minute=30))  # equal timestamp is fine

    def test_ack_is_idempotent_and_durable(self, tmp_path):
        d = tmp_path / "q"
        with UploadQueue(d) as q:
            q.enqueue(record(1))
            q.enqueue(record(2))
            q.mark_acked("r-0001")
            q.mark_acked("r-0001")
            assert q.acked_count() == 1
            assert [r.reading_id for r in q.pending()] == ["r-0002"]
        with UploadQueue(d) as q:
            assert [r.reading_id for r in q.pending()] == ["r-0002"]
            assert q.acked_count() == 1

    def test_dead_letter_removes_from_pending(self, tmp_path):
        with UploadQueue(tmp_path / "q") as q:
            q.enqueue(record(1))
            q.mark_dead(q.pending()[0], "HTTP 400: rejected")
            assert q.pending() == []
            [(r, reason)] = q.dead_letters()
            assert r.reading_id == "r-0001" and "400" in reason

    def test_reopen_preserves_log_bytes(self, tmp_path):
        d = tmp_path / "q"
        with UploadQueue(d) as q:
            for i in range(4):
                q.enqueue(record(i))
        before = (d / QUEUE_LOG).read_bytes()
        with UploadQueue(d) as q:
            assert q.pending_count() == 4
        assert (d / QUEUE_LOG).read_bytes() == before

    def test_torn_final_line_is_dropped(self, tmp_path):
        d = tmp_path / "q"
        with UploadQueue(d) as q:
            q.enqueue(record(1))
            q.enqueue(record(2))
        with open(d / QUEUE_LOG, "ab") as fh:
            fh.write(b'{"reading_id": "r-9999", "patient')  # crash mid-write
        with UploadQueue(d) as q:
            assert [r.reading_id for r in q.pending()] == ["r-0001", "r-0002"]

    def test_interior_corruption_is_an_error(self, tmp_path):
        d = tmp_path / "q"
        with UploadQueue(d) as q:
            q.enqueue(record(1))
            q.enqueue(record(2))
        lines = (d / QUEUE_LOG).read_bytes().splitlines(keepends=True)
        (d / QUEUE_LOG).write_bytes(lines[0] + b"garbage\n" + lines[1])
        with pytest.raises(DataError, match="line 2"):
            UploadQueue(d)

    @pytest.mark.parametrize("log", [QUEUE_LOG, DEADLETTER_LOG])
    @pytest.mark.parametrize("entry", list(CORRUPT_ENTRIES.values()), ids=list(CORRUPT_ENTRIES))
    def test_malformed_entry_is_a_corrupt_entry(self, tmp_path, log, entry):
        d = tmp_path / "q"
        d.mkdir()
        (d / log).write_text(entry + "\n" + wire_line(2) + "\n")
        with pytest.raises(DataError, match=f"^{log} line 1: corrupt entry: "):
            UploadQueue(d)

    @pytest.mark.parametrize("settle", ["acked", "dead"])
    @pytest.mark.parametrize("bad", [
        "garbage",
        wire_line(1, timestamp_utc="2026-02-01 08:01:00"),
        wire_line(1, glucose_mgdl=-1),
    ], ids=["garbage", "bad-timestamp", "negative-glucose"])
    def test_settled_lines_are_validated_at_open(self, tmp_path, settle, bad):
        d = tmp_path / "q"
        with UploadQueue(d) as q:
            q.enqueue(record(1))
            if settle == "acked":
                q.mark_acked("r-0001")
            else:
                q.mark_dead(record(1), "HTTP 400: bad")
            assert q.pending_count() == 0
        (d / QUEUE_LOG).write_text(bad + "\n")
        with pytest.raises(DataError, match="line 1"):
            UploadQueue(d)

    def test_torn_multibyte_character_is_dropped(self, tmp_path):
        # acked.log holds raw ids, so a crash can cut one inside a character
        d = tmp_path / "q"
        with UploadQueue(d) as q:
            q.enqueue(record(1))
            q.mark_acked("r-0001")
        with open(d / ACKED_LOG, "ab") as fh:
            fh.write("r-\u00e9".encode("utf-8")[:-1])
        with UploadQueue(d) as q:
            assert q.acked_count() == 1 and q.pending() == []

    def test_invalid_utf8_is_a_corrupt_entry(self, tmp_path):
        d = tmp_path / "q"
        with UploadQueue(d) as q:
            q.enqueue(record(1))
        with open(d / QUEUE_LOG, "ab") as fh:
            fh.write(b"\xff\xfe\n" + wire_line(2).encode() + b"\n")
        with pytest.raises(DataError, match=f"^{QUEUE_LOG} line 2: corrupt entry"):
            UploadQueue(d)

    def test_compact_drops_settled_records(self, tmp_path):
        d = tmp_path / "q"
        with UploadQueue(d) as q:
            for i in range(4):
                q.enqueue(record(i))
            q.mark_acked("r-0000")
            q.mark_dead(q.pending()[0], "HTTP 400: bad")
            q.compact()
            assert [r.reading_id for r in q.pending()] == ["r-0002", "r-0003"]
            assert q.acked_count() == 0
        lines = (d / QUEUE_LOG).read_text().splitlines()
        assert [json.loads(l)["reading_id"] for l in lines] == ["r-0002", "r-0003"]
        assert os.path.getsize(d / "acked.log") == 0
        assert "r-0001" in (d / "deadletter.log").read_text()

    def test_compact_makes_rename_durable_before_emptying_acks(self, tmp_path, monkeypatch):
        d = tmp_path / "q"
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                events.append(("fsync-dir", os.path.getsize(d / "acked.log")))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.path.basename(dst)))
            real_replace(src, dst)

        with UploadQueue(d) as q:
            for i in range(3):
                q.enqueue(record(i))
            q.mark_acked("r-0000")
            monkeypatch.setattr(queue_module.os, "fsync", fsync)
            monkeypatch.setattr(queue_module.os, "replace", replace)
            q.compact()
        kinds = [e[0] for e in events]
        assert ("replace", QUEUE_LOG) in events and "fsync-dir" in kinds
        after_replace = events[events.index(("replace", QUEUE_LOG)) + 1:]
        # a directory fsync lands while acked.log still holds the ack
        assert any(kind == "fsync-dir" and size > 0 for kind, size in after_replace)
        assert os.path.getsize(d / "acked.log") == 0

    def test_dead_letters_survive_compact_and_reopen(self, tmp_path):
        d = tmp_path / "q"
        with UploadQueue(d) as q:
            for i in range(3):
                q.enqueue(record(i))
            q.mark_dead(q.pending()[1], "HTTP 400: bad")
            before = q.dead_letters()
            q.compact()
            assert q.dead_letters() == before
        with UploadQueue(d) as q:
            assert q.dead_letters() == before
            assert [r.reading_id for r, _ in before] == ["r-0001"]
            assert before[0][1] == "HTTP 400: bad"

    def test_known_ids(self, tmp_path):
        with UploadQueue(tmp_path / "q") as q:
            q.enqueue(record(1))
            q.enqueue(record(2))
            assert q.known_ids() == {"r-0001", "r-0002"}


QUEUE_STEPS = st.lists(
    st.tuples(st.sampled_from(["enqueue", "ack", "dead", "compact", "reopen"]),
              st.integers(0, 3)),
    max_size=20,
)


class TestQueueStateProperty:
    """Random scripts of queue operations against a reference computed from
    the full history: queue.log ids in order, minus acked and dead ones."""

    @settings(max_examples=100, deadline=None, database=None)
    @given(script=QUEUE_STEPS)
    def test_pending_matches_history(self, script):
        with tempfile.TemporaryDirectory() as d:
            log, acked, dead = [], set(), {}
            q = UploadQueue(d)
            try:
                for op, i in script:
                    rec = record(i, minute=0)
                    rid = rec.reading_id
                    if op == "enqueue" and rid in log:
                        with pytest.raises(DataError, match="already enqueued"):
                            q.enqueue(rec)
                    elif op == "enqueue":
                        q.enqueue(rec)
                        log.append(rid)
                    elif op == "ack":
                        q.mark_acked(rid)
                        acked.add(rid)
                    elif op == "dead":
                        q.mark_dead(rec, f"HTTP 400: {i}")
                        dead.setdefault(rid, (rec, f"HTTP 400: {i}"))
                    elif op == "compact":
                        q.compact()
                        log = [r for r in log if r not in acked and r not in dead]
                        acked = set()
                    else:
                        q.close()
                        q = UploadQueue(d)
                    want = [record(int(r[2:]), minute=0) for r in log
                            if r not in acked and r not in dead]
                    assert q.pending() == want
                    assert q.pending_count() == len(q.pending())
                    assert q.known_ids() == set(log)
                    assert q.acked_count() == len(acked)
                    assert q.dead_letters() == list(dead.values())
                    with UploadQueue(d) as reopened:
                        assert reopened.pending() == want
            finally:
                q.close()


class TestCompaction:
    def test_timestamp_guard_survives_compact_and_reopen(self, tmp_path):
        d = tmp_path / "q"
        with UploadQueue(d) as q:
            q.enqueue(record(1, minute=30))
            q.mark_acked("r-0001")
            assert q.compact()
        assert log_ids(d) == []
        with UploadQueue(d) as q:
            with pytest.raises(DataError, match="precedes"):
                q.enqueue(record(2, minute=10))
            q.enqueue(record(3, device="dev-2", minute=10))
            q.enqueue(record(4, minute=30))

    def test_corrupt_last_timestamps_is_an_error(self, tmp_path):
        d = tmp_path / "q"
        d.mkdir()
        (d / LAST_TIMESTAMPS).write_text('{"dev-1": "yesterday"}\n')
        with pytest.raises(DataError, match=f"^{LAST_TIMESTAMPS} line 1: corrupt entry: "):
            UploadQueue(d)

    def test_enqueue_compacts_a_bedside_log(self, tmp_path, endpoint):
        # one open per reading and per sync, a sync every 12 readings
        d = tmp_path / "q"
        longest = 0
        for i in range(300):
            with UploadQueue(d) as q:
                q.enqueue(timed_record(i))
            longest = max(longest, len(log_ids(d)))
            if (i + 1) % 12 == 0:
                with UploadQueue(d) as q:
                    stats = sync(q, endpoint.url, sleep_fn=no_sleep)
                assert stats == SyncStats(uploaded=12, dead_lettered=0, remaining=0, attempts=12)
        assert COMPACT_AT < longest <= COMPACT_AT + 12
        assert len(log_ids(d)) < COMPACT_AT
        # every reading stored, none sent twice
        assert endpoint.snapshot()["ids"] == [f"r-{i:04d}" for i in range(300)]
        assert endpoint.request_count == 300
        with UploadQueue(d) as q:
            assert q.pending() == [] and q.acked_count() < COMPACT_AT + 12
            with pytest.raises(DataError, match="precedes"):
                q.enqueue(dataclasses.replace(timed_record(0), reading_id="r-late"))

    def test_settled_lines_are_kept_while_another_process_has_the_queue(self, tmp_path):
        d = tmp_path / "q"
        UploadQueue(d).close()
        with subprocess.Popen([sys.executable, "-c", HOLD_OPEN, str(d)], env=CHILD_ENV,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as holder:
            try:
                assert holder.stdout.readline() == "open\n"
                with UploadQueue(d) as q:
                    for i in range(COMPACT_AT + 10):
                        q.enqueue(timed_record(i))
                        q.mark_acked(f"r-{i:04d}")
                    assert not q.compact()
                assert len(log_ids(d)) == COMPACT_AT + 10
            finally:
                holder.stdin.close()
                assert holder.wait(timeout=30) == 0
        with UploadQueue(d) as q:
            q.enqueue(timed_record(COMPACT_AT + 10))
            assert q.acked_count() == 0
        assert log_ids(d) == [f"r-{COMPACT_AT + 10:04d}"]

    def test_a_second_queue_in_the_process_blocks_compaction(self, tmp_path):
        d = tmp_path / "q"
        with UploadQueue(d) as q, UploadQueue(d) as other:
            q.enqueue(record(1))
            q.mark_acked("r-0001")
            assert not q.compact() and not other.compact()
            assert q.acked_count() == 1 and log_ids(d) == ["r-0001"]
        with UploadQueue(d) as q:
            assert q.compact()

    def test_enqueue_after_another_queue_compacted_reaches_the_new_log(self, tmp_path,
                                                                       monkeypatch):
        d = tmp_path / "q"
        with UploadQueue(d) as q:
            for i in range(COMPACT_AT):
                q.enqueue(timed_record(i))
                q.mark_acked(f"r-{i:04d}")
        a, b = UploadQueue(d), UploadQueue(d)
        real_flock, calls = fcntl.flock, []

        def flock(fh, op):
            # a's exclusive try failed because b had the queue open; before a
            # takes its shared flock back, b closes and a third queue compacts
            if op == fcntl.LOCK_SH and calls and calls[-1] == "busy":
                calls.append("intrude")
                b.close()
                with UploadQueue(d) as c:
                    assert c.compact()
            try:
                real_flock(fh, op)
            except BlockingIOError:
                calls.append("busy")
                raise

        monkeypatch.setattr(queue_module.fcntl, "flock", flock)
        try:
            a.enqueue(timed_record(COMPACT_AT))
        finally:
            a.close()
            b.close()
        assert "intrude" in calls
        assert log_ids(d) == [f"r-{COMPACT_AT:04d}"]


class TestQueueProcesses:
    def test_concurrent_enqueuers_and_syncer_lose_nothing(self, tmp_path, endpoint):
        # each writer passes COMPACT_AT readings on its own, so compaction
        # races the other writers' appends and the syncer's acks
        d = tmp_path / "q"
        UploadQueue(d).close()
        devices, per_device = [f"dev-{k}" for k in range(4)], COMPACT_AT + 16
        writers = [subprocess.Popen([sys.executable, "-c", ENQUEUE_READINGS, str(d),
                                     device, str(per_device)], env=CHILD_ENV)
                   for device in devices]
        try:
            deadline = time.monotonic() + 60.0
            while any(w.poll() is None for w in writers) and time.monotonic() < deadline:
                with UploadQueue(d) as q:
                    sync(q, endpoint.url, sleep_fn=no_sleep)
                time.sleep(0.01)
        finally:
            for w in writers:
                if w.poll() is None:
                    w.kill()
                w.wait(timeout=30)
        assert [w.returncode for w in writers] == [0] * len(writers)
        with UploadQueue(d) as q:
            assert sync(q, endpoint.url, sleep_fn=no_sleep).drained()
        want = {f"{device}-{i:04d}" for device in devices for i in range(per_device)}
        snap = endpoint.snapshot()
        assert snap["count"] == len(want) and set(snap["ids"]) == want
        assert endpoint.request_count == len(want)  # nothing sent twice
        assert (d / LAST_TIMESTAMPS).exists()  # written by compaction only
        with UploadQueue(d) as q:
            assert q.pending() == []
            assert q.known_ids() <= want


class Crash(Exception):
    """Stands in for the process dying at a durability operation."""


class TestCrashPoints:
    """Crash at the k-th write, fsync, replace or truncate, for every k, over
    a script of enqueues, acks, dead letters and one automatic compaction;
    then reopen and drain. The crash is of the process, not of the machine:
    bytes written before it stay written."""

    # run before the crash is armed: 63 settled lines, 3 pending readings;
    # reading OTHER is dev-2's only one, so compaction drops its timestamp
    SETTLED, DEAD, PENDING, OTHER = 60, 3, 3, 59
    # the second enqueue sees 65 settled lines and compacts first
    SCRIPT = [("enqueue", 66), ("ack", 63), ("dead", 64), ("enqueue", 67),
              ("ack", 66), ("enqueue", 68), ("dead", 67), ("ack", 65)]

    def prepare(self, d):
        n = self.SETTLED + self.DEAD + self.PENDING
        with UploadQueue(d) as q:
            for i in range(n):
                q.enqueue(timed_record(i, "dev-2" if i == self.OTHER else "dev-1"))
            for i in range(self.SETTLED):
                q.mark_acked(f"r-{i:04d}")
            for i in range(self.SETTLED, self.SETTLED + self.DEAD):
                q.mark_dead(timed_record(i), "HTTP 400: bad")
        enqueued = {f"r-{i:04d}" for i in range(n)}
        acked = {f"r-{i:04d}" for i in range(self.SETTLED)}
        dead = {f"r-{i:04d}" for i in range(self.SETTLED, self.SETTLED + self.DEAD)}
        return enqueued, acked, dead

    def run_script(self, d, monkeypatch, crash_at, tear=False):
        """Returns the durability ops done, the ids whose enqueue, ack or
        dead letter returned, and the step the crash cut short (None if
        the script finished). The close that ends the script, with its
        commit of the acks, is a step too. With tear, a crash at a write
        lands half of its bytes first."""
        ops, done = [], {"enqueue": set(), "ack": set(), "dead": set()}
        real = queue_module._durable
        crashed = False

        def durable(op, fn, *args):
            nonlocal crashed
            if crashed:  # the process is dead: nothing after the crash runs
                raise Crash(op)
            if len(ops) == crash_at:
                crashed = True
                if tear and op == "write":
                    fh, data = args
                    fn(fh, data[:len(data) // 2])
                raise Crash(op)
            ops.append(op)
            return real(op, fn, *args)

        q = UploadQueue(d)
        with monkeypatch.context() as m:
            m.setattr(queue_module, "_durable", durable)
            cut = None
            try:
                for step, i in self.SCRIPT:
                    cut = (step, f"r-{i:04d}")
                    if step == "enqueue":
                        q.enqueue(timed_record(i))
                    elif step == "ack":
                        q.mark_acked(f"r-{i:04d}")
                    else:
                        q.mark_dead(timed_record(i), "HTTP 400: bad")
                    done[step].add(f"r-{i:04d}")
                cut = ("close", None)
                q.close()
                return ops, done, None
            except Crash:
                # release the handles as a dying process would; the close's
                # commit meets the crash again and does nothing
                with contextlib.suppress(Crash):
                    q.close()
                return ops, done, cut

    def test_every_crash_point_recovers(self, tmp_path, monkeypatch, endpoint):
        base = tmp_path / "base"
        enqueued, acked, dead = self.prepare(base)
        k, cuts = 0, []
        while True:
            d = tmp_path / f"crash-{k:03d}"
            shutil.copytree(base, d)
            ops, done, cut = self.run_script(d, monkeypatch, crash_at=k)
            cuts.append(cut)
            all_enqueued, all_acked = enqueued | done["enqueue"], acked | done["ack"]
            # an ack cut short may or may not have landed
            maybe_acked = all_acked | {cut[1]} if cut and cut[0] == "ack" else all_acked
            with UploadQueue(d) as q:
                pending = [r.reading_id for r in q.pending()]
                dead_now = {r.reading_id for r, _ in q.dead_letters()}
                assert all_acked.isdisjoint(pending), k
                assert dead | done["dead"] <= dead_now, k
                assert all_enqueued <= set(pending) | maybe_acked | dead_now, k
                for device in ("dev-1", "dev-2"):
                    with pytest.raises(DataError, match="precedes"):
                        q.enqueue(dataclasses.replace(timed_record(0, device),
                                                      reading_id=f"r-late-{device}"))
                endpoint.reset()
                assert sync(q, endpoint.url, sleep_fn=no_sleep).drained(), k
                assert endpoint.snapshot()["ids"] == pending, k
                assert endpoint.request_count == len(pending), k
            if cut is None:
                break  # the script made fewer than k + 1 operations
            k += 1
        # the script made every kind of operation, compaction included
        assert {"write", "fsync", "replace", "truncate"} <= set(ops)
        assert ("close", None) in cuts  # the commit's fsync was a crash point
        assert k == len(ops) and log_ids(d) == ["r-0065", "r-0066", "r-0067", "r-0068"]

    def test_every_torn_write_recovers(self, tmp_path, monkeypatch, endpoint):
        # a crash halfway through each write leaves a torn final line in a
        # log (or in a compaction's temporary file); the next append to
        # that log must not join it, so a later open still succeeds
        base = tmp_path / "base"
        enqueued, acked, dead = self.prepare(base)
        shutil.copytree(base, tmp_path / "whole")
        ops, _, _ = self.run_script(tmp_path / "whole", monkeypatch, crash_at=None)
        writes = [k for k, op in enumerate(ops) if op == "write"]
        assert len(writes) >= len(self.SCRIPT)
        for k in writes:
            d = tmp_path / f"torn-{k:03d}"
            shutil.copytree(base, d)
            _, done, cut = self.run_script(d, monkeypatch, crash_at=k, tear=True)
            assert cut is not None, k
            all_acked = acked | done["ack"]
            with UploadQueue(d) as q:
                pending = [r.reading_id for r in q.pending()]
                dead_now = {r.reading_id for r, _ in q.dead_letters()}
                assert all_acked.isdisjoint(pending), k
                assert dead | done["dead"] <= dead_now, k
                assert enqueued | done["enqueue"] <= set(pending) | all_acked | dead_now, k
                endpoint.reset()
                assert sync(q, endpoint.url, sleep_fn=no_sleep).drained(), k
                assert endpoint.snapshot()["ids"] == pending, k
                q.enqueue(timed_record(70))
                q.mark_dead(timed_record(69), "HTTP 400: bad")
            with UploadQueue(d) as q:
                assert [r.reading_id for r in q.pending()] == ["r-0070"], k
                assert "r-0069" in {r.reading_id for r, _ in q.dead_letters()}, k


def count_fsyncs(d, monkeypatch) -> collections.Counter:
    """From now on, count the queue's fsyncs in directory d by file name
    ("." for the directory itself)."""
    counts = collections.Counter()
    real = queue_module._durable

    def durable(op, fn, *args):
        if op == "fsync":
            st = os.fstat(args[0])
            counts[next((n for n in os.listdir(d) if os.path.samestat(st, os.stat(d / n))),
                        ".")] += 1
        return real(op, fn, *args)

    monkeypatch.setattr(queue_module, "_durable", durable)
    return counts


def script_faults(monkeypatch, endpoint, faults: dict) -> dict:
    """Make the endpoint answer its n-th request since the last reset with
    the fault faults[n]; returns the dict of faults still to come."""
    faults = dict(faults)
    monkeypatch.setattr(endpoint, "take_fault", lambda: faults.pop(endpoint.request_count, None))
    return faults


class TestGroupCommit:
    """Acks are written and flushed one by one but fsynced once per sync;
    each enqueue and dead letter keeps its own fsync."""

    def test_sync_fsyncs_acked_log_once(self, tmp_path, monkeypatch, endpoint):
        d = tmp_path / "q"
        with UploadQueue(d) as q:
            for i in range(5):
                q.enqueue(record(i))
            counts = count_fsyncs(d, monkeypatch)
            assert sync(q, endpoint.url, sleep_fn=no_sleep).uploaded == 5
            assert counts == {ACKED_LOG: 1}
        assert counts == {ACKED_LOG: 1}  # close finds nothing left to commit

    def test_sync_that_acks_nothing_fsyncs_no_ack(self, tmp_path, monkeypatch, endpoint):
        d = tmp_path / "q"
        with UploadQueue(d) as q:
            counts = count_fsyncs(d, monkeypatch)
            assert sync(q, endpoint.url, sleep_fn=no_sleep).drained()  # nothing pending
            assert counts == {}
            for i in range(3):
                q.enqueue(record(i))
            assert counts == {QUEUE_LOG: 3}  # one fsync per enqueue
            counts.clear()
            endpoint.faults["reject_next"] = 3
            stats = sync(q, endpoint.url, sleep_fn=no_sleep)
            assert (stats.uploaded, stats.dead_lettered) == (0, 3)
            assert counts == {DEADLETTER_LOG: 3}
        assert counts == {DEADLETTER_LOG: 3}

    def test_sync_commits_when_it_raises(self, tmp_path, monkeypatch, endpoint):
        d = tmp_path / "q"

        def interrupt(_):
            raise KeyboardInterrupt

        with UploadQueue(d) as q:
            for i in range(4):
                q.enqueue(record(i))
            counts = count_fsyncs(d, monkeypatch)
            script_faults(monkeypatch, endpoint, {3: "fail_next"})
            with pytest.raises(KeyboardInterrupt):  # at the backoff after two acks
                sync(q, endpoint.url, sleep_fn=interrupt)
            assert counts == {ACKED_LOG: 1} and q.acked_count() == 2

    def test_commit_and_close_make_acks_durable(self, tmp_path, monkeypatch):
        d = tmp_path / "q"
        with UploadQueue(d) as q:
            for i in range(4):
                q.enqueue(record(i))
            counts = count_fsyncs(d, monkeypatch)
            for i in range(3):
                q.mark_acked(f"r-{i:04d}")
            assert counts == {}
            q.commit()
            q.commit()  # nothing new to commit
            assert counts == {ACKED_LOG: 1}
            q.mark_acked("r-0003")
        assert counts == {ACKED_LOG: 2}  # close committed the last ack
        with UploadQueue(d) as q:
            assert q.acked_count() == 4 and q.pending() == []

    def test_failed_commit_raises_from_close_and_releases_the_queue(self, tmp_path, monkeypatch):
        d = tmp_path / "q"
        q = UploadQueue(d)
        q.enqueue(record(1))

        def durable(op, fn, *args):
            raise OSError(5, "Input/output error")

        q.mark_acked("r-0001")
        monkeypatch.setattr(queue_module, "_durable", durable)
        with pytest.raises(OSError, match="Input/output error"):
            q.close()
        q.close()  # the logs are closed already: nothing to do
        monkeypatch.undo()
        with UploadQueue(d) as other:
            assert other.compact()  # the failed close released its flock
            assert other.pending() == []  # the ack was written before the fsync failed


class TestPowerLoss:
    """A power loss keeps of each file only what an fsync made durable: the
    run is cut at its k-th durability operation, for every k, and then each
    file in the queue is cut back to its length at its last fsync, or its
    later bytes are zero-filled, as a file system may leave them. A rename
    stays made (the queue fsyncs the directory right after each). Acks are
    fsynced once per sync, so a power loss mid-sync can forget that sync's
    acks: their records must be pending again, and the next sync must leave
    the endpoint's store holding each reading exactly once."""

    N = 10
    # request number -> the mock's fault for it. Record 3 is rejected and
    # dead-lettered; record 6's first attempt gets a 503, and the retry's
    # backoff enqueues a reading (after six acks, so with COMPACT_AT at 4
    # the enqueue compacts first); record 8's connection is cut twice, so the
    # drain stops with records 8 and 9 left, after one more enqueue
    FAULTS = {4: "reject_next", 7: "fail_next", 10: "drop_next", 11: "drop_next"}

    def run_sync(self, d, monkeypatch, endpoint, lose_at):
        """Sync the queue in d with the power lost at durability operation
        lose_at, or just after the sync returns if it makes fewer. Returns
        the durability ops done, the ids enqueued during the sync, the stats
        (None if the power was lost mid-sync) and each file's length at its
        last fsync."""
        synced = {(st.st_dev, st.st_ino): st.st_size  # the copied queue is durable
                  for st in (os.stat(p) for p in d.iterdir())}
        ops, enqueued, lost = [], [], False
        real = queue_module._durable

        def durable(op, fn, *args):
            nonlocal lost
            if lost or len(ops) == lose_at:
                lost = True
                raise Crash(op)
            ops.append(op)
            out = real(op, fn, *args)
            st = os.fstat(args[0]) if op == "fsync" else None
            if st and stat.S_ISREG(st.st_mode):
                synced[st.st_dev, st.st_ino] = st.st_size
            return out

        def backoff(_):
            rec = timed_record(100 + len(enqueued))
            q.enqueue(rec)
            enqueued.append(rec.reading_id)

        faults = script_faults(monkeypatch, endpoint, self.FAULTS)
        q = UploadQueue(d)
        with monkeypatch.context() as m:
            m.setattr(queue_module, "_durable", durable)
            try:
                stats = sync(q, endpoint.url, RetryPolicy(max_attempts=2), sleep_fn=backoff)
            except Crash:
                stats = None
            lost = True  # if the sync returned, the power goes before the close
            with contextlib.suppress(Crash):
                q.close()
        faults.clear()
        return ops, enqueued, stats, synced

    @staticmethod
    def lose_power(d, synced, zero_fill):
        for path in d.iterdir():
            st = os.stat(path)
            keep = min(synced.get((st.st_dev, st.st_ino), 0), st.st_size)
            with open(path, "r+b") as fh:
                if zero_fill:
                    fh.seek(keep)
                    fh.write(bytes(st.st_size - keep))
                else:
                    fh.truncate(keep)

    @pytest.mark.parametrize("zero_fill", [False, True], ids=["cut", "zero-filled"])
    @pytest.mark.parametrize("compact", [False, True], ids=["append", "compacting"])
    def test_every_power_loss_point_recovers(self, tmp_path, monkeypatch, endpoint,
                                             compact, zero_fill):
        if compact:
            monkeypatch.setattr(queue_module, "COMPACT_AT", 4)
        base = tmp_path / "base"
        with UploadQueue(base) as q:
            for i in range(self.N):
                q.enqueue(timed_record(i))
        k = 0
        while True:
            d = tmp_path / f"loss-{k:03d}"
            shutil.copytree(base, d)
            endpoint.reset()
            ops, added, stats, synced = self.run_sync(d, monkeypatch, endpoint, lose_at=k)
            stored = set(endpoint.snapshot()["ids"])
            self.lose_power(d, synced, zero_fill)
            enqueued = {f"r-{i:04d}" for i in range(self.N)} | set(added)
            with UploadQueue(d) as q:
                pending = [r.reading_id for r in q.pending()]
                dead = {r.reading_id for r, _ in q.dead_letters()}
                # every reading is pending, acked or dead, unless a compaction
                # dropped it after its ack, so after the endpoint stored it
                gone = enqueued - q.known_ids() - dead
                assert gone <= stored and (compact or not gone), k
                assert dead <= {"r-0003"}, k
                if stats is not None:  # the sync returned: all it did is durable
                    assert (stats.uploaded, stats.dead_lettered, stats.remaining) == (7, 1, 2), k
                    assert pending == ["r-0008", "r-0009", "r-0100", "r-0101"], k
                    assert dead == {"r-0003"}, k
                assert sync(q, endpoint.url, sleep_fn=no_sleep).drained(), k
            snap = endpoint.snapshot()
            assert sorted(snap["ids"]) == sorted(enqueued - dead), k
            assert all(rec == timed_record(int(rec["reading_id"][2:])).to_wire()
                       for rec in snap["records"]), k
            if stats is not None:
                break  # the sync made fewer than k + 1 operations
            k += 1
        assert k == len(ops) and ops[-1] == "fsync"  # the commit
        assert ("replace" in ops) == compact


# one append to each log
APPENDS = {
    QUEUE_LOG: lambda q: q.enqueue(record(2)),
    ACKED_LOG: lambda q: q.mark_acked("r-0001"),
    DEADLETTER_LOG: lambda q: q.mark_dead(record(1), "HTTP 400: bad"),
}


class TestTornTail:
    """A crash mid-append leaves a log's final line without its newline."""

    def torn_queue(self, tmp_path, log):
        """A queue holding record 1, pending, whose log ends in a fragment;
        returns its directory and a copy made before the fragment."""
        d, clean = tmp_path / "q", tmp_path / "clean"
        with UploadQueue(d) as q:
            q.enqueue(record(1))
        shutil.copytree(d, clean)
        fragment = b"r-" if log == ACKED_LOG else wire_line(9).encode()[:40]
        with open(d / log, "ab") as fh:
            fh.write(fragment)
        return d, clean

    @pytest.mark.parametrize("log", list(APPENDS))
    def test_fragment_is_cut_before_the_next_append(self, tmp_path, log):
        d, clean = self.torn_queue(tmp_path, log)
        torn = (d / log).read_bytes()
        with UploadQueue(d) as q:
            assert q.pending_count() == 1
        assert (d / log).read_bytes() == torn  # an open alone rewrites nothing
        for path in (d, clean):
            with UploadQueue(path) as q:
                APPENDS[log](q)
        assert (d / log).read_bytes() == (clean / log).read_bytes()
        with UploadQueue(d) as q:
            pending = [r.reading_id for r in q.pending()]
            dead = [r.reading_id for r, _ in q.dead_letters()]
        assert (pending, dead) == {QUEUE_LOG: (["r-0001", "r-0002"], []),
                                   ACKED_LOG: ([], []),
                                   DEADLETTER_LOG: ([], ["r-0001"])}[log]

    @pytest.mark.parametrize("log", list(APPENDS))
    def test_append_is_refused_while_another_queue_is_open(self, tmp_path, log):
        d, _ = self.torn_queue(tmp_path, log)
        files = {p.name: p.read_bytes() for p in d.iterdir()}
        with UploadQueue(d) as q, UploadQueue(d):
            with pytest.raises(DataError, match=f"^{log} ends in a torn line"):
                APPENDS[log](q)
            assert q.pending_count() == 1
        assert {p.name: p.read_bytes() for p in d.iterdir()} == files
        with UploadQueue(d) as q:
            APPENDS[log](q)


class TestRetryPolicy:
    def test_delay_doubles_up_to_cap(self):
        p = RetryPolicy(base_delay=0.1, max_delay=1.0, jitter=0.0, max_attempts=8)
        rng = np.random.default_rng(0)
        got = [p.delay(a, rng) for a in range(6)]
        assert got == pytest.approx([0.1, 0.2, 0.4, 0.8, 1.0, 1.0])

    def test_jitter_stays_within_band(self):
        p = RetryPolicy(base_delay=0.2, max_delay=2.0, jitter=0.25, max_attempts=5)
        rng = np.random.default_rng(42)
        for a in range(5):
            base = min(0.2 * 2.0 ** a, 2.0)
            for _ in range(50):
                d = p.delay(a, rng)
                assert base * 0.75 <= d <= base * 1.25

    @pytest.mark.parametrize("kwargs", [
        {"base_delay": 0.0},
        {"base_delay": 2.0, "max_delay": 1.0},
        {"jitter": 1.5},
        {"max_attempts": 0},
        {"base_delay": float("nan")},
        {"max_delay": float("nan")},
    ])
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(DataError):
            RetryPolicy(**kwargs)


@pytest.fixture()
def endpoint():
    with MockEndpoint() as ep:
        yield ep


@pytest.fixture()
def queue(tmp_path):
    with UploadQueue(tmp_path / "q") as q:
        yield q


@pytest.fixture()
def connects(monkeypatch):
    """Counts TCP connections the sync client opens."""
    calls = []
    original = http.client.HTTPConnection.connect

    def counting(self):
        calls.append(self.port)
        return original(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting)
    return calls


class TestSync:
    def fill(self, q, n):
        for i in range(n):
            q.enqueue(record(i))

    def test_drains_in_order(self, queue, endpoint):
        self.fill(queue, 3)
        stats = sync(queue, endpoint.url, sleep_fn=no_sleep)
        assert stats == SyncStats(uploaded=3, dead_lettered=0, remaining=0, attempts=3)
        assert stats.drained()
        assert endpoint.snapshot()["ids"] == ["r-0000", "r-0001", "r-0002"]
        assert queue.pending() == []

    def test_sync_never_rewrites_queue_log(self, tmp_path, endpoint):
        d = tmp_path / "q"
        with UploadQueue(d) as q:
            self.fill(q, 3)
            before = (d / QUEUE_LOG).read_bytes()
            sync(q, endpoint.url, sleep_fn=no_sleep)
        assert (d / QUEUE_LOG).read_bytes() == before

    def test_duplicate_upload_acks_without_storing(self, tmp_path, endpoint):
        for sub in ("a", "b"):
            with UploadQueue(tmp_path / sub) as q:
                self.fill(q, 2)
                stats = sync(q, endpoint.url, sleep_fn=no_sleep)
                assert stats.uploaded == 2
        assert endpoint.snapshot()["count"] == 2

    def test_transient_failure_retries(self, queue, endpoint):
        self.fill(queue, 2)
        endpoint.faults["fail_next"] = 1
        stats = sync(queue, endpoint.url, sleep_fn=no_sleep)
        assert stats.uploaded == 2 and stats.attempts == 3
        assert endpoint.snapshot()["count"] == 2

    def test_dropped_connection_retries(self, queue, endpoint):
        self.fill(queue, 1)
        endpoint.faults["drop_next"] = 1
        stats = sync(queue, endpoint.url, sleep_fn=no_sleep)
        assert stats.uploaded == 1 and stats.attempts == 2

    def test_permanent_rejection_dead_letters(self, queue, endpoint):
        queue.enqueue(record(0))
        stats0 = sync(queue, endpoint.url, sleep_fn=no_sleep)
        assert stats0.uploaded == 1
        endpoint.faults["reject_next"] = 1
        queue.enqueue(record(1))
        queue.enqueue(record(2))
        stats = sync(queue, endpoint.url, sleep_fn=no_sleep)
        assert stats == SyncStats(uploaded=1, dead_lettered=1, remaining=0, attempts=2)
        [(dead, reason)] = queue.dead_letters()
        assert dead.reading_id == "r-0001"
        assert reason.startswith("HTTP 400")
        assert endpoint.snapshot()["ids"] == ["r-0000", "r-0002"]

    def test_alternating_failures_still_drain(self, queue, endpoint):
        self.fill(queue, 2)
        endpoint.faults["every_other"] = True
        stats = sync(queue, endpoint.url,
                     RetryPolicy(max_attempts=2, jitter=0.0), sleep_fn=no_sleep)
        assert stats.uploaded == 2 and stats.attempts == 4

    def test_exhausted_attempts_stop_early(self, queue, endpoint):
        self.fill(queue, 3)
        endpoint.faults["fail_next"] = 99
        stats = sync(queue, endpoint.url,
                     RetryPolicy(max_attempts=3, jitter=0.0), sleep_fn=no_sleep)
        assert stats == SyncStats(uploaded=0, dead_lettered=0, remaining=3, attempts=3)
        assert not stats.drained()
        assert queue.pending_count() == 3

    def test_endpoint_down_leaves_queue_intact(self, queue):
        self.fill(queue, 2)
        stats = sync(queue, "http://127.0.0.1:9",  # discard port, nothing listens
                     RetryPolicy(max_attempts=2, jitter=0.0), sleep_fn=no_sleep)
        assert stats.uploaded == 0 and stats.remaining == 2
        assert queue.pending_count() == 2

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_timeout_is_a_data_error(self, queue, endpoint, timeout):
        self.fill(queue, 1)
        with pytest.raises(DataError, match="timeout"):
            sync(queue, endpoint.url, timeout=timeout, sleep_fn=no_sleep)
        assert queue.pending_count() == 1 and endpoint.request_count == 0

    def test_sleep_sequence_is_seeded(self, tmp_path, endpoint):
        endpoint.faults["fail_next"] = 4
        delays = {}
        for run in ("x", "y"):
            with UploadQueue(tmp_path / run) as q:
                q.enqueue(record(0))
                endpoint.faults["fail_next"] = 2
                seen = []
                sync(q, endpoint.url, RetryPolicy(jitter=0.5),
                     sleep_fn=seen.append, rng=np.random.default_rng(11))
                delays[run] = seen
        assert delays["x"] == delays["y"] and len(delays["x"]) == 2

    def test_control_surface_in_process(self, queue, endpoint):
        queue.enqueue(record(0))
        endpoint.faults["fail_next"] = 1
        stats = sync(queue, endpoint.url, sleep_fn=no_sleep)
        assert stats.uploaded == 1 and stats.attempts == 2
        body = endpoint.snapshot()
        assert body["count"] == 1 and body["ids"] == ["r-0000"]

    def test_non_json_reply_is_transient(self, queue, endpoint, monkeypatch):
        self.fill(queue, 1)

        def plain_text_reply(handler, code, payload):
            handler.wfile.write(b"HTTP/1.1 %d OK\r\nContent-Length: 3\r\n\r\nok!" % code)

        monkeypatch.setattr(endpoint._server.RequestHandlerClass, "_reply", plain_text_reply)
        stats = sync(queue, endpoint.url, RetryPolicy(max_attempts=2), sleep_fn=no_sleep)
        assert stats == SyncStats(uploaded=0, dead_lettered=0, remaining=1, attempts=2)

    def test_path_prefix_is_kept(self, queue, endpoint):
        self.fill(queue, 1)
        # the mock serves /v1/readings only, so a prefixed path draws a 404
        stats = sync(queue, endpoint.url + "/ingest/", sleep_fn=no_sleep)
        assert stats.dead_lettered == 1
        [(_, reason)] = queue.dead_letters()
        assert reason.startswith("HTTP 404") and "/ingest/v1/readings" in reason

    def test_one_connection_per_sync(self, queue, endpoint, connects):
        self.fill(queue, 20)
        endpoint.faults["every_other"] = True
        stats = sync(queue, endpoint.url, sleep_fn=no_sleep)
        assert stats == SyncStats(uploaded=20, dead_lettered=0, remaining=0, attempts=40)
        assert len(connects) == 1
        assert endpoint.request_count == 40
        assert endpoint.snapshot()["ids"] == [f"r-{i:04d}" for i in range(20)]

    def test_dropped_connection_reconnects_once(self, queue, endpoint, connects):
        self.fill(queue, 20)
        endpoint.faults["every_other"] = True
        backoffs = []

        def arm_drop_on_fifth_backoff(seconds):
            backoffs.append(seconds)
            if len(backoffs) == 5:
                endpoint.faults["drop_next"] = 1

        stats = sync(queue, endpoint.url, sleep_fn=arm_drop_on_fifth_backoff)
        # record 4: 503, then the drop, then 503 again, then the ack
        assert stats == SyncStats(uploaded=20, dead_lettered=0, remaining=0, attempts=42)
        assert len(connects) == 2
        assert endpoint.snapshot()["ids"] == [f"r-{i:04d}" for i in range(20)]

    def test_connection_close_reply_reconnects(self, queue, endpoint, connects, monkeypatch):
        self.fill(queue, 3)
        # an HTTP/1.0 server closes the connection after every reply
        monkeypatch.setattr(endpoint._server.RequestHandlerClass, "protocol_version", "HTTP/1.0")
        stats = sync(queue, endpoint.url, sleep_fn=no_sleep)
        assert stats.uploaded == 3 and stats.attempts == 3
        assert len(connects) == 3


class TestMockEndpointFraming:
    @pytest.mark.parametrize("fault, status", [("fail_next", 503), ("reject_next", 400)])
    def test_fault_reply_leaves_connection_usable(self, endpoint, fault, status):
        endpoint.faults[fault] = 1
        host, port = endpoint.url.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            replies = []
            for i in range(2):
                conn.request("POST", "/v1/readings", json.dumps(record(i).to_wire()),
                             {"Content-Type": "application/json"})
                with conn.getresponse() as resp:
                    replies.append((resp.status, json.loads(resp.read())))
        finally:
            conn.close()
        assert replies[0][0] == status
        assert replies[1] == (200, {"ack": "r-0001"})
        assert endpoint.snapshot()["ids"] == ["r-0001"]

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_unframeable_body_is_400_and_closes_the_connection(self, endpoint, length):
        host, port = endpoint.url.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(f"POST /v1/readings HTTP/1.1\r\nHost: {host}\r\n"
                         f"Content-Length: {length}\r\n\r\n".encode())
            reply = b""
            while chunk := sock.recv(4096):  # until the server closes
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body) == {"error": "body is not valid JSON"}
        assert endpoint.snapshot()["count"] == 0


def raw_post(i, path=b"/v1/readings", version=b"HTTP/1.1", head=b"") -> bytes:
    """The bytes of a POST of record i, with extra header lines in head."""
    body = json.dumps(record(i).to_wire()).encode()
    return b"POST %s %s\r\n%sContent-Length: %d\r\n\r\n%s" % (path, version, head, len(body), body)


def read_reply(rf):
    """(status, {lowercased header name: value}, body) of the next reply, or
    None once the server has closed the connection."""
    try:
        line = rf.readline()
    except ConnectionResetError:
        return None
    if not line:
        return None
    headers = {}
    while (field := rf.readline()) not in (b"\r\n", b""):
        name, _, value = field.partition(b":")
        headers[name.strip().lower()] = value.strip()
    return int(line.split()[1]), headers, rf.read(int(headers.get(b"content-length", 0)))


class TestMockEndpointWire:
    """Raw requests to the mock: each one's status codes, and whether the
    connection stays open, shown by a follow-up POST on it being acked."""

    @contextlib.contextmanager
    def connection(self, endpoint):
        host, port = endpoint.url.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock, \
                sock.makefile("rb") as rf:
            yield sock, rf

    def still_open(self, sock, rf) -> bool:
        try:
            sock.sendall(raw_post(9))
        except OSError:
            return False
        reply = read_reply(rf)
        return reply is not None and reply[:1] == (200,)

    def talk(self, endpoint, data: bytes, replies: int = 1):
        """The statuses and bodies of the replies to data sent in one write,
        and whether the connection stayed open after them."""
        with self.connection(endpoint) as (sock, rf):
            sock.sendall(data)
            got = [read_reply(rf) for _ in range(replies)]
            assert None not in got
            return [(status, body) for status, _, body in got], self.still_open(sock, rf)

    def assert_error_reply(self, endpoint, data, status):
        [(got, body)], still_open = self.talk(endpoint, data)
        assert (got, still_open) == (status, False)
        assert set(json.loads(body)) == {"error"}

    # requests sent in full, with nothing after the point where the mock
    # stops reading, so its close cannot reset the connection under the reply
    def test_request_line_over_65536_bytes_is_414_and_closes(self, endpoint):
        self.assert_error_reply(endpoint, b"POST /" + b"a" * (65537 - 6), 414)

    def test_header_line_over_65536_bytes_is_431_and_closes(self, endpoint):
        line = b"X-Long: " + b"a" * (65537 - 8)
        self.assert_error_reply(endpoint, b"POST /v1/readings HTTP/1.1\r\n" + line, 431)

    def test_over_100_headers_is_431_and_closes(self, endpoint):
        self.assert_error_reply(
            endpoint, b"POST /v1/readings HTTP/1.1\r\n" + b"X-H: 1\r\n" * 101, 431)

    def test_lines_of_65536_bytes_are_admitted(self, endpoint):
        path = b"/" + b"a" * (65536 - len(b"POST / HTTP/1.1\r\n"))
        field = b"X-Long: " + b"a" * (65536 - len(b"X-Long: \r\n")) + b"\r\n"
        [(status, _)], still_open = self.talk(endpoint, raw_post(0, path=path))
        assert (status, still_open) == (404, True)
        [(status, body)], still_open = self.talk(endpoint, raw_post(0, head=field))
        assert (status, json.loads(body), still_open) == (200, {"ack": "r-0000"}, True)

    def test_get_is_501_and_closes(self, endpoint):
        self.assert_error_reply(endpoint, b"GET /v1/readings HTTP/1.1\r\nHost: h\r\n\r\n", 501)

    @pytest.mark.parametrize("data", [raw_post(0, version=b"HTTP/1.0"),
                                      raw_post(0, head=b"Connection: close\r\n")],
                             ids=["http-1.0", "connection-close"])
    def test_reply_then_close(self, endpoint, data):
        [(status, body)], still_open = self.talk(endpoint, data)
        assert (status, json.loads(body), still_open) == (200, {"ack": "r-0000"}, False)

    def test_expect_100_continue(self, endpoint):
        head, _, body = raw_post(0, head=b"Expect: 100-continue\r\n").partition(b"\r\n\r\n")
        with self.connection(endpoint) as (sock, rf):
            sock.sendall(head + b"\r\n\r\n")
            interim = read_reply(rf)
            sock.sendall(body)
            status, _, reply = read_reply(rf)
            assert interim[0] == 100
            assert (status, json.loads(reply)) == (200, {"ack": "r-0000"})
            assert self.still_open(sock, rf)

    def test_pipelined_requests_get_replies_in_order(self, endpoint):
        replies, still_open = self.talk(endpoint, raw_post(0) + raw_post(1), replies=2)
        assert [(s, json.loads(b)) for s, b in replies] == [
            (200, {"ack": "r-0000"}), (200, {"ack": "r-0001"})]
        assert still_open
        assert endpoint.snapshot()["ids"] == ["r-0000", "r-0001", "r-0009"]

    @pytest.mark.parametrize("fault, path, status", [
        (None, b"/v1/readings", 200), ("fail_next", b"/v1/readings", 503),
        (None, b"/other", 404)], ids=["200", "503", "404"])
    def test_each_reply_is_one_write(self, endpoint, monkeypatch, fault, path, status):
        writes = []
        write = socketserver._SocketWriter.write

        def counting(self, data):
            writes.append(bytes(data))
            return write(self, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write", counting)
        if fault:
            endpoint.faults[fault] = 1
        with self.connection(endpoint) as (sock, rf):
            sock.sendall(raw_post(0, path=path))
            got, headers, _ = read_reply(rf)
            assert got == status
            assert len(writes) == 1  # the whole reply was read, so it is all written
            assert set(headers) == {b"content-type", b"content-length"}
            assert self.still_open(sock, rf)


class TestMockEndpointRecordRule:
    @pytest.mark.parametrize("changes", [
        {"glucose_kind": "plasma"},
        {"glucose_mgdl": True},
        {"device_id": ""},
        {"timestamp_utc": "yesterday"},
        {"firmware": "1.2"},
    ], ids=["plasma-kind", "bool-glucose", "empty-device", "bad-timestamp", "extra-field"])
    def test_reading_the_queue_refuses_is_rejected(self, endpoint, changes):
        body = dict(record(1).to_wire(), **changes)
        with pytest.raises(DataError) as refused:
            ReadingRecord.from_wire(body)
        host, port = endpoint.url.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            conn.request("POST", "/v1/readings", json.dumps(body),
                         {"Content-Type": "application/json"})
            with conn.getresponse() as resp:
                reply = (resp.status, json.loads(resp.read()))
        finally:
            conn.close()
        assert reply == (400, {"error": str(refused.value)})
        assert endpoint.snapshot()["count"] == 0


class TestControlBodies:
    """A malformed body draws a 404 on a path the mock does not serve and a 400
    on /v1/readings; either way the connection stays usable."""

    @pytest.mark.parametrize("body", [
        "[1, 2]", '"x"', '{"count": "two"}', '{"count": true}', '{"count": -1}', "not json",
    ], ids=["array", "string", "text-count", "true-count", "negative-count", "not-json"])
    def test_bad_body_is_400_and_keeps_the_connection(self, endpoint, body):
        before = dict(endpoint.faults)
        host, port = endpoint.url.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=5)
        replies = []
        try:
            for path, sent in (("/control/fail-next", body), ("/v1/readings", body),
                               ("/v1/readings", json.dumps(record(0).to_wire()))):
                conn.request("POST", path, sent, {"Content-Type": "application/json"})
                with conn.getresponse() as resp:
                    replies.append((resp.status, json.loads(resp.read())))
        finally:
            conn.close()
        assert replies[0] == (404, {"error": "no such path /control/fail-next"})
        assert replies[1][0] == 400
        assert replies[2] == (200, {"ack": "r-0000"})  # same connection, still served
        assert endpoint.faults == before
        assert endpoint.snapshot()["ids"] == ["r-0000"]

