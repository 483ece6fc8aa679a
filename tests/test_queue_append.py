"""An append that meets another queue's append in flight waits for it,
rather than taking its half-written line for one torn by a crash."""

import fcntl
import json
import threading

from glucokit.data import GlucoseValue
from glucokit.telemetry import ReadingRecord, UploadQueue
from glucokit.telemetry import queue as queue_module
from glucokit.telemetry.queue import QUEUE_LOG


def record(i):
    return ReadingRecord(f"r-{i:04d}", "p-1", f"2026-02-01T08:{i:02d}:00Z",
                         GlucoseValue(100.0 + i, "capillary"), "mpr3:capillary", "dev-1")


def test_append_waits_for_a_live_append_to_finish(tmp_path, monkeypatch):
    d = tmp_path / "q"
    with UploadQueue(d) as q:
        q.enqueue(record(1))
    line = json.dumps(record(2).to_wire(), sort_keys=True).encode() + b"\n"
    real_flock, waiting, errors = fcntl.flock, threading.Event(), []

    def flock(fh, op):
        if op == fcntl.LOCK_EX:
            waiting.set()  # the append is about to wait for the log
        real_flock(fh, op)

    def enqueue():
        try:
            q.enqueue(record(3))
        except Exception as exc:
            errors.append(exc)
        finally:
            waiting.set()

    # a second queue keeps the directory shared, so a torn tail cannot be cut
    with UploadQueue(d) as q, UploadQueue(d), open(d / QUEUE_LOG, "ab") as other:
        # another append in flight: its flock held and half its line written
        real_flock(other, fcntl.LOCK_EX)
        other.write(line[:40])
        other.flush()
        monkeypatch.setattr(queue_module.fcntl, "flock", flock)
        appender = threading.Thread(target=enqueue)
        appender.start()
        assert waiting.wait(timeout=10)
        other.write(line[40:])
        other.flush()
        real_flock(other, fcntl.LOCK_UN)
        appender.join(timeout=10)
    assert errors == []
    ids = [json.loads(x)["reading_id"] for x in (d / QUEUE_LOG).read_text().splitlines()]
    assert ids == ["r-0001", "r-0002", "r-0003"]
    with UploadQueue(d) as q:
        assert [r.reading_id for r in q.pending()] == ["r-0001", "r-0002", "r-0003"]
