"""Spans recorded by the benchmark around each call it makes into glucokit.

A span has a name (the layer-qualified call, e.g. ``telemetry.queue.open``),
start and end on the ``perf_counter_ns`` clock, the id of the enclosing span,
the run id, and optional counters (bytes written, records loaded, ...). Spans
are kept in memory and written as JSONL when the run ends. A disabled tracer
hands out one shared no-op context, so untraced runs pay only a method call.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NULL = contextlib.nullcontext({})


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, **attrs):
        """Context manager timing one call; yields a dict for counters."""
        if not self.enabled:
            return _NULL
        return self._span(name, attrs)

    @contextlib.contextmanager
    def _span(self, name: str, attrs: dict):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start_ns": 0, "end_ns": 0, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def durations_ms(self, name: str) -> list[float]:
        return [(s["end_ns"] - s["start_ns"]) / 1e6
                for s in self.spans if s["name"] == name]

    def attr_values(self, name: str, key: str) -> list[float]:
        return [s["attrs"][key] for s in self.spans
                if s["name"] == name and key in s["attrs"]]

    def summary(self) -> dict:
        """Per span name: calls, busy ms (sum of durations) and self ms
        (busy minus the time covered by direct children; children of one
        span never overlap because the benchmark is single-threaded)."""
        child_ns: dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
        out: dict[str, dict] = {}
        for s in self.spans:
            dur = s["end_ns"] - s["start_ns"]
            row = out.setdefault(s["name"], {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["busy_ms"] += dur / 1e6
            row["self_ms"] += (dur - child_ns[s["id"]]) / 1e6
        return dict(sorted(out.items()))

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
