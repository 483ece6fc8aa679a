"""glucokit's MockEndpoint in a process of its own, driven over stdin/stdout.

The device side of the benchmark is one single-threaded process; running the
endpoint here keeps its request handling off that process's interpreter lock.
Start it with glucokit importable (the parent sets PYTHONPATH). It prints one
JSON line ``{"url": ...}`` when it is serving, then answers one JSON line per
command line read from stdin:

    stats    {"requests": <POSTs to /v1/readings>, "stored": {reading_id: glucose_mgdl}}
    reset    {"ok": true}; clears the store, faults and request count
    backlog  {"ok": true}; arms the backlog fault pattern: every odd-numbered
             request gets a 503, and the first three of the others a 400

It stops serving and exits when stdin closes.
"""

import json
import sys

from glucokit.telemetry import MockEndpoint


def main() -> int:
    with MockEndpoint() as ep:
        print(json.dumps({"url": ep.url}), flush=True)
        for line in sys.stdin:
            cmd = line.strip()
            if cmd == "stats":
                snap = ep.snapshot()
                reply = {"requests": ep.request_count,
                         "stored": {r["reading_id"]: r["glucose_mgdl"]
                                    for r in snap["records"]}}
            elif cmd == "reset":
                ep.reset()
                reply = {"ok": True}
            elif cmd == "backlog":
                ep.faults["every_other"] = True
                ep.faults["reject_next"] = 3
                reply = {"ok": True}
            else:
                reply = {"error": f"unknown command {cmd!r}"}
            print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
