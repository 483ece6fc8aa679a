"""glucokit benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload bedside|backlog --seed N \
        --seconds S --trace 0|1 [--size full|smoke]

Run from the repository root. glucokit is imported from ./src (never from an
installed copy); without it the run exits with code 2 and prints no result.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced units and prints the per-layer metrics taken from the traced units'
spans, plus the tracing overhead; it also writes the spans as JSONL and a
per-span summary (calls, busy and self time) under .bench_out/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Earlier lines give the environment and the figures under the names
of bench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: unpinned BLAS threads made the dnn fit swing by
# a third between runs on a 2-core machine. Child processes inherit these.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def _import_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "glucokit", "__init__.py")):
        print(f"bench: no glucokit sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import glucokit
    if os.path.dirname(os.path.dirname(os.path.abspath(glucokit.__file__))) != SRC:
        print(f"bench: imported glucokit from {glucokit.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


_import_program()

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import (MODEL_SPECS, SIZES, WORKLOADS, Checks, Endpoint, Size,  # noqa: E402
                       spec_slug)


@dataclass
class Context:
    seed: int
    size_name: str
    size: Size
    tracer: Tracer
    checks: Checks
    work: str
    endpoint: Endpoint


def environment() -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "cores": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def end_to_end(units, setup_s: list[float]) -> tuple[dict, dict]:
    op = [x for u in units for x in u.op_ms]
    batch = [x for u in units for x in u.batch_ms]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_p50_ms": (statistics.median(op), "ms"),
        "batch_p50_ms": (statistics.median(batch), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {"op": len(op), "batch": len(batch), "units": len(units),
               "setups": len(setup_s)}
    return metrics, samples


def named(workload: str, metrics: dict, units, checks: Checks, setup_figures: dict) -> dict:
    """The figures under the workload-specific names of bench/README.md."""
    v = {k: val for k, (val, _) in metrics.items()}
    # The tails are reported here, not bounded: on a shared 2-core VM they
    # followed host interference (run-to-run spread of backlog's p90 0.14-0.53,
    # bedside's p99 0.24-0.36) more than the program.
    op = [x for u in units for x in u.op_ms]
    p90, p99 = (float(x) for x in np.percentile(op, [90, 99]))
    out = {"setup_s": v["setup_s"], "peak_rss_mb": v["peak_rss_mb"],
           "failed_ratio": checks.failed / max(checks.attempted, 1), **setup_figures}
    rate = statistics.median(u.ops / u.wall_s for u in units)
    if workload == "bedside":
        out.update(reading_p50_ms=v["op_p50_ms"], reading_p90_ms=p90, reading_p99_ms=p99,
                   sync_p50_ms=v["batch_p50_ms"], readings_per_s=rate)
    else:
        for key in ("enqueue_per_s", "drain_per_s", "drain_ms"):
            out[key] = statistics.median(u.named[key] for u in units)
        out.update(drain_record_p50_ms=v["op_p50_ms"], drain_record_p90_ms=p90,
                   drain_record_p99_ms=p99, cycle_p50_ms=v["batch_p50_ms"],
                   records_per_s=rate)
    return out


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def per_layer(tracer: Tracer, traced_units, overhead_pct: float) -> dict:
    """Per-layer figures from the spans; 0 for a layer the workload never calls."""
    ms = lambda name: _mean(tracer.durations_ms(name))  # noqa: E731
    attr = lambda name, key: _mean(tracer.attr_values(name, key))  # noqa: E731
    enq = tracer.durations_ms("telemetry.queue.enqueue")
    attempts = sum(tracer.attr_values("telemetry.client.sync", "attempts"))
    uploaded = sum(tracer.attr_values("telemetry.client.sync", "uploaded"))
    predictions = (tracer.attr_values("evaluation.train_report", "predictions")
                   + tracer.attr_values("evaluation.evaluate", "predictions"))
    m = {
        "acquisition.generate_ms": (ms("acquisition.generate"), "ms"),
        "data.export_csv_ms": (ms("data.export_csv"), "ms"),
        "data.load_csv_ms": (ms("data.load_csv"), "ms"),
        "data.split_ms": (ms("data.split"), "ms"),
    }
    for spec in MODEL_SPECS:
        name = "regressors.fit." + spec_slug(spec)
        m[name + "_ms"] = (ms(name), "ms")
    m.update({
        "regressors.save_model_ms": (ms("regressors.save_model"), "ms"),
        "regressors.load_model_ms": (ms("regressors.load_model"), "ms"),
        "regressors.model_bytes": (attr("regressors.save_model", "bytes"), "bytes"),
        "regressors.predict_us": (ms("regressors.predict") * 1e3, "us"),
        "evaluation.train_report_ms": (ms("evaluation.train_report"), "ms"),
        "evaluation.evaluate_ms": (ms("evaluation.evaluate"), "ms"),
        "evaluation.predictions": (_mean(predictions), "count"),
        "svgplot.render_ms": (ms("svgplot.render"), "ms"),
        "svgplot.bytes": (attr("svgplot.render", "bytes"), "bytes"),
        "telemetry.queue.open_ms": (ms("telemetry.queue.open"), "ms"),
        "telemetry.queue.records_loaded": (attr("telemetry.queue.open", "records_loaded"), "count"),
        "telemetry.queue.enqueue_p50_ms": (float(np.percentile(enq, 50)) if enq else 0.0, "ms"),
        "telemetry.queue.enqueue_p99_ms": (float(np.percentile(enq, 99)) if enq else 0.0, "ms"),
        "telemetry.queue.pending_count_ms": (ms("telemetry.queue.pending_count"), "ms"),
        "telemetry.client.sync_ms": (ms("telemetry.client.sync"), "ms"),
        "telemetry.client.attempts": (attr("telemetry.client.sync", "attempts"), "count"),
        "telemetry.client.ack_ratio": (uploaded / attempts if attempts else 0.0, "ratio"),
        "telemetry.client.backoff_requested_s": (attr("telemetry.client.sync", "backoff_s"), "s"),
        "telemetry.mockserver.requests": (_mean(u.server.get("requests", 0) for u in traced_units), "count"),
        "telemetry.mockserver.stored": (_mean(u.server.get("stored", 0) for u in traced_units), "count"),
        "bench.trace_overhead_pct": (overhead_pct, "%"),
    })
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, size_name: str) -> dict:
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    run_id = f"{workload}-seed{seed}-{os.getpid()}"
    tracer = Tracer(run_id)
    checks = Checks()
    os.makedirs(work, exist_ok=True)
    try:
        # Started before the timed set-ups, so that they do not time a fresh
        # interpreter importing numpy.
        with Endpoint(SRC) as endpoint:
            ctx = Context(seed=seed, size_name=size_name, size=SIZES[size_name],
                          tracer=tracer, checks=checks, work=work, endpoint=endpoint)
            wl = WORKLOADS[workload](ctx)
            tracer.enabled = trace
            setup_s = []
            for _ in range(wl.SETUPS):
                t0 = time.perf_counter()
                state = wl.setup()
                setup_s.append(time.perf_counter() - t0)
            wl.prepare(state)
            units = {False: [], True: []}
            deadline = time.perf_counter() + seconds
            index = 0
            while True:
                traced = trace and index % 2 == 1
                tracer.enabled = traced
                try:
                    units[traced].append(wl.unit(state, index))
                except Exception:  # keep measuring; the failure is counted
                    traceback.print_exc()
                    checks.op(False, f"unit {index} raised")
                index += 1
                if time.perf_counter() >= deadline and (not trace or index >= 2):
                    break
            tracer.enabled = False
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(environment()))
    if not units[False] or (trace and not units[True]):
        raise RuntimeError("no unit completed")
    metrics, samples = end_to_end(units[False], setup_s)
    print("samples " + json.dumps(samples))
    print("named " + json.dumps(named(workload, metrics, units[False], checks,
                                      wl.setup_figures())))
    if trace:
        traced_metrics, _ = end_to_end(units[True], setup_s)
        side = {k: {"untraced": metrics[k][0], "traced": traced_metrics[k][0]}
                for k in ("op_p50_ms", "batch_p50_ms")}
        print("trace-overhead " + json.dumps(side))
        overhead = 100.0 * (traced_metrics["op_p50_ms"][0] / metrics["op_p50_ms"][0] - 1.0)
        stem = os.path.join(OUT, f"{workload}-seed{seed}")
        tracer.write_jsonl(stem + "-trace.jsonl")
        summary = tracer.summary()
        with open(stem + "-summary.json", "w", encoding="utf-8") as fh:
            json.dump({"run": run_id, "env": environment(), "spans": summary}, fh, indent=2)
        for name, row in summary.items():
            print(f"span {name:40s} calls {row['calls']:7d} busy {row['busy_ms']:11.2f} ms "
                  f"self {row['self_ms']:11.2f} ms")
        metrics = per_layer(tracer, units[True], overhead)
    if checks.notes:
        print("failures " + json.dumps(checks.notes), file=sys.stderr)
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="smoke shrinks every input for a quick self-test")
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
