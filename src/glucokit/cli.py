"""Command-line driver for the glucose pipeline.

Subcommands cover the full loop: simulate a synthetic dataset, calibrate a
model on its calibration split, validate against the held-out split (report
JSON plus SVG plots), predict from raw channel voltages, sync the upload
queue to an endpoint, and render model-comparison tables from report files.

Option layering, highest priority first: explicit flag, environment variable
(GLUCOKIT_ENDPOINT, GLUCOKIT_QUEUE_DIR), JSON config file given with
--config (top-level keys are flag names with underscores), built-in default.
A config or env value is parsed as its flag would be (type and choices; switches
take JSON booleans); keys naming no flag of the command are ignored.

Exit codes: 0 success, 1 usage, 2 data error, 3 solver/convergence error,
4 network failure or dead-lettered records.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import math
import os
import re
import sys

import numpy as np

from . import acquisition, svgplot
from .data import (
    ChannelVoltages,
    Dataset,
    GLUCOSE_KINDS,
    GlucoseValue,
    export_csv,
    json_reader,
    load_csv,
    read_json_object,
    split_dataset,
)
from .errors import DataError, NetworkError, SolverError
from .evaluation import (
    ZONES,
    MetricsReport,
    ceg_analyze,
    group_readings,
    metrics_report,
    paired_readings,
)
from .regressors import FAMILIES, MODEL_SPECS, fit_model, load_model, save_model
from .regressors.dnn import MAX_HIDDEN_LAYERS, MAX_WIDTH
from .telemetry.queue import ReadingRecord, UploadQueue

# environment variable -> the flag it supplies, in each command that has the flag
ENV_FLAGS = {"GLUCOKIT_QUEUE_DIR": "queue", "GLUCOKIT_ENDPOINT": "endpoint"}


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _layer_defaults(parser: argparse.ArgumentParser, *layers: dict) -> None:
    """Make config and env values (later layers win) the defaults of parser's flags.

    argparse applies neither type nor choices to a non-string default, so a
    value is handed over as a string for the flag's own type to parse, and its
    choices are checked here; a switch takes a JSON boolean instead.
    """
    flags = {a.dest: a for a in parser._actions if a.option_strings and a.dest != "help"}
    for layer in layers:
        for key, value in layer.items():
            action = flags.get(key)
            if action is None:
                continue  # not a flag of this command, e.g. forward_model
            if action.nargs == 0:
                if not isinstance(value, bool):
                    raise UsageError(f"config {key}: wants true or false, not {value!r}")
                if value:
                    action.default = action.const
            elif isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise UsageError(f"config {key}: wants a string or number, not {value!r}")
            elif action.choices is not None and str(value) not in action.choices:
                raise UsageError(f"config {key}: {value!r} is not in {action.choices}")
            else:
                action.default = str(value)


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _finite(text: str) -> float:
    """The type= parser of every float flag: one finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"wants a finite number, got {text!r}")
    return value


def _numbers(count: int, sep: str):
    """A type= parser for `count` finite numbers joined by sep, e.g. 60:340."""
    def parse(text: str) -> tuple[float, ...]:
        try:
            values = tuple(map(_finite, text.split(sep)))
        except argparse.ArgumentTypeError:
            values = ()
        if len(values) == count:
            return values
        raise argparse.ArgumentTypeError(
            f"wants {count} finite numbers joined by {sep!r}, got {text!r}")
    return parse


def _seed(text: str) -> int:
    """The type= parser of every --seed flag: one non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"wants an integer >= 0, got {text!r}")
    return value


def _parse_depths(text: str) -> list[int]:
    m = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text)
    if not m:
        raise argparse.ArgumentTypeError(f"wants N or A..B, got {text!r}")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else lo
    if not 1 <= lo <= hi <= MAX_HIDDEN_LAYERS:  # before range() builds the list
        raise argparse.ArgumentTypeError(
            f"wants 1 <= A <= B <= {MAX_HIDDEN_LAYERS}, got {text!r}")
    return list(range(lo, hi + 1))


def _select_split(ds: Dataset, which: str, wanted: str) -> tuple[Dataset, str]:
    """which is auto|all|<wanted>; auto takes the labeled split when present."""
    if which == "all":
        return ds, "all"
    if which == "auto":
        if any(v == wanted for v in ds.split_labels.values()):
            return ds.subset(wanted), wanted
        return ds, "all"
    return ds.subset(which), which


# ---------------------------------------------------------------- simulate

def cmd_simulate(args, config: dict) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    lo, hi = args.range
    serum_delta = None if args.no_serum else args.serum_delta

    fm = json_reader(acquisition.ForwardModelConfig, "forward_model")(
        config.get("forward_model", {}))
    adc = json_reader(acquisition.AdcConfig, "adc")(config.get("adc", {}))
    if args.seed is not None:
        fm = dataclasses.replace(fm, seed=args.seed)
    if args.noise_sd is not None:
        fm = dataclasses.replace(fm, noise_sd_mv=args.noise_sd)

    ds = acquisition.generate_dataset(
        args.n, (lo, hi), fm, adc, n_raw=args.n_raw, serum_delta=serum_delta,
        id_prefix=args.id_prefix,
    )
    export_csv(split_dataset(ds, seed=fm.seed, fractions=args.split_fractions), args.out)
    print(f"wrote {args.n} samples to {args.out} "
          f"(glucose {lo:g}-{hi:g} mg/dl, noise sd {fm.noise_sd_mv:g} mV, "
          f"seed {fm.seed})")
    return 0


# --------------------------------------------------------------- calibrate

# calibrate flag -> the fit_model option it sets; each family's `options`
# allow-list says which family takes it
_FAMILY_FLAGS = {
    "no_intercept": "intercept", "svr_eps": "eps", "svr_c": "c",
    "hidden_layers": "hidden_layers", "width": "width", "max_iters": "max_iters",
    "sse_tol": "sse_tol", "lambda0": "lambda0",
}


def cmd_calibrate(args, config: dict) -> int:
    spec, kind, seed = args.model, args.kind, args.seed
    if spec not in MODEL_SPECS:
        raise UsageError(f"unknown model {spec!r}; choose from {', '.join(MODEL_SPECS)}")

    ds = load_csv(args.train)
    train, used = _select_split(ds, args.split, "calibration")

    family = FAMILIES[spec.partition(":")[0]]
    options: dict = {}
    for flag, option in _FAMILY_FLAGS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if option not in family.options:
            taker = next(f.family for f in FAMILIES.values() if option in f.options)
            raise UsageError(f"--{flag.replace('_', '-')} only applies to {taker}")
        options[option] = value

    # a single fit is a sweep of one, which prints no table
    depths = options.pop("hidden_layers", [None])
    sweep = len(depths) > 1
    if sweep:
        print(f"hidden-layer sweep on {len(train)} samples ({used} split), "
              f"kind {kind}, seed {seed}")
        print(f"{'depth':>5}  {'train mARD %':>12}  {'train RMSE mg/dl':>16}")
    best = None
    for h in depths:
        depth = {} if h is None else {"hidden_layers": h}
        tm = fit_model(spec, train, kind, seed=seed, created_utc=args.timestamp,
                       **options, **depth)
        rep = metrics_report(paired_readings(tm, train, kind))
        if sweep:
            print(f"{h:>5}  {rep.mard_pct:>12.4f}  {rep.rmse_mgdl:>16.4f}")
        if best is None or rep.rmse_mgdl < best[1].rmse_mgdl:
            best = (tm, rep, h)
    tm, rep, h = best
    if sweep:
        print(f"best depth {h} by train RMSE")

    print(f"fit {tm.tag} on {rep.n} samples ({used} split): "
          f"mARD {rep.mard_pct:.4f} %  RMSE {rep.rmse_mgdl:.4f} mg/dl  "
          f"r {rep.r_pearson:.6f}")
    if args.out is not None:
        save_model(tm, args.out)
        print(f"saved model to {args.out}")
    return 0


# ---------------------------------------------------------------- validate

def _slug(value: str) -> str:
    return re.sub(r"[^A-Za-z0-9_-]+", "-", value) or "untagged"


def cmd_validate(args, config: dict) -> int:
    out_dir, group_by = args.out_dir, args.group_by

    tm = load_model(args.model)
    kind = args.kind or tm.glucose_kind
    ds = load_csv(args.data)
    subset, used = _select_split(ds, args.split, "validation")

    p = paired_readings(tm, subset, kind)
    rep = metrics_report(p)
    ceg = ceg_analyze(p)

    doc = {
        "model": {"spec": tm.spec, "glucose_kind": tm.glucose_kind,
                  "metadata": tm.metadata},
        "data": {"path": os.path.basename(args.data), "split": used, "n": len(p)},
        "kind": kind,
        "metrics": rep.to_dict(),
        "ceg": ceg.to_dict(),
    }
    title = f"{tm.tag} ({used} split, n={len(p)})"
    # file name -> text, in the order the summary lists them; report.json
    # keeps its first place but is filled in once the groups are known
    files = {
        "report.json": None,
        "scatter.svg": svgplot.scatter_svg(p, title=f"Predicted vs reference: {title}"),
        "ceg.svg": svgplot.ceg_svg(p, title=f"Clarke error grid: {title}"),
        "zones.svg": svgplot.histogram_svg(ceg, title=f"Clarke zones: {title}"),
    }
    if group_by is not None:
        doc["groups"] = {}
        for value, gp in group_readings(p, group_by).items():
            gceg = ceg_analyze(gp)
            try:
                gmetrics = metrics_report(gp).to_dict()
            except DataError:
                gmetrics = None  # degenerate group (e.g. single point)
            doc["groups"][value] = {
                "n": len(gp), "metrics": gmetrics, "ceg": gceg.to_dict(),
            }
            files[f"ceg_{_slug(value)}.svg"] = svgplot.ceg_svg(
                gp, title=f"Clarke error grid: {tm.tag} {group_by}={value}")
    files["report.json"] = json.dumps(doc, indent=2) + "\n"

    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    print(f"validated {tm.tag} on {len(p)} samples ({used} split)")
    print(f"mARD {rep.mard_pct:.4f} %  AvgE {rep.avge_pct:.4f} %  "
          f"MAD {rep.mad_mgdl:.4f} mg/dl  RMSE {rep.rmse_mgdl:.4f} mg/dl  "
          f"r {rep.r_pearson:.6f}")
    print("CEG " + "  ".join(f"{z} {ceg.percentages[z]:.1f}%" for z in ZONES))
    print(f"wrote {' '.join(files)} in {out_dir}")
    return 0


# ----------------------------------------------------------------- predict

def cmd_predict(args, config: dict) -> int:
    v = (args.v1, args.v2, args.v3)

    tm = load_model(args.model)
    voltages = ChannelVoltages(*v)
    voltages.check_range(args.fsr)
    pred = tm.predict(voltages)

    if args.json:
        print(json.dumps({"glucose_mgdl": pred.value_mgdl, "kind": pred.kind,
                          "clamped": pred.clamped, "model": tm.tag}))
    else:
        note = "  [clamped]" if pred.clamped else ""
        print(f"{pred.value_mgdl:.3f} mg/dl ({pred.kind}, {tm.tag}){note}")

    if args.enqueue:
        if args.queue is None:
            raise UsageError("--enqueue needs --queue DIR (or GLUCOKIT_QUEUE_DIR)")
        patient, device = args.patient_id, args.device_id
        ts = args.timestamp or _utc_now()
        key = "|".join([patient, device, ts, repr(v[0]), repr(v[1]), repr(v[2]), tm.tag])
        rid = hashlib.sha256(key.encode()).hexdigest()[:32]
        record = ReadingRecord(
            reading_id=rid, patient_id=patient, timestamp_utc=ts,
            glucose=GlucoseValue(pred.value_mgdl, pred.kind),
            model_tag=tm.tag, device_id=device,
        )
        with UploadQueue(args.queue) as q:
            q.enqueue(record)
            print(f"enqueued {rid} ({q.pending_count()} pending in {args.queue})")
    return 0


# -------------------------------------------------------------------- sync

def cmd_sync(args, config: dict) -> int:
    from .telemetry.client import RetryPolicy, sync  # http.client only when syncing

    retry = RetryPolicy(base_delay=args.base_delay, max_delay=args.max_delay,
                        jitter=args.jitter, max_attempts=args.max_attempts)

    with UploadQueue(args.queue) as q:
        stats = sync(q, args.endpoint, retry, timeout=args.timeout,
                     rng=np.random.default_rng(args.seed))
        print(f"uploaded {stats.uploaded}  dead-lettered {stats.dead_lettered}  "
              f"remaining {stats.remaining}  attempts {stats.attempts}")
        for record, reason in q.dead_letters():
            print(f"dead letter {record.reading_id}: {reason}", file=sys.stderr)
    if stats.dead_lettered > 0 or stats.remaining > 0:
        return 4
    return 0


# ------------------------------------------------------------------ report

_REPORT_COLUMNS = ("model", "kind", "split", "n", "mARD %", "AvgE %",
                   "MAD mg/dl", "RMSE mg/dl", "r", "A %", "B %", "C %", "D %", "E %")


def _report_row(path: str) -> list[str]:
    doc = read_json_object(path, "report")

    def field(dotted: str, hint):
        value = doc
        for key in dotted.split("."):
            value = value[key]
        return json_reader(hint, dotted)(value)

    try:
        m = field("metrics", MetricsReport)  # written as asdict(MetricsReport)
        return [
            field("model.spec", str), field("kind", str), field("data.split", str),
            str(field("data.n", int)),
            f"{m.mard_pct:.3f}", f"{m.avge_pct:.3f}", f"{m.mad_mgdl:.3f}",
            f"{m.rmse_mgdl:.3f}", f"{m.r_pearson:.5f}",
        ] + [f"{field(f'ceg.percentages.{z}', float):.1f}" for z in ZONES]
    except KeyError as e:
        raise DataError(f"report {path}: missing field {e}") from e
    except (TypeError, DataError) as e:  # a field of the wrong type, e.g. text metrics
        raise DataError(f"report {path}: malformed field ({e})") from e


def cmd_report(args, config: dict) -> int:
    rows = [_report_row(p) for p in args.reports]
    if args.format == "md":
        lines = ["| " + " | ".join(_REPORT_COLUMNS) + " |",
                 "|" + "|".join("---" for _ in _REPORT_COLUMNS) + "|"]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
    else:
        import csv as _csv
        import io as _io
        buf = _io.StringIO()
        w = _csv.writer(buf, lineterminator="\n")
        w.writerow(_REPORT_COLUMNS)
        w.writerows(rows)
        lines = buf.getvalue().splitlines()
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON file supplying defaults for any flag")
    splits = ("auto", "calibration", "validation", "testing", "all")

    p = _Parser(prog="glucokit",
                description="Synthetic NIR glucometer pipeline: simulate, "
                            "calibrate, validate, predict, sync, report.")
    sub = p.add_subparsers(dest="command", metavar="COMMAND")

    s = sub.add_parser("simulate", parents=[common],
                       help="generate a synthetic dataset CSV")
    s.add_argument("--n", type=int,
                   help=f"number of samples (at most {acquisition.MAX_SAMPLES})")
    s.add_argument("--seed", type=_seed)
    s.add_argument("--out", help="output CSV path")
    s.add_argument("--range", type=_numbers(2, ":"), default="60:340", metavar="LO:HI",
                   help="glucose range in mg/dl (default 60:340)")
    s.add_argument("--noise-sd", type=_finite, help="channel noise sd in mV (default 6)")
    s.add_argument("--n-raw", type=int, default=1024,
                   help="raw samples averaged per channel "
                        f"(default 1024, at most {acquisition.MAX_N_RAW})")
    s.add_argument("--serum-delta", type=_finite, default=0.05,
                   help="serum = capillary*(1-delta); default 0.05")
    s.add_argument("--no-serum", action="store_true",
                   help="emit capillary references only")
    s.add_argument("--split-fractions", type=_numbers(3, ","), default="0.6,0.4,0.0",
                   metavar="C,V,T",
                   help="calibration,validation,test fractions (default 0.6,0.4,0.0)")
    s.add_argument("--id-prefix", default="sim")
    s.set_defaults(func=cmd_simulate, needs=("n", "out"))

    c = sub.add_parser("calibrate", parents=[common],
                       help="fit a model on the calibration split")
    c.add_argument("--train", help="training CSV")
    c.add_argument("--model", default="mpr3",
                   help="model spec (default mpr3); one of " + ", ".join(MODEL_SPECS))
    c.add_argument("--kind", default="capillary", choices=GLUCOSE_KINDS)
    c.add_argument("--out", help="model JSON output path")
    c.add_argument("--seed", type=_seed, default=0)
    c.add_argument("--split", default="auto", choices=splits)
    c.add_argument("--timestamp", help="ISO timestamp recorded in model metadata")
    # the stored value is the option itself: intercept=False
    c.add_argument("--no-intercept", action="store_const", const=False,
                   help="mpr3: drop the fitted intercept")
    c.add_argument("--svr-eps", type=_finite, help="svr: tube half-width")
    c.add_argument("--svr-c", type=_finite, help="svr: box constraint")
    c.add_argument("--hidden-layers", type=_parse_depths, metavar="N|A..B",
                   help="dnn: depth, or an inclusive sweep like 1..10 "
                        f"(at most {MAX_HIDDEN_LAYERS})")
    c.add_argument("--width", type=int,
                   help=f"dnn: neurons per layer (at most {MAX_WIDTH})")
    c.add_argument("--max-iters", type=int)
    c.add_argument("--sse-tol", type=_finite)
    c.add_argument("--lambda0", type=_finite)
    c.set_defaults(func=cmd_calibrate, needs=("train",))

    v = sub.add_parser("validate", parents=[common],
                       help="evaluate a model; write report JSON and SVG plots")
    v.add_argument("--model", help="model JSON path")
    v.add_argument("--data", help="dataset CSV")
    v.add_argument("--out-dir")
    v.add_argument("--kind", choices=GLUCOSE_KINDS,
                   help="reference kind (default: the model's)")
    v.add_argument("--split", default="auto", choices=splits)
    v.add_argument("--group-by", choices=("sex", "mode"))
    v.set_defaults(func=cmd_validate, needs=("model", "data", "out_dir"))

    q = sub.add_parser("predict", parents=[common],
                       help="predict glucose from three channel voltages")
    q.add_argument("--model", help="model JSON path")
    q.add_argument("--v1", type=_finite, help="channel 1, mV")
    q.add_argument("--v2", type=_finite, help="channel 2, mV")
    q.add_argument("--v3", type=_finite, help="channel 3, mV")
    q.add_argument("--fsr", type=_finite, default=5000.0,
                   help="ADC full-scale range in mV (default 5000)")
    q.add_argument("--json", action="store_true",
                   help="print a JSON object instead of text")
    q.add_argument("--enqueue", action="store_true",
                   help="append the reading to the upload queue")
    q.add_argument("--queue", help="queue directory")
    q.add_argument("--patient-id", default="anonymous")
    q.add_argument("--device-id", default="iglu-sim-0")
    q.add_argument("--timestamp", help="reading timestamp (default: now, UTC)")
    q.set_defaults(func=cmd_predict, needs=("model", "v1", "v2", "v3"))

    y = sub.add_parser("sync", parents=[common],
                       help="upload queued readings to the endpoint")
    y.add_argument("--queue", help="queue directory")
    y.add_argument("--endpoint",
                   help="ingest base URL; records POST to {endpoint}/v1/readings")
    y.add_argument("--max-attempts", type=int, default=6)
    y.add_argument("--base-delay", type=_finite, default=0.1)
    y.add_argument("--max-delay", type=_finite, default=2.0)
    y.add_argument("--jitter", type=_finite, default=0.1)
    y.add_argument("--timeout", type=_finite, default=10.0)
    y.add_argument("--seed", type=_seed, default=0, help="retry jitter seed")
    y.set_defaults(func=cmd_sync, needs=("queue", "endpoint"))

    r = sub.add_parser("report", parents=[common],
                       help="render a comparison table from report JSONs")
    r.add_argument("reports", nargs="+", metavar="REPORT_JSON")
    r.add_argument("--format", default="md", choices=("md", "csv"))
    r.add_argument("--out", help="write the table here instead of stdout")
    r.set_defaults(func=cmd_report, needs=())

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("glucokit: a COMMAND is required", file=sys.stderr)
            return 1
        # parse again with config, then env, values as the command's defaults
        config = {} if args.config is None else read_json_object(args.config, "config")
        env = {flag: os.environ[var]
               for var, flag in ENV_FLAGS.items() if var in os.environ}
        commands = next(a for a in parser._actions if a.dest == "command").choices
        _layer_defaults(commands[args.command], config, env)
        args = parser.parse_args(argv)
        # flags without which a command cannot run; checked here rather than
        # with required=True, which would refuse a value layered in above
        env_of = {flag: f" (or {var})" for var, flag in ENV_FLAGS.items()}
        missing = [f"--{flag.replace('_', '-')}{env_of.get(flag, '')}"
                   for flag in args.needs if getattr(args, flag) is None]
        if missing:
            raise UsageError(f"missing required {', '.join(missing)}")
        return args.func(args, config)
    except UsageError as e:
        print(f"glucokit: usage error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"glucokit: data error: {e}", file=sys.stderr)
        return 2
    except SolverError as e:
        print(f"glucokit: solver error: {e}", file=sys.stderr)
        return 3
    except NetworkError as e:
        print(f"glucokit: network error: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"glucokit: {e}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
