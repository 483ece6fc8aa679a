"""End-to-end runs of every subcommand through cli.main, in process."""

import contextlib
import io
import json
import xml.etree.ElementTree as ET

import pytest

from glucokit.acquisition import MAX_SAMPLES
from glucokit.cli import main
from glucokit.data import ChannelVoltages, Dataset, GlucoseValue, Sample, export_csv, load_csv
from glucokit.errors import DataError
from glucokit.regressors import dnn as dnn_module, fit_model, load_model
from glucokit.regressors.dnn import MAX_HIDDEN_LAYERS, MAX_ITERS, MAX_WIDTH
from glucokit.telemetry import MockEndpoint, UploadQueue
from glucokit.telemetry import queue as queue_module
from glucokit.telemetry.client import MAX_ATTEMPTS


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def count_markers(svg_path):
    root = ET.fromstring(svg_path.read_text())
    return sum(1 for el in root.iter()
               if el.tag.endswith("circle") and el.get("class") == "pt")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.csv"
    model = root / "model.json"
    rc, out, err = run(["simulate", "--n", "120", "--seed", "5", "--out", str(data)])
    assert rc == 0, err
    rc, out, err = run(["calibrate", "--train", str(data), "--model", "mpr3",
                        "--out", str(model)])
    assert rc == 0, err
    return {"root": root, "data": data, "model": model}


class TestSimulate:
    def test_writes_loadable_csv_and_summary(self, tmp_path):
        out = tmp_path / "d.csv"
        rc, text, _ = run(["simulate", "--n", "30", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert text.startswith(f"wrote 30 samples to {out}")
        assert "seed 1" in text
        ds = load_csv(out)
        assert len(ds) == 30
        labels = set(ds.split_labels.values())
        assert labels == {"calibration", "validation"}

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc, *_ = run(["simulate", "--n", "20", "--seed", "9", "--out", str(path)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_all_calibration_when_fraction_is_one(self, tmp_path):
        out = tmp_path / "d.csv"
        rc, *_ = run(["simulate", "--n", "15", "--seed", "0", "--out", str(out),
                      "--split-fractions", "1,0,0"])
        assert rc == 0
        assert set(load_csv(out).split_labels.values()) == {"calibration"}

    @pytest.mark.parametrize("argv", [
        ["simulate", "--out", "x.csv"],               # missing --n
        ["simulate", "--n", "0", "--out", "x.csv"],   # n below 1
        ["simulate", "--n", "5"],                     # missing --out
        ["simulate", "--n", "5", "--out", "x.csv", "--range", "60-340"],
        ["simulate", "--n", "5", "--out", "x.csv", "--split-fractions", "1,0"],
        # non-finite numbers; nan,0,0 used to write an all-calibration set
        ["simulate", "--n", "5", "--out", "x.csv", "--split-fractions=nan,0,0"],
        ["simulate", "--n", "5", "--out", "x.csv", "--split-fractions", "inf,0,0"],
        ["simulate", "--n", "5", "--out", "x.csv", "--range", "60:nan"],
        ["simulate", "--n", "5", "--out", "x.csv", "--range=-inf:340"],
        # every float flag wants a finite number
        ["calibrate", "--train", "x.csv", "--model", "svr:linear", "--svr-c", "nan"],
        ["calibrate", "--train", "x.csv", "--model", "svr:linear", "--svr-c", "inf"],
        ["calibrate", "--train", "x.csv", "--model", "dnn", "--sse-tol", "nan"],
        ["sync", "--queue", "q", "--endpoint", "http://127.0.0.1:9", "--base-delay", "nan"],
        ["sync", "--queue", "q", "--endpoint", "http://127.0.0.1:9", "--timeout", "nan"],
        ["predict", "--model", "m.json", "--v1", "2500", "--v2", "2100", "--v3", "1900",
         "--fsr", "nan"],
        ["predict", "--model", "m.json", "--v1", "nan", "--v2", "2100", "--v3", "1900"],
        ["simulate", "--n", "5", "--out", "x.csv", "--noise-sd", "1e400"],
        # every --seed flag wants a non-negative integer
        ["simulate", "--n", "5", "--out", "x.csv", "--seed", "-1"],
        ["calibrate", "--train", "x.csv", "--model", "dnn", "--seed", "-1"],
        ["sync", "--queue", "q", "--endpoint", "http://127.0.0.1:9", "--seed", "-1"],
    ])
    def test_usage_errors(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, _, err = run(argv)
        assert rc == 1
        assert "usage error" in err

    @pytest.mark.parametrize("fractions,message", [
        ("2,0,0", "fractions must sum to 1, got 2.0"),
        ("1.5,-0.5,0", "fractions must be non-negative"),
    ])
    def test_bad_split_fractions_are_data_errors(self, fractions, message, tmp_path):
        out = tmp_path / "d.csv"
        rc, _, err = run(["simulate", "--n", "15", "--seed", "0", "--out", str(out),
                          "--split-fractions", fractions])
        assert rc == 2
        assert err == f"glucokit: data error: {message}\n"
        assert not out.exists()


class TestCalibrate:
    def test_fit_summary_and_saved_model(self, workspace):
        rc, out, _ = run(["calibrate", "--train", str(workspace["data"]),
                          "--model", "mpr3"])
        assert rc == 0
        assert "fit mpr3:capillary on 72 samples (calibration split)" in out
        tm = load_model(workspace["model"])
        assert tm.spec == "mpr3" and tm.metadata["n_train"] == 72

    def test_unknown_model_is_usage_error(self, workspace):
        rc, _, err = run(["calibrate", "--train", str(workspace["data"]),
                          "--model", "ridge"])
        assert rc == 1 and "unknown model" in err

    def test_family_flags_are_policed(self, workspace):
        rc, _, err = run(["calibrate", "--train", str(workspace["data"]),
                          "--model", "mpr3", "--svr-c", "2.0"])
        assert rc == 1 and "svr" in err
        rc, _, err = run(["calibrate", "--train", str(workspace["data"]),
                          "--model", "svr:linear", "--width", "4"])
        assert rc == 1 and "dnn" in err

    def test_depth_sweep_prints_table_and_picks_best(self, workspace, tmp_path):
        out = tmp_path / "dnn.json"
        rc, text, _ = run(["calibrate", "--train", str(workspace["data"]),
                           "--model", "dnn", "--hidden-layers", "1..2",
                           "--width", "3", "--max-iters", "15",
                           "--out", str(out)])
        assert rc == 0
        assert "depth" in text and "train mARD %" in text
        assert "best depth" in text
        depth = int(text.split("best depth ")[1].split()[0])
        assert depth in (1, 2)
        assert load_model(out).metadata["hyperparameters"]["hidden_layers"] == depth

    def test_missing_train_file_maps_to_data_exit(self, tmp_path):
        rc, _, err = run(["calibrate", "--train", str(tmp_path / "absent.csv")])
        assert rc == 2

    def test_degenerate_design_maps_to_solver_exit(self, tmp_path):
        # all three channels identical: collinear design, no unique fit
        samples = [
            Sample(id=f"s-{i:03d}",
                   voltages=ChannelVoltages(2000.0 + i, 2000.0 + i, 2000.0 + i),
                   capillary=GlucoseValue(90.0 + i, "capillary"))
            for i in range(25)
        ]
        path = tmp_path / "flat.csv"
        export_csv(Dataset(tuple(samples)), path)
        rc, _, err = run(["calibrate", "--train", str(path), "--split", "all"])
        assert rc == 3
        assert "solver error" in err


@pytest.fixture(scope="module")
def outdir(workspace, tmp_path_factory):
    d = tmp_path_factory.mktemp("val")
    rc, out, err = run(["validate", "--model", str(workspace["model"]),
                        "--data", str(workspace["data"]), "--out-dir", str(d)])
    assert rc == 0, err
    return d


@pytest.fixture(scope="module")
def report_json(outdir):
    return outdir / "report.json"


class TestValidate:
    def test_report_document_shape(self, outdir):
        doc = json.loads((outdir / "report.json").read_text())
        assert doc["model"]["spec"] == "mpr3"
        assert doc["data"]["split"] == "validation" and doc["data"]["n"] == 48
        assert set(doc["metrics"]) == {"mard_pct", "avge_pct", "mad_mgdl",
                                       "rmse_mgdl", "r_pearson", "n"}
        assert sum(doc["ceg"]["percentages"].values()) == pytest.approx(100.0)

    def test_plots_mark_every_point(self, outdir):
        doc = json.loads((outdir / "report.json").read_text())
        assert count_markers(outdir / "scatter.svg") == doc["data"]["n"]
        assert count_markers(outdir / "ceg.svg") == doc["data"]["n"]
        assert (outdir / "zones.svg").read_text().count('class="bar"') == 5

    def test_grouped_run_adds_group_panels(self, workspace, tmp_path):
        d = tmp_path / "grouped"
        rc, out, _ = run(["validate", "--model", str(workspace["model"]),
                          "--data", str(workspace["data"]), "--out-dir", str(d),
                          "--group-by", "sex"])
        assert rc == 0
        doc = json.loads((d / "report.json").read_text())
        groups = doc["groups"]
        assert sum(g["n"] for g in groups.values()) == doc["data"]["n"]
        for value in groups:
            assert (d / f"ceg_{value}.svg").exists()

    def test_grouped_run_lists_exactly_the_files_it_wrote(self, workspace, tmp_path):
        d = tmp_path / "grouped"
        rc, out, _ = run(["validate", "--model", str(workspace["model"]),
                          "--data", str(workspace["data"]), "--out-dir", str(d),
                          "--group-by", "sex"])
        assert rc == 0
        names = "report.json scatter.svg ceg.svg zones.svg ceg_female.svg ceg_male.svg"
        assert out.splitlines()[-1] == f"wrote {names} in {d}"
        assert sorted(p.name for p in d.iterdir()) == sorted(names.split())

    def test_missing_inputs_are_usage_errors(self, workspace):
        rc, _, err = run(["validate", "--model", str(workspace["model"])])
        assert rc == 1 and "required" in err

    def test_missing_model_file_maps_to_data_exit(self, workspace, tmp_path):
        rc, *_ = run(["validate", "--model", str(tmp_path / "no.json"),
                      "--data", str(workspace["data"]), "--out-dir", str(tmp_path)])
        assert rc == 2


class TestPredict:
    def test_json_output_matches_library_prediction(self, workspace):
        rc, out, _ = run(["predict", "--model", str(workspace["model"]),
                          "--v1", "2500", "--v2", "2100", "--v3", "1900", "--json"])
        assert rc == 0
        doc = json.loads(out)
        tm = load_model(workspace["model"])
        want = tm.predict(ChannelVoltages(2500.0, 2100.0, 1900.0))
        assert doc == {"glucose_mgdl": want.value_mgdl, "kind": want.kind,
                       "clamped": want.clamped, "model": tm.tag}

    def test_text_output_formats_prediction(self, workspace):
        rc, out, _ = run(["predict", "--model", str(workspace["model"]),
                          "--v1", "2500", "--v2", "2100", "--v3", "1900"])
        assert rc == 0
        assert "mg/dl (capillary, mpr3:capillary)" in out

    def test_out_of_range_voltage_is_data_error(self, workspace):
        rc, _, err = run(["predict", "--model", str(workspace["model"]),
                          "--v1", "6000", "--v2", "2100", "--v3", "1900"])
        assert rc == 2 and "data error" in err

    def test_enqueue_appends_to_queue(self, workspace, tmp_path):
        qdir = tmp_path / "q"
        base = ["predict", "--model", str(workspace["model"]),
                "--v1", "2500", "--v2", "2100", "--v3", "1900",
                "--enqueue", "--queue", str(qdir)]
        rc, out, _ = run(base + ["--timestamp", "2026-03-01T10:00:00Z"])
        assert rc == 0 and "(1 pending" in out
        rc, out, _ = run(base + ["--timestamp", "2026-03-01T10:05:00Z",
                                 "--v1", "2501"])
        assert rc == 0 and "(2 pending" in out
        with UploadQueue(qdir) as q:
            assert q.pending_count() == 2

    def test_enqueue_without_queue_dir_is_usage_error(self, workspace):
        rc, _, err = run(["predict", "--model", str(workspace["model"]),
                          "--v1", "2500", "--v2", "2100", "--v3", "1900",
                          "--enqueue"])
        assert rc == 1 and "GLUCOKIT_QUEUE_DIR" in err

    def test_enqueue_honors_queue_env_var(self, workspace, tmp_path, monkeypatch):
        qdir = tmp_path / "envq"
        monkeypatch.setenv("GLUCOKIT_QUEUE_DIR", str(qdir))
        rc, *_ = run(["predict", "--model", str(workspace["model"]),
                      "--v1", "2500", "--v2", "2100", "--v3", "1900",
                      "--enqueue", "--timestamp", "2026-03-01T10:00:00Z"])
        assert rc == 0
        assert (qdir / "queue.log").exists()


class TestSync:
    def enqueue_one(self, workspace, qdir, minute=0):
        rc, *_ = run(["predict", "--model", str(workspace["model"]),
                      "--v1", "2500", "--v2", "2100", "--v3", "1900",
                      "--enqueue", "--queue", str(qdir),
                      "--timestamp", f"2026-03-01T10:{minute:02d}:00Z"])
        assert rc == 0

    def test_uploads_and_reports_counts(self, workspace, tmp_path):
        qdir = tmp_path / "q"
        self.enqueue_one(workspace, qdir, 0)
        self.enqueue_one(workspace, qdir, 5)
        with MockEndpoint() as ep:
            rc, out, _ = run(["sync", "--queue", str(qdir), "--endpoint", ep.url])
            assert rc == 0
            assert "uploaded 2  dead-lettered 0  remaining 0" in out
            assert ep.snapshot()["count"] == 2

    def test_endpoint_from_environment(self, workspace, tmp_path, monkeypatch):
        qdir = tmp_path / "q"
        self.enqueue_one(workspace, qdir)
        with MockEndpoint() as ep:
            monkeypatch.setenv("GLUCOKIT_ENDPOINT", ep.url)
            rc, out, _ = run(["sync", "--queue", str(qdir)])
            assert rc == 0 and "uploaded 1" in out

    def test_empty_queue_is_success(self, tmp_path):
        with MockEndpoint() as ep:
            rc, out, _ = run(["sync", "--queue", str(tmp_path / "q"),
                              "--endpoint", ep.url])
        assert rc == 0 and "uploaded 0" in out

    def test_corrupt_queue_exits_2(self, workspace, tmp_path):
        qdir = tmp_path / "q"
        self.enqueue_one(workspace, qdir)
        entry = json.loads((qdir / "queue.log").read_text())
        entry["glucose_mgdl"] = "abc"
        (qdir / "queue.log").write_text(json.dumps(entry) + "\n")
        with MockEndpoint() as ep:
            rc, _, err = run(["sync", "--queue", str(qdir), "--endpoint", ep.url])
            assert ep.snapshot()["count"] == 0
        assert rc == 2
        assert err.count("\n") == 1 and "queue.log line 1: corrupt entry" in err

    def test_unreachable_endpoint_exits_4_and_keeps_queue(self, workspace, tmp_path):
        qdir = tmp_path / "q"
        self.enqueue_one(workspace, qdir)
        rc, out, _ = run(["sync", "--queue", str(qdir),
                          "--endpoint", "http://127.0.0.1:9",
                          "--max-attempts", "2", "--base-delay", "0.01"])
        assert rc == 4 and "remaining 1" in out
        with UploadQueue(qdir) as q:
            assert q.pending_count() == 1

    def test_dead_letter_exits_4_with_reason_on_stderr(self, workspace, tmp_path):
        qdir = tmp_path / "q"
        self.enqueue_one(workspace, qdir)
        with MockEndpoint() as ep:
            ep.faults["reject_next"] = 1
            rc, out, err = run(["sync", "--queue", str(qdir), "--endpoint", ep.url])
        assert rc == 4
        assert "dead-lettered 1" in out
        assert "dead letter" in err and "HTTP 400" in err

    @pytest.mark.parametrize("url", [
        "notaurl", "http://127.0.0.1:notaport", "ftp://x/",
        "http:///v1", "http://127.0.0.1:99999", "http://exa mple.com",
        "http://127.0.0.1/in gest", "http://127.0.0.1/ingést",
    ])
    def test_malformed_endpoint_exits_2_before_any_attempt(self, workspace, tmp_path, url):
        qdir = tmp_path / "q"
        self.enqueue_one(workspace, qdir)
        rc, out, err = run(["sync", "--queue", str(qdir), "--endpoint", url])
        assert rc == 2 and out == ""
        assert err.startswith("glucokit: data error: endpoint") and err.count("\n") == 1
        with UploadQueue(qdir) as q:
            assert q.pending_count() == 1

    def test_failed_commit_exits_2(self, workspace, tmp_path, monkeypatch):
        qdir = tmp_path / "q"
        self.enqueue_one(workspace, qdir)

        def durable(op, fn, *args):
            if op == "fsync":
                raise OSError(5, "Input/output error")
            return fn(*args)

        monkeypatch.setattr(queue_module, "_durable", durable)
        with MockEndpoint() as ep:
            rc, out, err = run(["sync", "--queue", str(qdir), "--endpoint", ep.url])
            assert ep.snapshot()["count"] == 1
        assert (rc, out) == (2, "")
        assert err == "glucokit: [Errno 5] Input/output error\n"

    def test_missing_endpoint_is_usage_error(self, tmp_path):
        rc, _, err = run(["sync", "--queue", str(tmp_path / "q")])
        assert rc == 1 and "endpoint" in err.lower()


class TestReport:
    def test_markdown_table(self, report_json):
        rc, out, _ = run(["report", str(report_json)])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("| model | kind | split | n | mARD %")
        assert set(lines[1]) <= {"|", "-"}
        assert lines[2].startswith("| mpr3 | capillary | validation | 48 |")

    def test_csv_table_written_to_file(self, report_json, tmp_path):
        out_path = tmp_path / "table.csv"
        rc, out, _ = run(["report", str(report_json), "--format", "csv",
                          "--out", str(out_path)])
        assert rc == 0 and f"wrote {out_path}" in out
        lines = out_path.read_text().splitlines()
        assert lines[0].split(",")[:4] == ["model", "kind", "split", "n"]
        assert len(lines) == 2

    @pytest.mark.parametrize("make, message", [
        (lambda doc: "{}", "missing field"),
        (lambda doc: "{ not json", "not valid JSON"),
        (lambda doc: json.dumps({**doc, "metrics": {**doc["metrics"], "mard_pct": "x"}}),
         "malformed field"),
    ], ids=["empty-object", "not-json", "text-metric"])
    def test_malformed_report_is_data_error(self, tmp_path, report_json, make, message):
        bad = tmp_path / "bad.json"
        bad.write_text(make(json.loads(report_json.read_text())))
        rc, _, err = run(["report", str(bad)])
        assert rc == 2 and message in err
        assert str(bad) in err and err.count("\n") == 1


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        rc, _, err = run([])
        assert rc == 1 and "COMMAND is required" in err

    def test_unknown_flag_is_usage_error(self):
        rc, _, err = run(["simulate", "--frobnicate"])
        assert rc == 1 and "usage error" in err

    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 25, "range": "80:200",
            "forward_model": {"seed": 3},
        }))
        out = tmp_path / "d.csv"
        rc, text, _ = run(["simulate", "--config", str(cfg),
                           "--n", "10", "--out", str(out)])
        assert rc == 0
        assert "wrote 10 samples" in text         # flag beat config
        assert "glucose 80-200" in text           # config filled the rest
        assert "seed 3" in text
        assert len(load_csv(out)) == 10

    def test_env_beats_config_for_queue_dir(self, workspace, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg_q, env_q = tmp_path / "cfgq", tmp_path / "envq"
        cfg.write_text(json.dumps({"queue": str(cfg_q)}))
        monkeypatch.setenv("GLUCOKIT_QUEUE_DIR", str(env_q))
        rc, *_ = run(["predict", "--model", str(workspace["model"]),
                      "--config", str(cfg),
                      "--v1", "2500", "--v2", "2100", "--v3", "1900",
                      "--enqueue", "--timestamp", "2026-03-01T10:00:00Z"])
        assert rc == 0
        assert (env_q / "queue.log").exists()
        assert not cfg_q.exists()

    def test_invalid_config_is_data_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        rc, _, err = run(["simulate", "--config", str(cfg),
                          "--n", "5", "--out", str(tmp_path / "d.csv")])
        assert rc == 2 and "top level" in err

    @pytest.mark.parametrize("command, config", [
        ("simulate", {"no_serum": "false"}),   # a switch wants a JSON boolean
        ("simulate", {"seed": 3.7}),           # parsed by --seed's int type
        ("simulate", {"n": True}),             # a boolean for a non-switch
        ("calibrate", {"split": "bogus"}),     # outside --split's choices
        ("calibrate", {"kind": "plasma"}),     # outside --kind's choices
    ], ids=["no_serum-text", "seed-fraction", "n-boolean", "split-bogus", "kind-plasma"])
    def test_bad_config_value_is_usage_error(self, workspace, tmp_path, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = {"simulate": ["simulate", "--n", "30", "--out", str(tmp_path / "d.csv")],
                "calibrate": ["calibrate", "--train", str(workspace["data"])]}[command]
        rc, _, err = run(argv + ["--config", str(cfg)])
        assert rc == 1 and "usage error" in err

    def test_family_option_from_config_is_policed(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"width": 3}))
        rc, _, err = run(["calibrate", "--train", str(workspace["data"]),
                          "--model", "mpr3", "--config", str(cfg)])
        assert rc == 1 and "dnn" in err

    @pytest.mark.parametrize("config", [
        {"forward_model": 5},
        {"adc": 3},
        {"forward_model": {"baselines_mv": 5}},
        {"forward_model": {"noise_sd_mv": "a"}},
        {"forward_model": {"seed": "x"}},
        {"forward_model": {"seed": 1.5}},
        {"forward_model": {"seed": -1}},
        {"adc": {"fsr_mv": "5000"}},
        {"adc": {"fsr_mv": 10 ** 400}},
    ])
    def test_bad_simulator_config_section_is_data_error(self, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        rc, _, err = run(["simulate", "--config", str(cfg),
                          "--n", "5", "--out", str(tmp_path / "d.csv")])
        assert rc == 2 and err.startswith("glucokit: data error")
        assert err.count("\n") == 1

    def test_config_keys_naming_no_flag_are_ignored(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"func": 1, "forward_model": {"seed": 3}}))
        rc, text, err = run(["simulate", "--config", str(cfg),
                             "--n", "30", "--out", str(tmp_path / "d.csv")])
        assert rc == 0, err
        assert "seed 3" in text

    def test_depth_sweep_from_config(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hidden_layers": "1..2", "width": 3, "max_iters": 5}))
        rc, text, err = run(["calibrate", "--train", str(workspace["data"]),
                             "--model", "dnn", "--config", str(cfg)])
        assert rc == 0, err
        assert "hidden-layer sweep" in text and "best depth" in text

    @pytest.mark.parametrize("given", [("flag", "env", "config"), ("env", "config"),
                                       ("config",)])
    def test_flag_beats_env_beats_config_for_queue(self, workspace, tmp_path, monkeypatch,
                                                   given):
        dirs = {layer: tmp_path / layer for layer in given}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"queue": str(dirs["config"])}))
        monkeypatch.delenv("GLUCOKIT_QUEUE_DIR", raising=False)
        if "env" in given:
            monkeypatch.setenv("GLUCOKIT_QUEUE_DIR", str(dirs["env"]))
        argv = ["predict", "--model", str(workspace["model"]), "--config", str(cfg),
                "--v1", "2500", "--v2", "2100", "--v3", "1900",
                "--enqueue", "--timestamp", "2026-03-01T10:00:00Z"]
        if "flag" in given:
            argv += ["--queue", str(dirs["flag"])]
        rc, _, err = run(argv)
        assert rc == 0, err
        assert [layer for layer, d in dirs.items() if d.exists()] == [given[0]]

    @pytest.mark.parametrize("given", [("flag", "env", "config"), ("env", "config"),
                                       ("config",)])
    def test_flag_beats_env_beats_config_for_endpoint(self, workspace, tmp_path,
                                                      monkeypatch, given):
        qdir = tmp_path / "q"
        rc, *_ = run(["predict", "--model", str(workspace["model"]),
                      "--v1", "2500", "--v2", "2100", "--v3", "1900",
                      "--enqueue", "--queue", str(qdir),
                      "--timestamp", "2026-03-01T10:00:00Z"])
        assert rc == 0
        with MockEndpoint() as ep:
            # only the winning layer names the live endpoint; a malformed URL
            # would exit 2 before any attempt
            url = {layer: ep.url if layer == given[0] else "notaurl" for layer in given}
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"endpoint": url["config"]}))
            monkeypatch.delenv("GLUCOKIT_ENDPOINT", raising=False)
            if "env" in given:
                monkeypatch.setenv("GLUCOKIT_ENDPOINT", url["env"])
            argv = ["sync", "--queue", str(qdir), "--config", str(cfg)]
            if "flag" in given:
                argv += ["--endpoint", url["flag"]]
            rc, out, err = run(argv)
            assert rc == 0, err
            assert "uploaded 1" in out and ep.snapshot()["count"] == 1

    @pytest.mark.parametrize("which", ["config", "dataset", "model"])
    def test_non_utf8_input_is_data_error(self, workspace, tmp_path, which):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe not utf-8\n")
        argv = {
            "config": ["simulate", "--config", str(bad),
                       "--n", "5", "--out", str(tmp_path / "d.csv")],
            "dataset": ["calibrate", "--train", str(bad)],
            "model": ["predict", "--model", str(bad),
                      "--v1", "2500", "--v2", "2100", "--v3", "1900"],
        }[which]
        rc, _, err = run(argv)
        assert rc == 2 and err.startswith("glucokit: data error")
        assert str(bad) in err and err.count("\n") == 1


class TestRequiredFlags:
    def test_every_missing_flag_is_named_once(self):
        rc, out, err = run(["validate"])
        assert (rc, out) == (1, "")
        assert err == "glucokit: usage error: missing required --model, --data, --out-dir\n"

    def test_env_supplies_a_required_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GLUCOKIT_QUEUE_DIR", str(tmp_path / "q"))
        monkeypatch.delenv("GLUCOKIT_ENDPOINT", raising=False)
        rc, _, err = run(["sync"])
        assert rc == 1 and "--endpoint (or GLUCOKIT_ENDPOINT)" in err
        assert "--queue" not in err


class TestReportFieldTypes:
    @pytest.mark.parametrize("path, value, message", [
        (("model", "spec"), {"a": 1}, "model.spec: wants a string"),
        (("kind",), [1], "kind: wants a string"),
        (("data", "split"), {"x": 1}, "data.split: wants a string"),
        (("metrics", "mard_pct"), True, "metrics.mard_pct: wants a number"),
        (("metrics", "n"), 2.5, "metrics.n: wants an integer"),
        (("data", "n"), "lots", "data.n: wants an integer"),
        (("ceg", "percentages", "A"), True, "ceg.percentages.A: wants a number"),
        (("metrics", "extra"), 1, "metrics: unknown keys ['extra']"),
        (("metrics",), [1], "metrics: wants an object"),
    ], ids=["spec-object", "kind-array", "split-object", "metric-true", "metrics-n-float",
            "n-text", "zone-true", "metrics-extra-key", "metrics-array"])
    def test_mistyped_field_exits_2_naming_it(self, tmp_path, report_json, path, value, message):
        doc = json.loads(report_json.read_text())
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc, out, err = run(["report", str(bad)])
        assert (rc, out) == (2, "")
        assert err.count("\n") == 1 and "malformed field" in err and message in err

    def test_top_level_must_be_an_object(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        rc, out, err = run(["report", str(bad)])
        assert (rc, out) == (2, "")
        assert err == f"glucokit: data error: report {bad}: top level must be a JSON object\n"


class TestSizeLimits:
    @pytest.mark.parametrize("n", [MAX_SAMPLES + 1, 10 ** 20])
    def test_simulate_n(self, tmp_path, n):
        out_path = tmp_path / "d.csv"
        rc, out, err = run(["simulate", "--n", str(n), "--out", str(out_path)])
        assert (rc, out) == (2, "")
        assert f"n must be in [1, {MAX_SAMPLES}]" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("depths", [
        str(MAX_HIDDEN_LAYERS + 1), f"1..{MAX_HIDDEN_LAYERS + 1}", f"1..{10 ** 20}",
        str(10 ** 20),
    ])
    def test_calibrate_hidden_layers(self, workspace, depths):
        rc, out, err = run(["calibrate", "--train", str(workspace["data"]),
                            "--model", "dnn", "--hidden-layers", depths])
        assert (rc, out) == (1, "")
        assert f"<= {MAX_HIDDEN_LAYERS}" in err

    @pytest.mark.parametrize("width", [MAX_WIDTH + 1, 10 ** 20])
    def test_calibrate_width(self, workspace, width):
        rc, out, err = run(["calibrate", "--train", str(workspace["data"]),
                            "--model", "dnn", "--width", str(width)])
        assert (rc, out) == (2, "")
        assert f"width in [1, {MAX_WIDTH}]" in err

    @pytest.mark.parametrize("options", [
        {"hidden_layers": MAX_HIDDEN_LAYERS + 1}, {"hidden_layers": 10 ** 20},
        {"width": MAX_WIDTH + 1}, {"width": 10 ** 20},
    ])
    def test_fit_refuses_before_init_theta(self, monkeypatch, dataset_factory, options):
        def no_init(*args):
            raise AssertionError("allocated parameters before checking the size")

        monkeypatch.setattr(dnn_module, "init_theta", no_init)
        with pytest.raises(DataError, match="hidden_layers must be in"):
            fit_model("dnn", dataset_factory(n=30), "capillary", **options)


class TestIterationLimits:
    @pytest.mark.parametrize("n", [MAX_ITERS + 1, 10 ** 20])
    def test_calibrate_max_iters(self, workspace, monkeypatch, n):
        def no_fit(*args):
            raise AssertionError("started the fit before checking --max-iters")

        monkeypatch.setattr(dnn_module, "init_theta", no_fit)
        monkeypatch.setattr(dnn_module, "levenberg_marquardt", no_fit)
        rc, out, err = run(["calibrate", "--train", str(workspace["data"]),
                            "--model", "dnn", "--max-iters", str(n)])
        assert (rc, out) == (2, "")
        assert f"max_iters must be in [1, {MAX_ITERS}]" in err and err.count("\n") == 1

    @pytest.mark.parametrize("n", [MAX_ATTEMPTS + 1, 10 ** 20])
    def test_sync_max_attempts(self, workspace, tmp_path, n):
        qdir = tmp_path / "q"
        rc, *_ = run(["predict", "--model", str(workspace["model"]),
                      "--v1", "2500", "--v2", "2100", "--v3", "1900", "--enqueue",
                      "--queue", str(qdir), "--timestamp", "2026-03-01T10:00:00Z"])
        assert rc == 0
        with MockEndpoint() as ep:
            rc, out, err = run(["sync", "--queue", str(qdir), "--endpoint", ep.url,
                                "--max-attempts", str(n)])
            assert ep.request_count == 0
        assert (rc, out) == (2, "")
        assert f"max_attempts must be in [1, {MAX_ATTEMPTS}]" in err and err.count("\n") == 1
        with UploadQueue(qdir) as q:
            assert q.pending_count() == 1


class TestReportMissingField:
    def test_missing_metric_is_named(self, tmp_path, report_json):
        doc = json.loads(report_json.read_text())
        del doc["metrics"]["mard_pct"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc, out, err = run(["report", str(bad)])
        assert (rc, out) == (2, "")
        assert err == f"glucokit: data error: report {bad}: missing field 'metrics.mard_pct'\n"
