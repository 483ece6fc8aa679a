"""Every JSON input is read by one strict rule, and whatever it cannot read
ends in a data error (exit 2) with one line on stderr, never in a traceback:
model documents, simulator configs, reports, queue logs and endpoint bodies."""

import contextlib
import functools
import http.client
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from glucokit.acquisition import (
    MAX_N_RAW,
    AdcConfig,
    ForwardModelConfig,
    generate_dataset,
    simulate_sample,
)
from glucokit.cli import main
from glucokit.data import GlucoseValue, json_reader, read_json_object
from glucokit.errors import DataError
from glucokit.regressors import (
    MODEL_SPECS,
    fit_model,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from glucokit.telemetry import MockEndpoint, ReadingRecord, RetryPolicy, SyncStats, UploadQueue, sync

DEEP = "[" * 100_000  # deeper than any recursion limit
READING = ["--v1", "2500", "--v2", "2100", "--v3", "1900"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def assert_one_line_data_error(rc, out, err):
    assert (rc, out) == (2, "")
    assert err.startswith("glucokit: data error: ") and err.count("\n") == 1


@functools.cache
def small_document(spec: str) -> str:
    """A small fitted model of the spec as the JSON text glucokit writes."""
    data = generate_dataset(24, (60.0, 340.0), ForwardModelConfig(noise_sd_mv=2.0, seed=1),
                            AdcConfig(), n_raw=8)
    options = {"hidden_layers": 1, "width": 3, "max_iters": 10} if spec == "dnn" else {}
    return json.dumps(model_to_dict(fit_model(spec, data, "capillary", **options)), indent=2)


def set_leaf(*path):
    """A change that sets the value at path in a document to new(old)."""
    def change(doc, new):
        *inner, last = path
        for key in inner:
            doc = doc[key]
        doc[last] = new(doc[last])
    return change


def drop(doc, key):
    """A change that removes a top-level key from a document."""
    del doc[key]


# case -> (spec of the fitted document, the change that breaks it)
BAD_DOCUMENTS = {
    "mpr3-intercept-true": ("mpr3", set_leaf("params", "intercept"), lambda v: True),
    "mpr3-unknown-params-key": ("mpr3", set_leaf("params"), lambda p: dict(p, slope=1.0)),
    "mpr3-intercept-401-digits": ("mpr3", set_leaf("params", "intercept"), lambda v: 10 ** 400),
    "mpr3-metadata-text": ("mpr3", set_leaf("metadata"), lambda m: "abc"),
    "mpr3-metadata-number": ("mpr3", set_leaf("metadata"), lambda m: 5),
    "svr-beta-strings": ("svr:linear", set_leaf("params", "beta"),
                         lambda beta: [str(b) for b in beta]),
    "svr-bias-text": ("svr:linear", set_leaf("params", "bias"), lambda v: "0.25"),
    "svr-eps-negative": ("svr:linear", set_leaf("params", "eps"), lambda v: -5.0),
    "dnn-weight-true": ("dnn", set_leaf("params", "weights", 0, 0, 0), lambda v: True),
    "dnn-width-float": ("dnn", set_leaf("params", "widths", 1), float),
    "kind-plasma": ("mpr3", set_leaf("glucose_kind"), lambda v: "plasma"),
    "spec-of-another-family": ("mpr3", set_leaf("spec"), lambda v: "svr:cubic"),
    "spec-number": ("mpr3", set_leaf("spec"), lambda v: 5),
    "spec-against-params": ("svr:linear", set_leaf("spec"), lambda v: "svr:cubic"),
    "x-scaler-four-means": ("svr:linear", set_leaf("params", "x_scaler", "means"),
                            lambda means: means + [0.0]),
    "x-scaler-one-column": ("mpr3", set_leaf("params", "x_scaler"),
                            lambda s: {"means": s["means"][:1], "stds": s["stds"][:1]}),
    "svr-y-scaler-two-columns": ("svr:linear", set_leaf("params", "y_scaler"),
                                 lambda s: {"means": s["means"] * 2, "stds": s["stds"] * 2}),
    "y-scaler-empty": ("dnn", set_leaf("params", "y_scaler"), lambda s: {"means": [], "stds": []}),
    "dnn-two-inputs": ("dnn", set_leaf("params"), lambda p: dict(
        p, widths=[2, *p["widths"][1:]],
        weights=[[row[:2] for row in p["weights"][0]], *p["weights"][1:]])),
    "no-spec": ("mpr3", drop, "spec"),
    "no-metadata": ("mpr3", drop, "metadata"),
    "unknown-top-level-key": ("mpr3", dict.update, {"surprise": 1}),
    "version-true": ("mpr3", set_leaf("version"), lambda v: True),
    "version-float": ("mpr3", set_leaf("version"), float),
}


class TestBadModelDocuments:
    @pytest.mark.parametrize("case", [*BAD_DOCUMENTS, "deep-nesting"])
    def test_predict_exits_2_with_one_line(self, case, tmp_path):
        path = tmp_path / "model.json"
        if case == "deep-nesting":
            path.write_text(DEEP)
        else:
            spec, change, new = BAD_DOCUMENTS[case]
            doc = json.loads(small_document(spec))
            change(doc, new)
            path.write_text(json.dumps(doc))
        assert_one_line_data_error(*run(["predict", "--model", str(path), "--json", *READING]))

    def test_error_names_the_field(self, tmp_path):
        doc = json.loads(small_document("dnn"))
        doc["params"]["x_scaler"]["means"][1] = "1.5"
        with pytest.raises(DataError, match=r"^params\.x_scaler\.means: wants an array of "
                                            r"numbers, got '1\.5'$"):
            model_from_dict(doc)

    @pytest.mark.parametrize("spec", MODEL_SPECS)
    def test_documents_glucokit_writes_resave_byte_for_byte(self, spec, tmp_path):
        path = tmp_path / "model.json"
        save_model(model_from_dict(json.loads(small_document(spec))), path)
        again = tmp_path / "again.json"
        save_model(load_model(path), again)
        assert again.read_bytes() == path.read_bytes()
        assert path.read_text() == small_document(spec) + "\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10 ** 400) | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6,
)


def places(node):
    """(container, key) of every value below node, leaves and subtrees alike."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from places(value)


def canonical(value) -> str:
    """JSON text in which an integer and the float it reads as are equal,
    while true, strings and null still differ from every number."""
    return json.dumps(json.loads(json.dumps(value), parse_int=float), sort_keys=True)


class TestMutatedParamsProperty:
    @settings(max_examples=300, deadline=None, database=None)
    @given(spec=st.sampled_from(MODEL_SPECS), data=st.data())
    def test_load_as_written_or_data_error(self, spec, data):
        doc = json.loads(small_document(spec))
        container, key = data.draw(st.sampled_from(list(places(doc["params"]))))
        if isinstance(container, dict) and data.draw(st.booleans()):
            container[data.draw(st.text(max_size=6))] = container.pop(key)
        else:
            container[key] = data.draw(JSON_VALUES)
        try:
            back = model_from_dict(doc)
        except DataError:
            return
        assert canonical(model_to_dict(back)["params"]) == canonical(doc["params"])


# a small simulate config that sets both sections and some flags
CONFIG = json.dumps({
    "forward_model": {"baselines_mv": [3000.0, 2600.0, 2200.0], "noise_sd_mv": 2.0, "seed": 3},
    "adc": {"bits": 16, "sample_rate_hz": 128.0, "fsr_mv": 5000.0},
    "range": "80:200", "serum_delta": 0.05, "id_prefix": "fz",
}, indent=2)


@functools.cache
def small_report(base) -> str:
    """The report.json that validate writes for a small mpr3 model, made under base."""
    directory = base / "small-report"
    directory.mkdir()
    model, data = directory / "model.json", directory / "data.csv"
    model.write_text(small_document("mpr3"))
    assert run(["simulate", "--n", "30", "--n-raw", "8", "--seed", "2", "--out", str(data)])[0] == 0
    assert run(["validate", "--model", str(model), "--data", str(data),
                "--out-dir", str(directory)])[0] == 0
    return (directory / "report.json").read_text()


@st.composite
def mutated(draw, text: str) -> bytes:
    """text as UTF-8 bytes after one to three mutations: a bit flip, a
    truncation, inserted bytes, an invalid UTF-8 sequence, or a line copied
    or dropped, which more often leaves valid JSON with a wrong shape."""
    data = bytearray(text.encode())
    positions = draw(st.randoms(use_true_random=False))  # uniform; integers() favour the start
    for _ in range(draw(st.integers(1, 3))):
        at = positions.randint(0, len(data))
        how = draw(st.sampled_from(("flip", "truncate", "insert", "invalid-utf8",
                                    "copy-line", "drop-line")))
        if how == "flip" and data:
            data[min(at, len(data) - 1)] ^= 1 << draw(st.integers(0, 7))
        elif how == "truncate":
            del data[at:]
        elif how == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
        elif how == "invalid-utf8":  # a stray continuation, a cut sequence, a surrogate
            data[at:at] = draw(st.sampled_from((b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80")))
        else:  # the line that holds position at
            start = data.rfind(b"\n", 0, at) + 1
            end = data.find(b"\n", at) + 1 or len(data)
            data[start:end] = data[start:end] * 2 if how == "copy-line" else b""
    return bytes(data)


class TestMutatedFiles:
    """Byte-mutated model, config and report files given to glucokit end in
    exit 0, 1 or 2, with one line on stderr when not 0."""

    @staticmethod
    def check(rc, out, err):
        assert rc in (0, 1, 2)
        if rc:
            assert err.startswith("glucokit: ") and err.count("\n") == 1

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_model(self, data, tmp_path_factory):
        spec = data.draw(st.sampled_from(MODEL_SPECS))
        path = tmp_path_factory.getbasetemp() / "mutated-model.json"
        path.write_bytes(data.draw(mutated(small_document(spec))))
        self.check(*run(["predict", "--model", str(path), "--json", *READING]))

    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_config(self, data, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "mutated-config.json"
        path.write_bytes(data.draw(mutated(CONFIG)))
        self.check(*run(["simulate", "--config", str(path), "--n", "9", "--n-raw", "4",
                         "--out", str(path.with_suffix(".csv"))]))

    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_report(self, data, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "mutated-report.json"
        path.write_bytes(data.draw(mutated(small_report(tmp_path_factory.getbasetemp()))))
        self.check(*run(["report", str(path)]))


class TestSimulatorConfig:
    @pytest.mark.parametrize("section", [
        {"forward_model": {"baselines_mv": [3000.0, True, 2200.0]}},
        {"forward_model": {"k_per_mgdl": [0.0016, 0.0011, 10 ** 400]}},
        {"adc": {"bits": 16.0}},
        {"adc": {"sample_rate_hz": None}},
    ], ids=["bool-in-array", "401-digits-in-array", "float-bits", "null-rate"])
    def test_mistyped_value_is_a_data_error(self, section, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(section))
        rc, out, err = run(["simulate", "--config", str(path), "--n", "9", "--n-raw", "4",
                            "--out", str(tmp_path / "d.csv")])
        assert_one_line_data_error(rc, out, err)
        assert re.match(r"^glucokit: data error: (forward_model|adc)\.\w+: ", err)

    def test_integers_read_as_floats(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"forward_model": {"baselines_mv": [3000, 2600, 2200]}}))
        fm = json_reader(ForwardModelConfig, "forward_model")(
            read_json_object(path, "config")["forward_model"])
        assert fm.baselines_mv == (3000.0, 2600.0, 2200.0)
        assert {type(b) for b in fm.baselines_mv} == {float}

    def test_deeply_nested_config_is_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(DEEP)
        with pytest.raises(DataError, match=f"^config {re.escape(str(path))}: not valid JSON \\("):
            read_json_object(path, "config")


class TestDeeplyNestedInputs:
    def test_flag_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(DEEP)
        rc, out, err = run(["simulate", "--config", str(path), "--n", "5",
                            "--out", str(tmp_path / "d.csv")])
        assert_one_line_data_error(rc, out, err)
        assert "not valid JSON" in err

    def test_report(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(DEEP)
        rc, out, err = run(["report", str(path)])
        assert_one_line_data_error(rc, out, err)
        assert "not valid JSON" in err

    @pytest.mark.parametrize("log", ["queue.log", "deadletter.log", "last_timestamps.json"])
    def test_queue_log_line(self, log, tmp_path):
        (tmp_path / "q").mkdir()
        (tmp_path / "q" / log).write_text(DEEP + "\n")
        with pytest.raises(DataError, match=f"^{log} line 1: corrupt entry: "):
            UploadQueue(tmp_path / "q")
        rc, out, err = run(["sync", "--queue", str(tmp_path / "q"),
                            "--endpoint", "http://127.0.0.1:9"])
        assert_one_line_data_error(rc, out, err)

    def test_endpoint_reply_is_transient(self, tmp_path, monkeypatch):
        def deep_reply(handler, code, payload):
            handler.wfile.write(b"HTTP/1.1 %d OK\r\nContent-Length: %d\r\n\r\n%s"
                                % (code, len(DEEP), DEEP.encode()))

        with MockEndpoint() as endpoint, UploadQueue(tmp_path / "q") as queue:
            queue.enqueue(ReadingRecord("r-1", "p-1", "2026-01-31T08:15:00Z",
                                        GlucoseValue(120.0, "capillary"), "mpr3:capillary",
                                        "dev-1"))
            monkeypatch.setattr(endpoint._server.RequestHandlerClass, "_reply", deep_reply)
            stats = sync(queue, endpoint.url, RetryPolicy(max_attempts=2), sleep_fn=lambda _: None)
        assert stats == SyncStats(uploaded=0, dead_lettered=0, remaining=1, attempts=2)

    def test_mock_endpoint_request_body(self):
        with MockEndpoint() as endpoint:
            host, port = endpoint.url.removeprefix("http://").split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=5)
            try:
                conn.request("POST", "/v1/readings", DEEP, {"Content-Type": "application/json"})
                with conn.getresponse() as resp:
                    reply = (resp.status, json.loads(resp.read()))
            finally:
                conn.close()
        assert reply == (400, {"error": "body is not valid JSON"})


class TestRawSampleLimit:
    class NoDraws:
        def normal(self, *args, **kwargs):
            raise AssertionError("drew raw samples before checking n_raw")

    @pytest.mark.parametrize("n_raw", [MAX_N_RAW + 1, 10 ** 20])
    def test_refused_before_any_draw(self, n_raw):
        with pytest.raises(DataError, match=f"n_raw must be in \\[1, {MAX_N_RAW}\\]"):
            simulate_sample(GlucoseValue(120.0, "capillary"), ForwardModelConfig(), AdcConfig(),
                            n_raw, rng=self.NoDraws())

    @pytest.mark.parametrize("n_raw", [MAX_N_RAW + 1, 10 ** 20])
    def test_simulate_exits_2(self, n_raw, tmp_path):
        rc, out, err = run(["simulate", "--n", "30", "--out", str(tmp_path / "d.csv"),
                            "--n-raw", str(n_raw)])
        assert_one_line_data_error(rc, out, err)
        assert not (tmp_path / "d.csv").exists()
