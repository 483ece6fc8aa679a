"""Round-trip persistence for every model family and the fit metadata contract."""

import json
import math

import numpy as np
import pytest

from glucokit.data import ChannelVoltages
from glucokit.errors import DataError
from glucokit.regressors import (
    MODEL_SPECS,
    fit_model,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)

TINY_DNN = {"hidden_layers": 1, "width": 3, "max_iters": 10}


def fit_any(spec, data, kind="capillary", **extra):
    opts = dict(TINY_DNN) if spec == "dnn" else {}
    opts.update(extra)
    return fit_model(spec, data, kind, **opts)


def probe_voltages(seed=0, n=12):
    rng = np.random.default_rng(seed)
    return [ChannelVoltages(*rng.uniform(1500.0, 3200.0, size=3)) for _ in range(n)]


class TestRoundTrip:
    @pytest.mark.parametrize("spec", MODEL_SPECS)
    def test_save_load_predicts_identically(self, spec, dataset_factory, tmp_path):
        data = dataset_factory(n=24, seed=1, noise_sd=2.0)
        tm = fit_any(spec, data)
        path = tmp_path / "model.json"
        save_model(tm, path)
        back = load_model(path)
        assert back.spec == tm.spec
        assert back.glucose_kind == tm.glucose_kind
        assert back.metadata == tm.metadata
        assert back.model == tm.model
        for v in probe_voltages():
            a, b = tm.predict(v), back.predict(v)
            assert a.value_mgdl == b.value_mgdl
            assert a.clamped == b.clamped and a.kind == b.kind
        assert back.predict_batch(probe_voltages()) == tm.predict_batch(probe_voltages())

    def test_dict_round_trip_is_stable(self, dataset_factory):
        data = dataset_factory(n=22, seed=4)
        tm = fit_any("svr:cubic", data)
        doc = model_to_dict(tm)
        again = model_to_dict(model_from_dict(doc))
        assert doc == again

    def test_document_is_plain_json(self, dataset_factory, tmp_path):
        data = dataset_factory(n=22, seed=4)
        save_model(fit_any("mpr3", data), tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["format"] == "glucokit-model" and doc["version"] == 1
        assert set(doc) == {"format", "version", "spec", "family",
                            "glucose_kind", "metadata", "params"}


class TestBatchInvariance:
    @pytest.mark.parametrize("spec", MODEL_SPECS)
    def test_scalar_is_a_batch_of_one(self, spec, dataset_factory):
        tm = fit_any(spec, dataset_factory(n=24, seed=1, noise_sd=2.0))
        probes = probe_voltages(seed=5)
        for v in probes:
            assert tm.predict(v) == tm.predict_batch([v])[0]
        # one pass over 12 rows may sum in another order than 12 one-row
        # passes; mpr3's 19-term sums already differ by ~5e-10 mg/dl
        batch = tm.predict_batch(probes)
        singles = [tm.predict_batch([v])[0] for v in probes]
        assert len(batch) == len(probes)
        for b, one in zip(batch, singles):
            assert b.value_mgdl == pytest.approx(one.value_mgdl, rel=0, abs=1e-8)
            assert b.kind == one.kind


class TestMalformedDocuments:
    def good_doc(self, dataset_factory):
        return model_to_dict(fit_any("mpr3", dataset_factory(n=22, seed=2)))

    def test_missing_format_marker(self, dataset_factory):
        doc = self.good_doc(dataset_factory)
        doc["format"] = "something-else"
        with pytest.raises(DataError, match="format marker"):
            model_from_dict(doc)

    def test_unsupported_version(self, dataset_factory):
        doc = self.good_doc(dataset_factory)
        doc["version"] = 99
        with pytest.raises(DataError, match="version"):
            model_from_dict(doc)

    def test_unknown_family(self, dataset_factory):
        doc = self.good_doc(dataset_factory)
        doc["family"] = "forest"
        with pytest.raises(DataError, match="family"):
            model_from_dict(doc)

    def test_missing_params_field(self, dataset_factory):
        doc = self.good_doc(dataset_factory)
        del doc["params"]["coefficients"]
        with pytest.raises(DataError, match="malformed"):
            model_from_dict(doc)

    def test_non_dict_rejected(self):
        with pytest.raises(DataError, match="model: wants an object"):
            model_from_dict(["not", "a", "model"])

    @pytest.mark.parametrize("where", ["weights", "biases"])
    def test_non_finite_dnn_parameter_rejected(self, where, dataset_factory, tmp_path):
        path = tmp_path / "dnn.json"
        save_model(fit_any("dnn", dataset_factory(n=22, seed=2)), path)
        doc = json.loads(path.read_text())
        layer = doc["params"][where][1]
        if where == "weights":
            layer[0][2] = math.nan
        else:
            layer[0] = math.inf
        path.write_text(json.dumps(doc))  # json writes NaN and Infinity, and reads them back
        with pytest.raises(DataError, match="layer 1 has non-finite parameters"):
            load_model(path)

    @pytest.mark.parametrize("where", ["beta", "train_inputs", "bias"])
    def test_non_finite_svr_parameter_rejected(self, where, dataset_factory, tmp_path):
        path = tmp_path / "svr.json"
        save_model(fit_any("svr:linear", dataset_factory(n=22, seed=2)), path)
        doc = json.loads(path.read_text())
        params = doc["params"]
        if where == "beta":
            params["beta"][0] = math.nan
        elif where == "train_inputs":
            params["train_inputs"][0][0] = math.inf
        else:
            params["bias"] = math.nan
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="svr model has non-finite parameters"):
            load_model(path)

    @pytest.mark.parametrize("field, value", [("eps", math.nan), ("c", math.nan),
                                              ("c", math.inf)])
    def test_non_finite_svr_hyperparameter_rejected(self, field, value, dataset_factory,
                                                    tmp_path):
        path = tmp_path / "svr.json"
        save_model(fit_any("svr:linear", dataset_factory(n=22, seed=2)), path)
        doc = json.loads(path.read_text())
        doc["params"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="svr model has non-finite parameters"):
            load_model(path)

    @pytest.mark.parametrize("reshape", [
        lambda rows: [rows[0][:2]] + rows[1:],                       # one short row
        lambda rows: [rows[0][:2], rows[1] + [0.5]] + rows[2:],      # ragged, same total
        lambda rows: [r + [0.0] for r in rows],                      # every row too wide
    ], ids=["short-row", "ragged", "wide"])
    def test_svr_train_inputs_of_wrong_width_rejected(self, reshape, dataset_factory):
        doc = model_to_dict(fit_any("svr:linear", dataset_factory(n=22, seed=2)))
        doc["params"]["train_inputs"] = reshape(doc["params"]["train_inputs"])
        with pytest.raises(DataError, match="malformed model document"):
            model_from_dict(doc)

    def test_svr_beta_outside_box_rejected(self, dataset_factory):
        doc = model_to_dict(fit_any("svr:linear", dataset_factory(n=22, seed=2)))
        doc["params"]["beta"][3] = -2.0 * doc["params"]["c"]
        with pytest.raises(DataError, match="dual coefficient exceeds box constraint C"):
            model_from_dict(doc)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(DataError, match="not valid JSON"):
            load_model(path)


class TestFitMetadata:
    def test_required_keys_present(self, dataset_factory):
        data = dataset_factory(n=24, seed=3)
        tm = fit_any("mpr3", data, seed=5)
        assert tm.metadata["seed"] == 5
        assert tm.metadata["n_train"] == 24
        assert isinstance(tm.metadata["train_split_hash"], str)
        assert "created_utc" not in tm.metadata

    def test_created_utc_recorded_when_given(self, dataset_factory):
        data = dataset_factory(n=24, seed=3)
        tm = fit_any("mpr3", data, created_utc="2026-08-17T00:00:00Z")
        assert tm.metadata["created_utc"] == "2026-08-17T00:00:00Z"

    def test_split_hash_tracks_training_membership(self, dataset_factory):
        # the hash fingerprints which sample ids were fitted, nothing else
        a = fit_any("mpr3", dataset_factory(n=24, seed=3))
        b = fit_any("mpr3", dataset_factory(n=24, seed=8))
        c = fit_any("mpr3", dataset_factory(n=23, seed=3))
        assert a.metadata["train_split_hash"] == b.metadata["train_split_hash"]
        assert a.metadata["train_split_hash"] != c.metadata["train_split_hash"]

    def test_gaussian_scale_stored(self, dataset_factory):
        data = dataset_factory(n=24, seed=3)
        hp = fit_any("svr:medium-gaussian", data).metadata["hyperparameters"]
        assert hp["kernel"] == "gaussian"
        assert hp["scale"] == pytest.approx(math.sqrt(3.0), rel=1e-12)
        assert hp["eps"] > 0 and hp["c"] > 0

    def test_tag_combines_spec_and_kind(self, dataset_factory):
        tm = fit_any("mpr3", dataset_factory(n=24, seed=3))
        assert tm.tag == "mpr3:capillary"


class TestDispatchValidation:
    def test_unknown_spec_rejected(self, dataset_factory):
        with pytest.raises(DataError, match="unknown model spec"):
            fit_model("ridge", dataset_factory(n=24, seed=0), "capillary")

    def test_foreign_option_rejected(self, dataset_factory):
        with pytest.raises(DataError, match="not valid"):
            fit_model("mpr3", dataset_factory(n=24, seed=0), "capillary", eps=0.1)

    def test_svr_accepts_its_own_options(self, dataset_factory):
        tm = fit_model("svr:linear", dataset_factory(n=24, seed=0), "capillary",
                       eps=0.05, c=3.0)
        assert tm.metadata["hyperparameters"]["eps"] == 0.05
        assert tm.metadata["hyperparameters"]["c"] == 3.0
