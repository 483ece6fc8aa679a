"""Calibration model families behind one fit/predict interface.

Model spec strings accepted by fit_model:

    mpr3                   19-term cubic polynomial + intercept
    svr:linear             epsilon-SVR, linear kernel
    svr:quadratic          epsilon-SVR, (1 + u.v)^2
    svr:cubic              epsilon-SVR, (1 + u.v)^3
    svr:medium-gaussian    Gaussian, scale sqrt(3)
    svr:fine-gaussian      Gaussian, scale sqrt(3)/4
    svr:coarse-gaussian    Gaussian, scale 4*sqrt(3)
    dnn                    sigmoid network, 10 hidden layers of 10

fit_model(spec, train, kind, ...) is the one fit entry; it returns a
TrainedModel, and predict_batch(voltages) is the one predict path, with
predict(v) = predict_batch([v])[0]. A kernel or option outside the named
specs is fitted by its family class, which fit_model calls too:
SvrModel.fit_dataset(train, kind, kernel=KernelSpec("gaussian", 0.7))[0] is
a bare SvrModel that predicts through the same predict_batch.

FAMILIES (io.py), the only family lookup, maps the name before a spec's colon
to the family's model dataclass. A family plugs in by subclassing
base.FamilyModel, setting `family`, `specs` (spec -> the options it fixes,
e.g. an SVR kernel) and `options` (the caller's allow-list), implementing
fit(Xs, ys, seed, **options) -> (fields, hyperparameters) and a vectorized
decision(Z) -> (n,), and joining FAMILIES. FamilyModel does the rest once:
fit_dataset prepares and standardizes the rows; predict_batch standardizes,
decides, de-standardizes and clamps, the one numeric predict path (a single
reading is a batch of one); params/from_params map the v1 document.

Loading is strict. load_model reads the file with data.read_json_object,
which also reads configs and reports, and hands the object to
model_from_dict. That reads the top level with data.json_reader, the one
JSON decoder, which the simulator configs share, as an io.ModelDocument: the
seven fields model_to_dict writes, each with its declared rule (the format
marker, the integer version 1, a known family, a capillary or serum
glucose_kind, metadata and params objects). It then checks that spec is one
of the family's specs and agrees with the params. from_params reads params
with data.json_reader too. At both levels unknown keys, leaves of the wrong
JSON type and integers beyond float range are DataErrors, and a missing key
is named. FamilyModel then checks that x_scaler scales the 3 channels and
y_scaler the one response, and SvrModel that eps >= 0 and C > 0.
"""

from __future__ import annotations

from ..data import Dataset
from ..errors import DataError
from .base import (
    CLAMP_HI_MGDL,
    CLAMP_LO_MGDL,
    Prediction,
    Standardizer,
    clamp_glucose,
    split_hash,
    usable_samples,
)
from .dnn import DnnModel, DnnTrainConfig
from .features import FEATURE_NAMES, N_FEATURES, feature_matrix
from .io import FAMILIES, TrainedModel, load_model, model_from_dict, model_to_dict, save_model
from .mpr import Mpr3Model
from .svr import KernelSpec, SvrModel, kernel_matrix

MODEL_SPECS = tuple(spec for f in FAMILIES.values() for spec in f.specs)


def fit_model(model_spec: str, train: Dataset, kind: str, *,
              seed: int = 0, created_utc: str | None = None,
              **options) -> TrainedModel:
    """Fit the family a spec string names; returns the model plus fit metadata.

    options are family-specific: intercept (mpr3); eps, c (svr);
    hidden_layers, width, max_iters, sse_tol, lambda0 (dnn).
    """
    family = FAMILIES.get(model_spec.partition(":")[0])
    if family is None or model_spec not in family.specs:
        raise DataError(
            f"unknown model spec {model_spec!r}; expected one of {MODEL_SPECS}"
        )
    bad = set(options) - family.options
    if bad:
        raise DataError(f"options {sorted(bad)} not valid for {model_spec!r}")
    model, hyperparameters, rows = family.fit_dataset(
        train, kind, seed, **family.specs[model_spec], **options)
    meta: dict = {
        "seed": seed,
        "n_train": len(rows),
        "train_split_hash": split_hash(rows),
    }
    if created_utc is not None:
        meta["created_utc"] = created_utc
    meta["hyperparameters"] = hyperparameters
    return TrainedModel(spec=model_spec, model=model, metadata=meta)


__all__ = [
    "CLAMP_HI_MGDL", "CLAMP_LO_MGDL", "FEATURE_NAMES", "N_FEATURES",
    "DnnModel", "DnnTrainConfig", "KernelSpec", "Mpr3Model", "MODEL_SPECS",
    "Prediction", "Standardizer", "SvrModel", "TrainedModel",
    "clamp_glucose", "feature_matrix", "fit_model", "kernel_matrix",
    "load_model", "model_from_dict", "model_to_dict", "save_model",
    "split_hash", "usable_samples",
]
