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

FAMILIES (io.py), the only family lookup, maps the name before a spec's colon
to the family's model dataclass. A family plugs in by subclassing
base.FamilyModel, setting `family`, `specs` (spec -> the options it fixes,
e.g. an SVR kernel) and `options` (the caller's allow-list), implementing
fit(Xs, ys, seed, **options) -> (fields, hyperparameters) and a vectorized
decision(Z) -> (n,), and joining FAMILIES. FamilyModel does the rest once:
fit_dataset prepares and standardizes the rows; predict_batch standardizes,
decides, de-standardizes and clamps, the one numeric predict path (a single
reading is a batch of one); params/from_params map the v1 document.

Loading is strict. from_params reads params with data.json_reader, the one
JSON decoder, which the simulator configs share: unknown keys, leaves of the
wrong JSON type and integers beyond float range are DataErrors, and a missing
key is named.
model_from_dict also checks the identity fields that tag every enqueued
reading: glucose_kind, spec (one of the family's specs, agreeing with the
params) and metadata (an object).
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
from .dnn import (
    DnnModel,
    DnnTrainConfig,
    dnn_forward,
    dnn_jacobian,
    train_dnn_lm,
)
from .features import FEATURE_NAMES, N_FEATURES, build_features, feature_matrix
from .io import FAMILIES, TrainedModel, load_model, model_from_dict, model_to_dict, save_model
from .mpr import Mpr3Model, fit_mpr3, predict_mpr3
from .svr import KernelSpec, SvrModel, fit_svr, kernel_eval, kernel_matrix, predict_svr

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
    "build_features", "clamp_glucose", "dnn_forward", "dnn_jacobian",
    "feature_matrix", "fit_model", "fit_mpr3", "fit_svr", "kernel_eval",
    "kernel_matrix", "load_model", "model_from_dict", "model_to_dict",
    "predict_mpr3", "predict_svr", "save_model", "split_hash", "train_dnn_lm",
    "usable_samples",
]
