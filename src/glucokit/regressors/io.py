"""Model persistence: one versioned JSON document per trained model.

Floats are emitted with Python's shortest round-trip repr (17 significant
digits when needed), so a load-then-predict is bit-identical to the in-memory
model. Unknown versions and malformed documents are rejected loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..data import GLUCOSE_KINDS, ChannelVoltages, read_json_object
from ..errors import DataError
from .base import FamilyModel, Prediction
from .dnn import DnnModel
from .mpr import Mpr3Model
from .svr import SvrModel

FORMAT_NAME = "glucokit-model"
FORMAT_VERSION = 1
DOCUMENT_KEYS = frozenset({"format", "version", "spec", "family", "glucose_kind", "metadata",
                           "params"})

# The one model-family lookup: family name -> the family's model class.
FAMILIES: dict[str, type[FamilyModel]] = {m.family: m for m in (Mpr3Model, SvrModel, DnnModel)}


@dataclass(frozen=True)
class TrainedModel:
    """A fitted model plus the metadata needed to reproduce and audit the fit."""

    spec: str  # spec string, e.g. "mpr3", "svr:fine-gaussian", "dnn"
    model: FamilyModel
    metadata: dict

    def predict_batch(self, voltages: list[ChannelVoltages]) -> list[Prediction]:
        """One prediction per reading, all through one vectorized pass."""
        return self.model.predict_batch(voltages)

    def predict(self, v: ChannelVoltages) -> Prediction:
        return self.predict_batch([v])[0]

    @property
    def glucose_kind(self) -> str:
        """The reference kind the model was fitted to, held by the family model."""
        return self.model.glucose_kind

    @property
    def tag(self) -> str:
        """Short name for telemetry records."""
        return f"{self.spec}:{self.glucose_kind}"


def model_to_dict(tm: TrainedModel) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "spec": tm.spec,
        "family": tm.model.family,
        "glucose_kind": tm.glucose_kind,
        "metadata": dict(tm.metadata),
        "params": tm.model.params(),
    }


def model_from_dict(doc: dict) -> TrainedModel:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise DataError("not a model document (missing format marker)")
    if doc.get("version") != FORMAT_VERSION:
        raise DataError(f"unsupported model document version {doc.get('version')!r}")
    if doc.keys() - DOCUMENT_KEYS:
        raise DataError(f"model document: unknown keys {sorted(doc.keys() - DOCUMENT_KEYS)}")
    try:
        kind = doc["glucose_kind"]
        family = doc["family"]
        params = doc["params"]
        if family not in FAMILIES:
            raise DataError(f"unknown model family {family!r}")
        # the identity fields tag every enqueued reading, so each must name
        # something glucokit fits
        if kind not in GLUCOSE_KINDS:
            raise DataError(f"glucose_kind must be one of {GLUCOSE_KINDS}, got {kind!r}")
        cls = FAMILIES[family]
        spec = doc["spec"]
        if spec not in cls.specs:
            raise DataError(f"spec must be one of {family}'s {tuple(cls.specs)}, got {spec!r}")
        metadata = doc["metadata"]
        if type(metadata) is not dict:
            raise DataError(f"metadata must be a JSON object, got {metadata!r}")
        model = cls.from_params(params, kind)
        if any(getattr(model, k) != v for k, v in cls.specs[spec].items()):
            raise DataError(f"params do not match spec {spec!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model document: {exc!r}") from None
    return TrainedModel(spec=spec, model=model, metadata=dict(metadata))


def save_model(tm: TrainedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(tm), fh, indent=2)
        fh.write("\n")


def load_model(path) -> TrainedModel:
    return model_from_dict(read_json_object(path, "model"))
