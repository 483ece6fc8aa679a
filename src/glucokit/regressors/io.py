"""Model persistence: one versioned JSON document per trained model.

Floats are emitted with Python's shortest round-trip repr (17 significant
digits when needed), so a load-then-predict is bit-identical to the in-memory
model. Unknown versions and malformed documents are rejected loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Annotated

from ..data import ChannelVoltages, Checked, GlucoseKind, Rule, json_reader, read_json_object
from ..errors import DataError
from .base import FamilyModel, Prediction
from .dnn import DnnModel
from .mpr import Mpr3Model
from .svr import SvrModel

FORMAT_NAME = "glucokit-model"
FORMAT_VERSION = 1

# The one model-family lookup: family name -> the family's model class.
FAMILIES: dict[str, type[FamilyModel]] = {m.family: m for m in (Mpr3Model, SvrModel, DnnModel)}


@dataclass(frozen=True)
class ModelDocument(Checked):
    """The top level of a v1 model document, its fields in the order written."""

    format: Annotated[str, Rule(choices=(FORMAT_NAME,),
                                says="not a model document (missing format marker)")]
    version: Annotated[int, Rule(choices=(FORMAT_VERSION,))]
    spec: str
    family: Annotated[str, Rule(choices=tuple(FAMILIES), says="unknown model family {v}")]
    glucose_kind: GlucoseKind
    metadata: dict
    params: dict


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
    doc = ModelDocument(FORMAT_NAME, FORMAT_VERSION, tm.spec, tm.model.family, tm.glucose_kind,
                        dict(tm.metadata), tm.model.params())
    return {f.name: getattr(doc, f.name) for f in fields(doc)}


def model_from_dict(doc: dict) -> TrainedModel:
    try:
        top = json_reader(ModelDocument, "model")(doc)
        cls = FAMILIES[top.family]
        if top.spec not in cls.specs:
            raise DataError(f"spec must be one of {top.family}'s {tuple(cls.specs)}, "
                            f"got {top.spec!r}")
        model = cls.from_params(top.params, top.glucose_kind)
        if any(getattr(model, k) != v for k, v in cls.specs[top.spec].items()):
            raise DataError(f"params do not match spec {top.spec!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model document: {exc!r}") from None
    return TrainedModel(spec=top.spec, model=model, metadata=dict(top.metadata))


def save_model(tm: TrainedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(tm), fh, indent=2)
        fh.write("\n")


def load_model(path) -> TrainedModel:
    return model_from_dict(read_json_object(path, "model"))
