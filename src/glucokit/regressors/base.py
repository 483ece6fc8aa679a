"""Shared regression plumbing: the family contract, standardization, sample
prep, and the one batch predict path (standardize, decide, de-standardize,
clamp) that every family runs through."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, is_dataclass
from typing import Annotated

import numpy as np

from ..data import Checked, ChannelVoltages, Dataset, Rule, Sample, json_reader
from ..errors import DataError

CLAMP_LO_MGDL = 10.0
CLAMP_HI_MGDL = 600.0
N_PREDICTORS = 3  # every family predicts from the three channel voltages


@dataclass(frozen=True)
class Prediction:
    """A model output in mg/dl; clamped marks values pulled back into range."""

    value_mgdl: float
    kind: str
    clamped: bool = False


def clamp_glucose(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pull raw model outputs into [10, 600] mg/dl; the mask flags clamped ones."""
    raw = np.asarray(raw, dtype=float)
    bad = ~np.isfinite(raw)
    if bad.any():
        raise DataError(f"model produced non-finite glucose {float(raw[bad][0])!r}")
    values = np.clip(raw, CLAMP_LO_MGDL, CLAMP_HI_MGDL)
    return values, values != raw


@dataclass(frozen=True)
class Standardizer(Checked):
    """Per-column z-score parameters, stored so models travel with their scaling."""

    means: tuple[float, ...]
    stds: Annotated[tuple[float, ...], Rule(gt=0)]

    @classmethod
    def fit(cls, columns: np.ndarray) -> "Standardizer":
        """Compute per-column mean/std (population) of a 2-D array."""
        arr = np.asarray(columns, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        means = arr.mean(axis=0)
        stds = arr.std(axis=0)
        if (stds == 0).any():
            j = int(np.argmin(stds))
            raise DataError(f"column {j} has zero variance; cannot standardize")
        return cls(tuple(float(m) for m in means), tuple(float(s) for s in stds))

    def transform(self, arr: np.ndarray) -> np.ndarray:
        a = np.asarray(arr, dtype=float)
        return (a - np.asarray(self.means)) / np.asarray(self.stds)

    def inverse(self, arr: np.ndarray) -> np.ndarray:
        a = np.asarray(arr, dtype=float)
        return a * np.asarray(self.stds) + np.asarray(self.means)


def usable_samples(train: Dataset, kind: str) -> list[Sample]:
    """Training rows carrying a reference of the requested kind, sorted by id.

    The id sort fixes a canonical order so fitted coefficients do not depend
    on how the caller happened to arrange the Dataset.
    """
    rows = [s for s in train.samples if s.reference(kind) is not None]
    rows.sort(key=lambda s: s.id)
    return rows


def design_arrays(rows: list[Sample], kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Stack voltages into X (n, 3) and references into y (n,)."""
    X = np.array([s.voltages.as_array() for s in rows], dtype=float)
    y = np.array([s.reference(kind).value_mgdl for s in rows], dtype=float)
    return X, y


def split_hash(rows: list[Sample]) -> str:
    """Stable fingerprint of the training membership (ids only, order-free)."""
    joined = "\n".join(sorted(s.id for s in rows))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


def _to_json(v):
    if is_dataclass(v):
        return {f.name: _to_json(getattr(v, f.name)) for f in fields(v)}
    return [_to_json(x) for x in v] if isinstance(v, tuple) else v


class FamilyModel:
    """The shared half of the model-family contract (see the package doc).

    A family's frozen model dataclass subclasses this, sets `family`,
    `specs` and `options`, overrides the defaults below where they differ,
    and implements the classmethod fit and the method decision.
    """

    min_samples = 2
    standardize_response = True

    def __post_init__(self):
        """The check every family shares: x_scaler scales the N_PREDICTORS
        inputs and y_scaler the one response."""
        for name, width in (("x_scaler", N_PREDICTORS), ("y_scaler", 1)):
            scaler = getattr(self, name)
            if len(scaler.means) != width or len(scaler.stds) != width:
                raise DataError(f"{name} must scale {width} column{'s' * (width > 1)}, got "
                                f"{len(scaler.means)} means and {len(scaler.stds)} stds")

    @classmethod
    def fit_dataset(cls, train: Dataset, kind: str, seed: int = 0,
                    **options) -> tuple[FamilyModel, dict, list[Sample]]:
        """usable_samples -> design_arrays -> Standardizer.fit, once, then the
        family's fit on the standardized arrays; returns the model, its
        hyperparameters and the training rows."""
        rows = usable_samples(train, kind)
        if len(rows) < cls.min_samples:
            raise DataError(
                f"need at least {cls.min_samples} samples with a {kind} reference "
                f"to fit {cls.family}, got {len(rows)}"
            )
        X, y = design_arrays(rows, kind)
        scalers = {"x_scaler": Standardizer.fit(X)}
        if cls.standardize_response:
            scalers["y_scaler"] = Standardizer.fit(y)
            y = scalers["y_scaler"].transform(y)
        fitted, hyperparameters = cls.fit(scalers["x_scaler"].transform(X), y, seed, **options)
        return cls(**fitted, **scalers, glucose_kind=kind), hyperparameters, rows

    def predict_batch(self, voltages: list[ChannelVoltages]) -> list[Prediction]:
        """Every prediction of every family: standardize, decide, de-standardize, clamp."""
        V = np.array([v.as_array() for v in voltages], dtype=float).reshape(-1, N_PREDICTORS)
        raw = self.y_scaler.inverse(self.decision(self.x_scaler.transform(V)))
        values, clamped = clamp_glucose(raw)
        return [Prediction(float(x), self.glucose_kind, bool(c))
                for x, c in zip(values, clamped)]

    def params(self) -> dict:
        """The "params" of a v1 model document: every field but glucose_kind,
        nested dataclasses as objects, tuples as arrays. Field declaration
        order is the document's key order, so it must not change."""
        doc = _to_json(self)
        del doc["glucose_kind"]
        return doc

    @classmethod
    def from_params(cls, params: dict, kind: str) -> FamilyModel:
        """Inverse of params(), read by data.json_reader: params holds the
        fields but glucose_kind, each array nested to its field's depth with
        leaves of the field's JSON type, and numbers become floats. A missing
        key is a KeyError naming it; anything else, such as true for a number
        or an unknown key, is a DataError."""
        return json_reader(cls, "params")(params, glucose_kind=kind)
