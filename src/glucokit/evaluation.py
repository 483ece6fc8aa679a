"""Accuracy metrics and Clarke error grid analysis for paired glucose readings.

The Clarke rules below follow the standard published EGA boundaries. Rule
order is part of the contract: A, then E, C, D, with B as the fallback, and
every boundary is inclusive exactly as written, so each (ref, pred) point has
one well-defined zone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Annotated

import numpy as np

from .data import Checked, Dataset, Rule
from .errors import DataError

ZONES = ("A", "B", "C", "D", "E")


@dataclass(frozen=True)
class PairedReadings(Checked):
    """Aligned (reference, predicted) glucose sequences in mg/dl."""

    refs: Annotated[tuple[float, ...], Rule(
        gt=0, says="reference glucose must be finite and > 0, got {v}")]
    preds: Annotated[tuple[float, ...], Rule(says="predicted glucose must be finite, got {v}")]
    tags: tuple[dict, ...] | None = None  # optional per-point sex/mode/split

    def __post_init__(self):
        super().__post_init__()
        if len(self.refs) != len(self.preds) or len(self.refs) < 1:
            raise DataError(
                f"refs and preds must be equally long and non-empty, "
                f"got {len(self.refs)} and {len(self.preds)}"
            )
        if self.tags is not None and len(self.tags) != len(self.refs):
            raise DataError("tags must align one-to-one with readings")

    def __len__(self) -> int:
        return len(self.refs)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.refs, dtype=float), np.asarray(self.preds, dtype=float)


@dataclass(frozen=True)
class MetricsReport:
    mard_pct: float
    avge_pct: float
    mad_mgdl: float
    rmse_mgdl: float
    r_pearson: float
    n: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CegResult:
    zones: tuple[str, ...]
    histogram: dict = field(default_factory=dict)
    percentages: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.zones)

    def to_dict(self) -> dict:
        return {"histogram": dict(self.histogram), "percentages": dict(self.percentages)}


def mard(p: PairedReadings) -> float:
    """Mean absolute relative difference, percent of reference."""
    refs, preds = p.arrays()
    return float(100.0 * np.mean(np.abs(preds - refs) / refs))


def avge(p: PairedReadings) -> float:
    """Total absolute error over total reference, percent."""
    refs, preds = p.arrays()
    return float(100.0 * np.abs(preds - refs).sum() / refs.sum())


def mad(p: PairedReadings) -> float:
    refs, preds = p.arrays()
    return float(np.mean(np.abs(preds - refs)))


def rmse(p: PairedReadings) -> float:
    refs, preds = p.arrays()
    return float(np.sqrt(np.mean((preds - refs) ** 2)))


def pearson_r(p: PairedReadings) -> float:
    refs, preds = p.arrays()
    dr = refs - refs.mean()
    dp = preds - preds.mean()
    sr = float(np.sqrt((dr * dr).sum()))
    sp = float(np.sqrt((dp * dp).sum()))
    if sr == 0 or sp == 0:
        raise DataError("pearson_r undefined: a sequence has zero variance")
    return float((dr * dp).sum() / (sr * sp))


def metrics_report(p: PairedReadings) -> MetricsReport:
    return MetricsReport(
        mard_pct=mard(p),
        avge_pct=avge(p),
        mad_mgdl=mad(p),
        rmse_mgdl=rmse(p),
        r_pearson=pearson_r(p),
        n=len(p),
    )


def ceg_zone(ref: float, pred: float) -> str:
    """Clarke zone of one point; rules tried in order A, E, C, D, else B."""
    if not (math.isfinite(ref) and math.isfinite(pred)):
        raise DataError(f"ceg_zone needs finite inputs, got ({ref!r}, {pred!r})")
    if ref <= 0 or pred < 0:
        raise DataError(f"ceg_zone needs ref > 0 and pred >= 0, got ({ref}, {pred})")
    if (ref < 70 and pred < 70) or abs(pred - ref) <= 0.2 * ref:
        return "A"
    if (ref >= 180 and pred <= 70) or (ref <= 70 and pred >= 180):
        return "E"
    if (70 <= ref <= 290 and pred >= ref + 110) or (130 <= ref <= 180 and pred <= 1.4 * ref - 182):
        return "C"
    if (ref >= 240 and 70 <= pred <= 180) or (ref <= 175.0 / 3.0 and 70 <= pred <= 180) \
            or (175.0 / 3.0 <= ref <= 70 and pred >= 1.2 * ref):
        return "D"
    return "B"


def ceg_analyze(p: PairedReadings) -> CegResult:
    """Zone per point plus histogram and percentages over all five zones."""
    zones = tuple(ceg_zone(r, q) for r, q in zip(p.refs, p.preds))
    hist = {z: 0 for z in ZONES}
    for z in zones:
        hist[z] += 1
    n = len(zones)
    pct = {z: 100.0 * hist[z] / n for z in ZONES}
    return CegResult(zones=zones, histogram=hist, percentages=pct)


def group_readings(p: PairedReadings, key: str) -> dict[str, PairedReadings]:
    """Split readings by a tag value (e.g. sex or mode); untagged rows land in ''."""
    if p.tags is None:
        raise DataError("readings carry no tags to group by")
    buckets: dict[str, list[int]] = {}
    for i, tag in enumerate(p.tags):
        buckets.setdefault(str(tag.get(key, "") or ""), []).append(i)
    out = {}
    for value, idxs in sorted(buckets.items()):
        out[value] = PairedReadings(
            refs=tuple(p.refs[i] for i in idxs),
            preds=tuple(p.preds[i] for i in idxs),
            tags=tuple(p.tags[i] for i in idxs),
        )
    return out


def paired_readings(model, data: Dataset, kind: str) -> PairedReadings:
    """Predict every sample carrying a reference of the requested kind.

    model is any TrainedModel (anything with predict_batch(voltages)); the
    whole dataset is predicted in one batch.
    """
    rows = [s for s in data.samples if s.reference(kind) is not None]
    if not rows:
        raise DataError(f"no samples carry a {kind} reference")
    preds = model.predict_batch([s.voltages for s in rows])
    return PairedReadings(
        tuple(s.reference(kind).value_mgdl for s in rows),
        tuple(p.value_mgdl for p in preds),
        tuple({
            "sex": s.sex,
            "mode": s.mode or "",
            "split": data.split_labels.get(s.id, ""),
        } for s in rows),
    )
