"""Properties over generated inputs: every Clarke pair gets one zone, a
dataset survives a CSV export and load unchanged, and so does a model
document of any family through save and load."""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from glucokit.data import (
    MODES, SEXES, SPLITS, ChannelVoltages, Dataset, GlucoseValue, Sample,
    export_csv, load_csv,
)
from glucokit.errors import DataError
from glucokit.evaluation import ZONES, ceg_zone
from glucokit.regressors import (
    FAMILIES, N_FEATURES, TrainedModel, model_from_dict, model_to_dict, save_model,
)

from oracles import ceg_zone_oracle

# the constants of the Clarke rule table, with their float neighbours
_BOUNDS = (70.0, 180.0, 175.0 / 3.0, 240.0, 290.0, 130.0)
_EDGES = tuple(x for b in _BOUNDS for x in (math.nextafter(b, 0.0), b, math.nextafter(b, math.inf)))

_finite = dict(allow_nan=False, allow_infinity=False)
refs = st.one_of(st.sampled_from(_EDGES), st.floats(min_value=0.0, exclude_min=True, **_finite))
preds = st.one_of(st.sampled_from(_EDGES + (0.0,)), st.floats(min_value=0.0, **_finite))


@settings(max_examples=500, deadline=None, database=None)
@given(ref=refs, pred=preds)
@example(ref=5e-324, pred=0.0)
@example(ref=1.7976931348623157e308, pred=1.7976931348623157e308)
def test_every_pair_gets_the_oracle_zone(ref, pred):
    zone = ceg_zone(ref, pred)
    with np.errstate(over="ignore"):  # the oracle's 1.4 * ref may overflow to inf
        assert zone == ceg_zone_oracle(ref, pred)
    assert zone in ZONES


def is_sample_id(text: str) -> bool:
    """Whether Sample takes text as an id; the ids drawn are the ones it takes."""
    try:
        Sample(text, ChannelVoltages(0.0, 0.0, 0.0))
    except DataError:
        return False
    return True


ids = st.text(min_size=1, max_size=12).filter(is_sample_id)
voltages = st.builds(ChannelVoltages, *[st.floats(min_value=0.0, **_finite)] * 3)
glucose = st.floats(min_value=0.0, exclude_min=True, **_finite)


@st.composite
def samples(draw, sid):
    cap, ser = draw(st.lists(st.one_of(st.none(), glucose), min_size=2, max_size=2))
    return Sample(
        id=sid,
        voltages=draw(voltages),
        capillary=None if cap is None else GlucoseValue(cap, "capillary"),
        serum=None if ser is None else GlucoseValue(ser, "serum"),
        mode=draw(st.one_of(st.none(), st.sampled_from(MODES))),
        sex=draw(st.sampled_from(SEXES)),
        age_years=draw(st.one_of(st.none(), st.integers(min_value=0))),
    )


def allowed_splits(s: Sample) -> list:
    """The labels Dataset accepts for s: calibration and validation need a
    reference, and validation a measurement mode."""
    return [label for label in SPLITS
            if label == "testing" or (s.has_reference()
                                      and (label == "calibration" or s.mode is not None))]


@st.composite
def datasets(draw):
    sids = draw(st.lists(ids, max_size=8, unique=True))
    rows = tuple(draw(samples(sid)) for sid in sids)
    labels = {}
    for s in rows:
        label = draw(st.one_of(st.none(), st.sampled_from(allowed_splits(s))))
        if label is not None:
            labels[s.id] = label
    return Dataset(rows, labels)


@settings(max_examples=200, deadline=None, database=None)
@given(d=datasets())
def test_csv_round_trip(d):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        export_csv(d, path)
        assert load_csv(path) == d


def test_padded_id_is_refused():
    # load_csv strips every cell, so ' a' would come back as 'a'
    with pytest.raises(DataError, match="must not start or end with whitespace"):
        Sample(" a", ChannelVoltages(0.0, 0.0, 0.0))


# ---------------------------------------------------------------- model documents

numbers = st.floats(**_finite)
positive = st.floats(min_value=0.0, exclude_min=True, **_finite)


def scaler(width):
    return st.fixed_dictionaries({"means": st.lists(numbers, min_size=width, max_size=width),
                                  "stds": st.lists(positive, min_size=width, max_size=width)})


@st.composite
def svr_params(draw, spec):
    n, c = draw(st.integers(0, 4)), draw(positive)
    kernel = FAMILIES["svr"].specs[spec]["kernel"]
    return {"kernel": {"kind": kernel.kind, "scale": kernel.scale},
            "beta": draw(st.lists(st.floats(-c, c), min_size=n, max_size=n)),
            "bias": draw(numbers), "eps": draw(st.floats(min_value=0.0, **_finite)), "c": c,
            "train_inputs": draw(st.lists(st.lists(numbers, min_size=3, max_size=3),
                                          min_size=n, max_size=n)),
            "x_scaler": draw(scaler(3)), "y_scaler": draw(scaler(1))}


@st.composite
def dnn_params(draw):
    widths = [3, *draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)), 1]
    layers = list(zip(widths, widths[1:]))
    return {"widths": widths,
            "weights": [draw(st.lists(st.lists(numbers, min_size=i, max_size=i),
                                      min_size=o, max_size=o)) for i, o in layers],
            "biases": [draw(st.lists(numbers, min_size=o, max_size=o)) for _, o in layers],
            "x_scaler": draw(scaler(3)), "y_scaler": draw(scaler(1))}


mpr3_params = st.fixed_dictionaries({
    "coefficients": st.lists(numbers, min_size=N_FEATURES, max_size=N_FEATURES),
    "intercept": numbers, "x_scaler": scaler(3)})


@st.composite
def documents(draw):
    """A spec and finite params for it, as a model document holds them."""
    spec = draw(st.sampled_from([s for f in FAMILIES.values() for s in f.specs]))
    family = spec.partition(":")[0]
    params = mpr3_params if family == "mpr3" else dnn_params() if family == "dnn" else svr_params(spec)
    return spec, draw(params), draw(st.sampled_from(("capillary", "serum")))


@settings(max_examples=150, deadline=None, database=None)
@given(doc=documents())
def test_model_document_round_trip(doc):
    spec, params, kind = doc
    model = FAMILIES[spec.partition(":")[0]].from_params(params, kind)
    saved = model_to_dict(TrainedModel(spec=spec, model=model, metadata={}))
    back = model_from_dict(json.loads(json.dumps(saved)))
    assert back.model == model and back.spec == spec and back.glucose_kind == kind
    with tempfile.TemporaryDirectory() as tmp:
        first, again = os.path.join(tmp, "first.json"), os.path.join(tmp, "again.json")
        save_model(TrainedModel(spec=spec, model=model, metadata={}), first)
        save_model(back, again)
        with open(first, "rb") as a, open(again, "rb") as b:
            assert a.read() == b.read()
