"""Properties over generated inputs: every Clarke pair gets one zone, and a
dataset survives a CSV export and load unchanged."""

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
