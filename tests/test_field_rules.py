"""Declared field rules: every Checked constructor refuses a value of the
wrong type in a float or int field with a DataError that names the field, and
the readers name a missing required key."""

import dataclasses
import math
import types
import typing

import pytest

import glucokit.cli  # noqa: F401  every module, so every Checked class exists
from glucokit.acquisition import AdcConfig, ForwardModelConfig, RawChannelTrace
from glucokit.data import Checked, ChannelVoltages, GlucoseValue, Sample, json_reader
from glucokit.errors import DataError
from glucokit.evaluation import MetricsReport, PairedReadings
from glucokit.regressors import (
    N_FEATURES, DnnTrainConfig, KernelSpec, Mpr3Model, Standardizer, model_from_dict,
)
from glucokit.regressors.io import ModelDocument
from glucokit.telemetry import ReadingRecord, RetryPolicy

# a valid instance of every Checked dataclass
VALID = {
    ChannelVoltages: lambda: ChannelVoltages(2400.0, 2100.0, 1900.0),
    GlucoseValue: lambda: GlucoseValue(100.0, "serum"),
    Sample: lambda: Sample("s-1", ChannelVoltages(2400.0, 2100.0, 1900.0), age_years=40),
    AdcConfig: AdcConfig,
    ForwardModelConfig: ForwardModelConfig,
    RawChannelTrace: lambda: RawChannelTrace((1.0, 2.0), 1),
    PairedReadings: lambda: PairedReadings((100.0, 120.0), (90.0, 130.0)),
    Standardizer: lambda: Standardizer((0.0, 1.0), (1.0, 2.0)),
    Mpr3Model: lambda: Mpr3Model((0.5,) * N_FEATURES, 1.0,
                                 Standardizer((0.0,) * 3, (1.0,) * 3), "capillary"),
    KernelSpec: lambda: KernelSpec("gaussian", 1.0),
    DnnTrainConfig: DnnTrainConfig,
    RetryPolicy: RetryPolicy,
    ModelDocument: lambda: ModelDocument("glucokit-model", 1, "mpr3", "mpr3", "serum", {}, {}),
    ReadingRecord: lambda: ReadingRecord("r-1", "p-1", "2026-02-01T08:00:00Z",
                                         GlucoseValue(100.0, "capillary"), "mpr3:capillary", "d-1"),
}

# how a refusal names a field whose rule words it in the reading's terms
NAMED_AS = {
    (GlucoseValue, "value_mgdl"): "glucose value",
    (PairedReadings, "refs"): "reference glucose",
    (PairedReadings, "preds"): "predicted glucose",
}

BAD = {float: {"true": True, "401-digits": 10 ** 400, "nan": math.nan},
       int: {"true": True, "float": 1.5}}


def leaf_fields():
    """(class, field, leaf type, is a tuple) for each float or int field,
    alone, maybe None, or in a flat tuple, read from the type hints."""
    for cls in VALID:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            hint = hints[f.name]
            many = typing.get_origin(hint) is tuple
            item = typing.get_args(hint)[0] if many else hint
            kinds = set(typing.get_args(item)) if isinstance(item, types.UnionType) else {item}
            kinds.discard(type(None))
            if kinds in ({float}, {int}):
                yield cls, f.name, kinds.pop(), many


CASES = [(cls, name, many, value)
         for cls, name, leaf, many in leaf_fields() for value in BAD[leaf].values()]
IDS = [f"{cls.__name__}.{name}-{label}"
       for cls, name, leaf, _ in leaf_fields() for label in BAD[leaf]]


def checked_classes(cls=Checked):
    for sub in cls.__subclasses__():
        yield sub
        yield from checked_classes(sub)


def test_every_checked_class_is_covered():
    assert set(checked_classes()) == set(VALID)


@pytest.mark.parametrize("cls", VALID, ids=lambda cls: cls.__name__)
def test_valid_instance_builds(cls):
    assert isinstance(VALID[cls](), cls)


@pytest.mark.parametrize("cls, name, many, value", CASES, ids=IDS)
def test_wrong_value_is_refused_naming_the_field(cls, name, many, value):
    valid = VALID[cls]()
    if many:
        value = (value,) + getattr(valid, name)[1:]
    with pytest.raises(DataError) as refused:
        dataclasses.replace(valid, **{name: value})
    message = str(refused.value)
    assert message.startswith(NAMED_AS.get((cls, name), name)), message
    assert len(message) < 200  # an int of 401 digits is shown by its size


def test_bool_age_is_refused():
    # bool is an int; export_csv used to write True, which load_csv refuses
    with pytest.raises(DataError, match="^age_years must be a non-negative integer, got True$"):
        Sample("s-1", ChannelVoltages(1.0, 1.0, 1.0), age_years=True)


def test_int_beyond_float_range_is_a_data_error():
    with pytest.raises(DataError) as refused:
        ChannelVoltages(10 ** 400, 1.0, 1.0)
    assert str(refused.value) == "ch1_mv must be >= 0 mV, got an integer of 1329 bits"


def test_missing_required_key_is_named():
    with pytest.raises(KeyError, match="metrics.mard_pct"):
        json_reader(MetricsReport, "metrics")(
            {"avge_pct": 1.0, "mad_mgdl": 1.0, "rmse_mgdl": 1.0, "r_pearson": 0.9, "n": 3})


def test_model_document_missing_a_param_names_it():
    doc = {"format": "glucokit-model", "version": 1, "spec": "mpr3", "family": "mpr3",
           "glucose_kind": "capillary", "metadata": {},
           "params": {"coefficients": [0.5] * N_FEATURES,
                      "x_scaler": {"means": [0.0] * 3, "stds": [1.0] * 3}}}
    with pytest.raises(DataError, match=r"^malformed model document: .*params\.intercept"):
        model_from_dict(doc)
