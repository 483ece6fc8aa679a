"""Core data model: validation, CSV round trips, stratified splitting."""

import numpy as np
import pytest

from glucokit.data import (
    CSV_HEADER,
    ChannelVoltages,
    Dataset,
    GlucoseValue,
    Sample,
    export_csv,
    load_csv,
    split_dataset,
)
from glucokit.errors import DataError


class TestChannelVoltages:
    def test_accepts_finite_nonnegative(self):
        v = ChannelVoltages(2400.0, 0.0, 1.5)
        assert v.as_array().tolist() == [2400.0, 0.0, 1.5]

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(DataError):
            ChannelVoltages(bad, 100.0, 100.0)

    def test_check_range(self):
        v = ChannelVoltages(100.0, 200.0, 5001.0)
        v.check_range(6000.0)
        with pytest.raises(DataError, match="ch3_mv"):
            v.check_range(5000.0)


class TestGlucoseValue:
    def test_kinds(self):
        assert GlucoseValue(90.0, "serum").kind == "serum"
        with pytest.raises(DataError):
            GlucoseValue(90.0, "venous")

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("nan")])
    def test_positive_finite(self, bad):
        with pytest.raises(DataError):
            GlucoseValue(bad, "capillary")


class TestSample:
    def test_reference_lookup(self, tiny_samples):
        s = tiny_samples[0]
        assert s.reference("capillary").value_mgdl == 80.0
        assert s.reference("serum").value_mgdl == 76.0
        assert s.has_reference()

    def test_kind_slot_must_match(self):
        with pytest.raises(DataError, match="kind"):
            Sample("x", ChannelVoltages(1.0, 1.0, 1.0),
                   capillary=GlucoseValue(90.0, "serum"))

    def test_metadata_validation(self):
        v = ChannelVoltages(1.0, 1.0, 1.0)
        with pytest.raises(DataError):
            Sample("x", v, mode="sprinting")
        with pytest.raises(DataError):
            Sample("x", v, sex="other")
        with pytest.raises(DataError):
            Sample("x", v, age_years=-3)
        with pytest.raises(DataError):
            Sample("", v)


class TestDataset:
    def test_duplicate_ids_rejected(self, tiny_samples):
        with pytest.raises(DataError, match="duplicate"):
            Dataset((tiny_samples[0], tiny_samples[0]))

    def test_labels_must_reference_known_ids(self, tiny_samples):
        with pytest.raises(DataError, match="unknown sample id"):
            Dataset(tuple(tiny_samples), {"ghost": "calibration"})
        with pytest.raises(DataError, match="invalid split"):
            Dataset(tuple(tiny_samples), {"t0": "holdout"})

    def test_labeled_samples_need_reference_and_mode(self):
        bare = Sample("b0", ChannelVoltages(1.0, 1.0, 1.0))
        with pytest.raises(DataError, match="no reference"):
            Dataset((bare,), {"b0": "calibration"})
        no_mode = Sample("b1", ChannelVoltages(1.0, 1.0, 1.0),
                         GlucoseValue(90.0, "capillary"))
        with pytest.raises(DataError, match="mode"):
            Dataset((no_mode,), {"b1": "validation"})
        Dataset((no_mode,), {"b1": "testing"})  # testing is unconstrained

    def test_subset_preserves_order(self, tiny_samples):
        d = Dataset(tuple(tiny_samples),
                    {"t0": "calibration", "t2": "calibration", "t1": "validation"})
        sub = d.subset("calibration")
        assert [s.id for s in sub.samples] == ["t0", "t2"]
        assert d.split_of("t1") == "validation"
        assert d.split_of("t3") is None


class TestCsvRoundTrip:
    def test_export_load_is_identity(self, tmp_path, dataset_factory):
        d = dataset_factory(n=30, seed=5)
        d = split_dataset(d, seed=1, fractions=(0.5, 0.5, 0.0))
        path = tmp_path / "d.csv"
        export_csv(d, path)
        back = load_csv(path)
        assert back == d  # frozen dataclasses compare by value

    def test_export_bytes_are_deterministic(self, tmp_path, dataset_factory):
        d = dataset_factory(n=12, seed=2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(d, a)
        export_csv(d, b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_is_stable(self, tmp_path, dataset_factory):
        path = tmp_path / "d.csv"
        export_csv(dataset_factory(n=3), path)
        first = path.read_text().splitlines()[0]
        assert first == ",".join(CSV_HEADER)

    def test_load_reports_row_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(CSV_HEADER) + "\n"
            "a,100,100,100,90,,fasting,male,40,\n"
            "b,100,100,oops,90,,fasting,male,40,\n"
        )
        with pytest.raises(DataError, match="^row 3: ch3_mv"):
            load_csv(path)

    def test_load_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,volts\nx,1\n")
        with pytest.raises(DataError, match="header"):
            load_csv(path)

    def test_load_rejects_duplicate_ids(self, tmp_path):
        row = "a,100,100,100,90,,fasting,male,40,\n"
        path = tmp_path / "dup.csv"
        path.write_text(",".join(CSV_HEADER) + "\n" + row + row)
        with pytest.raises(DataError, match="duplicate"):
            load_csv(path)

    def test_optional_fields_round_trip_as_none(self, tmp_path):
        path = tmp_path / "opt.csv"
        path.write_text(
            ",".join(CSV_HEADER) + "\n"
            "a,100,100,100,,,,unspecified,,\n"
        )
        s = load_csv(path).samples[0]
        assert s.capillary is None and s.serum is None
        assert s.mode is None and s.age_years is None

    # row 3 of each file is the good row below with the named fields replaced
    GOOD_ROW = dict(zip(CSV_HEADER, ("b", "100", "100", "100", "90", "86",
                                     "fasting", "male", "40", "calibration")))

    @pytest.mark.parametrize("fields,message", [
        ({"split": "calibration,extra"}, "expected 10 columns, got 11"),
        ({"id": "a"}, "duplicate sample id 'a'"),
        ({"id": ""}, "sample id must be a non-empty string"),
        ({"ch2_mv": "oops"}, "ch2_mv is not numeric: 'oops'"),
        ({"ch1_mv": "-1"}, "ch1_mv must be >= 0 mV, got -1.0"),
        ({"ch3_mv": "inf"}, "ch3_mv must be finite, got 'inf'"),
        ({"serum_mgdl": "high"}, "serum_mgdl is not numeric: 'high'"),
        ({"capillary_mgdl": "0"}, "glucose value must be finite and > 0 mg/dl, got 0.0"),
        ({"split": "train"}, "invalid split 'train'"),
        ({"age": "4.5"}, "age is not an integer: '4.5'"),
        ({"age": "-3"}, "age_years must be a non-negative integer, got -3"),
        ({"mode": "sleep"},
         "mode must be one of ('fasting', 'postprandial', 'random') or None, got 'sleep'"),
        ({"sex": "x"}, "sex must be one of ('male', 'female', 'unspecified'), got 'x'"),
        # several defects in one row: the first check in row order wins
        ({"id": "a", "ch1_mv": "oops"}, "duplicate sample id 'a'"),
        ({"ch1_mv": "-1", "split": "train"}, "ch1_mv must be >= 0 mV, got -1.0"),
        ({"split": "train", "age": "x"}, "invalid split 'train'"),
        ({"age": "x", "capillary_mgdl": "0"}, "age is not an integer: 'x'"),
        ({"capillary_mgdl": "0", "serum_mgdl": "x"},
         "glucose value must be finite and > 0 mg/dl, got 0.0"),
        ({"serum_mgdl": "-5", "sex": "x"}, "glucose value must be finite and > 0 mg/dl, got -5.0"),
        ({"id": "", "sex": "x"}, "sample id must be a non-empty string"),
    ])
    def test_row_defect_messages(self, fields, message, tmp_path):
        row = ",".join({**self.GOOD_ROW, **fields}.values())
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_HEADER) + "\n"
                        "a,100,100,100,90,,fasting,male,40,\n" + row + "\n")
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == f"row 3: {message}"


class TestSplitDataset:
    def _sizes(self, d):
        counts = {"calibration": 0, "validation": 0, "testing": 0}
        for label in d.split_labels.values():
            counts[label] += 1
        return counts

    def test_documented_example(self, dataset_factory):
        d = dataset_factory(n=187, seed=0)
        out = split_dataset(d, seed=7, fractions=(113 / 187, 74 / 187, 0.0))
        sizes = self._sizes(out)
        assert sizes == {"calibration": 113, "validation": 74, "testing": 0}
        assert len(out.split_labels) == 187

    def test_all_calibration(self, dataset_factory):
        d = dataset_factory(n=5, seed=1)
        out = split_dataset(d, seed=0, fractions=(1.0, 0.0, 0.0))
        assert set(out.split_labels.values()) == {"calibration"}

    def test_global_sizes_follow_largest_remainder(self, dataset_factory):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(30, 140))
            fr = rng.dirichlet((4.0, 3.0, 2.0))
            d = dataset_factory(n=n, seed=int(rng.integers(1000)))
            out = split_dataset(d, seed=int(rng.integers(1000)), fractions=tuple(fr))
            sizes = self._sizes(out)
            # independent largest-remainder rounding of n * fractions
            raw = n * fr
            base = np.floor(raw).astype(int)
            extra = n - base.sum()
            order = np.argsort(-(raw - base), kind="stable")
            want = base.copy()
            want[order[:extra]] += 1
            assert [sizes[k] for k in ("calibration", "validation", "testing")] \
                == want.tolist()

    def test_strata_within_one_of_target(self, dataset_factory):
        d = dataset_factory(n=90, seed=4)
        fr = (0.6, 0.3, 0.1)
        out = split_dataset(d, seed=9, fractions=fr)
        ordered = sorted(out.samples, key=lambda s: (s.capillary.value_mgdl, s.id))
        strata = [ordered[:30], ordered[30:60], ordered[60:]]
        for stratum in strata:
            for j, split in enumerate(("calibration", "validation", "testing")):
                got = sum(1 for s in stratum if out.split_of(s.id) == split)
                assert abs(got - len(stratum) * fr[j]) <= 1.0

    def test_deterministic_given_seed(self, dataset_factory):
        d = dataset_factory(n=50, seed=3)
        a = split_dataset(d, seed=21, fractions=(0.5, 0.3, 0.2))
        b = split_dataset(d, seed=21, fractions=(0.5, 0.3, 0.2))
        assert a.split_labels == b.split_labels
        c = split_dataset(d, seed=22, fractions=(0.5, 0.3, 0.2))
        assert a.split_labels != c.split_labels

    def test_rejects_bad_fractions(self, dataset_factory):
        d = dataset_factory(n=30)
        with pytest.raises(DataError):
            split_dataset(d, seed=0, fractions=(0.5, 0.4, 0.2))
        with pytest.raises(DataError):
            split_dataset(d, seed=0, fractions=(-0.1, 0.6, 0.5))

    @pytest.mark.parametrize("fractions,shown", [
        ((0.5, 0.5, 0.5), "1.5"),
        ((float("nan"), 0.0, 0.0), "nan"),
    ])
    def test_bad_sum_message(self, fractions, shown, dataset_factory):
        d = dataset_factory(n=30)
        with pytest.raises(DataError) as info:
            split_dataset(d, seed=0, fractions=fractions)
        assert str(info.value) == f"fractions must sum to 1, got {shown}"

    def test_rejects_tiny_strata_for_real_splits(self, dataset_factory):
        d = dataset_factory(n=5, seed=1)
        with pytest.raises(DataError, match="stratum"):
            split_dataset(d, seed=0, fractions=(0.6, 0.4, 0.0))
