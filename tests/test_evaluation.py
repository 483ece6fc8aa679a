"""Error metrics, zone classification, and the pairing/group helpers."""

import numpy as np
import pytest

from glucokit.errors import DataError
from glucokit.evaluation import (
    ZONES,
    CegResult,
    PairedReadings,
    avge,
    ceg_analyze,
    ceg_zone,
    group_readings,
    mad,
    mard,
    metrics_report,
    paired_readings,
    pearson_r,
    rmse,
)
from glucokit.regressors import fit_model

from oracles import ceg_zone_oracle


def pairs(refs, preds, tags=None):
    return PairedReadings(refs=tuple(refs), preds=tuple(preds), tags=tags)


class TestPairedReadings:
    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="equally long"):
            pairs([100.0, 120.0], [100.0])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            pairs([], [])

    def test_nonpositive_reference_rejected(self):
        with pytest.raises(DataError, match="reference"):
            pairs([0.0], [90.0])

    def test_nonfinite_prediction_rejected(self):
        with pytest.raises(DataError, match="predicted"):
            pairs([100.0], [float("nan")])

    def test_misaligned_tags_rejected(self):
        with pytest.raises(DataError, match="tags"):
            pairs([100.0, 110.0], [100.0, 110.0], tags=({"sex": "F"},))


class TestMetricHandValues:
    # refs 100, 200 with preds 110, 180: relative errors 10% and 10%
    P = pairs([100.0, 200.0], [110.0, 180.0])

    def test_mard(self):
        assert mard(self.P) == pytest.approx(10.0, abs=1e-12)

    def test_avge(self):
        assert avge(self.P) == pytest.approx(10.0, abs=1e-12)

    def test_mad(self):
        assert mad(self.P) == pytest.approx(15.0, abs=1e-12)

    def test_rmse(self):
        assert rmse(self.P) == pytest.approx(np.sqrt(250.0), rel=1e-12)

    def test_perfect_prediction_zeroes_everything(self):
        p = pairs([80.0, 120.0, 300.0], [80.0, 120.0, 300.0])
        assert mard(p) == 0.0 and avge(p) == 0.0 and mad(p) == 0.0 and rmse(p) == 0.0

    def test_report_bundles_all_fields(self):
        p = pairs([100.0, 200.0, 150.0], [90.0, 210.0, 160.0])
        rep = metrics_report(p)
        assert rep.n == 3
        assert rep.to_dict() == {
            "mard_pct": mard(p), "avge_pct": avge(p), "mad_mgdl": mad(p),
            "rmse_mgdl": rmse(p), "r_pearson": pearson_r(p), "n": 3,
        }


class TestMetricProperties:
    def test_rmse_dominates_mad(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            refs = rng.uniform(40.0, 400.0, size=n)
            preds = refs + rng.normal(scale=25.0, size=n)
            p = pairs(refs, preds)
            assert rmse(p) >= mad(p) - 1e-12

    def test_relative_metrics_are_scale_invariant(self):
        rng = np.random.default_rng(5)
        refs = rng.uniform(60.0, 350.0, size=30)
        preds = refs * rng.uniform(0.8, 1.2, size=30)
        a, b = pairs(refs, preds), pairs(3.0 * refs, 3.0 * preds)
        assert mard(b) == pytest.approx(mard(a), rel=1e-12)
        assert avge(b) == pytest.approx(avge(a), rel=1e-12)

    def test_pearson_matches_numpy(self):
        rng = np.random.default_rng(8)
        refs = rng.uniform(50.0, 380.0, size=25)
        preds = 0.9 * refs + rng.normal(scale=12.0, size=25) + 10.0
        p = pairs(refs, preds)
        want = np.corrcoef(refs, preds)[0, 1]
        assert pearson_r(p) == pytest.approx(want, rel=1e-12)

    def test_pearson_zero_variance_raises(self):
        with pytest.raises(DataError, match="variance"):
            pearson_r(pairs([100.0, 100.0], [90.0, 110.0]))
        with pytest.raises(DataError, match="variance"):
            pearson_r(pairs([90.0, 110.0], [100.0, 100.0]))


class TestCegZone:
    @pytest.mark.parametrize("ref,pred,zone", [
        (100.0, 100.0, "A"),
        (50.0, 200.0, "E"),
        (180.0, 210.0, "A"),
        (250.0, 100.0, "D"),
    ])
    def test_canonical_points(self, ref, pred, zone):
        assert ceg_zone(ref, pred) == zone

    def test_low_reference_within_twenty_percent_band(self):
        # below 70 mg/dl the A band widens to an absolute 20 mg/dl corridor
        assert ceg_zone(50.0, 69.9) == "A"
        assert ceg_zone(50.0, 71.0) != "A"

    def test_matches_mask_oracle_on_coarse_grid(self):
        vals = np.arange(5.0, 401.0, 5.0)
        R, P = np.meshgrid(vals, vals, indexing="ij")
        refs, preds = R.ravel(), P.ravel()
        want = ceg_zone_oracle(refs, preds)
        got = np.array([ceg_zone(r, p) for r, p in zip(refs, preds)])
        assert np.array_equal(got, want)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(DataError):
            ceg_zone(float("nan"), 100.0)


class TestCegAnalyze:
    def test_histogram_and_percentages(self):
        p = pairs([100.0, 50.0, 180.0, 250.0], [100.0, 200.0, 210.0, 100.0])
        res = ceg_analyze(p)
        assert res.zones == ("A", "E", "A", "D")
        assert res.histogram == {"A": 2, "B": 0, "C": 0, "D": 1, "E": 1}
        assert res.percentages == {"A": 50.0, "B": 0.0, "C": 0.0, "D": 25.0, "E": 25.0}
        assert sum(res.percentages.values()) == pytest.approx(100.0, abs=1e-9)

    def test_zone_keys_are_stable(self):
        res = ceg_analyze(pairs([100.0], [100.0]))
        assert tuple(res.histogram) == ZONES
        assert tuple(res.percentages) == ZONES
        assert isinstance(res, CegResult) and res.n == 1

    def test_counts_match_oracle_under_random_pairs(self):
        rng = np.random.default_rng(31)
        refs = rng.uniform(20.0, 400.0, size=300)
        preds = np.clip(refs + rng.normal(scale=60.0, size=300), 1.0, 400.0)
        res = ceg_analyze(pairs(refs, preds))
        want = ceg_zone_oracle(refs, preds)
        for z in ZONES:
            assert res.histogram[z] == int((want == z).sum())


class TestGrouping:
    def test_groups_by_tag_key(self):
        tags = ({"sex": "F"}, {"sex": "M"}, {"sex": "F"})
        p = pairs([100.0, 150.0, 200.0], [95.0, 140.0, 210.0], tags=tags)
        groups = group_readings(p, "sex")
        assert list(groups) == ["F", "M"]
        assert groups["F"].refs == (100.0, 200.0)
        assert groups["M"].preds == (140.0,)

    def test_grouping_without_tags_raises(self):
        with pytest.raises(DataError, match="tags"):
            group_readings(pairs([100.0], [90.0]), "sex")


class TestModelEvaluation:
    def test_paired_readings_carries_standard_tags(self, dataset_factory):
        data = dataset_factory(n=24, seed=12)
        model = fit_model("mpr3", data, "capillary")
        p = paired_readings(model, data, "capillary")
        assert len(p) == 24
        assert set(p.tags[0]) == {"sex", "mode", "split"}

    def test_evaluate_returns_consistent_pair(self, dataset_factory):
        data = dataset_factory(n=30, seed=2, noise_sd=1.0)
        model = fit_model("mpr3", data, "capillary")
        p = paired_readings(model, data, "capillary")
        rep, ceg = metrics_report(p), ceg_analyze(p)
        assert rep.n == ceg.n == 30
        assert rep.mard_pct < 5.0
        assert ceg.percentages["A"] >= 75.0
