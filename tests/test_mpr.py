"""Cubic polynomial calibration: recovery, optimality, conditioning guards."""

import numpy as np
import pytest

from glucokit.data import ChannelVoltages, Dataset, GlucoseValue, Sample
from glucokit.errors import DataError, SolverError
from glucokit.regressors import Mpr3Model, feature_matrix
from glucokit.regressors.base import usable_samples


def _design_and_targets(model, data, kind):
    rows = usable_samples(data, kind)
    x = np.array([s.voltages.as_array() for s in rows])
    z = model.x_scaler.transform(x)
    phi = np.hstack([feature_matrix(z), np.ones((len(rows), 1))])
    y = np.array([s.reference(kind).value_mgdl for s in rows])
    return phi, y


class TestPlantedRecovery:
    def test_coefficients_recovered_to_float_precision(self, planted_poly):
        data, coeffs, intercept = planted_poly(n=100, seed=3)
        m = Mpr3Model.fit_dataset(data, "capillary")[0]
        got = np.asarray(m.coefficients)
        assert np.max(np.abs(got - coeffs) / np.maximum(np.abs(coeffs), 1e-12)) < 1e-6
        assert m.intercept == pytest.approx(intercept, rel=1e-9)

    def test_downstream_predictions_match_targets(self, planted_poly):
        data, _, _ = planted_poly(n=60, seed=7)
        m = Mpr3Model.fit_dataset(data, "capillary")[0]
        rel = []
        for s in data.samples:
            pred = m.predict_batch([s.voltages])[0]
            rel.append(abs(pred.value_mgdl - s.capillary.value_mgdl)
                       / s.capillary.value_mgdl)
        assert 100.0 * float(np.mean(rel)) <= 1e-8  # mARD in percent


class TestLeastSquaresOptimality:
    def test_normal_equations_residual_is_tiny(self, dataset_factory):
        rng = np.random.default_rng(31)
        for _ in range(10):
            data = dataset_factory(n=int(rng.integers(25, 60)),
                                   seed=int(rng.integers(10000)),
                                   noise_sd=float(rng.uniform(1.0, 8.0)))
            m = Mpr3Model.fit_dataset(data, "capillary")[0]
            phi, y = _design_and_targets(m, data, "capillary")
            theta = np.append(m.coefficients, m.intercept)
            grad = phi.T @ (y - phi @ theta)
            assert np.max(np.abs(grad)) <= 1e-8 * np.linalg.norm(y)


class TestFitGuards:
    def test_needs_twenty_samples(self, planted_poly):
        data, _, _ = planted_poly(n=19, seed=1)
        with pytest.raises(DataError, match="20"):
            Mpr3Model.fit_dataset(data, "capillary")[0]

    def test_singular_design_raises_solver_error(self):
        # ch3 duplicates ch2 exactly, so whole monomial columns coincide
        rng = np.random.default_rng(5)
        samples = []
        for i in range(30):
            a, b = rng.uniform(1500.0, 3000.0, size=2)
            samples.append(Sample(
                f"c{i:02d}", ChannelVoltages(float(a), float(b), float(b)),
                GlucoseValue(float(rng.uniform(80, 300)), "capillary"),
            ))
        with pytest.raises(SolverError, match="condition"):
            Mpr3Model.fit_dataset(Dataset(tuple(samples)), "capillary")[0]

    def test_missing_kind_counts_as_unusable(self, planted_poly):
        data, _, _ = planted_poly(n=30, seed=2)
        with pytest.raises(DataError):
            Mpr3Model.fit_dataset(data, "serum")[0]  # samples carry capillary only


class TestIntercept:
    def test_no_intercept_fit_sets_zero(self, planted_poly):
        data, _, _ = planted_poly(n=50, seed=4)
        m = Mpr3Model.fit_dataset(data, "capillary", intercept=False)[0]
        assert m.intercept == 0.0

    def test_intercept_improves_fit_on_offset_data(self, planted_poly):
        data, _, _ = planted_poly(n=50, seed=6, intercept=220.0)
        with_b = Mpr3Model.fit_dataset(data, "capillary", intercept=True)[0]
        without_b = Mpr3Model.fit_dataset(data, "capillary", intercept=False)[0]

        def sse(m):
            phi, y = _design_and_targets(m, data, "capillary")
            theta = np.append(m.coefficients, m.intercept)
            return float(np.sum((y - phi @ theta) ** 2))

        assert sse(with_b) < sse(without_b)


class TestPredict:
    def test_order_invariance(self, planted_poly):
        data, _, _ = planted_poly(n=40, seed=9)
        shuffled = Dataset(tuple(reversed(data.samples)))
        a = Mpr3Model.fit_dataset(data, "capillary")[0]
        b = Mpr3Model.fit_dataset(shuffled, "capillary")[0]
        probe = ChannelVoltages(2400.0, 2100.0, 1900.0)
        assert a.predict_batch([probe])[0].value_mgdl == b.predict_batch([probe])[0].value_mgdl

    def test_prediction_clamp_flags(self, planted_poly):
        data, _, _ = planted_poly(n=40, seed=9)
        m = Mpr3Model.fit_dataset(data, "capillary")[0]
        # far outside the training envelope the cubic explodes; clamp catches it
        wild = m.predict_batch([ChannelVoltages(4900.0, 10.0, 4900.0)])[0]
        assert wild.clamped
        assert wild.value_mgdl in (10.0, 600.0)
        tame = m.predict_batch([data.samples[0].voltages])[0]
        assert not tame.clamped
        assert tame.kind == "capillary"
