"""Support vector regression: kernels, dual optimality, KKT structure."""

import math

import numpy as np
import pytest

from glucokit.acquisition import AdcConfig, ForwardModelConfig, generate_dataset
from glucokit.data import ChannelVoltages, Dataset, GlucoseValue, Sample, split_dataset
from glucokit.errors import DataError, SolverError
from glucokit.regressors import (
    KernelSpec, Standardizer, SvrModel, kernel_matrix, usable_samples,
)
from glucokit.regressors.base import design_arrays
from glucokit.regressors.svr import (
    KKT_TOL, MAX_SMO_ITERS, _solve_smo, default_hyperparams,
)

from oracles import brute_force_svr_dual, svr_dual_objective, svr_kkt_violations

ALL_KERNELS = (
    KernelSpec("linear"),
    KernelSpec("quadratic"),
    KernelSpec("cubic"),
    KernelSpec.gaussian("medium"),
)


def make_dataset(n, seed, kind="capillary"):
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        v = rng.uniform(1600.0, 3000.0, size=3)
        g = float(rng.uniform(70.0, 320.0))
        ref = GlucoseValue(g, kind)
        samples.append(Sample(
            f"s{i:02d}", ChannelVoltages(*map(float, v)),
            capillary=ref if kind == "capillary" else None,
            serum=ref if kind == "serum" else None,
        ))
    return Dataset(tuple(samples))


class TestKernels:
    def test_values_on_hand_vectors(self):
        u, v = np.array([1.0, 2.0, 0.5]), np.array([0.5, -1.0, 2.0])
        dot = float(u @ v)
        assert kernel_matrix(KernelSpec("linear"), [u], [v])[0, 0] == dot
        assert kernel_matrix(KernelSpec("quadratic"), [u], [v])[0, 0] == (1 + dot) ** 2
        assert kernel_matrix(KernelSpec("cubic"), [u], [v])[0, 0] == (1 + dot) ** 3
        g = kernel_matrix(KernelSpec("gaussian", 2.0), [u], [v])[0, 0]
        assert g == pytest.approx(math.exp(-float(((u - v) ** 2).sum()) / 8.0))

    def test_named_gaussian_scales(self):
        assert KernelSpec.gaussian("medium").scale == pytest.approx(math.sqrt(3))
        assert KernelSpec.gaussian("fine").scale == pytest.approx(math.sqrt(3) / 4)
        assert KernelSpec.gaussian("coarse").scale == pytest.approx(4 * math.sqrt(3))
        with pytest.raises(DataError):
            KernelSpec.gaussian("extra-fine")

    def test_spec_validation(self):
        with pytest.raises(DataError):
            KernelSpec("sigmoid")
        with pytest.raises(DataError):
            KernelSpec("gaussian")  # needs a scale
        with pytest.raises(DataError):
            KernelSpec("linear", scale=2.0)

    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(6, 3))
        for k in ALL_KERNELS:
            K = kernel_matrix(k, A)
            for i in range(6):
                for j in range(6):
                    assert K[i, j] == pytest.approx(kernel_matrix(k, [A[i]], [A[j]])[0, 0],
                                                    rel=1e-12, abs=1e-12)

    def test_gaussian_gram_is_psd(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(12, 3))
        K = kernel_matrix(KernelSpec.gaussian("fine"), A)
        evals = np.linalg.eigvalsh(K)
        assert evals[0] >= -1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            kernel_matrix(KernelSpec("linear"), [np.ones(3)], [np.ones(4)])


class TestDefaultHyperparams:
    def test_iqr_formulas(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=400)
        eps, c = default_hyperparams(y)
        iqr = float(np.percentile(y, 75) - np.percentile(y, 25))
        assert eps == pytest.approx(iqr / 13.49)
        assert c == pytest.approx(iqr / 1.349)

    def test_zero_iqr_fallback(self):
        eps, c = default_hyperparams(np.zeros(10))
        assert (eps, c) == (0.1, 1.0)


class TestDualOracle:
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.kind)
    def test_matches_brute_force_on_small_instances(self, kernel):
        rng = np.random.default_rng(12)
        for case in range(3):
            n = int(rng.integers(4, 9))
            data = make_dataset(n, seed=int(rng.integers(10_000)))
            eps, c = 0.1, 2.0
            m = SvrModel.fit_dataset(data, "capillary", kernel=kernel, eps=eps, c=c)[0]
            Xs = np.asarray(m.train_inputs)
            K = kernel_matrix(kernel, Xs)
            rows = sorted(data.samples, key=lambda s: s.id)
            y = m.y_scaler.transform(
                np.array([s.capillary.value_mgdl for s in rows]))
            got = svr_dual_objective(K, y, eps, np.asarray(m.beta))
            _, want = brute_force_svr_dual(K, y, eps, c)
            assert got == pytest.approx(want, abs=1e-6)
            violations = svr_kkt_violations(K, y, eps, c, m.beta, m.bias)
            assert violations == []

    def test_two_point_interpolation(self):
        # with eps=0 and generous C the fit must pass through both points
        data = make_dataset(2, seed=5)
        m = SvrModel.fit_dataset(data, "capillary", kernel=KernelSpec("linear"),
                                 eps=0.0, c=100.0)[0]
        for s in data.samples:
            pred = m.predict_batch([s.voltages])[0]
            assert pred.value_mgdl == pytest.approx(s.capillary.value_mgdl, abs=1e-3)


class TestTubeStructure:
    def test_points_inside_tube_carry_zero_beta(self):
        data = make_dataset(30, seed=21)
        m = SvrModel.fit_dataset(data, "capillary", kernel=KernelSpec.gaussian("medium"),
                                 eps=0.3, c=5.0)[0]
        Xs = np.asarray(m.train_inputs)
        K = kernel_matrix(m.kernel, Xs)
        rows = sorted(data.samples, key=lambda s: s.id)
        y = m.y_scaler.transform(np.array([s.capillary.value_mgdl for s in rows]))
        resid = np.abs(K @ np.asarray(m.beta) + m.bias - y)
        inside = resid < m.eps - 1e-6
        assert np.all(np.abs(np.asarray(m.beta))[inside] <= 1e-6)
        assert m.support_count() < len(rows)  # the tube leaves some points out

    def test_beta_respects_box(self):
        data = make_dataset(25, seed=13)
        m = SvrModel.fit_dataset(data, "capillary", kernel=KernelSpec("quadratic"),
                                 eps=0.05, c=0.7)[0]
        assert np.all(np.abs(np.asarray(m.beta)) <= 0.7 + 1e-9)
        assert abs(sum(m.beta)) <= 1e-8 * 0.7 * 25


class TestFitBehavior:
    def test_needs_two_samples(self):
        data = make_dataset(1, seed=2)
        with pytest.raises(DataError):
            SvrModel.fit_dataset(data, "capillary", kernel=KernelSpec("linear"))[0]

    def test_order_invariance(self):
        data = make_dataset(20, seed=30)
        shuffled = Dataset(tuple(reversed(data.samples)))
        k = KernelSpec.gaussian("fine")
        a = SvrModel.fit_dataset(data, "capillary", kernel=k, eps=0.1, c=1.0)[0]
        b = SvrModel.fit_dataset(shuffled, "capillary", kernel=k, eps=0.1, c=1.0)[0]
        probe = ChannelVoltages(2300.0, 2100.0, 1800.0)
        assert a.predict_batch([probe])[0].value_mgdl == b.predict_batch([probe])[0].value_mgdl

    def test_deterministic(self):
        data = make_dataset(20, seed=30)
        k = KernelSpec("cubic")
        a = SvrModel.fit_dataset(data, "capillary", kernel=k)[0]
        b = SvrModel.fit_dataset(data, "capillary", kernel=k)[0]
        assert a.beta == b.beta and a.bias == b.bias

    def test_bad_hyperparams_rejected(self):
        data = make_dataset(10, seed=1)
        with pytest.raises(DataError):
            SvrModel.fit_dataset(data, "capillary", kernel=KernelSpec("linear"), eps=-0.1)[0]
        with pytest.raises(DataError):
            SvrModel.fit_dataset(data, "capillary", kernel=KernelSpec("linear"), c=0.0)[0]

    def test_non_psd_gram_raises_solver_error(self, monkeypatch):
        data = make_dataset(10, seed=4)

        def bad_gram(k, A, B=None):
            n = len(np.atleast_2d(A))
            K = -np.eye(n)
            return K

        monkeypatch.setattr("glucokit.regressors.svr.kernel_matrix",
                            lambda k, A, B=None: bad_gram(k, A, B))
        with pytest.raises(SolverError, match="PSD"):
            SvrModel.fit_dataset(data, "capillary", kernel=KernelSpec("linear"))[0]

    def test_decision_consistent_with_predict(self):
        data = make_dataset(15, seed=44)
        m = SvrModel.fit_dataset(data, "capillary", kernel=KernelSpec.gaussian("coarse"))[0]
        v = data.samples[3].voltages
        z = m.x_scaler.transform(v.as_array())
        manual = float(m.y_scaler.inverse(m.decision(z[None, :]))[0])
        assert m.predict_batch([v])[0].value_mgdl == pytest.approx(manual)


class TestWorkingSetSelection:
    """The calibration split of `simulate --n 1000 --seed 42`. With first-order
    (maximal violating pair) selection, svr:quadratic hit the 100000-iteration
    cap there and svr:fine-gaussian needed 11,976 iterations."""

    @pytest.fixture(scope="class")
    def calibration(self):
        ds = generate_dataset(1000, (60.0, 340.0), ForwardModelConfig(seed=42), AdcConfig())
        return split_dataset(ds, seed=42, fractions=(0.6, 0.4, 0.0)).subset("calibration")

    def test_quadratic_converges(self, calibration):
        m = SvrModel.fit_dataset(calibration, "capillary", kernel=KernelSpec("quadratic"))[0]
        assert 0 < m.support_count() < len(calibration.samples)

    def test_fine_gaussian_iteration_count(self, calibration):
        X, y = design_arrays(usable_samples(calibration, "capillary"), "capillary")
        Xs = Standardizer.fit(X).transform(X)
        ys = Standardizer.fit(y).transform(y)
        K = kernel_matrix(KernelSpec.gaussian("fine"), Xs)
        eps, c = default_hyperparams(ys)
        _, _, iterations = _solve_smo(K, ys, eps, c, KKT_TOL, MAX_SMO_ITERS)
        assert iterations < 2000
