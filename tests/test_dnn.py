"""Network forward pass, analytic Jacobian, and the LM training loop."""

from dataclasses import asdict

import numpy as np
import pytest

from glucokit.errors import DataError, SolverError
from glucokit.regressors import DnnModel, DnnTrainConfig, usable_samples
from glucokit.regressors.base import design_arrays
from glucokit.regressors.dnn import (
    batch_jacobian,
    batch_residuals,
    forward_batch,
    init_theta,
    layers_from_theta,
    levenberg_marquardt,
    n_params,
    sigmoid,
)

from oracles import central_difference_jacobian


class TestSigmoid:
    def test_matches_definition_at_moderate_inputs(self):
        x = np.linspace(-20.0, 20.0, 101)
        assert np.allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-14)

    def test_saturates_without_overflow(self):
        with np.errstate(over="raise"):
            out = sigmoid(np.array([-800.0, 800.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_symmetry(self):
        x = np.array([0.3, 1.7, 9.0])
        assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0, rtol=1e-14)


class TestInit:
    def test_bounds_follow_fan_in(self):
        widths = (3, 10, 10, 1)
        theta = init_theta(widths, seed=0)
        assert theta.size == n_params(widths)
        ws, bs = layers_from_theta(widths, theta)
        for l, (w, b) in enumerate(zip(ws, bs)):
            bound = 1.0 / np.sqrt(widths[l])
            assert np.abs(w).max() <= bound and np.abs(b).max() <= bound

    def test_deterministic_per_seed(self):
        widths = (3, 5, 1)
        assert np.array_equal(init_theta(widths, 7), init_theta(widths, 7))
        assert not np.array_equal(init_theta(widths, 7), init_theta(widths, 8))


class TestForward:
    def test_matches_hand_rolled_network(self):
        widths = (3, 2, 1)
        rng = np.random.default_rng(1)
        theta = rng.normal(size=n_params(widths))
        X = rng.normal(size=(6, 3))
        w0, b0 = theta[:6].reshape(2, 3), theta[6:8]
        w1, b1 = theta[8:10].reshape(1, 2), theta[10:]
        hidden = 1.0 / (1.0 + np.exp(-(X @ w0.T + b0)))
        want = (hidden @ w1.T + b1)[:, 0]
        assert np.allclose(forward_batch(widths, theta, X), want, rtol=1e-14)

    def test_output_layer_is_linear(self):
        # scaling the last-layer weights scales the output linearly
        widths = (3, 4, 1)
        theta = init_theta(widths, seed=3)
        X = np.random.default_rng(0).normal(size=(4, 3))
        base = forward_batch(widths, theta, X)
        ws, bs = layers_from_theta(widths, theta)
        theta2 = theta.copy()
        theta2[-5:] = np.concatenate([2.0 * ws[-1].ravel(), 2.0 * bs[-1]])
        assert np.allclose(forward_batch(widths, theta2, X), 2.0 * base, rtol=1e-12)


class TestJacobian:
    @pytest.mark.parametrize("widths", [(3, 4, 1), (3, 4, 4, 1)])
    def test_matches_central_differences(self, widths):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            theta = init_theta(widths, seed=seed)
            X = rng.normal(size=(5, 3))
            J = batch_jacobian(widths, theta, X)
            assert J.shape == (5, n_params(widths))
            J_fd = central_difference_jacobian(
                lambda th: forward_batch(widths, th, X), theta)
            mask = np.abs(J_fd) > 1e-8
            rel = np.abs(J - J_fd)[mask] / np.abs(J_fd)[mask]
            assert rel.max() < 1e-4

    def test_residual_jacobian_equals_output_jacobian(self):
        widths = (3, 4, 1)
        theta = init_theta(widths, seed=5)
        rng = np.random.default_rng(5)
        X, y = rng.normal(size=(6, 3)), rng.normal(size=6)
        J_out = batch_jacobian(widths, theta, X)
        J_res = central_difference_jacobian(
            lambda th: batch_residuals(widths, th, X, y), theta)
        assert np.allclose(J_out, J_res, atol=1e-7)


class TestLevenbergMarquardt:
    def _affine(self, n_res, n_par, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n_res, n_par))
        b = rng.normal(size=n_res)
        return A, b

    def test_converges_to_least_squares_solution(self):
        A, b = self._affine(12, 4, seed=2)
        cfg = DnnTrainConfig(hidden_layers=1, max_iters=100, sse_tol=1e-15)
        res = levenberg_marquardt(lambda th: A @ th - b, lambda th: A,
                                  np.zeros(4), cfg)
        want, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert np.allclose(res.theta, want, atol=1e-8)
        assert res.stop_reason == "sse_tol"

    def test_accepted_sse_strictly_decreases(self):
        A, b = self._affine(20, 6, seed=3)
        cfg = DnnTrainConfig(hidden_layers=1, max_iters=50)
        res = levenberg_marquardt(lambda th: A @ th - b, lambda th: A,
                                  np.zeros(6), cfg)
        path = res.sse_path
        assert len(path) >= 2
        assert all(later < earlier for earlier, later in zip(path, path[1:]))

    def test_underdetermined_step_equals_normal_equations_step(self):
        # params > residuals exercises the residual-space solve; its first
        # accepted step must equal the parameter-space formula exactly
        A, b = self._affine(5, 17, seed=4)
        theta0 = np.full(17, 0.3)
        cfg = DnnTrainConfig(hidden_layers=1, max_iters=1, lambda0=1e-3)
        res = levenberg_marquardt(lambda th: A @ th - b, lambda th: A, theta0, cfg)
        r0 = A @ theta0 - b
        delta = np.linalg.solve(A.T @ A + cfg.lambda0 * np.eye(17), A.T @ r0)
        assert np.allclose(res.theta, theta0 - delta, atol=1e-10)
        assert res.sse_path[1] < res.sse_path[0]

    def test_stall_at_stationary_point_reports_lambda_limit(self):
        # gradient is exactly zero but the residual is not: no descent exists
        res = levenberg_marquardt(
            lambda th: np.array([th[0] ** 2 + 1.0]),
            lambda th: np.array([[2.0 * th[0]]]),
            np.zeros(1), DnnTrainConfig(hidden_layers=1, max_iters=10),
        )
        assert res.stop_reason == "lambda_limit"
        assert res.sse_path == (1.0,)

    def test_nan_trial_step_raises(self):
        def residual(th):
            if th[0] < 0:
                return np.array([float("nan")])
            return np.array([th[0] + 5.0])

        with pytest.raises(SolverError, match="NaN"):
            levenberg_marquardt(residual, lambda th: np.array([[1.0]]),
                                np.array([1.0]),
                                DnnTrainConfig(hidden_layers=1, max_iters=10))

    def test_non_finite_start_raises(self):
        with pytest.raises(SolverError, match="initial"):
            levenberg_marquardt(lambda th: np.array([float("inf")]),
                                lambda th: np.array([[1.0]]),
                                np.zeros(1), DnnTrainConfig(hidden_layers=1))

    def test_max_iters_respected(self):
        A, b = self._affine(30, 8, seed=6)
        # nonlinear enough to keep iterating: tanh squashes the affine map
        res = levenberg_marquardt(
            lambda th: np.tanh(A @ th) - b,
            lambda th: (1.0 - np.tanh(A @ th) ** 2)[:, None] * A,
            np.zeros(8), DnnTrainConfig(hidden_layers=1, max_iters=3, sse_tol=1e-300),
        )
        assert res.stop_reason == "max_iters"
        assert res.iterations == 3


class TestTrainDnn:
    def test_fits_smooth_synthetic_data(self, dataset_factory):
        data = dataset_factory(n=40, seed=6, noise_sd=0.5)
        cfg = DnnTrainConfig(hidden_layers=2, width=4, max_iters=150, seed=0)
        m = DnnModel.fit_dataset(data, "capillary", **asdict(cfg))[0]
        rel = [abs(m.predict_batch([s.voltages])[0].value_mgdl - s.capillary.value_mgdl)
               / s.capillary.value_mgdl for s in data.samples]
        assert 100.0 * float(np.mean(rel)) < 1.0

    def test_training_is_deterministic(self, dataset_factory):
        data = dataset_factory(n=25, seed=9, noise_sd=1.0)
        cfg = DnnTrainConfig(hidden_layers=1, width=3, max_iters=40, seed=2)
        a = DnnModel.fit_dataset(data, "capillary", **asdict(cfg))[0]
        b = DnnModel.fit_dataset(data, "capillary", **asdict(cfg))[0]
        assert a.weights == b.weights and a.biases == b.biases

    def test_seed_changes_solution(self, dataset_factory):
        data = dataset_factory(n=25, seed=9, noise_sd=1.0)
        a = DnnModel.fit_dataset(data, "capillary", **asdict(
            DnnTrainConfig(hidden_layers=1, width=3, max_iters=5, seed=0)))[0]
        b = DnnModel.fit_dataset(data, "capillary", **asdict(
            DnnTrainConfig(hidden_layers=1, width=3, max_iters=5, seed=1)))[0]
        assert a.weights != b.weights

    def test_needs_two_samples(self, dataset_factory):
        data = dataset_factory(n=1, seed=0, glucose_range=(100.0, 100.0))
        with pytest.raises(DataError):
            DnnModel.fit_dataset(data, "capillary",
                                 **asdict(DnnTrainConfig(hidden_layers=1, width=2)))

    def test_model_jacobian_shape(self, dataset_factory):
        data = dataset_factory(n=10, seed=3)
        cfg = DnnTrainConfig(hidden_layers=1, width=2, max_iters=5)
        m = DnnModel.fit_dataset(data, "capillary", **asdict(cfg))[0]
        X, _ = design_arrays(usable_samples(data, m.glucose_kind), m.glucose_kind)
        J = batch_jacobian(m.widths, m.theta(), m.x_scaler.transform(X))
        assert J.shape == (10, n_params(m.widths))

    def test_prediction_carries_kind(self, dataset_factory):
        data = dataset_factory(n=12, seed=4, serum_delta=0.05)
        cfg = DnnTrainConfig(hidden_layers=1, width=2, max_iters=10)
        m = DnnModel.fit_dataset(data, "serum", **asdict(cfg))[0]
        p = m.predict_batch([data.samples[0].voltages])[0]
        assert p.kind == "serum" and 10.0 <= p.value_mgdl <= 600.0
