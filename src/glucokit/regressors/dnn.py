"""Feedforward sigmoid network trained by Levenberg-Marquardt.

Depth is the headline knob (10 hidden layers by default, width 10); the output
neuron is linear. LM iterates theta <- theta - (J'J + lambda*I)^-1 J'r with a
strict-decrease acceptance rule: rejected steps raise lambda by 10x and retry,
accepted steps lower it by 10x. All parameters live in one flat vector; the
Jacobian comes from reverse-mode accumulation, one residual row per sample.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Annotated, ClassVar

import numpy as np

from ..data import Checked, Rule
from ..errors import DataError, SolverError
from .base import N_PREDICTORS, FamilyModel, Standardizer

LAMBDA_LIMIT = 1e10
LAMBDA_STEP = 10.0
# the largest network DnnTrainConfig accepts, twice the default depth and five
# times its width: at most 48,701 parameters, so the LM Jacobian holds at most
# 390 KB per training row; checked before init_theta allocates anything
MAX_HIDDEN_LAYERS = 20
MAX_WIDTH = 50
# the most LM iterations DnnTrainConfig accepts, a hundred times the default;
# at the default network and 600 training rows an iteration takes about 30 ms
MAX_ITERS = 100_000


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically safe logistic; exact 1/(1+exp(-x)) in both tails."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))  # exp(-x) for x >= 0, exp(x) below
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True)
class DnnTrainConfig(Checked):
    hidden_layers: int = 10
    width: int = 10
    seed: Annotated[int, Rule(ge=0)] = 0
    lambda0: Annotated[float, Rule(gt=0)] = 1e-3
    max_iters: Annotated[int, Rule(ge=1, le=MAX_ITERS)] = 1000
    sse_tol: Annotated[float, Rule(gt=0)] = 1e-10

    def __post_init__(self):
        super().__post_init__()
        if not 1 <= self.hidden_layers <= MAX_HIDDEN_LAYERS or not 1 <= self.width <= MAX_WIDTH:
            raise DataError(f"hidden_layers must be in [1, {MAX_HIDDEN_LAYERS}] and width "
                            f"in [1, {MAX_WIDTH}], got {self.hidden_layers} and {self.width}")

    def widths(self, n_inputs: int = 3) -> tuple[int, ...]:
        return (n_inputs, *([self.width] * self.hidden_layers), 1)


@dataclass(frozen=True)
class DnnModel(FamilyModel):
    """Weights per layer (row-major (out, in)), biases, and scalers."""

    family: ClassVar[str] = "dnn"
    specs: ClassVar[dict] = {"dnn": {}}
    options: ClassVar[frozenset] = frozenset(f.name for f in fields(DnnTrainConfig)) - {"seed"}

    widths: tuple[int, ...]
    weights: tuple[tuple[tuple[float, ...], ...], ...]
    biases: tuple[tuple[float, ...], ...]
    x_scaler: Standardizer
    y_scaler: Standardizer
    glucose_kind: str

    def __post_init__(self):
        super().__post_init__()
        if len(self.widths) < 3 or self.widths[0] != N_PREDICTORS or self.widths[-1] != 1:
            raise DataError(f"network needs {N_PREDICTORS} inputs, >= 1 hidden layer and "
                            f"a single output, got widths {self.widths}")
        if len(self.weights) != len(self.widths) - 1 or len(self.biases) != len(self.widths) - 1:
            raise DataError("one weight matrix and bias vector per layer required")
        parts = []
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if len(w) != self.widths[l + 1] or any(len(row) != self.widths[l] for row in w):
                raise DataError(f"layer {l} weight shape does not chain {self.widths}")
            if len(b) != self.widths[l + 1]:
                raise DataError(f"layer {l} bias length does not chain {self.widths}")
            layer = np.append(np.asarray(w, dtype=float), b)  # row-major w, then b
            if not np.isfinite(layer).all():
                raise DataError(f"layer {l} has non-finite parameters")
            parts.append(layer)
        # derived once, outside the fields, as in SvrModel
        theta = np.concatenate(parts)
        theta.flags.writeable = False
        object.__setattr__(self, "_theta", theta)

    def theta(self) -> np.ndarray:
        """All parameters as one flat, read-only vector, layer by layer."""
        return self._theta

    @classmethod
    def fit(cls, Xs: np.ndarray, ys: np.ndarray, seed: int = 0, **options) -> tuple[dict, dict]:
        """Levenberg-Marquardt on standardized data; deterministic per seed."""
        cfg = DnnTrainConfig(seed=seed, **options)
        widths = cfg.widths(n_inputs=3)
        result = levenberg_marquardt(
            lambda th: batch_residuals(widths, th, Xs, ys),
            lambda th: batch_jacobian(widths, th, Xs),
            init_theta(widths, cfg.seed), cfg,
        )
        ws, bs = layers_from_theta(widths, result.theta)
        fitted = {
            "widths": widths,
            "weights": tuple(tuple(tuple(float(x) for x in row) for row in w) for w in ws),
            "biases": tuple(tuple(float(x) for x in b) for b in bs),
        }
        hyperparameters = {k: v for k, v in asdict(cfg).items() if k in cls.options}
        return fitted, hyperparameters

    def decision(self, Z: np.ndarray) -> np.ndarray:
        return forward_batch(self.widths, self._theta, Z)


def n_params(widths: tuple[int, ...]) -> int:
    return sum(widths[l + 1] * widths[l] + widths[l + 1] for l in range(len(widths) - 1))


def layers_from_theta(widths: tuple[int, ...], theta: np.ndarray):
    """Split a flat parameter vector into (weights, biases) per layer."""
    ws, bs, pos = [], [], 0
    for l in range(len(widths) - 1):
        n_out, n_in = widths[l + 1], widths[l]
        ws.append(theta[pos:pos + n_out * n_in].reshape(n_out, n_in))
        pos += n_out * n_in
        bs.append(theta[pos:pos + n_out])
        pos += n_out
    if pos != len(theta):
        raise DataError(f"theta length {len(theta)} does not match widths {widths}")
    return ws, bs


def init_theta(widths: tuple[int, ...], seed: int) -> np.ndarray:
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer, weights and biases."""
    rng = np.random.default_rng(seed)
    parts = []
    for l in range(len(widths) - 1):
        n_out, n_in = widths[l + 1], widths[l]
        bound = 1.0 / math.sqrt(n_in)
        parts.append(rng.uniform(-bound, bound, size=n_out * n_in))
        parts.append(rng.uniform(-bound, bound, size=n_out))
    return np.concatenate(parts)


def forward_batch(widths: tuple[int, ...], theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Network outputs (standardized space) for rows of X; shape (n,)."""
    ws, bs = layers_from_theta(widths, theta)
    a = np.asarray(X, dtype=float)
    for w, b in zip(ws[:-1], bs[:-1]):
        a = sigmoid(a @ w.T + b)
    return (a @ ws[-1].T + bs[-1])[:, 0]


def batch_residuals(widths, theta, X, y) -> np.ndarray:
    return forward_batch(widths, theta, X) - np.asarray(y, dtype=float)


def batch_jacobian(widths: tuple[int, ...], theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """J[i, p] = d out_i / d theta_p, reverse-mode, one row per sample."""
    ws, bs = layers_from_theta(widths, theta)
    n = X.shape[0]
    acts = [np.asarray(X, dtype=float)]
    for w, b in zip(ws[:-1], bs[:-1]):
        acts.append(sigmoid(acts[-1] @ w.T + b))
    J = np.empty((n, len(theta)))
    end = len(theta)
    delta = np.ones((n, 1))
    for l in range(len(ws) - 1, -1, -1):
        n_out, n_in = ws[l].shape
        start = end - n_out * (n_in + 1)  # layer l's block: row-major w, then b
        w_block = J[:, start:end - n_out].reshape(n, n_out, n_in)  # a view of J
        np.einsum("io,ip->iop", delta, acts[l], out=w_block)
        J[:, end - n_out:end] = delta
        end = start
        if l > 0:
            a = acts[l]
            delta = (delta @ ws[l]) * (a * (1.0 - a))
    return J


@dataclass(frozen=True)
class LmResult:
    theta: np.ndarray
    sse_path: tuple[float, ...]  # initial SSE then every accepted step's SSE
    iterations: int
    stop_reason: str


def levenberg_marquardt(residual_fn, jacobian_fn, theta0: np.ndarray,
                        cfg: DnnTrainConfig) -> LmResult:
    """Damped Gauss-Newton with strict-decrease acceptance.

    Stops on max_iters, on relative SSE improvement below sse_tol, or when
    lambda climbs past 1e10 without finding a descent step.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    r = residual_fn(theta)
    sse = float(r @ r)
    if not math.isfinite(sse):
        raise SolverError(f"initial loss is not finite ({sse})")
    path = [sse]
    lam = cfg.lambda0
    stop = "max_iters"
    iters = 0
    for it in range(cfg.max_iters):
        iters = it + 1
        J = jacobian_fn(theta)
        n_res, n_par = J.shape
        # Overparameterized nets: (J'J + lam*I)^-1 J'r == J'(JJ' + lam*I)^-1 r,
        # so the solve can run in residual space (n^3 instead of p^3).
        dual = n_par > n_res
        H = J @ J.T if dual else J.T @ J
        g = None if dual else J.T @ r
        accepted = False
        solve_failed = True
        while lam <= LAMBDA_LIMIT:
            damped = H.copy()
            damped.flat[::len(H) + 1] += lam  # H + lam*I, bit for bit
            try:
                if dual:
                    delta = J.T @ np.linalg.solve(damped, r)
                else:
                    delta = np.linalg.solve(damped, g)
            except np.linalg.LinAlgError:
                lam *= LAMBDA_STEP
                continue
            solve_failed = False
            theta_new = theta - delta
            r_new = residual_fn(theta_new)
            sse_new = float(r_new @ r_new)
            if math.isnan(sse_new):
                raise SolverError("loss became NaN during a trial step")
            if sse_new < sse:
                improvement = sse - sse_new
                theta, r, sse = theta_new, r_new, sse_new
                path.append(sse)
                lam = max(lam / LAMBDA_STEP, 1e-300)  # keep lam > 0 for the dual solve
                accepted = True
                break
            lam *= LAMBDA_STEP
        if not accepted:
            if solve_failed:
                raise SolverError(
                    f"(J'J + lambda*I) stayed singular up to lambda = {LAMBDA_LIMIT:.0e}"
                )
            stop = "lambda_limit"
            break
        if sse == 0.0 or improvement <= cfg.sse_tol * max(path[-2], 1e-300):
            stop = "sse_tol"
            break
    return LmResult(theta=theta, sse_path=tuple(path), iterations=iters, stop_reason=stop)

