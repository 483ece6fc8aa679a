"""Epsilon-insensitive support vector regression, solved in the dual.

The dual maximizes -1/2 b'Kb + b'y - eps*||b||_1 subject to sum(b) = 0 and
|b_i| <= C, where b_i = alpha_i - alpha_i*. The solver is sequential minimal
optimization on the stacked 2n-variable form with second-order working-set
selection (WSS2, as in LIBSVM): take the maximal violator i, pair it with the
j that promises the largest objective decrease, take the exact two-variable
step, repeat until the KKT gap m - M drops under tolerance. The gradient is
updated through K's columns and the up/low sets through the two variables a
step touches. Before solving, the Gram matrix must be PSD to within
1e-8 * max(1, max eigenvalue): a shifted Cholesky accepts it, and eigvalsh
runs only when that fails. Inputs and response are z-scored before solving;
the Gaussian scale conventions (sqrt(P), sqrt(P)/4, 4*sqrt(P) for P = 3
predictors) presume that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Annotated, ClassVar

import numpy as np

from ..data import Checked, Rule
from ..errors import DataError, SolverError
from .base import N_PREDICTORS, FamilyModel, Standardizer

KERNEL_KINDS = ("linear", "quadratic", "cubic", "gaussian")
KKT_TOL = 1e-6
MAX_SMO_ITERS = 100_000


@dataclass(frozen=True)
class KernelSpec(Checked):
    """Kernel family plus, for the Gaussian, its length scale."""

    kind: Annotated[str, Rule(choices=KERNEL_KINDS)]
    scale: Annotated[float | None, Rule(gt=0)] = None

    def __post_init__(self):
        super().__post_init__()
        if (self.kind == "gaussian") != (self.scale is not None):
            raise DataError(f"a gaussian kernel needs a scale and no other takes one, got {self}")

    @classmethod
    def gaussian(cls, flavor: str) -> "KernelSpec":
        """Named Gaussian scales: medium sqrt(P), fine sqrt(P)/4, coarse 4*sqrt(P)."""
        root = math.sqrt(N_PREDICTORS)
        scales = {"medium": root, "fine": root / 4.0, "coarse": 4.0 * root}
        if flavor not in scales:
            raise DataError(f"gaussian flavor must be one of {sorted(scales)}, got {flavor!r}")
        return cls("gaussian", scales[flavor])


def kernel_matrix(k: KernelSpec, A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Gram block K[i, j] = k(A_i, B_j); B defaults to A."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = A if B is None else np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise DataError(f"kernel arguments must share width, got {A.shape} and {B.shape}")
    inner = A @ B.T
    if k.kind == "linear":
        return inner
    if k.kind == "quadratic":
        return (1.0 + inner) ** 2
    if k.kind == "cubic":
        return (1.0 + inner) ** 3
    d2 = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * inner
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-d2 / (2.0 * k.scale ** 2))


@dataclass(frozen=True)
class SvrModel(FamilyModel):
    """Converged dual solution plus everything needed to predict."""

    family: ClassVar[str] = "svr"
    specs: ClassVar[dict] = {
        "svr:linear": {"kernel": KernelSpec("linear")},
        "svr:quadratic": {"kernel": KernelSpec("quadratic")},
        "svr:cubic": {"kernel": KernelSpec("cubic")},
        "svr:medium-gaussian": {"kernel": KernelSpec.gaussian("medium")},
        "svr:fine-gaussian": {"kernel": KernelSpec.gaussian("fine")},
        "svr:coarse-gaussian": {"kernel": KernelSpec.gaussian("coarse")},
    }
    options: ClassVar[frozenset] = frozenset({"eps", "c"})

    kernel: KernelSpec
    beta: tuple[float, ...]
    bias: float
    eps: float
    c: float
    train_inputs: tuple[tuple[float, float, float], ...]  # standardized
    x_scaler: Standardizer
    y_scaler: Standardizer
    glucose_kind: str

    def __post_init__(self):
        super().__post_init__()
        if len(self.beta) != len(self.train_inputs):
            raise DataError("beta and retained inputs must have equal length")
        # array copies of the tuple fields, derived once; not fields, so they
        # stay out of ==, repr and the model document
        beta = np.asarray(self.beta, dtype=float)
        n = len(self.train_inputs)
        if set(map(len, self.train_inputs)) - {N_PREDICTORS}:
            # a ValueError, which load_model reports as a malformed document
            raise ValueError(f"train_inputs rows must hold {N_PREDICTORS} values")
        inputs = np.fromiter(chain.from_iterable(self.train_inputs), dtype=float,
                             count=N_PREDICTORS * n).reshape(n, N_PREDICTORS)
        finite = np.isfinite(beta).all() and np.isfinite(inputs).all()
        if not (finite and all(map(math.isfinite, (self.bias, self.eps, self.c)))):
            raise DataError("svr model has non-finite parameters")
        _check_hyperparams(self.eps, self.c)
        if (np.abs(beta) > self.c * (1 + 1e-9)).any():
            raise DataError("dual coefficient exceeds box constraint C")
        object.__setattr__(self, "_beta", beta)
        object.__setattr__(self, "_inputs", inputs)

    def support_count(self) -> int:
        return int((np.abs(self._beta) > 1e-9).sum())

    @classmethod
    def fit(cls, Xs: np.ndarray, ys: np.ndarray, seed: int = 0, *, kernel: KernelSpec,
            eps: float | None = None, c: float | None = None) -> tuple[dict, dict]:
        """Solve the dual on standardized data; eps/C default from the iqr."""
        eps_def, c_def = default_hyperparams(ys)
        eps = eps_def if eps is None else float(eps)
        c = c_def if c is None else float(c)
        _check_hyperparams(eps, c)
        K = kernel_matrix(kernel, Xs)
        _check_psd(K)
        beta, bias, _ = _solve_smo(K, ys, eps, c, KKT_TOL, MAX_SMO_ITERS)
        _check_kkt(beta, K @ beta, bias, ys, eps, c, KKT_TOL)
        fitted = {
            "kernel": kernel,
            "beta": tuple(float(b) for b in beta),
            "bias": float(bias),
            "eps": eps,
            "c": c,
            "train_inputs": tuple(tuple(float(v) for v in row) for row in Xs),
        }
        return fitted, {"kernel": kernel.kind, "scale": kernel.scale, "eps": eps, "c": c}

    def decision(self, Z: np.ndarray) -> np.ndarray:
        """Standardized-space f(z) = sum b_i k(x_i, z) + bias, one per row of Z."""
        return kernel_matrix(self.kernel, Z, self._inputs) @ self._beta + self.bias


def _check_hyperparams(eps: float, c: float) -> None:
    """The rule a fit's and a loaded model's eps and C both keep."""
    if eps < 0:
        raise DataError(f"eps must be >= 0, got {eps}")
    if c <= 0:
        raise DataError(f"C must be > 0, got {c}")


def default_hyperparams(y_std: np.ndarray) -> tuple[float, float]:
    """(eps, C) from the standardized response: iqr/13.49 and iqr/1.349.

    iqr/1.349 is the robust sigma estimate; eps is a tenth of it. A zero iqr
    (heavily repeated response values) falls back to the normal-reference
    values eps = 0.1, C = 1.0.
    """
    q75, q25 = np.percentile(y_std, [75.0, 25.0])
    iqr = float(q75 - q25)
    if iqr <= 0:
        return 0.1, 1.0
    return iqr / 13.49, iqr / 1.349


def _check_psd(K: np.ndarray) -> None:
    """Reject K with min eigenvalue < -1e-8 * max(1, max eigenvalue).

    The accept path is one Cholesky of K + d*I with d = 1e-8 * max(1, trace/n).
    trace/n <= max eigenvalue, so d never exceeds the tolerance and a success
    proves the bound. Only when it fails does eigvalsh decide.
    """
    n = len(K)
    shifted = K.copy()
    shifted.flat[::n + 1] += 1e-8 * max(1.0, float(np.trace(K)) / n)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        evals = np.linalg.eigvalsh(K)
        if evals[0] < -1e-8 * max(1.0, float(evals[-1])):
            raise SolverError(
                f"Gram matrix not PSD: min eigenvalue {evals[0]:.3e} (kernel bug?)"
            ) from None


def _solve_smo(K: np.ndarray, y: np.ndarray, eps: float, c: float,
               tol: float, max_iters: int) -> tuple[np.ndarray, float, int]:
    """SMO on the stacked dual; returns (beta, bias, iterations).

    State: u = (alpha; alpha*) in [0, C]^2n, labels z = (+1...; -1...), and
    v = -z*grad = (y - eps - h; y + eps - h) with h = K @ beta. v is kept up
    to date through K's columns, so no 2n x 2n matrix is formed. The up set
    (where u_t may move in direction z_t) and the low set (direction -z_t)
    are boolean masks, updated at the two variables a step touches.

    Working-set selection is WSS2 (Fan, Chen & Lin, JMLR 6, 2005; LIBSVM's
    rule): i maximizes v over the up set, giving m; j maximizes
    (m - v_j)^2 / a_ij over the low set where v_j < m, with
    a_ij = K_ii + K_jj - 2K_ij (indices mod n) floored at 1e-12. That ratio is
    the objective decrease of the unclipped two-variable step. The run stops
    when m - min(v over low) drops under tol.
    """
    n = len(y)
    u = np.zeros(2 * n)
    v = np.concatenate([y - eps, y + eps])
    up = np.arange(2 * n) < n     # at u = 0 only the alphas can rise
    low = ~up                     # and only the alpha*s
    halves = v.reshape(2, n)      # a view: (alpha rows; alpha* rows)
    diag = np.diag(K).copy()
    for it in range(max_iters + 1):
        v_up = np.where(up, v, -np.inf)
        v_low = np.where(low, v, np.inf)
        i = int(v_up.argmax())
        m_val, big_m_val = float(v_up[i]), float(v_low.min())
        if m_val - big_m_val <= tol:
            return u[:n] - u[n:], _bias_from_state(u, v, m_val, big_m_val, n, c), it
        if it == max_iters:
            break
        ic = i % n
        a_i = np.maximum(diag[ic] + diag - 2.0 * K[ic], 1e-12)
        gain = np.maximum(m_val - v_low, 0.0).reshape(2, n)
        j = int((gain * gain / a_i).argmax())
        jc = j % n
        t = (m_val - float(v[j])) / a_i[jc]
        t = min(t, c - u[i] if i < n else u[i])
        t = min(t, u[j] if j < n else c - u[j])
        if t <= 0:
            break
        u[i] += t if i < n else -t
        u[j] += -t if j < n else t
        for k in (i, j):
            u[k] = min(max(u[k], 0.0), c)
            up[k] = u[k] < c if k < n else u[k] > 0.0
            low[k] = u[k] > 0.0 if k < n else u[k] < c
        halves -= t * (K[:, ic] - K[:, jc])
    raise SolverError(
        f"SVR dual failed to converge in {max_iters} iterations; "
        f"worst KKT violation {m_val - big_m_val:.3e} (tol {tol:.0e})"
    )


def _bias_from_state(u: np.ndarray, vals: np.ndarray, m_val: float,
                     big_m_val: float, n: int, c: float) -> float:
    free = (u > 0.0) & (u < c)
    if free.any():
        return float(vals[free].mean())
    return 0.5 * (m_val + big_m_val)


def _check_kkt(beta: np.ndarray, h: np.ndarray, bias: float, y: np.ndarray,
               eps: float, c: float, tol: float) -> None:
    n = len(y)
    if np.any(np.abs(beta) > c * (1 + 1e-9)):
        raise SolverError("KKT violation: |beta| exceeds C")
    if abs(float(beta.sum())) > 1e-8 * c * n:
        raise SolverError(f"KKT violation: sum(beta) = {beta.sum():.3e} not ~0")
    resid = np.abs(h + bias - y)
    inside = resid < eps - tol
    if np.any(inside & (np.abs(beta) > tol)):
        raise SolverError("KKT violation: point strictly inside the tube has nonzero beta")

