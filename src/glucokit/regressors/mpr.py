"""Cubic multivariate polynomial regression on the three channel voltages.

The model is linear in its 19 monomial features plus an intercept, so fitting
is plain least squares. Voltages are z-scored before the monomial terms are built
(raw mV cubed would span ~10 orders of magnitude and wreck conditioning);
the response stays in mg/dl.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..data import Checked, GlucoseKind
from ..errors import DataError, SolverError
from .base import FamilyModel, Standardizer
from .features import N_FEATURES, feature_matrix

CONDITION_LIMIT = 1e10


@dataclass(frozen=True)
class Mpr3Model(FamilyModel, Checked):
    """Fitted cubic polynomial: 19 coefficients, intercept, input scaling."""

    family: ClassVar[str] = "mpr3"
    specs: ClassVar[dict] = {"mpr3": {}}
    options: ClassVar[frozenset] = frozenset({"intercept"})
    min_samples: ClassVar[int] = N_FEATURES + 1  # 19 coefficients + intercept
    standardize_response: ClassVar[bool] = False
    y_scaler: ClassVar[Standardizer] = Standardizer((0.0,), (1.0,))  # fitted in mg/dl

    coefficients: tuple[float, ...]
    intercept: float
    x_scaler: Standardizer
    glucose_kind: GlucoseKind

    def __post_init__(self):
        FamilyModel.__post_init__(self)  # which does not chain on to Checked's
        Checked.__post_init__(self)
        if len(self.coefficients) != N_FEATURES:
            raise DataError(f"expected {N_FEATURES} coefficients, got {len(self.coefficients)}")

    @classmethod
    def fit(cls, Xs: np.ndarray, y: np.ndarray, seed: int = 0, *,
            intercept: bool = True) -> tuple[dict, dict]:
        """Least-squares fit of the 19-term cubic polynomial (+ optional intercept).

        Solved through an orthogonal decomposition (SVD-backed lstsq), never
        the normal equations. Needs a design matrix with condition number
        below 1e10.
        """
        Phi = feature_matrix(Xs)
        if intercept:
            design = np.hstack([Phi, np.ones((len(Phi), 1))])
        else:
            design = Phi
        cond = np.linalg.cond(design)
        if not math.isfinite(cond) or cond > CONDITION_LIMIT:
            raise SolverError(
                f"design matrix condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}; "
                "predictors are collinear or nearly so"
            )
        theta, *_ = np.linalg.lstsq(design, y, rcond=None)
        coeffs = theta[:N_FEATURES]
        eps = float(theta[N_FEATURES]) if intercept else 0.0
        fitted = {"coefficients": tuple(float(c) for c in coeffs), "intercept": eps}
        return fitted, {"intercept": intercept}

    def decision(self, Z: np.ndarray) -> np.ndarray:
        return feature_matrix(Z) @ np.asarray(self.coefficients) + self.intercept

