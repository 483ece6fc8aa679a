"""The 19-term cubic feature map shared by the polynomial model.

Term order is fixed and load-bearing (coefficients are reported against it):

    x1^3, x2^3, x3^3,
    x1^2*x2, x1^2*x3, x1*x2^2, x1*x3^2, x2^2*x3, x2*x3^2,
    x1^2, x2^2, x3^2,
    x1*x2*x3,
    x1*x2, x1*x3, x2*x3,
    x1, x2, x3
"""

from __future__ import annotations

import numpy as np

FEATURE_NAMES = (
    "x1^3", "x2^3", "x3^3",
    "x1^2*x2", "x1^2*x3", "x1*x2^2", "x1*x3^2", "x2^2*x3", "x2*x3^2",
    "x1^2", "x2^2", "x3^2",
    "x1*x2*x3",
    "x1*x2", "x1*x3", "x2*x3",
    "x1", "x2", "x3",
)

N_FEATURES = len(FEATURE_NAMES)


def feature_matrix(X: np.ndarray) -> np.ndarray:
    """The 19 monomial terms of each row of an (n, 3) array -> (n, 19) design block."""
    X = np.asarray(X, dtype=float)
    x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2]
    # x1 * x1 * x2 evaluates as (x1 * x1) * x2, so building each cubic from a
    # shared product keeps every column bit-identical to the written-out monomial
    x11, x22, x33 = x1 * x1, x2 * x2, x3 * x3
    x12, x13, x23 = x1 * x2, x1 * x3, x2 * x3
    cols = (
        x11 * x1, x22 * x2, x33 * x3,
        x11 * x2, x11 * x3, x12 * x2, x13 * x3, x22 * x3, x23 * x3,
        x11, x22, x33,
        x12 * x3,
        x12, x13, x23,
        x1, x2, x3,
    )
    out = np.empty((X.shape[0], N_FEATURES))
    for k, col in enumerate(cols):
        out[:, k] = col
    return out
