"""The 19-term cubic feature map, checked against an enumerated oracle."""

import itertools

import numpy as np
import pytest

from glucokit.data import ChannelVoltages
from glucokit.regressors import FEATURE_NAMES, N_FEATURES, feature_matrix


def oracle_terms(x1, x2, x3):
    """Every monomial of total degree 1..3 in three variables, by exponent."""
    vals = {}
    for e1, e2, e3 in itertools.product(range(4), repeat=3):
        deg = e1 + e2 + e3
        if 1 <= deg <= 3:
            vals[(e1, e2, e3)] = (x1 ** e1) * (x2 ** e2) * (x3 ** e3)
    return vals


NAME_TO_EXPONENTS = {
    "x1^3": (3, 0, 0), "x2^3": (0, 3, 0), "x3^3": (0, 0, 3),
    "x1^2*x2": (2, 1, 0), "x1^2*x3": (2, 0, 1), "x1*x2^2": (1, 2, 0),
    "x1*x3^2": (1, 0, 2), "x2^2*x3": (0, 2, 1), "x2*x3^2": (0, 1, 2),
    "x1^2": (2, 0, 0), "x2^2": (0, 2, 0), "x3^2": (0, 0, 2),
    "x1*x2*x3": (1, 1, 1), "x1*x2": (1, 1, 0), "x1*x3": (1, 0, 1),
    "x2*x3": (0, 1, 1), "x1": (1, 0, 0), "x2": (0, 1, 0), "x3": (0, 0, 1),
}


class TestFeatureMap:
    def test_nineteen_terms_cover_all_cubic_monomials(self):
        assert N_FEATURES == 19
        assert len(FEATURE_NAMES) == 19
        assert set(NAME_TO_EXPONENTS) == set(FEATURE_NAMES)
        # degree counting: 3 linear + 6 quadratic + 10 cubic
        assert len(oracle_terms(1.0, 1.0, 1.0)) == 19

    def test_values_match_exponent_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.normal(size=3)
            got = feature_matrix([x])[0]
            want = oracle_terms(*x)
            for k, name in enumerate(FEATURE_NAMES):
                assert got[k] == pytest.approx(want[NAME_TO_EXPONENTS[name]],
                                               rel=1e-12, abs=1e-15)

    def test_matrix_path_is_bitwise_equal_to_scalar_path(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 3))
        M = feature_matrix(X)
        assert M.shape == (40, 19)
        for i in range(40):
            assert np.array_equal(M[i], feature_matrix([X[i]])[0])

    def test_matrix_is_bitwise_equal_to_written_out_monomials(self):
        rng = np.random.default_rng(17)
        X = rng.normal(scale=3.0, size=(200, 3))
        x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2]
        want = np.stack([
            x1 * x1 * x1, x2 * x2 * x2, x3 * x3 * x3,
            x1 * x1 * x2, x1 * x1 * x3, x1 * x2 * x2, x1 * x3 * x3,
            x2 * x2 * x3, x2 * x3 * x3,
            x1 * x1, x2 * x2, x3 * x3,
            x1 * x2 * x3,
            x1 * x2, x1 * x3, x2 * x3,
            x1, x2, x3,
        ], axis=1)
        assert np.array_equal(feature_matrix(X), want)

    def test_build_features_uses_channel_order(self):
        v = ChannelVoltages(2.0, 3.0, 5.0)
        f = feature_matrix([v.as_array()])[0]
        names = list(FEATURE_NAMES)
        assert f[names.index("x1")] == 2.0
        assert f[names.index("x2")] == 3.0
        assert f[names.index("x3")] == 5.0
        assert f[names.index("x1*x2*x3")] == 30.0
        assert f[names.index("x3^3")] == 125.0

    def test_ordering_is_documented_order(self):
        # cubic block first, then squares, cross terms, then linear terms
        assert FEATURE_NAMES[0] == "x1^3"
        assert FEATURE_NAMES[9] == "x1^2"
        assert FEATURE_NAMES[12] == "x1*x2*x3"
        assert FEATURE_NAMES[-3:] == ("x1", "x2", "x3")
