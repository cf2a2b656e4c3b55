"""Gauss-Hermite rules: exactness, normalization, and the expectation API."""

import math

import numpy as np
import pytest

from mmbgk.basis import hme_expansion, weighted_l2_distance
from mmbgk.errors import ConfigError
from mmbgk.quadrature import DEFAULT_ORDER, gauss_hermite_e, gaussian_rule


def _double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def test_default_order():
    assert DEFAULT_ORDER == 60
    assert gauss_hermite_e().order == 60
    assert gaussian_rule(0.0, 1.0).order == 60


def test_probabilists_weight_normalization():
    rule = gauss_hermite_e(40)
    assert abs(np.sum(rule.weights) - math.sqrt(2.0 * math.pi)) < 1e-12


def test_probabilists_moments_exact():
    # int c^k exp(-c^2/2) dc = sqrt(2 pi) (k-1)!! for even k
    rule = gauss_hermite_e(25)
    for k in range(0, 2 * rule.order, 2):
        val = rule.integrate(lambda c: c ** k)
        exact = math.sqrt(2.0 * math.pi) * _double_factorial(k - 1)
        assert abs(val - exact) / exact < 1e-12


def test_gaussian_rule_is_an_expectation():
    u, theta = 0.7, 1.8
    rule = gaussian_rule(u, theta, n=30)
    assert abs(np.sum(rule.weights) - 1.0) < 1e-13
    assert abs(rule.integrate(lambda c: c) - u) < 1e-13
    assert abs(rule.integrate(lambda c: (c - u) ** 2) - theta) < 1e-13
    assert abs(rule.integrate(lambda c: (c - u) ** 3)) < 1e-13
    assert abs(rule.integrate(lambda c: (c - u) ** 4) - 3.0 * theta ** 2) < 1e-12


def test_gaussian_rule_nodes_are_affine_hermite_nodes():
    base = gauss_hermite_e(17)
    rule = gaussian_rule(-0.4, 2.5, n=17)
    np.testing.assert_allclose(rule.nodes, -0.4 + math.sqrt(2.5) * base.nodes, rtol=1e-15)


def test_random_polynomial_exactness():
    # degree 2n-1 polynomial integrated exactly against the Gaussian
    rng = np.random.default_rng(3)
    n = 8
    coeffs = rng.standard_normal(2 * n)
    rule = gaussian_rule(0.0, 1.0, n=n)
    val = rule.integrate(lambda c: np.polynomial.polynomial.polyval(c, coeffs))
    exact = sum(c * _double_factorial(k - 1) for k, c in enumerate(coeffs) if k % 2 == 0)
    assert abs(val - exact) < 1e-12 * max(1.0, abs(exact))


def test_integrate_returns_scalar():
    val = gauss_hermite_e(10).integrate(lambda c: np.ones_like(c))
    assert isinstance(val, float)


def test_invalid_arguments():
    with pytest.raises(ConfigError):
        gauss_hermite_e(0)
    with pytest.raises(ConfigError):
        gauss_hermite_e(-3)
    with pytest.raises(ConfigError):
        gaussian_rule(0.0, 0.0)
    with pytest.raises(ConfigError):
        gaussian_rule(0.0, -1.0)


def test_order_zero_raises_the_rule_error():
    # gaussian_rule and the weighted distance build on gauss_hermite_e
    with pytest.raises(ConfigError, match="quadrature order must be >= 1, got 0"):
        gaussian_rule(0.0, 1.0, n=0)
    e = hme_expansion([1.0, 0.0, 1.0, 0.1])
    with pytest.raises(ConfigError, match="quadrature order must be >= 1, got 0"):
        weighted_l2_distance(e, e, e.params, order=0)
