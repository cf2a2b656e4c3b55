"""Weighted Hermite basis: normalization, moments, and the quadrature oracle.

Every analytic formula in mmbgk.basis is cross-checked here against direct
Gauss-Hermite integration, which plays ground truth for the whole package.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmbgk.basis import (
    BasisParams,
    HEAT_FLUX_COEFF,
    check_rho_theta,
    eval_basis,
    hermite_he_values,
    hme_expansion,
    hme_expansion_to_state,
    hme_state_to_expansion,
    hsm_expansion,
    hsm_primitives,
    maxwellian_coefficients,
    moments_of,
    weight_function,
    weighted_l2_distance,
)
from mmbgk.errors import DomainError, NumericError, StateError
from mmbgk.quadrature import gaussian_rule

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _gram_by_quadrature(params, n_moments, order=60):
    """G_ij = int phi_i phi_j omega^-1 dc via the expectation rule."""
    rule = gaussian_rule(params.u, params.theta, n=order)
    q = eval_basis(params, rule.nodes, n_moments) / weight_function(params, rule.nodes)
    return (q * rule.weights) @ q.T


def test_basis_value_at_mode():
    phi = eval_basis(BasisParams(0.0, 1.0), 0.0, 2)
    assert phi[0] == pytest.approx(1.0 / SQRT_2PI)
    assert phi[1] == 0.0


def test_basis_zero_carries_unit_mass():
    p = BasisParams(0.3, 1.7)
    rule = gaussian_rule(p.u, p.theta, n=40)
    # phi_0 = omega, so int phi_0 dc is the expectation of 1
    mass = rule.integrate(lambda c: eval_basis(p, c, 1)[0] / weight_function(p, c))
    assert abs(mass - 1.0) < 1e-13


def test_cross_orthogonality_by_quadrature():
    p = BasisParams(0.3, 1.7)
    rule = gaussian_rule(p.u, p.theta, n=40)
    val = rule.integrate(
        lambda c: np.prod(eval_basis(p, c, 4)[2:], axis=0) / weight_function(p, c) ** 2
    )
    assert abs(val) < 1e-13


@settings(max_examples=25, deadline=None)
@given(
    u=st.floats(min_value=-1.0, max_value=1.0),
    theta=st.floats(min_value=0.5, max_value=2.0),
)
def test_gram_matrix_is_identity(u, theta):
    g = _gram_by_quadrature(BasisParams(u, theta), 10)
    assert np.max(np.abs(g - np.eye(10))) < 1e-10


def test_hermite_recurrence_matches_numpy():
    rng = np.random.default_rng(0)
    x = rng.uniform(-3.0, 3.0, size=11)
    vals = hermite_he_values(x, 9)
    for k in range(9):
        ref = np.polynomial.hermite_e.hermeval(x, np.eye(9)[k])
        np.testing.assert_allclose(vals[k], ref, rtol=1e-12, atol=1e-12)


def test_basis_index_validation():
    with pytest.raises(DomainError):
        eval_basis(BasisParams(0.0, -1.0), 0.0, 1)
    with pytest.raises(DomainError):
        weight_function(BasisParams(0.0, 0.0), 0.0)
    with pytest.raises(DomainError, match="basis temperature must be positive, got nan"):
        weight_function(BasisParams(0.0, math.nan), [0.0])


# --- Maxwellian coefficients -------------------------------------------------


def test_maxwellian_at_basis_center():
    m = maxwellian_coefficients(1.0, 0.0, 1.0, 8)
    np.testing.assert_array_equal(m, np.eye(8)[0])


def test_maxwellian_constraint_slots():
    rho, u, theta = 1.3, -0.4, 0.8
    m = maxwellian_coefficients(rho, u, theta, 6)
    assert m[0] == rho
    assert m[1] == pytest.approx(rho * u, rel=1e-15)
    assert m[2] == pytest.approx((rho * theta + rho * u * u - rho) / math.sqrt(2.0), rel=1e-14)


def test_maxwellian_recurrence_equals_projection():
    # fhat_a = E_{N(u,theta)}[He_a(c)] / sqrt(a!), exact under the rule
    rho, u, theta, n = 1.0, 0.4, 1.3, 8
    rule = gaussian_rule(u, theta, n=60)
    he = hermite_he_values(rule.nodes, n)
    proj = rho * np.array(
        [float(rule.weights @ he[a]) / math.sqrt(math.factorial(a)) for a in range(n)]
    )
    np.testing.assert_allclose(maxwellian_coefficients(rho, u, theta, n), proj,
                               rtol=1e-10, atol=1e-12)


def test_maxwellian_projection_sweep():
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = rng.uniform(-1.0, 1.0)
        theta = rng.uniform(0.5, 2.0)
        rule = gaussian_rule(u, theta, n=60)
        he = hermite_he_values(rule.nodes, 12)
        proj = np.array(
            [float(rule.weights @ he[a]) / math.sqrt(math.factorial(a)) for a in range(12)]
        )
        got = maxwellian_coefficients(1.0, u, theta, 12)
        assert np.max(np.abs(got - proj)) < 1e-10


def test_maxwellian_broadcasting():
    # shape rho.shape + (M,), every cell bitwise the scalar call
    assert maxwellian_coefficients(1.0, 0.0, 1.0, 6).shape == (6,)
    m0 = maxwellian_coefficients(np.array(1.3), np.array(0.2), np.array(0.9), 6)
    assert m0.shape == (6,)
    np.testing.assert_array_equal(m0, maxwellian_coefficients(1.3, 0.2, 0.9, 6))
    m = maxwellian_coefficients(np.array([1.0, 2.0]), np.array([0.1, -0.1]), 1.0, 6)
    assert m.shape == (2, 6)
    np.testing.assert_array_equal(m[0], maxwellian_coefficients(1.0, 0.1, 1.0, 6))
    np.testing.assert_array_equal(m[1], maxwellian_coefficients(2.0, -0.1, 1.0, 6))
    rng = np.random.default_rng(17)
    rho = rng.uniform(0.5, 2.0, (2, 3))
    u = rng.uniform(-0.5, 0.5, (2, 3))
    theta = rng.uniform(0.8, 1.5, (1, 3))  # broadcast over the first axis
    m2 = maxwellian_coefficients(rho, u, theta, 7)
    assert m2.shape == (2, 3, 7)
    for i, j in np.ndindex(2, 3):
        np.testing.assert_array_equal(
            m2[i, j], maxwellian_coefficients(rho[i, j], u[i, j], theta[0, j], 7))


@pytest.mark.parametrize("rho,theta,cell", [
    (math.nan, 1.0, 0), (1.0, math.nan, 0), (0.0, 1.0, 0), (1.0, -0.0, 0),
    ([1.0, 2.0, math.nan, -1.0], 1.0, 2), ([1.0, 2.0, 3.0], [1.0, 0.5, -1e-300], 2),
])
def test_check_rho_theta_fails_nan_and_names_the_first_index(rho, theta, cell):
    with pytest.raises(StateError, match=rf"^x rho or theta <= 0 in cell {cell}$") as err:
        check_rho_theta(np.asarray(rho), np.asarray(theta), "x rho or theta")
    assert err.value.cell == cell
    check_rho_theta(np.array([1.0, 5e-324]), np.array([2.0, 1.0]), "x")


def test_maxwellian_rejects_bad_state():
    with pytest.raises(StateError):
        maxwellian_coefficients(-1.0, 0.0, 1.0, 6)
    with pytest.raises(StateError):
        maxwellian_coefficients(1.0, 0.0, 0.0, 6)
    with pytest.raises(StateError, match=r"^Maxwellian rho or theta <= 0 in cell 0$"):
        maxwellian_coefficients(math.nan, 0.0, 1.0, 4)
    with pytest.raises(StateError, match=r"^Maxwellian rho or theta <= 0 in cell 1$"):
        maxwellian_coefficients(np.ones(3), 0.0, np.array([1.0, math.nan, 1.0]), 4)


# --- moment extraction -------------------------------------------------------


def test_moments_of_equilibrium():
    e = hme_expansion(np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0]))
    assert moments_of(e) == (1.0, 0.0, 1.0, 0.0)


def test_moments_of_fixed_basis_literal():
    e = hsm_expansion(np.array([2.0, 1.0, 0.0, 0.0, 0.0]))
    rho, rho_u, rho_theta, _ = moments_of(e)
    assert (rho, rho_u, rho_theta) == (2.0, 1.0, 1.5)


def test_primitives_from_constraint_inversion():
    rho, u, theta = hsm_primitives(np.array([2.0, 1.0, 0.0]))
    assert (rho, u, theta) == (2.0, 0.5, 0.75)


def test_heat_flux_constant_pinned():
    assert HEAT_FLUX_COEFF == 2.449489742783178
    assert HEAT_FLUX_COEFF == pytest.approx(math.sqrt(6.0), rel=1e-15)


def _q_by_quadrature(e):
    rule = gaussian_rule(e.params.u, e.params.theta, n=60)
    _, rho_u, _, _ = moments_of(e)
    rho = e.coeffs[0] if e.model == "hme" else float(e.coeffs[0])
    u = rho_u / rho
    f = e.evaluate(rule.nodes)
    omega = weight_function(e.params, rule.nodes)
    return float(rule.weights @ ((rule.nodes - u) ** 3 * f / omega))


def test_heat_flux_against_quadrature():
    e = hme_expansion(np.array([1.0, 1.0, 1.0, -0.2, 0.1, 0.0]))
    q = moments_of(e)[3]
    assert q == pytest.approx(_q_by_quadrature(e), rel=1e-12)
    assert q == pytest.approx(HEAT_FLUX_COEFF * (-0.2), rel=1e-15)


def test_fixed_basis_heat_flux_against_quadrature():
    e = hsm_expansion(np.array([1.0, 0.2, 0.1, 0.3, -0.05]))
    assert moments_of(e)[3] == pytest.approx(_q_by_quadrature(e), rel=1e-10)


def test_moment_consistency_ignores_high_slots():
    # moments depend only on the constrained slots; oracle confirms
    e = hme_expansion(np.array([1.2, 0.3, 0.9, -0.3, 0.2, 0.05]))
    rho, rho_u, rho_theta, _ = moments_of(e)
    assert (rho, rho_u, rho_theta) == (1.2, pytest.approx(1.2 * 0.3), pytest.approx(1.2 * 0.9))
    rule = gaussian_rule(e.params.u, e.params.theta, n=60)
    f = e.evaluate(rule.nodes)
    omega = weight_function(e.params, rule.nodes)
    for k, expect in ((0, rho), (1, rho_u), (2, rho_theta + rho_u ** 2 / rho)):
        val = float(rule.weights @ (rule.nodes ** k * f / omega))
        assert val == pytest.approx(expect, rel=1e-10)


# --- coefficient scalings ----------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    theta=st.floats(min_value=0.3, max_value=3.0),
    f3=st.floats(min_value=-1.0, max_value=1.0),
    f4=st.floats(min_value=-1.0, max_value=1.0),
)
def test_state_expansion_round_trip(theta, f3, f4):
    w = np.array([1.0, 0.2, theta, f3, f4, 0.5 * f3])
    back = hme_expansion_to_state(hme_state_to_expansion(w))
    np.testing.assert_allclose(back, w, rtol=1e-13, atol=1e-15)


def test_expansion_validation():
    with pytest.raises(DomainError):
        hme_expansion(np.array([1.0, 0.0, 1.0]))
    with pytest.raises(StateError):
        hme_expansion(np.array([-1.0, 0.0, 1.0, 0.0]))
    with pytest.raises(StateError):
        hme_expansion(np.array([1.0, 0.0, -1.0, 0.0]))
    with pytest.raises(DomainError):
        hsm_expansion(np.array([1.0, 0.0]))
    with pytest.raises(StateError):
        hsm_expansion(np.array([1.0, 0.0, -2.0, 0.0]))  # recovered theta < 0
    for coeffs in ([1.0, 0.0, math.nan, 0.1], [math.nan, 0.0, 1.0, 0.1]):
        with pytest.raises(StateError, match=r"^hme expansion rho or theta <= 0 in cell 0$"):
            hme_expansion(coeffs)
    with pytest.raises(StateError, match=r"^hsm expansion rho or theta <= 0 in cell 0$"):
        hsm_expansion([1.0, 0.0, math.nan, 0.1])


# --- weighted L2 distance ----------------------------------------------------


def test_distance_of_expansion_to_itself():
    e = hme_expansion(np.array([1.0, 0.1, 1.2, -0.2, 0.1, 0.0]))
    assert weighted_l2_distance(e, e, e.params) == 0.0


def test_distance_is_squared_coefficient_norm_in_shared_basis():
    a = hme_expansion(np.array([1.0, 0.1, 1.2, -0.2, 0.1, 0.0]))
    b = hme_expansion(np.array([1.0, 0.1, 1.2, -0.2, 0.1 + 3e-3, 0.0]))
    assert weighted_l2_distance(a, b, a.params) == pytest.approx(9e-6, rel=1e-10)


def test_distance_that_overflows_raises():
    a = hme_expansion(np.array([1.0, 0.0, 1.0, 1e200, 0.0, 0.0]))
    b = hme_expansion(np.array([1.0, 0.0, 1.0, -1e200, 0.0, 0.0]))
    # the quadratic forms overflow to inf; the check turns that into an error
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericError, match="weighted distance is not finite"):
        weighted_l2_distance(a, b, a.params)


def test_distance_against_direct_quadrature():
    fa = hme_expansion(np.array([1.0, 0.1, 1.0, -0.2, 0.1, -0.01]))
    fb = hme_expansion(np.array([1.1, 0.0, 0.9, 0.15, -0.05, 0.02]))
    pw = BasisParams(0.05, 1.1)
    val = weighted_l2_distance(fa, fb, pw)
    assert val == pytest.approx(0.1312326904809351, rel=1e-12)

    # importance sampling under N(0, 1.5); far nodes where the weight
    # underflows contribute exactly zero to the true integral
    rule = gaussian_rule(0.0, 1.5, n=150)
    omega_w = weight_function(pw, rule.nodes)
    pdf = weight_function(BasisParams(0.0, 1.5), rule.nodes)
    diff = fa.evaluate(rule.nodes) - fb.evaluate(rule.nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(omega_w > 0.0, diff * diff / omega_w / pdf, 0.0)
    assert val == pytest.approx(float(rule.weights @ integrand), rel=1e-12)


def test_distance_diverges_for_wide_expansions():
    a = hme_expansion(np.array([1.0, 0.0, 2.5, 0.1]))
    b = hme_expansion(np.array([1.0, 0.0, 2.5, 0.0]))
    with pytest.raises(NumericError):
        weighted_l2_distance(a, b, BasisParams(0.0, 1.0))


def test_distance_argument_validation():
    a = hme_expansion(np.array([1.0, 0.0, 1.0, 0.1]))
    b = hme_expansion(np.array([1.0, 0.0, 1.0, 0.1, 0.0]))
    with pytest.raises(DomainError):
        weighted_l2_distance(a, b, a.params)
    with pytest.raises(DomainError):
        weighted_l2_distance(a, a, BasisParams(0.0, -1.0))
    with pytest.raises(DomainError, match="weight temperature must be positive, got nan"):
        weighted_l2_distance(a, a, BasisParams(0.0, math.nan))
