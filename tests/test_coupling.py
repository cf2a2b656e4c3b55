"""Batched matching and projective extrapolation, and the one-state
matching oracles they are checked against."""

import math

import numpy as np
import pytest

from mmbgk.basis import (
    BasisParams,
    hermite_he_values,
    hme_expansion,
    hme_expansion_to_state,
    hme_state_to_expansion,
    hsm_expansion,
    weighted_l2_distance,
)
from mmbgk.coupling import match_hsm_states, pi_extrapolate, transform_state_slots
from mmbgk.errors import ConfigError, DomainError
from mmbgk.quadrature import gaussian_rule
from oracles import basis_transform, connection_coefficients, match_l2, restrict

SQRT2 = math.sqrt(2.0)

BIMODAL = np.array([1.0, 1.0, 1.0, -0.2, 0.1, -0.01, 0.001, -0.0005])


def _b_by_quadrature(u_new, t_new, u_prior, t_prior, n):
    """B_ij = int phi^prior_i phi^new_j / omega_new dc, reduced by the
    Gaussian cancellation to an expectation under the prior Gaussian."""
    rule = gaussian_rule(u_prior, t_prior, n=40)
    scale = np.array([1.0 / math.sqrt(math.factorial(a)) for a in range(n)])
    hp = hermite_he_values((rule.nodes - u_prior) / math.sqrt(t_prior), n) * scale[:, None]
    hn = hermite_he_values((rule.nodes - u_new) / math.sqrt(t_new), n) * scale[:, None]
    return (hp * rule.weights) @ hn.T


def test_identity_at_equal_params():
    b = connection_coefficients(0.3, 1.4, 0.3, 1.4, 8)
    np.testing.assert_array_equal(b, np.eye(8))


def test_connection_matches_quadrature_literal_quadruple():
    b = connection_coefficients(0.1, 1.0, 0.0, 0.9, 6)
    np.testing.assert_allclose(b, _b_by_quadrature(0.1, 1.0, 0.0, 0.9, 6), atol=1e-10)


def test_connection_is_upper_triangular():
    rng = np.random.default_rng(11)
    for _ in range(10):
        u_n, u_p = rng.uniform(-1, 1, size=2)
        t_n = rng.uniform(0.5, 2.0)
        t_p = rng.uniform(0.5, 2.0 * t_n * 0.99)
        b = connection_coefficients(u_n, t_n, u_p, t_p, 9)
        np.testing.assert_array_equal(np.tril(b, -1), 0.0)


def test_weight_ratio_domain_bound():
    # prior temperature must stay below twice the new one, boundary included
    with pytest.raises(DomainError):
        connection_coefficients(0.0, 1.0, 0.0, 2.0, 6)
    with pytest.raises(DomainError):
        connection_coefficients(0.0, 1.0, 0.0, 2.5, 6)
    with pytest.raises(DomainError):
        connection_coefficients(0.0, 1.0, 0.0, -1.0, 6)
    connection_coefficients(0.0, 1.0, 0.0, 1.99, 6)  # inside the bound


def test_operator_limit_is_identity():
    # geometric shrink of the parameter distance: deviation decreases
    # monotonically and lands below 1e-8
    u0, t0 = 0.3, 1.2
    devs = []
    for k in range(10):
        d = 1e-3 * 0.2 ** k
        b = connection_coefficients(u0 + d, t0 + d, u0, t0, 10)
        devs.append(np.max(np.sum(np.abs(b - np.eye(10)), axis=1)))
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 1e-8


def test_restrict_adaptive():
    e = hme_expansion(np.array([1.0, 0.5, 1.0, -0.2, 0.05]))
    np.testing.assert_array_equal(restrict(e, 3), [1.0, 0.5, 1.0])
    np.testing.assert_array_equal(restrict(e, 5), e.coeffs)
    np.testing.assert_array_equal(restrict(e, 4), e.coeffs[:4])


def test_restrict_fixed_basis():
    e = hsm_expansion(np.array([2.0, 1.0, 0.0, 0.3]))
    np.testing.assert_array_equal(restrict(e, 3), [2.0, 0.5, 0.75])
    # above three variables the cut-off keeps raw coefficients
    np.testing.assert_array_equal(restrict(e, 4), e.coeffs)


def test_restrict_range_validation():
    e = hme_expansion(np.array([1.0, 0.0, 1.0, 0.1]))
    with pytest.raises(ConfigError):
        restrict(e, 2)
    with pytest.raises(ConfigError):
        restrict(e, 5)


def test_match_identity_when_macro_unchanged():
    prior = hme_expansion(np.array([1.0, 0.4, 1.3, -0.1, 0.06, 0.02]))
    out = match_l2(prior, restrict(prior, 3))
    np.testing.assert_array_equal(out.coeffs, prior.coeffs)
    fixed = hsm_expansion(np.array([1.0, 0.2, 0.1, 0.5, -0.1]))
    out = match_l2(fixed, restrict(fixed, 3))
    np.testing.assert_allclose(out.coeffs, fixed.coeffs, rtol=1e-14)


def test_match_fixed_basis_carry_over():
    prior = hsm_expansion(np.array([1.0, 0.0, 0.0, 0.5, -0.1]))
    out = match_l2(prior, (1.1, 0.2, 1.05))
    rho, u, theta = 1.1, 0.2, 1.05
    assert out.coeffs[0] == rho
    assert out.coeffs[1] == rho * u
    assert out.coeffs[2] == (rho * theta + rho * u * u - rho) / SQRT2
    # free coefficients carried over bitwise
    assert out.coeffs[3] == 0.5
    assert out.coeffs[4] == -0.1


def test_match_restores_macro_moments():
    prior = hme_state_to_expansion(BIMODAL)
    target = (1.2, 1.2, 1.2)
    out = match_l2(prior, target)
    np.testing.assert_array_equal(restrict(out, 3), target)
    fixed = hsm_expansion(np.array([1.0, 0.1, 0.2, 0.5, -0.1]))
    np.testing.assert_allclose(restrict(match_l2(fixed, target), 3), target, rtol=1e-14)


def test_match_is_the_weighted_l2_minimizer():
    prior = hme_state_to_expansion(BIMODAL)
    matched = match_l2(prior, (1.2, 1.2, 1.2))
    d0 = weighted_l2_distance(matched, prior, matched.params)
    assert d0 > 0.0  # residual incompatibility of the constrained slots
    rng = np.random.default_rng(23)
    for _ in range(20):
        eta = rng.standard_normal(len(matched.coeffs) - 3)
        eta *= 1e-3 / np.linalg.norm(eta)
        coeffs = matched.coeffs.copy()
        coeffs[3:] += eta
        perturbed = hme_expansion(coeffs)
        assert weighted_l2_distance(perturbed, prior, matched.params) >= d0 - 1e-12


def test_basis_transform_identity():
    prior = hme_expansion(np.array([1.0, 0.2, 1.1, -0.1, 0.05, 0.01]))
    np.testing.assert_array_equal(basis_transform(prior, prior.params),
                                  prior.coefficient_vector())


def test_basis_transform_agrees_with_match():
    prior = hme_state_to_expansion(BIMODAL)
    matched = match_l2(prior, (1.2, 1.1, 1.15))
    transformed = basis_transform(prior, matched.params)
    np.testing.assert_array_equal(matched.coeffs[3:], transformed[3:])


def test_basis_transform_preserves_pointwise_values():
    # small basis shift: the re-expanded series reproduces the function.
    # The transform truncates an infinite tail, so the agreement is
    # truncation-limited; decaying coefficients keep the tail subdominant.
    from mmbgk.basis import eval_basis

    coeffs = np.array([1.0, 0.3, 1.2] + [1e-3 * (-0.2) ** k for k in range(1, 8)])
    prior = hme_expansion(coeffs)
    to = BasisParams(prior.params.u + 0.05, prior.params.theta + 0.05)
    vec = basis_transform(prior, to)
    c = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    rebuilt = np.tensordot(vec, eval_basis(to, c, len(vec)), axes=(0, 0))
    np.testing.assert_allclose(rebuilt, prior.evaluate(c), atol=1e-8)


def test_extrapolation_values():
    assert pi_extrapolate(1.2, 1.0, 0.1, 1.0, 2) == pytest.approx(2.8, rel=1e-15)
    np.testing.assert_array_equal(pi_extrapolate([1.2, 3.0], [1.2, 3.0], 0.1, 1.0, 2),
                                  [1.2, 3.0])  # steady state
    np.testing.assert_array_equal(pi_extrapolate(1.2, 1.0, 0.1, 0.2, 2), 1.2)


def test_extrapolation_validation():
    with pytest.raises(ConfigError):
        pi_extrapolate(1.0, 1.0, 0.1, 0.1, 2)  # dt_macro < K dt_micro
    with pytest.raises(ConfigError):
        pi_extrapolate(1.0, 1.0, 0.0, 1.0, 2)


def test_batched_matching_equals_expansion_path():
    rng = np.random.default_rng(31)
    w_prior = np.zeros((6, 8))
    w_prior[:, 0] = rng.uniform(0.5, 2.0, size=6)
    w_prior[:, 1] = rng.uniform(-0.5, 0.5, size=6)
    w_prior[:, 2] = rng.uniform(0.8, 1.5, size=6)
    w_prior[:, 3:] = 0.1 * rng.standard_normal((6, 5))
    macro = w_prior[:, :3] * rng.uniform(0.95, 1.05, size=(6, 3))
    out = transform_state_slots(w_prior.T, macro.T).T
    for i in range(6):
        prior = hme_state_to_expansion(w_prior[i])
        matched = match_l2(prior, macro[i])
        np.testing.assert_allclose(out[i], hme_expansion_to_state(matched),
                                   rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("m,l", [(4, 3), (10, 3), (10, 6), (40, 3)])
def test_batched_matching_equals_slot_convolution_bitwise(m, l):
    # slot-by-slot form of f+_b = sum_k h_k fbar_{b-k}, summed in k order
    rng = np.random.default_rng(43 + m)
    n = 7
    w = np.zeros((n, m))
    w[:, 0] = rng.uniform(0.5, 2.0, size=n)
    w[:, 1] = rng.uniform(-0.5, 0.5, size=n)
    w[:, 2] = rng.uniform(0.8, 1.5, size=n)
    w[:, 3:] = 0.1 * rng.standard_normal((n, m - 3))
    macro = w[:, :l] * rng.uniform(0.9, 1.1, size=(n, l))
    du, dth = w[:, 1] - macro[:, 1], w[:, 2] - macro[:, 2]
    h = [np.ones(n), du]
    for k in range(2, m):
        h.append((du * h[k - 1] + dth * h[k - 2]) / k)
    fbar = w.copy()
    fbar[:, 1:3] = 0.0
    ref = np.zeros_like(w)
    ref[:, :l] = macro
    for b in range(l, m):
        acc = fbar[:, b].copy()
        for k in range(1, b + 1):
            acc += h[k] * fbar[:, b - k]
        ref[:, b] = acc
    np.testing.assert_array_equal(transform_state_slots(w.T, macro.T).T, ref)


def test_batched_matching_identity():
    rng = np.random.default_rng(37)
    w = np.zeros((4, 6))
    w[:, 0], w[:, 2] = 1.0, 1.0
    w[:, 1] = rng.uniform(-0.5, 0.5, size=4)
    w[:, 3:] = 0.05 * rng.standard_normal((4, 3))
    np.testing.assert_array_equal(transform_state_slots(w.T, w[:, :3].T.copy()).T, w)


def test_batched_matching_identity_turns_negative_zeros_positive():
    # with u and theta unchanged the match is the identity, except that a
    # row b >= L is summed from +0, so a prior -0.0 there comes out +0.0;
    # rows below L carry the macro state, -0.0 included
    w = np.tile([1.0, -0.0, 1.0, -0.0, 0.25, -0.0, -1e-300], (3, 1))
    w[1, 4] = -0.0
    for l in (3, 5):
        out = transform_state_slots(w.T, w[:, :l].T.copy()).T
        want = w.copy()
        want[:, l:] += 0.0  # -0.0 + 0.0 = +0.0, any other x + 0.0 = x
        np.testing.assert_array_equal(out.view(np.int64), want.view(np.int64))
        assert np.signbit(out[:, :l][w[:, :l] == 0.0]).all()
        assert not np.signbit(out[:, l:][w[:, l:] == 0.0]).any()


@pytest.mark.parametrize("m,l", [(4, 3), (10, 3), (10, 6), (40, 3), (40, 39), (6, 6)])
def test_batched_matching_column_bits_do_not_depend_on_the_batch(m, l):
    # the runner matches a window of columns; each column, alone, in a
    # window at any offset or in the whole batch, must get the same bits
    rng = np.random.default_rng(11 + m + l)
    n = 24
    w = np.zeros((m, n))
    w[0] = rng.uniform(0.5, 2.0, size=n)
    w[1] = rng.uniform(-0.5, 0.5, size=n)
    w[2] = rng.uniform(0.8, 1.5, size=n)
    w[3:] = 0.1 * rng.standard_normal((m - 3, n))
    macro = w[:l] * rng.uniform(0.9, 1.1, size=(l, n))
    full = transform_state_slots(w, macro).view(np.int64)
    for lo in range(n):
        for hi in (lo, lo + 1, lo + 2, min(lo + 7, n)):
            part = transform_state_slots(w[:, lo:hi], macro[:, lo:hi])
            np.testing.assert_array_equal(part.view(np.int64), full[:, lo:hi])


def test_batched_matching_domain_bound_carries_its_cell():
    # the error keeps the column as its cell; the runner, matching a window
    # that starts at grid cell 40, shifts it to name the grid cell
    w = np.tile([1.0, 0.0, 1.0, 0.1, 0.0, 0.0], (6, 1))
    macro = w[:, :3].copy()
    w[3, 2] = 3.0
    with pytest.raises(DomainError) as info:
        transform_state_slots(w.T, macro.T)
    assert info.value.cell == 3
    shifted = info.value.shifted(40)
    assert type(shifted) is DomainError and shifted.cell == 43
    assert str(shifted) == ("matching outside the realizability bound "
                            "theta_prior < 2*theta_new in cell 43: theta_prior=3, theta_new=1")


def test_batched_matching_domain_bound():
    w = np.array([[1.0, 0.0, 1.0, 0.1, 0.0, 0.0]])
    with pytest.raises(DomainError):
        transform_state_slots(w.T, np.array([[1.0, 0.0, 0.5]]).T)  # theta_prior = 2*theta_new


def test_batched_matching_domain_bound_names_first_cell():
    w = np.tile([1.0, 0.0, 1.0, 0.1, 0.0, 0.0], (6, 1))
    w[:, 2] = [1.0, 1.0, 1.0, 3.0, 1.0, 2.5]
    macro = np.tile([1.0, 0.0, 1.25], (6, 1))  # cells 3 and 5 reach 2*theta_new
    with pytest.raises(DomainError, match=r"in cell 3: theta_prior=3, theta_new=1\.25$"):
        transform_state_slots(w.T, macro.T)


@pytest.mark.parametrize("row,msg", [("macro", "theta_prior=1, theta_new=nan"),
                                     ("prior", "theta_prior=nan, theta_new=1")])
def test_batched_matching_domain_bound_fails_nan(row, msg):
    # a NaN theta on either side is outside the bound: NaN < x is false
    w = np.tile([1.0, 0.0, 1.0, 0.1, 0.05], (4, 1))  # adaptive, M = 5
    macro = w[:, :3].copy()
    (macro if row == "macro" else w)[2, 2] = math.nan
    with pytest.raises(DomainError, match=rf"in cell 2: {msg}$"):
        transform_state_slots(w.T, macro.T)


def test_batched_fixed_basis_matching():
    f_prior = np.array([[1.0, 0.0, 0.0, 0.5, -0.1], [1.2, 0.1, 0.05, 0.2, 0.3]])
    macro = np.array([[1.1, 0.2, 1.05], [1.0, 0.0, 1.0]])
    out = match_hsm_states(f_prior.T, macro.T).T
    for i in range(2):
        viaexp = match_l2(hsm_expansion(f_prior[i]), macro[i])
        np.testing.assert_array_equal(out[i], viaexp.coeffs)
