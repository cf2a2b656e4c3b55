"""Reference implementations the tests compare the library against.

The run path matches states with the batched mmbgk.coupling operators; the
functions here do the same one state at a time on HermiteExpansion objects,
through the explicit basis connection matrix. The transform coefficients
B_ij = int phi*_i phi+_j (omega+)^-1 dc have a closed form from the Hermite
connection recurrence; the quadrature oracle pins them in the tests.
"""

import math

import numpy as np

from mmbgk.basis import (
    BasisParams,
    HermiteExpansion,
    hme_expansion,
    hsm_expansion,
    hsm_primitives,
)
from mmbgk.coupling import _check_weight_ratio, match_hsm_states
from mmbgk.errors import ConfigError, DomainError
from mmbgk.grid import Field


def connection_coefficients(u_new, theta_new, u_prior, theta_prior, n_moments: int) -> np.ndarray:
    """B_ij = int phi^prior_i phi^new_j (omega_new)^-1 dc, upper triangular.

    Generating-function closed form: with a = (u* - u+)/sqrt(theta+),
    b = sqrt(theta*/theta+), c2 = (theta*/theta+ - 1)/2 and the sequence
    g_0 = 1, m g_m = a g_{m-1} + 2 c2 g_{m-2},

        B_ij = sqrt(j!/i!) * b^i * g_{j-i}   for j >= i, else 0.
    """
    if theta_new <= 0.0 or theta_prior <= 0.0:
        raise DomainError("basis temperatures must be positive")
    _check_weight_ratio(theta_new, theta_prior)
    a = (u_prior - u_new) / math.sqrt(theta_new)
    b = math.sqrt(theta_prior / theta_new)
    c2 = 0.5 * (theta_prior / theta_new - 1.0)
    g = np.zeros(n_moments)
    g[0] = 1.0
    if n_moments > 1:
        g[1] = a
    for m in range(2, n_moments):
        g[m] = (a * g[m - 1] + 2.0 * c2 * g[m - 2]) / m
    sq = np.array([math.sqrt(math.factorial(k)) for k in range(n_moments)])
    mat = np.zeros((n_moments, n_moments))
    for i in range(n_moments):
        js = np.arange(i, n_moments)
        mat[i, i:] = (sq[i:] / sq[i]) * b ** i * g[js - i]
    return mat


def restrict(micro: HermiteExpansion, n_macro: int) -> np.ndarray:
    """First n_macro variables of the micro state.

    Adaptive model: leading slots of (rho, u, theta, fhat_3, ...), so
    n_macro = 3 yields the primitive moments. Fixed basis: the inverted
    constraints (rho, u, theta) for n_macro = 3, raw coefficient cut-off
    otherwise.
    """
    if not 3 <= n_macro <= micro.n_moments:
        raise ConfigError(f"macro size must lie in [3, {micro.n_moments}], got {n_macro}")
    if micro.model == "hme" or n_macro > 3:
        return micro.coeffs[:n_macro].copy()
    rho, u, theta = hsm_primitives(micro.coeffs)
    return np.array([rho, u, theta])


def match_l2(prior: HermiteExpansion, macro_new) -> HermiteExpansion:
    """Micro state consistent with macro_new = (rho+, u+, theta+), closest to prior."""
    rho_n, u_n, theta_n = (float(v) for v in macro_new)
    if prior.model == "hsm":
        macro = np.array([[rho_n, u_n, theta_n]])
        return hsm_expansion(match_hsm_states(prior.coeffs[None, :], macro)[0])
    # orthonormal bases make the normal-equation matrix the identity, so
    # the minimizer is the prior re-expanded in the new basis
    ftilde = basis_transform(prior, BasisParams(u_n, theta_n))
    coeffs = np.concatenate([[rho_n, u_n, theta_n], ftilde[3:]])
    return hme_expansion(coeffs)


def basis_transform(prior: HermiteExpansion, to: BasisParams) -> np.ndarray:
    """Coefficients of the prior re-expanded in the basis with params `to`."""
    b = connection_coefficients(to.u, to.theta, prior.params.u, prior.params.theta,
                                prior.n_moments)
    return b.T @ prior.coefficient_vector()


def total_mass(f: Field) -> float:
    """dx * sum of rho; slot 0 is the density in all three models."""
    return f.grid.dx * float(np.sum(f.data[:, 0]))
