"""Reference implementations the tests compare the library against.

The run path matches states with the batched mmbgk.coupling operators; the
functions here do the same one state at a time on HermiteExpansion objects,
through the explicit basis connection matrix. The transform coefficients
B_ij = int phi*_i phi+_j (omega+)^-1 dc have a closed form from the Hermite
connection recurrence; the quadrature oracle pins them in the tests.

The run path applies each model's flux matrix A(w) matrix-free, and the
library's system_matrices reads A(w) off that operator. dense_flux_matrices
writes A(w) out entry by entry, independently, as the reference for both.
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
from mmbgk.coupling import match_hsm_states
from mmbgk.errors import ConfigError, DomainError, StateError
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
    if theta_prior >= 2.0 * theta_new:
        raise DomainError("matching outside the realizability bound theta_prior < 2*theta_new")
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
        macro = np.array([[rho_n], [u_n], [theta_n]])
        return hsm_expansion(match_hsm_states(prior.coeffs[:, None], macro)[:, 0])
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


def dense_flux_matrices(model, w):
    """Dense flux matrices A(w) of model ('hme', 'hsm' or 'euler').

    Accepts shape (M,) or (n, M), returns (M, M) or (n, M, M). An adaptive
    or Euler state with rho or theta <= 0 raises the StateError the
    matrix-free operator raises. The adaptive last row carries the
    hyperbolicity regularization: the (M-1, 1) entry is dropped and the
    (M-1, 2) entry uses -f_{M-2} in place of (M-1) f_{M-2} / 2. Entries on
    the constrained columns accumulate, so the sub-diagonal theta only
    appears where the column index is an unconstrained slot (>= 3).
    """
    w = np.asarray(w, dtype=float)
    squeeze = w.ndim == 1
    w = np.atleast_2d(w)
    n, m = w.shape
    a = np.zeros((n, m, m))
    if model.kind == "hsm":
        # constant symmetric tridiagonal, off-diagonals sqrt(1..M-1)
        off = np.sqrt(np.arange(1.0, m))
        a[:] = np.diag(off, 1) + np.diag(off, -1)
        return a[0] if squeeze else a
    rho, u, theta = w[:, 0], w[:, 1], w[:, 2]
    if (np.fmin(rho, theta) <= 0.0).any():
        raise StateError(f"{model.kind} state needs rho > 0 and theta > 0")
    a[:, 0, 0] = u
    a[:, 0, 1] = rho
    a[:, 1, 0] = theta / rho
    a[:, 1, 1] = u
    a[:, 1, 2] = 1.0
    a[:, 2, 1] = 2.0 * theta
    a[:, 2, 2] = u
    if model.kind == "hme":
        # fbar folds the consistency constraints into the recurrence pattern
        fbar = np.zeros_like(w)
        fbar[:, 0] = rho
        fbar[:, 3:] = w[:, 3:]
        a[:, 2, 3] = 6.0 / rho
        for b in range(3, m):
            a[:, b, 0] += -theta * fbar[:, b - 1] / rho
            if b < m - 1:
                a[:, b, 1] += (b + 1) * fbar[:, b]
                a[:, b, 2] += ((b - 1) * fbar[:, b - 1] + theta * fbar[:, b - 3]) / 2.0
                a[:, b, b + 1] += b + 1
            else:
                a[:, b, 2] += -fbar[:, b - 1] + theta * fbar[:, b - 3] / 2.0
            a[:, b, 3] += -3.0 * fbar[:, b - 2] / rho
            if b - 1 >= 3:
                a[:, b, b - 1] += theta
            a[:, b, b] += u
    return a[0] if squeeze else a
