"""Restriction and matching between micro and macro descriptions.

Matching reconstructs M micro coefficients from L macro moments by
minimizing the weighted L2 distance to the prior micro state. In the
orthonormal basis the normal-equation matrix is the identity, so the
minimizer is the plain projection of the prior onto the new basis: the
constrained slots come from the macro state and the free slots are the
transformed prior coefficients. The transform coefficients B_ij =
int phi*_i phi+_j (omega+)^-1 dc have a closed form from the Hermite
connection recurrence; the quadrature oracle pins them in the tests.
"""

import math

import numpy as np

from .basis import (
    BasisParams,
    HermiteExpansion,
    hme_expansion,
    hsm_expansion,
    hsm_primitives,
)
from .errors import ConfigError, DomainError

_SQRT2 = math.sqrt(2.0)


def _check_weight_ratio(theta_new, theta_prior):
    # int phi*_i phi+_j (omega+)^-1 dc needs the prior Gaussian to decay
    # faster than sqrt(omega+): theta* < 2 theta+.
    if np.any(np.asarray(theta_prior) >= 2.0 * np.asarray(theta_new)):
        raise DomainError(
            "matching outside the realizability bound theta_prior < 2*theta_new: "
            f"theta_prior={theta_prior}, theta_new={theta_new}"
        )


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


def pi_extrapolate(w_k, w_km1, dt_micro: float, dt_macro: float, k: int):
    """w_K + (dt_macro - K dt_micro)(w_K - w_{K-1})/dt_micro, elementwise."""
    if not dt_micro > 0.0 or dt_macro < k * dt_micro:
        raise ConfigError(
            f"need dt_macro >= K*dt_micro > 0, got dt_macro={dt_macro}, "
            f"K={k}, dt_micro={dt_micro}"
        )
    w_k = np.asarray(w_k, dtype=float)
    w_km1 = np.asarray(w_km1, dtype=float)
    return w_k + (dt_macro - k * dt_micro) * (w_k - w_km1) / dt_micro


def transform_state_slots(w_prior: np.ndarray, macro_new: np.ndarray,
                          first_free: int = 3) -> np.ndarray:
    """Batched matching in adaptive state variables.

    w_prior: (n, M) states (rho, u, theta, f_3, ...); macro_new: (n, 3) new
    primitive moments. Returns (n, M) matched states whose slots >= first_free
    carry the re-expanded prior and whose leading three carry macro_new.
    In state scaling the connection collapses to the convolution
    f+_b = sum_k h_k f*_{b-k} with h_0 = 1,
    m h_m = (u* - u+) h_{m-1} + (theta* - theta+) h_{m-2},
    which is the identity bitwise when the parameters coincide.
    """
    n, m = w_prior.shape
    _check_weight_ratio(macro_new[:, 2], w_prior[:, 2])
    du = w_prior[:, 1] - macro_new[:, 1]
    dth = w_prior[:, 2] - macro_new[:, 2]
    # moment-major (M, n): the convolution becomes one row shift per k
    h = np.zeros((m, n))
    h[0] = 1.0
    if m > 1:
        h[1] = du
    for k in range(2, m):
        h[k] = (du * h[k - 1] + dth * h[k - 2]) / k
    fbar = w_prior.T.copy()
    fbar[1:3] = 0.0
    lo = max(first_free, 3)
    acc = fbar[lo:].copy()  # the k = 0 term, h_0 = 1
    for k in range(1, m):
        s = max(lo, k)
        acc[s - lo:] += h[k] * fbar[s - k:m - k]
    out = np.zeros_like(w_prior)
    out[:, :3] = macro_new
    out[:, lo:] = acc.T
    return out


def match_hsm_states(f_prior: np.ndarray, macro_new: np.ndarray) -> np.ndarray:
    """Batched fixed-basis matching: constraint slots rebuilt, the rest carried over."""
    rho_n, u_n, theta_n = macro_new[:, 0], macro_new[:, 1], macro_new[:, 2]
    out = f_prior.copy()
    out[:, 0] = rho_n
    out[:, 1] = rho_n * u_n
    out[:, 2] = (rho_n * theta_n + rho_n * u_n * u_n - rho_n) / _SQRT2
    return out
