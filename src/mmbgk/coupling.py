"""Matching of micro states to new macro moments, and projective extrapolation.

Matching rebuilds M micro variables from L macro moments as the minimizer of
the weighted L2 distance to the prior micro state. In the orthonormal basis
that minimizer is the prior re-expanded in the new basis, with the
constrained slots taken from the macro state: transform_state_slots does it
for a batch of adaptive states, and match_hsm_states is the fixed-basis form,
a carry-over of the free coefficients.
"""

import math

import numpy as np

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
