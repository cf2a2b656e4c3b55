"""Matching of micro states to new macro moments, and projective extrapolation.

Matching rebuilds M micro variables from L macro moments as the minimizer of
the weighted L2 distance to the prior micro state. In the orthonormal basis
that minimizer is the prior re-expanded in the new basis, with the
constrained slots taken from the macro state: transform_state_slots does it
for a batch of adaptive states and an L-wide macro state (3 <= L <= M), and
match_hsm_states is the fixed-basis form, a carry-over of the free
coefficients.

Batches are moment-major, the layout of the run's grid.MomentBuffer: row a
of a prior (M, n) or a macro state (L, n) holds variable a of every cell.
Each column is matched alone, and its bits do not depend on the batch it
sits in, so the runner passes only the columns [lo, hi) that the macro
advance can have moved, and shifts a DomainError's cell by lo.
Outside them the macro rows equal the prior's leading rows bit for bit,
and there the match is the identity but for the sign of a zero: with
u and theta unchanged, h = (1, +0, +0, ...), and a row b >= L summed from
+0 turns a prior -0.0 into +0.0. The runner gives those columns w[L:] +=
0.0, which is exactly that.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, DomainError

_SQRT2 = math.sqrt(2.0)


def _check_weight_ratio(theta_new, theta_prior):
    """DomainError(what, cell, detail) for the first cell outside the
    matching bound.

    int phi*_i phi+_j (omega+)^-1 dc needs the prior Gaussian to decay
    faster than sqrt(omega+): theta* < 2 theta+. NaN fails: a NaN
    comparison is not <.
    """
    if not (ok := theta_prior < 2.0 * theta_new).all():
        bad = int(np.argmin(ok))
        raise DomainError(
            "matching outside the realizability bound theta_prior < 2*theta_new", bad,
            f"theta_prior={theta_prior[bad]:g}, theta_new={theta_new[bad]:g}",
        )


def pi_extrapolate(w_k, w_km1, dt_micro: float, dt_macro: float, k: int):
    """w_K + (dt_macro - K dt_micro)(w_K - w_{K-1})/dt_micro, elementwise,
    so of any layout; the runner passes the leading (L, n) rows."""
    if not dt_micro > 0.0 or dt_macro < k * dt_micro:
        raise ConfigError(
            f"need dt_macro >= K*dt_micro > 0, got dt_macro={dt_macro}, "
            f"K={k}, dt_micro={dt_micro}"
        )
    w_k = np.asarray(w_k, dtype=float)
    w_km1 = np.asarray(w_km1, dtype=float)
    return w_k + (dt_macro - k * dt_micro) * (w_k - w_km1) / dt_micro


def transform_state_slots(w_prior: np.ndarray, macro_new: np.ndarray) -> np.ndarray:
    """Batched matching in adaptive state variables.

    w_prior: (M, n) states (rho, u, theta, f_3, ...) as rows; macro_new:
    (L, n) new leading variables, 3 <= L <= M. Returns (M, n) matched states
    whose rows below L carry macro_new and whose rows >= L carry the
    re-expanded prior. In state scaling the connection collapses to the
    convolution f+_b = sum_k h_k f*_{b-k} with h_0 = 1,
    m h_m = (u* - u+) h_{m-1} + (theta* - theta+) h_{m-2}.
    Each row b >= L is a dot product over k = 0..M-1, summed in k order
    from +0, with f*_{b-k} = 0 for k > b: one contraction over a zero-padded
    Toeplitz view of fbar. For finite h those zero terms leave the sum's
    bits as they are, so it equals the sum over k = 0..b. When the
    parameters coincide the match is the identity bitwise, except that a
    -0.0 in a row >= L comes out +0.0. A matching-bound DomainError names
    the column as its cell.
    """
    m, n = w_prior.shape
    l = macro_new.shape[0]
    _check_weight_ratio(macro_new[2], w_prior[2])
    du = w_prior[1] - macro_new[1]
    dth = w_prior[2] - macro_new[2]
    # a row stride of two or more elements keeps einsum off its contiguous
    # reduction kernel, which would sum a one-column batch in another order
    width = max(n, 2)
    h = np.empty((m, width))[:, :n]
    h[0], h[1] = 1.0, du
    term = np.empty(n)
    for k in range(2, m):
        np.multiply(du, h[k - 1], out=h[k])
        h[k] += np.multiply(dth, h[k - 2], out=term)
        h[k] /= k
    # r[j] = fbar_{M-1-j}, then M - 1 zero rows: the Toeplitz view
    # t[s, :, k] = r[s + k] holds fbar_{b-k} at k for b = M - 1 - s
    r = np.zeros((2 * m - 1, width))[:, :n]
    r[:m] = w_prior[::-1]
    r[m - 3:m - 1] = 0.0  # fbar_1 = fbar_2 = 0
    # sliding_window_view(r, m, axis=0)[:m - l] is the same view, but its
    # argument checks add 7-20 us per call (2-core Xeon, numpy 2.4.6): 4-7 %
    # of an mmhme or cpi run at M = 10, 2 % at M = 40
    rows, cols = r.strides
    t = as_strided(r, (m - l, n, m), (rows, cols, rows), writeable=False)
    out = np.empty((m, n))
    out[:l] = macro_new
    np.einsum("snk,kn->sn", t, h, out=out[:l - 1:-1])
    return out


def match_hsm_states(f_prior: np.ndarray, macro_new: np.ndarray) -> np.ndarray:
    """Batched fixed-basis matching of rows f_prior (M, n) to the macro
    state (3, n): the constraint rows 0-2 rebuilt, the rest carried over.
    Rows >= 3 are never read, so f_prior = the first three rows gives the
    three rows that change."""
    rho_n, u_n, theta_n = macro_new[0], macro_new[1], macro_new[2]
    out = f_prior.copy()
    out[0] = rho_n
    out[1] = rho_n * u_n
    out[2] = (rho_n * theta_n + rho_n * u_n * u_n - rho_n) / _SQRT2
    return out
