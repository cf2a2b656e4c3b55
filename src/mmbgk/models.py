"""Quasi-linear moment systems: dt w + A(w) dx w = S(w)/eps.

Three models share this interface. The adaptive (HME) model carries
w = (rho, u, theta, f_3, ..., f_{M-1}) and a state-dependent flux matrix;
the fixed-basis (HSM) model carries raw Hermite coefficients and a constant
symmetric tridiagonal matrix; the Euler model carries (rho, u, theta) in
primitive form with no collision source.

Transport uses each model's flux_operator: built once from a batch of
moment-major states (M, n), it returns v -> A(w) v for moment-major v in
O(n M) without forming A. The dense system_matrices builders are kept as
the test oracle for those products and for spectra.
"""

from functools import lru_cache
import math

import numpy as np
from numpy.polynomial import hermite_e

from .basis import hsm_heat_flux, hsm_primitives, maxwellian_coefficients
from .errors import ConfigError, DomainError, StateError


@lru_cache(maxsize=None)
def largest_hermite_root(n: int) -> float:
    """Largest root of the probabilists' Hermite polynomial He_n."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return float(hermite_e.hermegauss(n)[0][-1])


def _check_rho_theta(rho, theta, kind):
    # fmin skips a NaN operand: true exactly where rho <= 0 or theta <= 0
    if (np.fmin(rho, theta) <= 0.0).any():
        raise StateError(f"{kind} state needs rho > 0 and theta > 0")


def _check_state(w, rho, theta, what="rho or theta"):
    """StateError naming the first cell that is non-finite or has rho or theta <= 0."""
    if not np.isfinite(w).all():
        bad = int(np.argwhere(~np.isfinite(w).all(axis=1))[0, 0])
        raise StateError(f"non-finite state in cell {bad}")
    if (np.fmin(rho, theta) <= 0.0).any():
        bad = int(np.argwhere((rho <= 0.0) | (theta <= 0.0))[0, 0])
        raise StateError(f"{what} <= 0 in cell {bad}")


def _equilibrium_args(rho, u, theta):
    """(rho, u, theta) as float arrays of one common shape (n,)."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    u = np.broadcast_to(np.asarray(u, dtype=float), rho.shape)
    return rho, u, np.broadcast_to(np.asarray(theta, dtype=float), rho.shape)


def _relaxed(model, w, eps, factor):
    """model.relax_moments on a copy of the cell-major states w."""
    out = w.copy()
    model.relax_moments(out.T, eps, factor)
    return out


def _euler_rows(out, v, rho, u, theta_rho, two_theta):
    """Rows 0-2 of A v shared by the Euler and adaptive systems (row 2 without
    the heat-flux column)."""
    v0, v1, v2 = v[0], v[1], v[2]
    out[0] = u * v0 + rho * v1
    out[1] = theta_rho * v0 + u * v1 + v2
    out[2] = two_theta * v1 + u * v2


def hsm_flux_operator(m: int):
    """v -> A v for the constant tridiagonal fixed-basis matrix, moment-major v."""
    if m < 2:
        raise DomainError(f"need M >= 2, got {m}")
    off = np.sqrt(np.arange(1.0, m))[:, None]

    def apply(v):
        out = np.empty_like(v, dtype=float)
        np.multiply(off, v[1:], out=out[:-1])
        out[-1] = 0.0
        out[1:] += off * v[:-1]
        return out

    return apply


class HMEModel:
    """Adaptive-basis moment model with M >= 4 variables."""

    kind = "hme"

    def __init__(self, n_moments: int):
        if n_moments < 4:
            raise ConfigError(f"hme needs M >= 4, got {n_moments}")
        self.n_moments = n_moments
        self.n_vars = n_moments
        # per-row constants of the flux operator, rows b = 3..M-1
        b = np.arange(3.0, n_moments)[:, None]
        self._upper = b[:-1] + 1.0
        self._c2_scale = 0.5 * b - 0.5

    def system_matrices(self, w):
        """Dense flux matrices A(w), the test oracle of flux_operator.

        Accepts shape (M,) or (n, M), returns (M, M) or (n, M, M). The last row
        carries the hyperbolicity regularization: the (M-1, 1) entry is dropped
        and the (M-1, 2) entry uses -f_{M-2} in place of (M-1) f_{M-2} / 2.
        Entries on the constrained columns accumulate, so the sub-diagonal theta
        only appears where the column index is an unconstrained slot (>= 3).
        """
        w = np.asarray(w, dtype=float)
        squeeze = w.ndim == 1
        w = np.atleast_2d(w)
        n, m = w.shape
        rho, u, theta = w[:, 0], w[:, 1], w[:, 2]
        _check_rho_theta(rho, theta, "hme")
        # fbar folds the consistency constraints into the recurrence pattern
        fbar = np.zeros_like(w)
        fbar[:, 0] = rho
        fbar[:, 3:] = w[:, 3:]
        a = np.zeros((n, m, m))
        a[:, 0, 0] = u
        a[:, 0, 1] = rho
        a[:, 1, 0] = theta / rho
        a[:, 1, 1] = u
        a[:, 1, 2] = 1.0
        a[:, 2, 1] = 2.0 * theta
        a[:, 2, 2] = u
        a[:, 2, 3] = 6.0 / rho
        for b in range(3, m - 1):
            a[:, b, 0] += -theta * fbar[:, b - 1] / rho
            a[:, b, 1] += (b + 1) * fbar[:, b]
            a[:, b, 2] += ((b - 1) * fbar[:, b - 1] + theta * fbar[:, b - 3]) / 2.0
            a[:, b, 3] += -3.0 * fbar[:, b - 2] / rho
            if b - 1 >= 3:
                a[:, b, b - 1] += theta
            a[:, b, b] += u
            a[:, b, b + 1] += b + 1
        b = m - 1
        a[:, b, 0] += -theta * fbar[:, b - 1] / rho
        a[:, b, 2] += -fbar[:, b - 1] + theta * fbar[:, b - 3] / 2.0
        a[:, b, 3] += -3.0 * fbar[:, b - 2] / rho
        if b - 1 >= 3:
            a[:, b, b - 1] += theta
        a[:, b, b] += u
        return a[0] if squeeze else a

    def flux_operator(self, wt):
        """v -> A(w) v for moment-major states wt of shape (M, n), matrix-free.

        Rows 0-2 are the Euler rows plus the heat-flux column 6/rho on row 2.
        Each row b >= 3 has the four dense columns 0-3 and a band: theta below
        the diagonal (from column 4 on), u on it and b + 1 above it. The
        coefficients are built once here and shared by every product.
        """
        wt = np.asarray(wt, dtype=float)
        m = self.n_vars
        rho, u, theta = wt[0], wt[1], wt[2]
        _check_rho_theta(rho, theta, "hme")
        fbar = wt.copy()
        fbar[1:3] = 0.0
        theta_rho, two_theta, six_rho = theta / rho, 2.0 * theta, 6.0 / rho
        upper = self._upper
        # columns 0-3 of rows b = 3..M-1; the last row drops column 1 and
        # takes -f_{M-2} in column 2 (hyperbolicity regularization)
        c0 = fbar[2:m - 1] * -theta_rho
        c1 = upper * fbar[3:m - 1]
        c2 = self._c2_scale * fbar[2:m - 1]
        c2 += (0.5 * theta) * fbar[:m - 3]
        c2[-1] = -fbar[m - 2] + theta * fbar[m - 4] / 2.0
        c3 = fbar[1:m - 2] * (-0.5 * six_rho)

        def apply(v):
            out = np.empty_like(v, dtype=float)
            _euler_rows(out, v, rho, u, theta_rho, two_theta)
            out[2] += six_rho * v[3]
            tail = out[3:]
            np.multiply(u, v[3:], out=tail)
            tail += c0 * v[0]
            tail[:-1] += c1 * v[1]
            tail += c2 * v[2]
            tail += c3 * v[3]
            out[4:] += theta * v[3:-1]
            tail[:-1] += upper * v[4:]
            return out

        return apply

    def wave_speeds(self, w):
        """Per-cell bound |u| + sqrt(theta) r_M with r_M the largest He_M root."""
        w = np.atleast_2d(np.asarray(w, dtype=float))
        r = largest_hermite_root(self.n_moments)
        return np.abs(w[:, 1]) + np.sqrt(w[:, 2]) * r

    def relax(self, w, eps, dt):
        """Forward-Euler collision update; multiplicative on the free slots."""
        return _relaxed(self, w, eps, 1.0 - dt / eps)

    def relax_exact(self, w, eps, dt):
        """Exact integration of the relaxation over dt."""
        return _relaxed(self, w, eps, math.exp(-dt / eps))

    def relax_moments(self, wt, eps, factor):
        """Scale the free slots of moment-major states wt (M, n) in place by
        the decay factor of the relaxation step."""
        if not math.isinf(eps):
            wt[3:] *= factor

    def primitive_moments(self, w):
        """(rho, u, theta) per cell, shape (n, 3)."""
        w = np.atleast_2d(np.asarray(w, dtype=float))
        return w[:, :3].copy()

    def heat_flux(self, w):
        w = np.atleast_2d(np.asarray(w, dtype=float))
        return 6.0 * w[:, 3]

    def equilibrium(self, rho, u, theta):
        rho, u, theta = _equilibrium_args(rho, u, theta)
        w = np.zeros((len(rho), self.n_vars))
        w[:, 0], w[:, 1], w[:, 2] = rho, u, theta
        return w

    def validate(self, w):
        w = np.atleast_2d(w)
        _check_state(w, w[:, 0], w[:, 2])


class HSMModel:
    """Fixed-basis spectral model; linear transport, nonlinear source."""

    kind = "hsm"

    def __init__(self, n_moments: int):
        if n_moments < 3:
            raise ConfigError(f"hsm needs M >= 3, got {n_moments}")
        self.n_moments = n_moments
        self.n_vars = n_moments
        # the constant symmetric tridiagonal flux matrix, off-diagonals sqrt(1..M-1)
        off = np.sqrt(np.arange(1.0, n_moments))
        self._matrix = np.diag(off, 1) + np.diag(off, -1)
        self._apply = hsm_flux_operator(n_moments)

    def system_matrices(self, w):
        w = np.asarray(w, dtype=float)
        if w.ndim == 1:
            return self._matrix.copy()
        return np.broadcast_to(self._matrix, (w.shape[0],) + self._matrix.shape)

    def flux_operator(self, wt):
        """State-independent: the same tridiagonal product for every batch."""
        return self._apply

    def wave_speeds(self, w):
        w = np.atleast_2d(np.asarray(w, dtype=float))
        return np.full(w.shape[0], largest_hermite_root(self.n_moments))

    def relax(self, f, eps, dt):
        return _relaxed(self, f, eps, 1.0 - dt / eps)

    def relax_exact(self, f, eps, dt):
        return _relaxed(self, f, eps, math.exp(-dt / eps))

    def relax_moments(self, ft, eps, factor):
        """Scale the distance of moment-major states ft (M, n) to their local
        Maxwellian by the decay factor, in place."""
        if math.isinf(eps):
            return
        f = ft.T
        rho, u, theta = hsm_primitives(f)
        m = maxwellian_coefficients(rho, u, theta, self.n_vars)
        f[...] = m + (f - m) * factor

    def primitive_moments(self, f):
        f = np.atleast_2d(np.asarray(f, dtype=float))
        rho, u, theta = hsm_primitives(f)
        return np.stack([rho, u, theta], axis=1)

    def heat_flux(self, f):
        """Third central moment from the raw coefficients."""
        return hsm_heat_flux(np.atleast_2d(np.asarray(f, dtype=float)))

    def equilibrium(self, rho, u, theta):
        rho, u, theta = _equilibrium_args(rho, u, theta)
        return maxwellian_coefficients(rho, u, theta, self.n_vars)

    def validate(self, f):
        f = np.atleast_2d(f)
        rho, _, theta = hsm_primitives(f)
        _check_state(f, rho, theta, "recovered rho or theta")


class EulerModel:
    """Macroscopic limit model on (rho, u, theta); no collision term."""

    kind = "euler"
    n_vars = 3
    n_moments = 3

    def system_matrices(self, w):
        w = np.asarray(w, dtype=float)
        squeeze = w.ndim == 1
        w = np.atleast_2d(w)
        rho, u, theta = w[:, 0], w[:, 1], w[:, 2]
        _check_rho_theta(rho, theta, "euler")
        a = np.zeros((w.shape[0], 3, 3))
        a[:, 0, 0] = u
        a[:, 0, 1] = rho
        a[:, 1, 0] = theta / rho
        a[:, 1, 1] = u
        a[:, 1, 2] = 1.0
        a[:, 2, 1] = 2.0 * theta
        a[:, 2, 2] = u
        return a[0] if squeeze else a

    def flux_operator(self, wt):
        """v -> A(w) v for moment-major (3, n) states and vectors."""
        wt = np.asarray(wt, dtype=float)
        rho, u, theta = wt[0], wt[1], wt[2]
        _check_rho_theta(rho, theta, "euler")
        theta_rho, two_theta = theta / rho, 2.0 * theta

        def apply(v):
            out = np.empty_like(v, dtype=float)
            _euler_rows(out, v, rho, u, theta_rho, two_theta)
            return out

        return apply

    def wave_speeds(self, w):
        w = np.atleast_2d(np.asarray(w, dtype=float))
        return np.abs(w[:, 1]) + np.sqrt(3.0 * w[:, 2])

    def relax(self, w, eps, dt):
        return w.copy()

    def relax_exact(self, w, eps, dt):
        return w.copy()

    def primitive_moments(self, w):
        return np.atleast_2d(np.asarray(w, dtype=float)).copy()

    def heat_flux(self, w):
        w = np.atleast_2d(np.asarray(w, dtype=float))
        return np.zeros(w.shape[0])

    def equilibrium(self, rho, u, theta):
        return np.stack(_equilibrium_args(rho, u, theta), axis=1)

    def validate(self, w):
        w = np.atleast_2d(w)
        _check_state(w, w[:, 0], w[:, 2])


def make_model(kind: str, n_moments: int = 0):
    """Factory keyed by 'hme' | 'hsm' | 'euler'."""
    if kind == "hme":
        return HMEModel(n_moments)
    if kind == "hsm":
        return HSMModel(n_moments)
    if kind == "euler":
        return EulerModel()
    raise ConfigError(f"unknown model kind {kind!r}")
