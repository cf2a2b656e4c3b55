"""Quasi-linear moment systems: dt w + A(w) dx w = S(w)/eps.

Three models share this interface. The adaptive (HME) model carries
w = (rho, u, theta, f_3, ..., f_{M-1}) and a state-dependent flux matrix;
the fixed-basis (HSM) model carries raw Hermite coefficients and a constant
symmetric tridiagonal matrix. The Euler model is the adaptive one's leading
(rho, u, theta) block, with no free slots and so no collision; the two bind
the same restriction, equilibrium and relax_moments.

Each model defines three rules once. Transport is flux_operator: built once
from a batch of moment-major states (M, n), it returns v -> A(w) v in
O(n M) without forming A; the adaptive and Euler ones apply one einsum over
a coefficient array of the dense columns. Collision is relax_moments: it
decays the free moments by decay_factor in place on moment-major rows; the
fixed-basis one blends towards a local Maxwellian built as rows.
Restriction is primitives: the (rho, u, theta) of the moments on the last
axis of w, so it reads a cell-major (n, M) batch and the rows of a
moment-major buffer (passed as wt.T) alike; the adaptive and Euler ones
return views of slots 0-2. Each class body binds the derived rest:
validate (a finite scan, then check_rho_theta on primitives) and
primitive_moments (primitives stacked as (n, 3)); system_matrices reads
A(w) off flux_operator for spectra, and relax / relax_exact apply
relax_moments to a copy. The dense builders are the test oracle, in
tests/oracles.py.
"""

from functools import lru_cache
import math

import numpy as np

from .basis import check_rho_theta, hsm_heat_flux, hsm_primitives, maxwellian_coefficients
from .errors import ConfigError, DomainError, StateError
from .quadrature import gauss_hermite_e


@lru_cache(maxsize=None)
def largest_hermite_root(n: int) -> float:
    """Largest root of the probabilists' Hermite polynomial He_n."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return float(gauss_hermite_e(n).nodes[-1])


def _equilibrium_args(rho, u, theta):
    """(rho, u, theta) as float arrays of one common shape (n,)."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    u = np.broadcast_to(np.asarray(u, dtype=float), rho.shape)
    return rho, u, np.broadcast_to(np.asarray(theta, dtype=float), rho.shape)


def decay_factor(dt, eps, exact):
    """Collision decay over dt: 1 - dt/eps (forward Euler) or exp(-dt/eps)."""
    return math.exp(-dt / eps) if exact else 1.0 - dt / eps


def _relaxed(model, w, eps, dt, exact):
    """model.relax_moments over dt on a copy of the cell-major states w."""
    if not eps > 0.0:
        raise ConfigError(f"eps must be positive (inf allowed), got {eps}")
    out = w.copy()
    model.relax_moments(out.T, eps, decay_factor(dt, eps, exact))
    return out


def _relax(self, w, eps, dt):
    """Forward-Euler collision update of the cell-major states w over dt."""
    return _relaxed(self, w, eps, dt, False)


def _relax_exact(self, w, eps, dt):
    """Exact integration of the relaxation of the states w over dt."""
    return _relaxed(self, w, eps, dt, True)


def _system_matrices(self, w):
    """Dense A(w) read off flux_operator, one unit vector per column; for
    spectra. Accepts shape (M,) or (n, M), returns (M, M) or (n, M, M)."""
    w = np.asarray(w, dtype=float)
    wt = np.atleast_2d(w).T
    m, n = wt.shape
    apply = self.flux_operator(wt)
    a = np.empty((n, m, m))
    for j in range(m):
        e = np.zeros((m, n))
        e[j] = 1.0
        a[:, :, j] = apply(e).T
    return a[0] if w.ndim == 1 else a


def _euler_columns(c, rho, u, theta):
    """Fill the Euler block of a coefficient array c, c[k, b] the coefficient
    of v_k in row b of A v, for k, b < 3, its two zeros included."""
    c[2, 0] = c[0, 2] = 0.0
    c[0, 0] = c[1, 1] = c[2, 2] = u
    c[1, 0] = rho
    c[0, 1] = theta / rho
    c[2, 1] = 1.0
    c[1, 2] = 2.0 * theta


def _validate(self, w):
    """StateError(what, cell) for the first cell of the states w that is
    non-finite, else the first whose primitives fail check_rho_theta."""
    w = np.atleast_2d(w)
    if not np.isfinite(w).all():
        raise StateError("non-finite state", int(np.argmin(np.isfinite(w).all(axis=1))))
    rho, _, theta = self.primitives(w)
    check_rho_theta(rho, theta, self._checked)


def _primitive_moments(self, w):
    """(rho, u, theta) per cell, shape (n, 3)."""
    return np.stack(self.primitives(np.atleast_2d(np.asarray(w, dtype=float))), axis=1)


def _leading_slots(self, w):
    """(rho, u, theta) of the states w: views of slots 0-2 of the last axis."""
    return w[..., 0], w[..., 1], w[..., 2]


def _equilibrium(self, rho, u, theta):
    rho, u, theta = _equilibrium_args(rho, u, theta)
    w = np.zeros((len(rho), self.n_vars))
    w[:, 0], w[:, 1], w[:, 2] = rho, u, theta
    return w


def _relax_moments(self, wt, eps, factor):
    """Scale the free slots f_3.. of moment-major states wt (M, n) in place
    by the decay factor of the relaxation step; Euler has none."""
    if not math.isinf(eps):
        wt[3:] *= factor


class HMEModel:
    """Adaptive-basis moment model with M >= 4 variables."""

    kind = "hme"

    def __init__(self, n_moments: int):
        if n_moments < 4:
            raise ConfigError(f"hme needs M >= 4, got {n_moments}")
        self.n_vars = n_moments
        # per-row constants of the flux operator, rows b = 3..M-1
        b = np.arange(3.0, n_moments)[:, None]
        self._upper = b[:-1] + 1.0
        self._c2_scale = 0.5 * b - 0.5

    system_matrices, relax, relax_exact = _system_matrices, _relax, _relax_exact
    validate, primitive_moments = _validate, _primitive_moments
    primitives, equilibrium, relax_moments = _leading_slots, _equilibrium, _relax_moments
    _checked = "rho or theta"

    def flux_operator(self, wt):
        """v -> A(w) v for moment-major states wt of shape (M, n), matrix-free.

        Columns 0-3 of every row live in one (4, M, n) array c, c[k, b] the
        coefficient of v_k in row b: the Euler rows with the heat-flux column
        6/rho on row 2, the four dense columns of each row b >= 3, and the u
        on row 3 and theta on row 4 that fall in column 3. A product is one
        einsum over k, which adds the terms in column order, plus the band on
        columns >= 4: b + 1 above the diagonal, u on it and theta below it.
        The coefficients are built once here and shared by every product;
        apply(v, first) takes v on the batch's columns first, first + 1, ...
        alone (first = 0 and v as wide as the batch by default), so one
        build serves blocks of columns that each product reads apart.
        """
        wt = np.asarray(wt, dtype=float)
        m = self.n_vars
        rho, u, theta = wt[0], wt[1], wt[2]
        check_rho_theta(rho, theta, "hme rho or theta")
        fbar = wt.copy()
        fbar[1:3] = 0.0
        six_rho = 6.0 / rho
        # every entry is written below; these three stay zero
        c = np.empty((4, m, wt.shape[1]))
        c[3, 0] = c[3, 1] = c[1, m - 1] = 0.0
        _euler_columns(c, rho, u, theta)
        c[3, 2] = six_rho
        # rows b = 3..M-1; the last row drops column 1 and takes -f_{M-2} in
        # column 2 (hyperbolicity regularization)
        np.multiply(fbar[2:m - 1], -c[0, 1], out=c[0, 3:])
        np.multiply(self._upper, fbar[3:m - 1], out=c[1, 3:m - 1])
        c2 = np.multiply(self._c2_scale, fbar[2:m - 1], out=c[2, 3:])
        c2 += (0.5 * theta) * fbar[:m - 3]
        c2[-1] = -fbar[m - 2] + theta * fbar[m - 4] / 2.0
        c3 = np.multiply(fbar[1:m - 2], -0.5 * six_rho, out=c[3, 3:])
        c3[0] += u
        c3[1:2] += theta  # row 4, absent at M = 4
        upper, n = self._upper, wt.shape[1]

        def apply(v, first=0):
            cv, uv, tv = c, u, theta
            if v.shape[1] != n:  # a block of the batch: its own columns alone
                cols = slice(first, first + v.shape[1])
                cv, uv, tv = c[:, :, cols], u[cols], theta[cols]
            out = np.einsum("kmn,kn->mn", cv, v[:4])
            out[3:-1] += upper * v[4:]
            out[4:] += uv * v[4:]
            out[5:] += tv * v[4:-1]
            return out

        return apply

    def wave_speeds(self, w):
        """Per-cell bound |u| + sqrt(theta) r_M with r_M the largest He_M root."""
        w = np.atleast_2d(np.asarray(w, dtype=float))
        return np.abs(w[:, 1]) + np.sqrt(w[:, 2]) * largest_hermite_root(self.n_vars)

    def heat_flux(self, w):
        w = np.atleast_2d(np.asarray(w, dtype=float))
        return 6.0 * w[:, 3]


class HSMModel:
    """Fixed-basis spectral model; linear transport, nonlinear source."""

    kind = "hsm"

    def __init__(self, n_moments: int):
        if n_moments < 3:
            raise ConfigError(f"hsm needs M >= 3, got {n_moments}")
        self.n_vars = n_moments
        self._off = np.sqrt(np.arange(1.0, n_moments))[:, None]

    system_matrices, relax, relax_exact = _system_matrices, _relax, _relax_exact
    validate, primitive_moments = _validate, _primitive_moments
    primitives = staticmethod(hsm_primitives)
    _checked = "recovered rho or theta"

    def flux_operator(self, wt):
        """State-independent: the same tridiagonal product for every batch
        and every block of its columns."""
        return self._tridiagonal

    def _tridiagonal(self, v, first=0):
        """A v for moment-major v, whatever its columns; A has off-diagonals
        sqrt(1..M-1)."""
        out = np.empty_like(v, dtype=float)
        np.multiply(self._off, v[1:], out=out[:-1])
        out[-1] = 0.0
        out[1:] += self._off * v[:-1]
        return out

    def wave_speeds(self, w):
        w = np.atleast_2d(np.asarray(w, dtype=float))
        return np.full(w.shape[0], largest_hermite_root(self.n_vars))

    def relax_moments(self, ft, eps, factor):
        """Scale the distance of moment-major states ft (M, n), or of one
        state (M,), to their local Maxwellian by the decay factor, in place.

        The Maxwellian comes as rows (its maxwellian_coefficients view
        transposed) and the blend m + (f - m) factor runs on ft itself; IEEE
        addition commutes, so the in-place order gives the same bits.
        """
        if math.isinf(eps):
            return
        rho, u, theta = self.primitives(ft.T)
        m = maxwellian_coefficients(rho, u, theta, self.n_vars).T
        ft -= m
        ft *= factor
        ft += m

    def heat_flux(self, f):
        """Third central moment from the raw coefficients."""
        return hsm_heat_flux(np.atleast_2d(np.asarray(f, dtype=float)))

    def equilibrium(self, rho, u, theta):
        rho, u, theta = _equilibrium_args(rho, u, theta)
        return maxwellian_coefficients(rho, u, theta, self.n_vars)


class EulerModel:
    """Macroscopic limit model on (rho, u, theta); no collision term."""

    kind = "euler"
    n_vars = 3

    system_matrices, relax, relax_exact = _system_matrices, _relax, _relax_exact
    validate, primitive_moments = _validate, _primitive_moments
    primitives, equilibrium, relax_moments = _leading_slots, _equilibrium, _relax_moments
    _checked = "rho or theta"

    def flux_operator(self, wt):
        """v -> A(w) v for moment-major (3, n) states and vectors: one einsum
        over a (3, 3, n) coefficient array, c[k, b] the coefficient of v_k in
        row b; v may cover the batch's columns first, first + 1, ... alone,
        as for the adaptive model."""
        wt = np.asarray(wt, dtype=float)
        check_rho_theta(wt[0], wt[2], "euler rho or theta")
        c = np.empty((3, 3, wt.shape[1]))
        _euler_columns(c, wt[0], wt[1], wt[2])
        n = wt.shape[1]

        def apply(v, first=0):
            cv = c if v.shape[1] == n else c[:, :, first:first + v.shape[1]]
            return np.einsum("kmn,kn->mn", cv, v)

        return apply

    def wave_speeds(self, w):
        w = np.atleast_2d(np.asarray(w, dtype=float))
        return np.abs(w[:, 1]) + np.sqrt(3.0 * w[:, 2])

    def heat_flux(self, w):
        return np.zeros(np.atleast_2d(w).shape[0])


def make_model(kind: str, n_moments: int = 0):
    """Factory keyed by 'hme' | 'hsm' | 'euler'."""
    if kind == "hme":
        return HMEModel(n_moments)
    if kind == "hsm":
        return HSMModel(n_moments)
    if kind == "euler":
        return EulerModel()
    raise ConfigError(f"unknown model kind {kind!r}")
