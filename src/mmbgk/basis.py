"""Weighted Hermite basis functions and moment extraction.

The distribution function is expanded as f(c) = sum_a fhat_a phi_a(c) with

    phi_a(c) = N(c; u, theta) * He_a((c - u)/sqrt(theta)) / sqrt(a!),

where N is the Gaussian density and He_a the probabilists' Hermite
polynomial. The normalization is fixed by two requirements: phi_0 carries
unit mass (so fhat_0 = rho), and the basis is orthonormal in the weighted
inner product int phi_i phi_j omega^-1 dc = delta_ij with omega = N(u, theta).

Two coefficient scalings appear in the package. The adaptive-basis PDE state
vectors w = (rho, u, theta, f_3, ..., f_{M-1}) keep the classical moment
scaling that the flux matrix in :mod:`mmbgk.models` is written in (heat flux
q = 6 f_3). This module's :class:`HermiteExpansion` uses the orthonormal
coefficients fhat_a = sqrt(a!) theta^(-a/2) f_a instead, which turn weighted
L2 distances into plain coefficient norms. Conversions live here.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import DomainError, NumericError, StateError
from .quadrature import DEFAULT_ORDER, gaussian_rule

# Heat flux of an adaptive-basis expansion: q = HEAT_FLUX_COEFF * theta^(3/2) * fhat_3.
HEAT_FLUX_COEFF = math.sqrt(6.0)

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class BasisParams:
    """Mean velocity and temperature the basis is built around."""

    u: float
    theta: float


def weight_function(params: BasisParams, c):
    """Gaussian weight omega(c) = N(c; u, theta) of the basis."""
    u, theta = params.u, params.theta
    if not theta > 0.0:
        raise DomainError(f"basis temperature must be positive, got {theta}")
    xi = (np.asarray(c, dtype=float) - u) / math.sqrt(theta)
    return np.exp(-0.5 * xi * xi) / math.sqrt(2.0 * math.pi * theta)


def hermite_he_values(x, n: int) -> np.ndarray:
    """He_0(x) .. He_{n-1}(x) by the three-term recurrence, shape (n,) + x.shape."""
    x = np.asarray(x, dtype=float)
    out = np.empty((n,) + x.shape)
    out[0] = 1.0
    if n > 1:
        out[1] = x
    for k in range(1, n - 1):
        out[k + 1] = x * out[k] - k * out[k - 1]
    return out


def _inv_sqrt_factorials(n: int) -> np.ndarray:
    return np.array([1.0 / math.sqrt(math.factorial(a)) for a in range(n)])


def eval_basis(params: BasisParams, c, n: int) -> np.ndarray:
    """All basis functions phi_0..phi_{n-1} at velocities c, shape (n,) + c.shape."""
    c = np.asarray(c, dtype=float)
    omega = weight_function(params, c)
    he = hermite_he_values((c - params.u) / math.sqrt(params.theta), n)
    scale = _inv_sqrt_factorials(n)
    return he * omega * scale.reshape((n,) + (1,) * c.ndim)


@dataclass(frozen=True)
class HermiteExpansion:
    """A length-M Hermite expansion of a distribution function.

    model='hme': coeffs = (rho, u, theta, fhat_3, ..., fhat_{M-1}) with the
    basis adapted to (u, theta) and the consistency constraints fhat_0 = rho,
    fhat_1 = fhat_2 = 0 implied.

    model='hsm': coeffs are the raw coefficients (fhat_0, ..., fhat_{M-1}) in
    the fixed basis with params (0, 1).
    """

    params: BasisParams
    coeffs: np.ndarray
    model: str

    @property
    def n_moments(self) -> int:
        return len(self.coeffs)

    def coefficient_vector(self) -> np.ndarray:
        """Orthonormal coefficients (fhat_0, ..., fhat_{M-1}) of f."""
        if self.model == "hme":
            vec = np.zeros_like(self.coeffs)
            vec[0] = self.coeffs[0]
            vec[3:] = self.coeffs[3:]
            return vec
        return self.coeffs.copy()

    def evaluate(self, c):
        """Reconstruct f(c) = sum_a fhat_a phi_a(c)."""
        phi = eval_basis(self.params, c, self.n_moments)
        return np.tensordot(self.coefficient_vector(), phi, axes=(0, 0))


def hme_expansion(coeffs) -> HermiteExpansion:
    """Build an adaptive-basis expansion from (rho, u, theta, fhat_3, ...)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if len(coeffs) < 4:
        raise DomainError("adaptive expansion needs at least 4 entries")
    check_rho_theta(coeffs[0], coeffs[2], "hme expansion rho or theta")
    return HermiteExpansion(BasisParams(float(coeffs[1]), float(coeffs[2])), coeffs.copy(), "hme")


def hsm_expansion(coeffs) -> HermiteExpansion:
    """Build a fixed-basis expansion from raw coefficients (fhat_0, ...)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if len(coeffs) < 3:
        raise DomainError("fixed-basis expansion needs at least 3 entries")
    rho, _, theta = hsm_primitives(coeffs)
    check_rho_theta(rho, theta, "hsm expansion rho or theta")
    return HermiteExpansion(BasisParams(0.0, 1.0), coeffs.copy(), "hsm")


def hsm_primitives(coeffs):
    """(rho, u, theta) recovered from fixed-basis coefficients.

    Inverts fhat_0 = rho, fhat_1 = rho u, fhat_2 = (rho theta + rho u^2 - rho)/sqrt(2).
    """
    f0, f1, f2 = coeffs[..., 0], coeffs[..., 1], coeffs[..., 2]
    u = f1 / f0
    theta = 1.0 + _SQRT2 * f2 / f0 - u * u
    return f0, u, theta


def moments_of(e: HermiteExpansion):
    """First three moments and the heat flux: (rho, rho*u, rho*theta, q)."""
    if e.model == "hme":
        rho, u, theta = e.coeffs[0], e.coeffs[1], e.coeffs[2]
        q = HEAT_FLUX_COEFF * theta ** 1.5 * e.coeffs[3]
    else:
        rho, u, theta = hsm_primitives(e.coeffs)
        q = hsm_heat_flux(e.coeffs)
    return float(rho), float(rho * u), float(rho * theta), float(q)


def hsm_heat_flux(f):
    """Heat flux of fixed-basis coefficients from the raw moments int c^k f dc, k <= 3."""
    rho, u, theta = hsm_primitives(f)
    m1 = f[..., 1]
    m2 = _SQRT2 * f[..., 2] + f[..., 0]
    m3 = 3.0 * f[..., 1]
    if f.shape[-1] > 3:
        m3 = m3 + HEAT_FLUX_COEFF * f[..., 3]
    return m3 - 3.0 * u * m2 + 3.0 * u * u * m1 - u ** 3 * rho


def check_rho_theta(rho, theta, what: str):
    """The package's one admissibility test: StateError(what + " <= 0", i),
    which reads "{what} <= 0 in cell {i}", for the first flat index i where
    rho > 0 and theta > 0 fails. NaN fails: a NaN minimum is not > 0."""
    if not (ok := np.minimum(rho, theta) > 0.0).all():
        raise StateError(f"{what} <= 0", int(np.argmin(ok)))


def maxwellian_coefficients(rho, u, theta, n_moments: int) -> np.ndarray:
    """Fixed-basis coefficients of the Maxwellian with moments (rho, u, theta).

    Three-term recurrence in (u, theta - 1):
        m_{a+1} = (u m_a + sqrt(a) (theta - 1) m_{a-1}) / sqrt(a + 1),
    seeded with m_0 = rho. Arguments of the common shape s give shape
    s + (M,): (M,) for scalars, (k, M) for arrays of shape (k,). The
    recurrence runs on contiguous moment rows (M,) + s, and the result is a
    transposed view of them, so ``.T`` of a (k, M) result is its (M, k)
    rows. Validated against quadrature projection in the tests.
    """
    rho, u, theta = np.broadcast_arrays(
        np.asarray(rho, dtype=float), np.asarray(u, dtype=float), np.asarray(theta, dtype=float)
    )
    check_rho_theta(rho, theta, "Maxwellian rho or theta")
    shape = rho.shape
    # flat rows keep every row an array, 0-d inputs included
    rho, u, theta = rho.ravel(), u.ravel(), theta.ravel()
    m = np.empty((n_moments, rho.size))
    m[0] = rho
    if n_moments > 1:
        np.multiply(u, rho, out=m[1])
    tm1 = theta - 1.0
    term = np.empty_like(tm1)  # sqrt(a) (theta - 1) m_{a-1}, one row reused
    for a in range(1, n_moments - 1):
        row = m[a + 1]
        np.multiply(u, m[a], out=row)
        np.multiply(math.sqrt(a), tm1, out=term)
        term *= m[a - 1]
        row += term
        row /= math.sqrt(a + 1)
    return m.reshape((n_moments,) + shape).transpose(*range(1, len(shape) + 1), 0)


def hme_state_to_expansion(w: np.ndarray) -> HermiteExpansion:
    """Adaptive-model PDE state (rho,u,theta,f_3,..) -> orthonormal expansion,
    fhat_a = sqrt(a!) theta^(-a/2) f_a for a >= 3."""
    w = np.asarray(w, dtype=float)
    alphas = np.arange(3, len(w))
    coeffs = w.copy()
    fac = np.array([math.sqrt(math.factorial(a)) for a in alphas])
    coeffs[3:] = w[3:] * fac * w[2] ** (-0.5 * alphas)
    return hme_expansion(coeffs)


def hme_expansion_to_state(e: HermiteExpansion) -> np.ndarray:
    """Inverse of :func:`hme_state_to_expansion`."""
    w = e.coeffs.copy()
    alphas = np.arange(3, len(w))
    w[3:] = e.coeffs[3:] * _inv_sqrt_factorials(len(w))[3:] * e.params.theta ** (0.5 * alphas)
    return w


def _gram(p1: BasisParams, p2: BasisParams, weight: BasisParams, n_moments: int, order: int):
    """G_ij = int phi^{p1}_i phi^{p2}_j / omega_weight dc via quadrature.

    Uses N(u1,t1) N(u2,t2) / N(uw,tw) = pre * N(ue,te); the remaining
    integrand is polynomial, so Gauss-Hermite under N(ue,te) is exact.
    """
    t1, t2, tw = p1.theta, p2.theta, weight.theta
    u1, u2, uw = p1.u, p2.u, weight.u
    inv_te = 1.0 / t1 + 1.0 / t2 - 1.0 / tw
    if inv_te <= 0.0:
        raise NumericError(
            "weighted inner product diverges: basis temperatures "
            f"({t1}, {t2}) too large for weight temperature {tw}"
        )
    te = 1.0 / inv_te
    ue = te * (u1 / t1 + u2 / t2 - uw / tw)
    expo = -0.5 * (u1 * u1 / t1 + u2 * u2 / t2 - uw * uw / tw - ue * ue / te)
    pre = math.sqrt(tw * te / (t1 * t2)) * math.exp(expo)
    rule = gaussian_rule(ue, te, order)
    scale = _inv_sqrt_factorials(n_moments)
    h1 = hermite_he_values((rule.nodes - u1) / math.sqrt(t1), n_moments) * scale[:, None]
    h2 = hermite_he_values((rule.nodes - u2) / math.sqrt(t2), n_moments) * scale[:, None]
    return pre * ((h1 * rule.weights) @ h2.T)


def weighted_l2_distance(a: HermiteExpansion, b: HermiteExpansion, weight: BasisParams,
                         order: int = DEFAULT_ORDER) -> float:
    """int (a - b)^2 omega_weight^-1 dc, the squared weighted L2 distance.

    Evaluated by quadrature. When both expansions share the weight's basis
    this reduces to the plain squared norm of the coefficient difference.
    Raises NumericError when the weight ratio makes the integral diverge.
    """
    if a.n_moments != b.n_moments:
        raise DomainError("expansions must have the same length")
    if not weight.theta > 0.0:
        raise DomainError(f"weight temperature must be positive, got {weight.theta}")
    fa = a.coefficient_vector()
    fb = b.coefficient_vector()
    n = a.n_moments
    gaa = _gram(a.params, a.params, weight, n, order)
    gab = _gram(a.params, b.params, weight, n, order)
    gbb = _gram(b.params, b.params, weight, n, order)
    val = float(fa @ gaa @ fa - 2.0 * (fa @ gab @ fb) + fb @ gbb @ fb)
    if not math.isfinite(val):
        raise NumericError("weighted distance is not finite")
    return val
