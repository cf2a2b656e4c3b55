"""Gauss-Hermite quadrature rules.

These rules are the ground truth for every velocity-space integral in the
package: analytic formulas elsewhere (orthonormality constants, Maxwellian
coefficients, basis-change matrices) are validated against them in the tests.
"""

from dataclasses import dataclass
import math

import numpy as np
from numpy.polynomial import hermite_e as _herme

from .errors import ConfigError

# Order used by default everywhere; exact for polynomials up to degree 119,
# far beyond the degree 2M-2 <= 18 needed for M <= 10 moment bases.
DEFAULT_ORDER = 60


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a fixed quadrature rule.

    ``integrate(fn)`` evaluates sum_k w_k fn(c_k); what that approximates
    depends on which constructor built the rule (see below).
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def integrate(self, fn):
        return float(self.weights @ fn(self.nodes))


def gauss_hermite_e(n: int = DEFAULT_ORDER) -> QuadratureRule:
    """Rule for the weight exp(-c^2/2), exact to degree 2n-1; weights sum to sqrt(2 pi)."""
    if n < 1:
        raise ConfigError(f"quadrature order must be >= 1, got {n}")
    x, w = _herme.hermegauss(n)
    return QuadratureRule(nodes=x, weights=w, order=n)


def gaussian_rule(u: float, theta: float, n: int = DEFAULT_ORDER) -> QuadratureRule:
    """Rule computing expectations under the Gaussian N(u, theta): the
    affine image u + sqrt(theta) c of the gauss_hermite_e(n) rule.

    sum w_k f(c_k) ~ int f(c) N(c; u, theta) dc, weights summing to one.
    Since int g(c) dc = E[g/N], this rule also integrates any g that
    contains the Gaussian factor, exactly when g/N is a polynomial of
    degree <= 2n-1.
    """
    if not theta > 0.0:
        raise ConfigError(f"gaussian_rule needs theta > 0, got {theta}")
    base = gauss_hermite_e(n)
    return QuadratureRule(nodes=u + math.sqrt(theta) * base.nodes,
                          weights=base.weights / math.sqrt(2.0 * math.pi), order=n)
