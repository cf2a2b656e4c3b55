"""Linearised spectrum of one pace step of every scheme, read off run().

Usage: python3 tools/step_spectrum.py

Imports mmbgk from the src/ directory of the checkout this script lives in.
For each scheme, eps in {1e-3, 1e-4, 1e-5} and order 1 and 2 it forms the
finite-difference Jacobian (step h = 1e-7 in each unknown) of one pace step
of run() (dt_macro for the macro schemes and euler, dt_micro for micro and
micro-split) about the level state (rho, u, theta) = (1, 0.3, 1). The grid
is 30 cells on [-1, 1]; the model is HME with M = 6 (HSM with M = 6 for
mmhsm, the Euler system for euler); K = 2 and dt_macro = 5e-4, every other
setting SimConfig's default. The level state is a fixed point of every
step, so one run gives the base. Prints one line per case: the spectral
radius, the number of eigenvalues with |lambda| > 0.9 and the largest
|lambda| of the rest (nan if none is left).
"""

from dataclasses import replace
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from mmbgk.grid import Field, Grid1D  # noqa: E402
from mmbgk.schemes import SCHEMES, SimConfig, _Runner, run, scheme_model  # noqa: E402

H = 1e-7
SLOW = 0.9


def step_jacobian(cfg: SimConfig) -> np.ndarray:
    """Finite-difference Jacobian of one pace step about the level state."""
    grid = Grid1D(-1.0, 1.0, 30)
    w0 = scheme_model(cfg).equilibrium(np.ones(grid.n_cells), 0.3, 1.0)
    cfg = replace(cfg, t_end=_Runner(Field(grid, w0), cfg).pace)
    base = run(Field(grid, w0), cfg)[-1].data.ravel()
    jac = np.empty((base.size, base.size))
    for j in range(base.size):
        w = w0.copy()
        w.flat[j] += H
        jac[:, j] = (run(Field(grid, w), cfg)[-1].data.ravel() - base) / H
    return jac


def main():
    print(f"{'scheme':<12} {'eps':>6} {'order':>5} {'radius':>10} {'> 0.9':>6} {'rest':>10}")
    for scheme in SCHEMES:
        for eps in (1e-3, 1e-4, 1e-5):
            for order in (1, 2):
                cfg = SimConfig(scheme=scheme, n_moments=6, eps=eps, dt_macro=5e-4,
                                micro_steps=2, order=order)
                mags = np.abs(np.linalg.eigvals(step_jacobian(cfg)))
                rest = mags[mags <= SLOW]
                print(f"{scheme:<12} {eps:>6g} {order:>5} {mags.max():>10.4f} "
                      f"{int((mags > SLOW).sum()):>6} {rest.max() if rest.size else np.nan:>10.4f}")


if __name__ == "__main__":
    main()
