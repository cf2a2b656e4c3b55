"""Uniform 1D finite-volume grid and the centred transport update.

The transport step solves dt w + A(w) dx w = 0 with a path-conservative
centred scheme. Each interface fluctuation uses the straight-line segment
path with A evaluated at the arithmetic mean state; the jump is split into
left- and right-going parts whose difference carries the averaged
Lax-Friedrichs / Lax-Wendroff dissipation (FORCE average):

    D^+- = 1/2 (A_hat Delta +- Q Delta),
    Q Delta = 1/2 ((dx/dt) Delta + (dt/dx) A_hat (A_hat Delta)).

Order 2 adds minmod-limited linear reconstruction and the in-cell
non-conservative term A(w_i) sigma_i. Boundaries are copy-outflow.

A(w) is never assembled: the step works on moment-major (M, n) copies of
the cells and applies each model's flux_operator, which costs O(n M) per
product. The dense system_matrices builders are kept as the test oracle and
for spectra. Field.data stays cell-major (n, M).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, StepError


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 2:
            raise ConfigError(f"need at least 2 cells, got {self.n_cells}")
        if not self.x_max > self.x_min:
            raise ConfigError(f"empty domain [{self.x_min}, {self.x_max}]")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass
class Field:
    """Cell-averaged state vectors on a grid, plus the simulation clock."""

    grid: Grid1D
    data: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2 or self.data.shape[0] != self.grid.n_cells:
            raise ConfigError(
                f"data shape {self.data.shape} does not match grid with {self.grid.n_cells} cells"
            )

    @property
    def n_vars(self) -> int:
        return self.data.shape[1]

    def copy(self) -> "Field":
        return Field(self.grid, self.data.copy(), self.time)


def constant_field(grid: Grid1D, state, time: float = 0.0) -> Field:
    state = np.asarray(state, dtype=float)
    return Field(grid, np.tile(state, (grid.n_cells, 1)), time)


def _minmod(a, b):
    return 0.5 * (np.sign(a) + np.sign(b)) * np.minimum(np.abs(a), np.abs(b))


def _ghosted(w, g):
    """Moment-major (M, n + 2g) copy of the (n, M) cells with g copy-outflow
    ghosts per side."""
    n, m = w.shape
    we = np.empty((m, n + 2 * g))
    we[:, g:g + n] = w.T
    we[:, :g] = w[:1].T
    we[:, g + n:] = w[-1:].T
    return we


def spatial_update(f: Field, model, dt: float, order: int = 1) -> Field:
    """One explicit transport step of size dt; copy-outflow ghosts; no source.

    model.flux_operator(w) takes moment-major states (M, n) and returns a
    function mapping moment-major v to A(w) v.
    """
    if order not in (1, 2):
        raise ConfigError(f"order must be 1 or 2, got {order}")
    w = f.data
    if not np.isfinite(w).all():
        bad = int(np.argwhere(~np.isfinite(w).all(axis=1))[0, 0])
        raise NumericError(f"non-finite state in cell {bad} at t={f.time}")
    dx = f.grid.dx
    speeds = model.wave_speeds(w)
    viol = dt * speeds > dx * (1.0 + 1e-12)
    if viol.any():
        bad = int(np.argmax(viol))
        raise StepError(
            f"CFL violation in cell {bad}: dt={dt:g} exceeds {dx / speeds[bad]:g}"
        )
    nu = dt / dx
    we = _ghosted(w, order)
    if order == 1:
        wl, wr = we[:, :-1], we[:, 1:]
    else:
        d = np.diff(we, axis=1)
        sig = _minmod(d[:, :-1], d[:, 1:])  # slopes of cells we[:, 1:-1]
        # half-step predictor keeps the update second order in time
        ev = we[:, 1:-1] - (0.5 * nu) * model.flux_operator(we[:, 1:-1])(sig)
        wl = ev[:, :-1] + 0.5 * sig[:, :-1]
        wr = ev[:, 1:] - 0.5 * sig[:, 1:]
    delta = wr - wl
    ahat = model.flux_operator(0.5 * (wl + wr))
    ad = ahat(delta)
    qd = 0.5 * (delta / nu + nu * ahat(ad))
    dplus = 0.5 * (ad + qd)
    dminus = 0.5 * (ad - qd)
    bracket = dplus[:, :-1] + dminus[:, 1:]
    if order == 2:
        bracket = bracket + model.flux_operator(ev[:, 1:-1])(sig[:, 1:-1])
    new = np.ascontiguousarray((we[:, order:-order] - nu * bracket).T)
    model.validate(new)
    return Field(f.grid, new, f.time + dt)


def cfl_timestep(f: Field, model, cfl: float) -> float:
    """Largest stable dt = cfl * dx / max lambda over cells."""
    if not 0.0 < cfl <= 1.0:
        raise ConfigError(f"cfl must lie in (0, 1], got {cfl}")
    return cfl * f.grid.dx / float(np.max(model.wave_speeds(f.data)))


def apply_source(f: Field, model, eps: float, dt: float) -> Field:
    """Forward-Euler collision update; identity for the Euler model and eps = inf."""
    if not dt > 0.0:
        raise ConfigError(f"dt must be positive, got {dt}")
    new = model.relax(f.data, eps, dt)
    model.validate(new)
    return Field(f.grid, new, f.time)


def apply_source_exact(f: Field, model, eps: float, dt: float) -> Field:
    """Exact exponential collision update over dt (splitting integrator)."""
    if not dt > 0.0:
        raise ConfigError(f"dt must be positive, got {dt}")
    new = model.relax_exact(f.data, eps, dt)
    model.validate(new)
    return Field(f.grid, new, f.time)


def total_mass(f: Field) -> float:
    """dx * sum of rho; slot 0 is the density in all three models."""
    return f.grid.dx * float(np.sum(f.data[:, 0]))
