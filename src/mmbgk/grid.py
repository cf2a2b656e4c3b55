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

A(w) is never assembled: each model's flux_operator applies it in O(n M)
per product on moment-major (M, n) arrays, as one einsum over a coefficient
array of the dense columns plus, for the adaptive model, a band. The
models' system_matrices reads A(w) off flux_operator for spectra; the dense
builders are the test oracle, in tests/oracles.py. The one FORCE body is
MomentBuffer.transport. A MomentBuffer holds the cells moment-major with
their ghosts and the step's work arrays, and advances them in place, so a
run that owns one keeps its state there from step to step and converts to
a cell-major Field only where a caller reads one. Field.data stays
cell-major (n, M). spatial_update, apply_source, apply_source_exact and
cfl_timestep are single-step forms on a Field that no run calls; the tests
compose them into a reference run.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StateError, StepError


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


class MomentBuffer:
    """The cells of one model on one grid, moment-major with ghosts, advanced
    in place.

    `we` has shape (M, n + 2g): g copy-outflow ghosts per side (g = order)
    around the cells `w`, a view. The FORCE work arrays are allocated with
    it, so a run that owns one buffer per model steps without per-step
    allocation of the state, its ghosts or its cell-major copies.
    """

    def __init__(self, grid: Grid1D, model, order: int = 1):
        if order not in (1, 2):
            raise ConfigError(f"order must be 1 or 2, got {order}")
        n, m, g = grid.n_cells, model.n_vars, order
        self.model, self.order, self.dx = model, order, grid.dx
        self.we = np.empty((m, n + 2 * g))
        self.w = self.we[:, g:g + n]
        # interface arrays (M, n + 1) and the cell bracket (M, n)
        self._delta, self._mean = np.empty((2, m, n + 1))
        self._bracket = np.empty((m, n))

    def load(self, data):
        """Copy cell-major (n, M) states into the cells."""
        self.w[...] = data.T

    def cells(self) -> np.ndarray:
        """Cell-major (n, M) C-ordered copy of the cells."""
        return np.ascontiguousarray(self.w.T)

    def check(self, t: float, phase: str):
        """The model's state check (finite, rho > 0, theta > 0) on the cells;
        the StateError names the cell, the time and the phase."""
        try:
            self.model.validate(self.w.T)
        except StateError as exc:
            raise StateError(f"{exc} at t={t:g} ({phase})") from exc

    def max_speed(self) -> float:
        """Largest wave speed of the cells."""
        return float(self.model.wave_speeds(self.w.T).max())

    def transport(self, dt: float, t: float, smax: float = None):
        """One FORCE step of size dt on the cells, in place; no source.

        smax is the largest wave speed of the cells when the caller already
        has it. dt * smax decides the CFL check exactly as the per-cell
        products would, since rounding is monotone.
        """
        we, w, g, model, dx = self.we, self.w, self.order, self.model, self.dx
        n = w.shape[1]
        we[:, :g] = we[:, g:g + 1]
        we[:, g + n:] = we[:, g + n - 1:g + n]
        if smax is None:
            smax = self.max_speed()
        if dt * smax > dx * (1.0 + 1e-12):
            speeds = model.wave_speeds(w.T)
            bad = int(np.argmax(dt * speeds > dx * (1.0 + 1e-12)))
            raise StepError(f"CFL violation in cell {bad} at t={t:g} (transport): "
                            f"dt={dt:g} exceeds {dx / speeds[bad]:g}")
        nu = dt / dx
        if g == 1:
            wl, wr = we[:, :-1], we[:, 1:]
        else:
            # minmod slopes of cells we[:, 1:-1]
            d = np.diff(we, axis=1)
            s, a = np.sign(d), np.abs(d)
            sig = 0.5 * (s[:, :-1] + s[:, 1:]) * np.minimum(a[:, :-1], a[:, 1:])
            # half-step predictor keeps the update second order in time
            ev = we[:, 1:-1] - (0.5 * nu) * model.flux_operator(we[:, 1:-1])(sig)
            wl = ev[:, :-1] + 0.5 * sig[:, :-1]
            wr = ev[:, 1:] - 0.5 * sig[:, 1:]
        delta = np.subtract(wr, wl, out=self._delta)
        mean = np.add(wl, wr, out=self._mean)
        mean *= 0.5
        ahat = model.flux_operator(mean)
        ad = ahat(delta)
        # Q delta = 1/2 (delta / nu + nu A_hat (A_hat delta)), then
        # D^+- = 1/2 (A_hat delta +- Q delta), each product rounded as written
        q = ahat(ad)
        q *= nu
        delta /= nu
        q += delta
        q *= 0.5
        dplus = np.add(ad, q, out=delta)
        dplus *= 0.5
        dminus = np.subtract(ad, q, out=ad)
        dminus *= 0.5
        bracket = np.add(dplus[:, :-1], dminus[:, 1:], out=self._bracket)
        if g == 2:
            bracket += model.flux_operator(ev[:, 1:-1])(sig[:, 1:-1])
        bracket *= nu
        w -= bracket


def spatial_update(f: Field, model, dt: float, order: int = 1) -> Field:
    """One explicit transport step of size dt; copy-outflow ghosts; no source.

    The single-step form of MomentBuffer.transport: the input and the result
    are checked with model.validate. model.flux_operator(w) takes
    moment-major states (M, n) and returns a function mapping moment-major v
    to A(w) v.
    """
    buf = MomentBuffer(f.grid, model, order)
    buf.load(f.data)
    buf.check(f.time, "input")
    buf.transport(dt, f.time)
    buf.check(f.time + dt, "transport")
    return Field(f.grid, buf.cells(), f.time + dt)


def cfl_limit(cfl: float, dx: float, smax: float) -> float:
    """cfl * dx / smax, the largest stable dt for the largest wave speed smax."""
    if not 0.0 < cfl <= 1.0:
        raise ConfigError(f"cfl must lie in (0, 1], got {cfl}")
    return cfl * dx / smax


def cfl_timestep(f: Field, model, cfl: float) -> float:
    """Largest stable dt = cfl * dx / max lambda over cells."""
    return cfl_limit(cfl, f.grid.dx, float(np.max(model.wave_speeds(f.data))))


def _source_step(f: Field, model, eps: float, dt: float, relax) -> Field:
    if not dt > 0.0:
        raise ConfigError(f"dt must be positive, got {dt}")
    new = relax(f.data, eps, dt)
    model.validate(new)
    return Field(f.grid, new, f.time)


def apply_source(f: Field, model, eps: float, dt: float) -> Field:
    """Forward-Euler collision update; identity for the Euler model and eps = inf."""
    return _source_step(f, model, eps, dt, model.relax)


def apply_source_exact(f: Field, model, eps: float, dt: float) -> Field:
    """Exact exponential collision update over dt (splitting integrator)."""
    return _source_step(f, model, eps, dt, model.relax_exact)
