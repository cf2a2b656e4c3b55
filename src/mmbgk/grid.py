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
a cell-major Field only where a caller reads one: MomentBuffer.load and
cells are called by the runner for its input and its snapshots and by
spatial_update, not inside a step. Field.data stays cell-major (n, M).
A step updates only the buffer's span, the cells whose stencil holds a
jump: every other cell's fluctuation is exactly +0 (MomentBuffer gives the
argument), so transport costs what the span costs, and a level stretch of
the grid costs nothing but the ghost fill and the CFL check. A failed check
or transport names the grid cell, the time and the phase.
spatial_update, apply_source, apply_source_exact and cfl_timestep are
single-step forms on a Field that no run calls; the tests compose them into
a reference run.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StateError, StepError, at_time


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
        if not np.isfinite(self.x_max - self.x_min):
            raise ConfigError(f"domain [{self.x_min}, {self.x_max}] has no finite width")

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


def bit_span(new, old):
    """[lo, hi) bounding the columns where the row blocks new and old of one
    shape differ in any bit, or None if none does. The rows are compared as
    int64, so -0.0 and +0.0 differ and a NaN equals its own bits."""
    moved = (new.view(np.int64) != old.view(np.int64)).any(axis=0)
    lo = int(moved.argmax())
    return (lo, moved.size - int(moved[::-1].argmax())) if moved[lo] else None


def check_rows(model, rows, first: int, t: float, phase: str):
    """model.validate of moment-major rows whose column j is grid cell
    first + j; the StateError names the grid cell, the time t and the phase."""
    try:
        model.validate(rows.T)
    except StateError as exc:
        raise at_time(exc.shifted(first), t, phase) from exc


class MomentBuffer:
    """The cells of one model on one grid, moment-major with ghosts, advanced
    in place.

    `we` has shape (M, n + 2g): g copy-outflow ghosts per side (g = order)
    around the cells `w`, a view. The FORCE work arrays are allocated with
    it, as flat storage that a step on k cells views as contiguous (M, k + 1)
    and (M, k) blocks, the layout of a full-grid step, so both run the same
    kernels. A run that owns one buffer per model steps without per-step
    allocation of the state, its ghosts or its cell-major copies.

    `span = (lo, hi)` bounds the cells [lo, hi) that the next transport can
    change, and it is always a range: a new buffer holds (0, n), the whole
    grid, and load sets the one find_span finds. Cell i's stencil holds the
    2g jumps between columns i, ..., i + 2g of `we`, a jump being two
    neighbouring columns that differ in any bit. A cell with no jump in its
    stencil gets a fluctuation of exactly +0: its jumps and minmod slopes
    are x - x = +0 (sign(+0) = +0), every term built from them is a zero,
    and a sum of zeros with a +0 addend is +0. At order 1, Q Delta has the
    addend Delta / nu = +0, so D^+ = A_hat Delta + Q Delta is +0 and so is
    the bracket D^+ + D^-; at order 2 the bracket's in-cell addend A sigma
    is +0. Then w - (+0) = w, even for w = -0.0. So transport runs its FORCE
    body on the window we[:, lo:hi + 2g] alone, and widens the span by g per
    side after it, since only the jumps next to a changed cell can appear.
    An empty span is (n, 0); a step on it changes nothing and keeps it. A
    map that computes each cell from that cell alone keeps neighbours with
    equal bits equal, so the collision needs no update; after any other
    write to the cells, set the span to one that bounds the new jumps'
    stencils: find_span(), or (0, n) at the widest. A transport writes only
    its span and widens it by g >= 1 per side, so every pair of neighbours
    that holds a cell it wrote lies inside the span it leaves, and inside
    every later one. After transports and maps of each cell alone,
    find_span(*span) thus reads only the cells of the carried span and finds
    what a whole-grid search finds.

    The FORCE body builds the state-dependent operator once at order 1, on
    the k + 1 interface means. At order 2 it builds it twice: on the k + 2
    cells of the half-step predictor, and on one batch that holds the k + 1
    means of the reconstructed faces followed by the k predicted cells. A
    column's coefficients come from its own state alone and each product
    reads only its own block's columns (flux_operator's apply(v, first)), so
    the joint build gives every bit of a build per block. It saves a
    build's per-call cost, most of a build on the short spans of the
    accelerated schemes, and pays per column for the strided reads of the
    blocks. On the long spans of wide-m40 micro (M = 40, 500 cells) the two
    cancel: against a transport that builds the blocks apart on spans over
    128 cells, perfbench wide-m40 (10 alternating pairs, 2-core Xeon) read
    run_s.micro +1.0 %, faster in 4 of 10 pairs and inside the other
    side's quartiles.

    Two simpler designs keep the bits but not the speed. Each was timed in
    one process against this one on the cases of the three perfbench
    workloads, interleaved per case over 15 rounds (2-core Xeon, Python
    3.11.7, numpy 2.4.6):
    - Plain per-call temporaries for the work arrays: under glibc's default
      malloc thresholds wide-m40 micro (M = 40, 500 cells) runs 16 % slower,
      slower in 14 of 15 rounds. Under perfbench's pinned MALLOC_* settings
      they read -5 to +1 % on every case, within the host's spread. The
      flat storage pays where the allocator keeps its defaults.
    - A span searched before every transport, with nothing carried, widened
      or handed off: wide-m40 micro runs 35-41 % faster, since its carried
      span outgrows the jumps, but each stiff-eps case that completes runs
      2-18 % slower and each beams-m10 case 1-12 %, since a search reads the
      bits of every cell. When to search again needs a rule; searching
      before every step costs more than it saves.
    """

    def __init__(self, grid: Grid1D, model, order: int = 1):
        if order not in (1, 2):
            raise ConfigError(f"order must be 1 or 2, got {order}")
        n, m, g = grid.n_cells, model.n_vars, order
        self.model, self.order, self.dx = model, order, grid.dx
        self.we = np.empty((m, n + 2 * g))
        self.w = self.we[:, g:g + n]
        self.span = (0, n)
        # flat: the jumps (M, n + 1), the cell bracket (M, n) and the batch of
        # the state-dependent build, (M, g (n + 1)) at the widest
        self._delta = np.empty(m * (n + 1))
        self._bracket = np.empty(m * n)
        self._batch = np.empty(m * g * (n + 1))

    def load(self, data):
        """Copy cell-major (n, M) states into the cells and find their span."""
        self.w[...] = data.T
        self.span = self.find_span()

    def cells(self) -> np.ndarray:
        """Cell-major (n, M) C-ordered copy of the cells."""
        return np.ascontiguousarray(self.w.T)

    def check(self, t: float, phase: str, lo: int = 0, hi: int = None):
        """The model's state check (finite, rho > 0, theta > 0) on the cells
        [lo, hi), all of them by default; the StateError names the grid
        cell, the time and the phase."""
        check_rows(self.model, self.w[:, lo:hi], lo, t, phase)

    def max_speed(self) -> float:
        """Largest wave speed of the cells."""
        return float(self.model.wave_speeds(self.w.T).max())

    def find_span(self, lo: int = 0, hi: int = None):
        """The cells whose stencil holds a jump between two of the cells
        [lo, hi), every cell by default, or (n, 0) if none does; it reads
        the bits of those cells alone and sets nothing. A narrower range
        finds what a whole-grid search finds when every pair of neighbours
        that may differ lies inside it (see the class docstring). The
        ghosts copy the end cells, so they add no jump."""
        g, n = self.order, self.w.shape[1]
        hi = n if hi is None else hi
        jumps = bit_span(self.w[:, lo + 1:hi], self.w[:, lo:hi - 1]) if hi - lo > 1 else None
        if jumps is None:
            return (n, 0)
        # the jumps between cells j and j + 1 for j in [a, b) are in the
        # stencils of a - g + 1 .. b - 1 + g
        a, b = lo + jumps[0], lo + jumps[1]
        return (max(a - g + 1, 0), min(b + g, n))

    def _flux_operator(self, states, first: int, t: float, block: int):
        """model.flux_operator of moment-major states made of blocks of block
        columns, column j of each being grid cell first + j (a ghost counts
        as its end cell, an interface as the cell to its right). A rejected
        state raises a StateError naming its cell, the step's start time t
        and phase transport."""
        try:
            return self.model.flux_operator(states)
        except StateError as exc:
            cell = min(max(first + exc.cell % block, 0), self.w.shape[1] - 1)
            raise at_time(StateError(exc.what, cell), t, "transport") from exc

    def transport(self, dt: float, t: float, smax: float = None):
        """One FORCE step of size dt on the cells, in place; no source.

        smax is the largest wave speed of the cells when the caller already
        has it. dt * smax decides the CFL check exactly as the per-cell
        products would, since rounding is monotone. The ghosts and the CFL
        check cover every cell; the update covers the span, a range that
        the transport reads and never searches for, which then widens by g
        per side. A state the flux operator rejects (at order 2 the
        predicted states and the faces reconstructed from them can fail
        rho > 0 and theta > 0) raises a StateError naming the grid cell, the
        start time t and phase transport.
        """
        we, w, g, model, dx = self.we, self.w, self.order, self.model, self.dx
        m, n = w.shape
        we[:, :g] = we[:, g:g + 1]
        we[:, g + n:] = we[:, g + n - 1:g + n]
        if smax is None:
            smax = self.max_speed()
        if dt * smax > dx * (1.0 + 1e-12):
            speeds = model.wave_speeds(w.T)
            bad = int(np.argmax(dt * speeds > dx * (1.0 + 1e-12)))
            raise StepError(f"CFL violation in cell {bad} at t={t:g} (transport): "
                            f"dt={dt:g} exceeds {dx / speeds[bad]:g}")
        lo, hi = self.span
        if lo >= hi:
            return
        k = hi - lo
        win = we[:, lo:hi + 2 * g]
        nu = dt / dx
        # the batch of the state-dependent build: the k + 1 interface means,
        # at order 2 followed by the k predicted cells (see the class docstring)
        batch = self._batch[:m * g * (k + 1)].reshape(m, g * (k + 1))
        if g == 1:
            wl, wr = win[:, :-1], win[:, 1:]
            mean = states = batch
        else:
            # minmod slopes of cells win[:, 1:-1]
            d = np.diff(win, axis=1)
            s, a = np.sign(d), np.abs(d)
            sig = 0.5 * (s[:, :-1] + s[:, 1:]) * np.minimum(a[:, :-1], a[:, 1:])
            # half-step predictor keeps the update second order in time; its
            # k + 2 cells lo - 1 .. hi go to the batch's columns k .. 2k + 1,
            # so the k inside follow the means, and the last mean overwrites
            # cell lo - 1 once wl has read it
            pred = self._flux_operator(win[:, 1:-1], lo - 1, t, k + 2)
            ev = np.subtract(win[:, 1:-1], (0.5 * nu) * pred(sig), out=batch[:, k:])
            half = 0.5 * sig
            wl = ev[:, :-1] + half[:, :-1]
            wr = ev[:, 1:] - half[:, 1:]
            mean, states = batch[:, :k + 1], batch[:, :-1]
        delta = np.subtract(wr, wl, out=self._delta[:m * (k + 1)].reshape(m, k + 1))
        np.add(wl, wr, out=mean)
        mean *= 0.5
        # at order 2 one build serves both blocks; each product reads its own
        # columns
        ahat = self._flux_operator(states, lo, t, k + 1)
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
        bracket = np.add(dplus[:, :-1], dminus[:, 1:], out=self._bracket[:m * k].reshape(m, k))
        if g == 2:
            bracket += ahat(sig[:, 1:-1], k + 1)
        bracket *= nu
        w[:, lo:hi] -= bracket
        self.span = (max(lo - g, 0), min(hi + g, n))


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
