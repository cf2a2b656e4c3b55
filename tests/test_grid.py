"""Finite-volume transport: CFL, conservation, symmetry, convergence, and the
active span."""

import math

import numpy as np
import pytest

from mmbgk.errors import ConfigError, StateError, StepError
from mmbgk.grid import (
    Field,
    Grid1D,
    MomentBuffer,
    apply_source,
    apply_source_exact,
    cfl_timestep,
    constant_field,
    spatial_update,
)
from mmbgk.models import EulerModel, make_model
from oracles import dense_flux_matrices, total_mass


class _Advection:
    """Scalar constant-coefficient advection, du/dt + a du/dx = 0."""

    kind = "advection"
    n_vars = 1

    def __init__(self, a=1.0):
        self.a = a

    def flux_operator(self, wt):
        return lambda v: self.a * v

    def wave_speeds(self, w):
        w = np.atleast_2d(np.asarray(w, dtype=float))
        return np.full(w.shape[0], abs(self.a))

    def validate(self, w):
        pass


def test_grid_layout():
    g = Grid1D(-10.0, 10.0, 500)
    assert g.dx == pytest.approx(0.04)
    assert len(g.centers) == 500
    assert g.centers[0] == pytest.approx(-10.0 + 0.02)
    with pytest.raises(ConfigError):
        Grid1D(0.0, 1.0, 1)
    with pytest.raises(ConfigError):
        Grid1D(1.0, 1.0, 10)


@pytest.mark.parametrize("x_min,x_max", [(0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308)])
def test_grid_rejects_a_domain_with_no_finite_width(x_min, x_max):
    # an infinite end, or one whose width overflows, would make dx and every
    # cell centre inf
    with pytest.raises(ConfigError, match=r"has no finite width"):
        Grid1D(x_min, x_max, 20)


def test_field_shape_validation():
    g = Grid1D(0.0, 1.0, 4)
    f = Field(g, np.ones((4, 3)))
    assert f.n_vars == 3
    f2 = f.copy()
    f2.data[0, 0] = 7.0
    assert f.data[0, 0] == 1.0
    with pytest.raises(ConfigError):
        Field(g, np.ones((5, 3)))
    with pytest.raises(ConfigError):
        Field(g, np.ones(4))


def test_constant_field_is_transport_fixed_point():
    model = make_model("hme", 6)
    f = constant_field(Grid1D(-1.0, 1.0, 20), [1.0, 0.3, 1.2, 0.05, 0.0, 0.01])
    out = spatial_update(f, model, 1e-3)
    np.testing.assert_array_equal(out.data, f.data)
    assert out.time == pytest.approx(1e-3)


def test_cfl_timestep_euler_literal():
    f = constant_field(Grid1D(-10.0, 10.0, 500), [1.0, 0.0, 1.0])
    dt = cfl_timestep(f, EulerModel(), 0.5)
    assert dt == pytest.approx(0.5 * 0.04 / math.sqrt(3.0), rel=1e-14)
    assert dt == pytest.approx(0.011547005383792516, rel=1e-14)


def test_cfl_timestep_fixed_basis_m10():
    model = make_model("hsm", 10)
    f = constant_field(Grid1D(-10.0, 10.0, 500), np.eye(10)[0])
    dt = cfl_timestep(f, model, 0.5)
    assert dt == pytest.approx(0.5 * 0.04 / 4.859462828332312, rel=1e-13)


def test_cfl_scales_with_sqrt_theta():
    model = make_model("hme", 6)
    f1 = constant_field(Grid1D(0.0, 1.0, 10), [1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    f2 = constant_field(Grid1D(0.0, 1.0, 10), [1.0, 0.0, 2.0, 0.0, 0.0, 0.0])
    assert cfl_timestep(f2, model, 0.5) == pytest.approx(
        cfl_timestep(f1, model, 0.5) / math.sqrt(2.0), rel=1e-14
    )


def test_cfl_number_validation():
    f = constant_field(Grid1D(0.0, 1.0, 10), [1.0, 0.0, 1.0])
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ConfigError):
            cfl_timestep(f, EulerModel(), bad)


def _advect_profile(n_cells, order):
    # boundary-quiet bump advected for one time unit
    model = _Advection(1.0)
    g = Grid1D(0.0, 4.0, n_cells)
    profile = lambda x: 1.0 + np.exp(-0.5 * ((x - 1.0) / 0.15) ** 2)
    f = Field(g, profile(g.centers)[:, None])
    dt = 0.4 * g.dx
    t = 0.0
    while t < 1.0 - 1e-12:
        step = min(dt, 1.0 - t)
        f = spatial_update(f, model, step, order)
        t += step
    exact = profile(g.centers - 1.0)
    return math.sqrt(g.dx * float(np.sum((f.data[:, 0] - exact) ** 2)))


@pytest.mark.parametrize("order,min_rate", [(1, 0.85), (2, 1.3)])
def test_advection_convergence_rate(order, min_rate):
    errs = [_advect_profile(n, order) for n in (200, 400, 800, 1600)]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    rate = math.log2(errs[-2] / errs[-1])
    assert rate > min_rate


def test_invalid_order():
    f = constant_field(Grid1D(0.0, 1.0, 10), [1.0, 0.0, 1.0])
    with pytest.raises(ConfigError):
        spatial_update(f, EulerModel(), 1e-3, order=3)


def test_cfl_violation_names_cell():
    f = constant_field(Grid1D(0.0, 1.0, 10), [1.0, 0.0, 1.0])
    with pytest.raises(StepError, match="cell"):
        spatial_update(f, EulerModel(), 1.0)


def test_non_finite_state_names_cell():
    g = Grid1D(0.0, 1.0, 10)
    data = np.ones((10, 3))
    data[4, 1] = math.inf
    with pytest.raises(StateError, match=r"cell 4 at t=0 \(input\)"):
        spatial_update(Field(g, data), EulerModel(), 1e-3)


def _two_beam_field(n_cells=100, m=6):
    model = make_model("hme", m)
    g = Grid1D(-10.0, 10.0, n_cells)
    u = np.where(g.centers < 0.0, 0.5, -0.5)
    return Field(g, model.equilibrium(np.ones(n_cells), u, np.ones(n_cells))), model


@pytest.mark.parametrize("order", [1, 2])
def test_transport_mass_balance_matches_boundary_inflow(order):
    # interior fluctuations telescope exactly; the only mass change is the
    # physical inflow (rho u)_left - (rho u)_right carried by the ghosts
    f, model = _two_beam_field()
    m0 = total_mass(f)
    inflow_rate = f.data[0, 0] * f.data[0, 1] - f.data[-1, 0] * f.data[-1, 1]
    for _ in range(5):
        f = spatial_update(f, model, cfl_timestep(f, model, 0.5), order)
    assert total_mass(f) == pytest.approx(m0 + inflow_rate * f.time, rel=1e-14)


@pytest.mark.parametrize("order", [1, 2])
def test_transport_preserves_mirror_symmetry(order):
    f, model = _two_beam_field()
    for _ in range(5):
        f = spatial_update(f, model, cfl_timestep(f, model, 0.5), order)
        rho, u, theta = f.data[:, 0], f.data[:, 1], f.data[:, 2]
        assert np.max(np.abs(rho - rho[::-1])) < 1e-12
        assert np.max(np.abs(u + u[::-1])) < 1e-12
        assert np.max(np.abs(theta - theta[::-1])) < 1e-12


def _dense_reference_step(f, model, dt, order):
    """The FORCE step of spatial_update, with the oracle's dense A(w) applied
    by einsum."""
    def apply(states, vecs):
        return np.einsum("nij,nj->ni", dense_flux_matrices(model, states), vecs)

    w, nu = f.data, dt / f.grid.dx
    if order == 1:
        we = np.concatenate([w[:1], w, w[-1:]])
        wl, wr = we[:-1], we[1:]
    else:
        we = np.concatenate([w[:1], w[:1], w, w[-1:], w[-1:]])
        d = np.diff(we, axis=0)
        sig = 0.5 * (np.sign(d[:-1]) + np.sign(d[1:])) * np.minimum(np.abs(d[:-1]), np.abs(d[1:]))
        ev = we[1:-1] - (0.5 * nu) * apply(we[1:-1], sig)
        wl = ev[:-1] + 0.5 * sig[:-1]
        wr = ev[1:] - 0.5 * sig[1:]
    delta = wr - wl
    mean = 0.5 * (wl + wr)
    ad = apply(mean, delta)
    qd = 0.5 * (delta / nu + nu * apply(mean, ad))
    bracket = 0.5 * (ad + qd)[:-1] + 0.5 * (ad - qd)[1:]
    if order == 2:
        bracket = bracket + apply(ev[1:-1], sig[1:-1])
    return w - nu * bracket


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("kind,m", [("hme", 5), ("hme", 10), ("hsm", 6), ("euler", 3)])
def test_matrix_free_step_matches_dense_reference(kind, m, order):
    rng = np.random.default_rng(17 * m + order)
    model = make_model(kind, m)
    g = Grid1D(-1.0, 1.0, 80)
    w = model.equilibrium(rng.uniform(0.8, 1.2, 80), rng.uniform(-0.3, 0.3, 80),
                          rng.uniform(0.8, 1.2, 80))
    w[:, 3:] = rng.uniform(-0.05, 0.05, size=(80, model.n_vars - 3))
    f = Field(g, w, 0.0)
    dt = cfl_timestep(f, model, 0.5)
    got = spatial_update(f, model, dt, order).data
    ref = _dense_reference_step(f, model, dt, order)
    assert got.flags.c_contiguous and got.shape == ref.shape
    err = np.max(np.abs(got - ref), axis=0)
    assert np.all(err <= 1e-14 * np.max(np.abs(ref), axis=0))


def test_source_collisionless_is_identity():
    f, model = _two_beam_field()
    out = apply_source(f, model, math.inf, 1e-3)
    np.testing.assert_array_equal(out.data, f.data)


def test_source_full_relaxation_in_one_step():
    model = make_model("hme", 6)
    f = constant_field(Grid1D(0.0, 1.0, 10), [1.0, 0.1, 1.0, 0.3, -0.2, 0.1])
    out = apply_source(f, model, 1e-3, 1e-3)  # dt = eps: factor 1 - dt/eps = 0
    np.testing.assert_array_equal(out.data[:, 3:], 0.0)
    np.testing.assert_array_equal(out.data[:, :3], f.data[:, :3])


def test_source_keeps_time_and_validates_dt():
    f, model = _two_beam_field()
    out = apply_source(f, model, 1e-2, 1e-3)
    assert out.time == f.time
    np.testing.assert_array_equal(out.data[:, :3], f.data[:, :3])
    with pytest.raises(ConfigError):
        apply_source(f, model, 1e-2, 0.0)
    with pytest.raises(ConfigError):
        apply_source_exact(f, model, 1e-2, -1.0)
    # eps <= 0 would divide by zero or amplify the free moments
    for source, eps in ((apply_source, 0.0), (apply_source, -1.0),
                        (apply_source_exact, 0.0), (apply_source_exact, -1e-3)):
        with pytest.raises(ConfigError, match="eps must be positive"):
            source(f, model, eps, 1e-3)


def test_exact_source_matches_exponential():
    model = make_model("hme", 6)
    f = constant_field(Grid1D(0.0, 1.0, 10), [1.0, 0.1, 1.0, 0.3, -0.2, 0.1])
    out = apply_source_exact(f, model, 2e-3, 1e-3)
    np.testing.assert_allclose(out.data[:, 3:], f.data[:, 3:] * math.exp(-0.5), rtol=1e-15)


def test_euler_model_has_no_source():
    f = constant_field(Grid1D(0.0, 1.0, 10), [1.0, 0.2, 1.0])
    out = apply_source(f, EulerModel(), 1e-4, 1e-3)
    np.testing.assert_array_equal(out.data, f.data)


_SPAN_CELLS = 30


def _level_pieces(kind, m, where):
    """A piecewise-level state of _SPAN_CELLS cells: one state, with a second
    one on cell 0 ("first": the jump at the first interface), on the last
    cell ("last"), on cells 12-17 ("interior", and "negzero", whose first
    state holds -0.0 entries) or nowhere ("none"); or a ramp on cells 0-9
    that decreases into the level rest ("ramp": at order 2 cell 10's slope
    is minmod(-x, +0) = -0)."""
    model = make_model(kind, m)
    base = model.equilibrium(1.0, -0.0 if where == "negzero" else 0.2, 1.0)[0]
    other = model.equilibrium(1.3, -0.1, 0.8)[0]
    if kind == "hme":
        base[3:] = 0.01 * np.arange(1.0, m - 2)
        other[3:] = -0.02
        if where == "negzero":
            base[3::2] = -0.0
    data = np.tile(base, (_SPAN_CELLS, 1))
    if where == "ramp":
        data[:10] *= 1.0 + 0.05 * np.arange(10.0, 0.0, -1.0)[:, None]
    else:
        data[{"first": slice(0, 1), "last": slice(-1, None), "interior": slice(12, 18),
              "negzero": slice(12, 18), "none": slice(0, 0)}[where]] = other
    return model, data


def _bits(buf):
    return buf.we.view(np.int64).copy()


@pytest.mark.parametrize("where,spans", [
    ("first", {1: (0, 2), 2: (0, 3)}),
    ("last", {1: (28, 30), 2: (27, 30)}),
    ("interior", {1: (11, 19), 2: (10, 20)}),
    ("none", {1: (30, 0), 2: (30, 0)}),
    ("ramp", {1: (0, 11), 2: (0, 12)}),
    ("negzero", {1: (11, 19), 2: (10, 20)}),
])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("kind,m", [("hme", 10), ("hsm", 6), ("euler", 3)])
def test_span_steps_equal_full_grid_steps_bitwise(kind, m, order, where, spans):
    # a cell whose stencil holds no jump gets a fluctuation of exactly +0, so
    # stepping the span alone, found or carried, gives the full-grid bits. The
    # full-grid buffer's cells are written without load, so it keeps a new
    # buffer's span (0, n), which a transport cannot widen
    model, data = _level_pieces(kind, m, where)
    grid = Grid1D(-1.0, 1.0, _SPAN_CELLS)
    dt = 0.5 * grid.dx / model.wave_speeds(data).max()
    spanned, full = MomentBuffer(grid, model, order), MomentBuffer(grid, model, order)
    spanned.span = (0, 0)  # left by an earlier state: load must replace it
    spanned.load(data)
    full.w[...] = data.T
    assert spanned.span == spans[order]
    for step in range(3):
        assert full.span == (0, _SPAN_CELLS)
        spanned.transport(dt, step * dt)
        full.transport(dt, step * dt)
        np.testing.assert_array_equal(_bits(spanned), _bits(full))
        # the carried span holds the one a fresh search finds
        lo, hi = spanned.find_span()
        if lo < hi:
            assert spanned.span[0] <= lo and hi <= spanned.span[1], (step, spanned.span)
        else:
            assert where == "none" and spanned.span == (_SPAN_CELLS, 0)


def test_cfl_violation_outside_the_span_names_its_cell():
    # the hot cells 0-14 are level up to the jump to the cold cells, so after
    # one step the span holds cells 13-16; the CFL check still covers cell 0
    model = EulerModel()
    grid = Grid1D(-1.0, 1.0, _SPAN_CELLS)
    data = model.equilibrium(np.ones(_SPAN_CELLS), 0.0,
                             np.where(np.arange(_SPAN_CELLS) < 15, 4.0, 1.0))
    buf = MomentBuffer(grid, model, 1)
    buf.load(data)
    buf.transport(0.1 * grid.dx / buf.max_speed(), 0.0)
    assert buf.span == (13, 17)
    with pytest.raises(StepError, match=r"CFL violation in cell 0 at t=0\.5 \(transport\)"):
        buf.transport(2.0 * grid.dx / buf.max_speed(), 0.5)


@pytest.mark.parametrize("order,jump,call,col,cell", [
    (1, 9, 0, 0, 9),  # interface mean j lies left of cell lo + j
    (1, 9, 0, 2, 11),
    (1, 18, 0, 2, 19),  # the last interface names the last cell
    (2, 9, 0, 0, 7),  # predictor column j is cell lo - 1 + j
    (2, 0, 0, 0, 0),  # ... and its left ghost is cell 0
    (2, 9, 1, 4, 12),
    (2, 9, 2, 3, 11),  # predicted state j is cell lo + j
])
def test_rejected_transport_state_names_its_grid_cell(order, jump, call, col, cell,
                                                      monkeypatch):
    # one jump, between cells jump and jump + 1, gives the span; the flux
    # operator's call-th batch (0: predictor at order 2, then the interface
    # means, then the predicted states) rejects its column col
    real, widths = EulerModel.flux_operator, []

    def rejecting(self, wt):
        widths.append(wt.shape[1])
        if len(widths) == call + 1:
            raise StateError("euler rho or theta <= 0", col)
        return real(self, wt)

    model = EulerModel()
    grid = Grid1D(-1.0, 1.0, 20)
    buf = MomentBuffer(grid, model, order)
    buf.load(model.equilibrium(np.ones(20), 0.0, np.where(np.arange(20) <= jump, 2.0, 1.0)))
    monkeypatch.setattr(EulerModel, "flux_operator", rejecting)
    with pytest.raises(StateError, match=rf"^euler rho or theta <= 0 in cell {cell} "
                       r"at t=0\.5 \(transport\)$"):
        buf.transport(0.5 * grid.dx / buf.max_speed(), 0.5)
    assert col < widths[-1]
