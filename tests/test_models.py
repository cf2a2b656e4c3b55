"""Flux matrices, relaxation sources, and the three-model interface."""

import math

import numpy as np
import pytest

from mmbgk.basis import (
    BasisParams, hme_state_to_expansion, hsm_primitives, maxwellian_coefficients,
)
from mmbgk.errors import ConfigError, DomainError, StateError
from mmbgk.models import (
    EulerModel, HMEModel, HSMModel, decay_factor, largest_hermite_root, make_model,
)
from oracles import basis_transform, dense_flux_matrices

SQRT2 = math.sqrt(2.0)


def hme_system_matrix(w):
    """A(w) of the adaptive model sized to the state w."""
    return make_model("hme", len(w)).system_matrices(w)


def hsm_system_matrix(m):
    return make_model("hsm", m).system_matrices(np.zeros(m))


def test_adaptive_matrix_equilibrium_m6():
    a = hme_system_matrix(np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0]))
    expected = np.array([
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 2.0, 0.0, 6.0, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.0, 4.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0, 5.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
    ])
    np.testing.assert_array_equal(a, expected)


def test_adaptive_matrix_low_rows_any_state():
    rng = np.random.default_rng(1)
    for _ in range(5):
        w = rng.uniform(-0.3, 0.3, size=8)
        w[0] = rng.uniform(0.5, 2.0)
        w[2] = rng.uniform(0.5, 2.0)
        a = hme_system_matrix(w)
        assert a[0, 1] == w[0]
        assert a[1, 0] == w[2] / w[0]
        assert a[1, 2] == 1.0


def test_adaptive_matrix_batched():
    rng = np.random.default_rng(2)
    w = rng.uniform(-0.2, 0.2, size=(7, 6))
    w[:, 0] = 1.0
    w[:, 2] = 1.0
    mats = make_model("hme", 6).system_matrices(w)
    assert mats.shape == (7, 6, 6)
    np.testing.assert_array_equal(mats[3], hme_system_matrix(w[3]))


def test_equilibrium_spectrum_is_shifted_hermite_nodes():
    # at equilibrium the adaptive system has characteristic speeds
    # u + sqrt(theta) * (roots of He_M)
    rng = np.random.default_rng(3)
    for m in (6, 8, 10):
        rho, u, theta = rng.uniform(0.5, 2.0), rng.uniform(-1, 1), rng.uniform(0.5, 2.0)
        w = np.zeros(m)
        w[0], w[1], w[2] = rho, u, theta
        eig = np.linalg.eigvals(hme_system_matrix(w))
        assert np.max(np.abs(eig.imag)) < 1e-10
        nodes = np.polynomial.hermite_e.hermegauss(m)[0]
        got = np.sort(eig.real)
        np.testing.assert_allclose(got, u + math.sqrt(theta) * nodes, rtol=0, atol=1e-12)


def test_adaptive_matrix_realizability():
    with pytest.raises(StateError):
        hme_system_matrix(np.array([-1.0, 0.0, 1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(StateError):
        hme_system_matrix(np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0]))


def test_fixed_basis_matrix_literals():
    np.testing.assert_array_equal(
        hsm_system_matrix(3),
        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, SQRT2], [0.0, SQRT2, 0.0]]),
    )


def test_fixed_basis_spectral_radius_m10():
    eig = np.linalg.eigvalsh(hsm_system_matrix(10))
    assert np.max(np.abs(eig)) == pytest.approx(4.859462828332312, abs=1e-12)
    assert np.max(np.abs(eig)) == pytest.approx(largest_hermite_root(10), abs=1e-12)
    # probabilists' root = sqrt(2) * physicists' root
    phys = np.polynomial.hermite.hermgauss(10)[0][-1]
    assert largest_hermite_root(10) == pytest.approx(SQRT2 * phys, rel=1e-14)


def test_fixed_basis_eigenvalues_are_hermite_nodes():
    for m in (4, 7, 10):
        eig = np.sort(np.linalg.eigvalsh(hsm_system_matrix(m)))
        nodes = np.polynomial.hermite_e.hermegauss(m)[0]
        np.testing.assert_allclose(eig, nodes, rtol=0, atol=1e-13)


# --- matrix-free flux operators ----------------------------------------------


def _realizable_states(rng, n, m):
    w = rng.uniform(-0.3, 0.3, size=(n, m))
    w[:, 0] = rng.uniform(0.5, 2.0, size=n)
    w[:, 2] = rng.uniform(0.5, 2.0, size=n)
    return w


@pytest.mark.parametrize("kind,m", [("hme", 4), ("hme", 5), ("hme", 6), ("hme", 7),
                                    ("hme", 10), ("hme", 40),
                                    ("hsm", 3), ("hsm", 10), ("euler", 3)])
def test_flux_operator_matches_dense_product(kind, m):
    # M = 4 and 5 reach the regularized last row and the first sub-diagonal
    # theta; the last row's theta f_{M-4} / 2 reads rho at M = 4, a zeroed
    # constraint slot at M = 5 and 6 and the first free slot at M = 7
    rng = np.random.default_rng(100 + m)
    model = make_model(kind, m)
    w = _realizable_states(rng, 64, model.n_vars)
    mats = dense_flux_matrices(model, w)
    derived = model.system_matrices(w)
    assert derived.shape == mats.shape
    apply = model.flux_operator(w.T)
    for _ in range(2):  # one build serves every product
        v = rng.standard_normal((64, model.n_vars))
        ref = np.einsum("nij,nj->ni", mats, v)
        # relative to the summed term magnitudes, the scale of their rounding
        scale = np.einsum("nij,nj->ni", np.abs(mats), np.abs(v))
        for got in (apply(v.T).T, np.einsum("nij,nj->ni", derived, v)):
            assert np.all(np.abs(got - ref) <= 1e-14 * scale)
    # one (M,) state: (M, M) matrices
    one = model.system_matrices(w[0])
    assert one.shape == (model.n_vars, model.n_vars)
    got, ref = one @ v[0], mats[0] @ v[0]
    assert np.all(np.abs(got - ref) <= 1e-14 * (np.abs(mats[0]) @ np.abs(v[0])))


@pytest.mark.parametrize("kind,m", [("hme", 4), ("hme", 10), ("hme", 40), ("hsm", 6),
                                    ("euler", 3)])
def test_block_products_of_one_build_equal_separate_builds_bitwise(kind, m):
    # transport builds one operator on two blocks of states side by side and
    # applies it to each block's columns alone (apply(v, first)); each
    # product must give the bits of an operator built on its block alone
    rng = np.random.default_rng(7 + m)
    model = make_model(kind, m)
    left, right = (_realizable_states(rng, k, model.n_vars).T for k in (9, 8))
    both = model.flux_operator(np.hstack([left, right]))
    for first, states in ((0, left), (9, right)):
        v = rng.standard_normal(states.shape)
        np.testing.assert_array_equal(both(v, first).view(np.int64),
                                      model.flux_operator(states)(v).view(np.int64))


@pytest.mark.parametrize("kind", ["hme", "euler"])
@pytest.mark.parametrize("slot,value", [(0, 0.0), (0, -1.0), (2, 0.0), (2, -0.5),
                                        (0, math.nan), (2, math.nan)])
def test_flux_operator_raises_like_dense_builder(kind, slot, value):
    model = make_model(kind, 6)
    w = _realizable_states(np.random.default_rng(9), 5, model.n_vars)
    w[3, slot] = value
    with pytest.raises(StateError) as dense:
        dense_flux_matrices(model, w)
    with pytest.raises(StateError) as free:
        model.flux_operator(w.T)
    with pytest.raises(StateError) as derived:
        model.system_matrices(w)
    assert str(free.value) == str(dense.value) == str(derived.value)
    assert str(free.value) == f"{kind} rho or theta <= 0 in cell 3"


# --- one PDE in two forms ----------------------------------------------------


def _conserved_jacobians(w, heat_flux):
    """dU/dw and dF/dw, written from the PDE, of the conserved variables
    U = (rho, rho u, E), E = rho (u^2 + theta) / 2, and their flux
    F = (rho u, rho u^2 + rho theta, u (E + rho theta) + 3 f_3), with the
    3 f_3 (half the heat flux q = 6 f_3) only where the state carries f_3."""
    rho, u, theta = w[0], w[1], w[2]
    du = np.zeros((3, len(w)))
    df = np.zeros((3, len(w)))
    du[0, 0] = 1.0
    du[1, :2] = u, rho
    du[2, :3] = 0.5 * (u * u + theta), rho * u, 0.5 * rho
    df[0, :2] = u, rho
    df[1, :3] = u * u + theta, 2.0 * rho * u, rho
    df[2, :3] = 0.5 * u ** 3 + 1.5 * u * theta, 1.5 * rho * (u * u + theta), 1.5 * rho * u
    if heat_flux:
        df[2, 3] = 3.0
    return du, df


@pytest.mark.parametrize("kind,m", [("hme", 4), ("hme", 5), ("hme", 10), ("hme", 40),
                                    ("euler", 3)])
def test_conserved_flux_jacobian_is_the_transformed_flux_matrix(kind, m):
    # rows 0-2 of dt w + A(w) dx w = 0 are dt U + dx F = 0, so
    # dF/dw = dU/dw A(w); the energy row pins A's heat-flux column 6/rho
    model = make_model(kind, m)
    rng = np.random.default_rng(200 + m)
    states = _realizable_states(rng, 32, model.n_vars)
    states[:, 1] = rng.uniform(-2.0, 2.0, size=32)
    for mats in (dense_flux_matrices(model, states), model.system_matrices(states)):
        for w, a in zip(states, mats):
            du, df = _conserved_jacobians(w, kind == "hme")
            assert np.max(np.abs(du @ a - df)) <= 1e-13 * np.max(np.abs(df))


# --- relaxation sources ------------------------------------------------------


def test_adaptive_source_literal():
    w = np.array([[1.0, 0.0, 1.0, 0.2, -0.1]])
    hme = make_model("hme", 5)
    np.testing.assert_array_equal(hme.relax(w, 0.1, 0.05), [[1.0, 0.0, 1.0, 0.1, -0.05]])
    np.testing.assert_array_equal(hme.relax(w, 0.1, 0.1), [[1.0, 0.0, 1.0, 0.0, 0.0]])


def test_adaptive_source_structure():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((1, 8))
    hme = make_model("hme", 8)
    for relax in (hme.relax, hme.relax_exact):
        out = relax(w, 0.37, 0.1)
        np.testing.assert_array_equal(out[:, :3], w[:, :3])
        assert np.all(out[:, 3:] != w[:, 3:])
        np.testing.assert_array_equal(relax(w, math.inf, 0.1), w)
    w_eq = np.array([[1.0, 0.5, 2.0, 0.0, 0.0, 0.0]])
    hme6 = make_model("hme", 6)
    np.testing.assert_array_equal(hme6.relax(w_eq, 0.1, 0.03), w_eq)
    np.testing.assert_array_equal(hme6.relax_exact(w_eq, 0.1, 0.03), w_eq)


def test_fixed_basis_source_vanishes_on_maxwellian():
    f = maxwellian_coefficients(1.0, 0.3, 1.2, 8)
    hsm = make_model("hsm", 8)
    np.testing.assert_allclose(hsm.relax(f, 1.0, 0.4), f, rtol=0, atol=1e-14)
    np.testing.assert_allclose(hsm.relax_exact(f, 1.0, 0.4), f, rtol=0, atol=1e-14)


def test_fixed_basis_source_literal():
    # rho = 1, u = 0, theta = 1: the Maxwellian is e_0 and only f_3 decays
    f = np.array([[1.0, 0.0, 0.0, 0.5, 0.0, 0.0]])
    out = make_model("hsm", 6).relax(f, 1.0, 0.5)
    np.testing.assert_array_equal(out, [[1.0, 0.0, 0.0, 0.25, 0.0, 0.0]])


def test_fixed_basis_source_structure():
    f = np.array([[1.2, 0.3, 0.1, 0.5, -0.2]])
    hsm = make_model("hsm", 5)
    for relax in (hsm.relax, hsm.relax_exact):
        out = relax(f, 0.7, 0.1)
        np.testing.assert_allclose(out[:, :3], f[:, :3], rtol=1e-15)
        np.testing.assert_array_equal(relax(f, math.inf, 0.1), f)
    with pytest.raises(StateError):
        make_model("hsm", 4).relax(np.array([[1.0, 0.0, -2.0, 0.0]]), 1.0, 0.1)


@pytest.mark.parametrize("m", [3, 4, 10, 40])
@pytest.mark.parametrize("exact", [False, True])
def test_fixed_basis_relaxation_on_buffer_rows_is_cell_formula_bitwise(m, exact):
    # relax_moments blends in place on a ghosted, non-contiguous moment-major
    # view like MomentBuffer.w; the reference is m + (f - m) factor per cell
    # with the Maxwellian of that cell alone
    rng = np.random.default_rng(90 + m)
    n, g = 9, 2
    hsm = make_model("hsm", m)
    cells = hsm.equilibrium(rng.uniform(0.5, 2.0, n), rng.uniform(-0.5, 0.5, n),
                            rng.uniform(0.8, 1.5, n))
    cells += 0.05 * rng.standard_normal((n, m))
    eps, factor = 1e-4, decay_factor(3e-5, 1e-4, exact)
    ref = np.empty_like(cells)
    for i, f in enumerate(cells):
        mx = maxwellian_coefficients(*hsm_primitives(f), m)
        ref[i] = mx + (f - mx) * factor
    we = np.full((m, n + 2 * g), np.nan)  # ghosts: never read, never written
    ft = we[:, g:g + n]
    ft[...] = cells.T
    hsm.relax_moments(ft, eps, factor)
    np.testing.assert_array_equal(ft.T, ref)
    assert np.isnan(we[:, :g]).all() and np.isnan(we[:, g + n:]).all()
    # one (M,) state relaxes by the same formula
    f = cells[4].copy()
    hsm.relax_moments(f, eps, factor)
    np.testing.assert_array_equal(f, ref[4])
    # eps = inf leaves the rows untouched
    before = we.copy()
    hsm.relax_moments(ft, math.inf, factor)
    np.testing.assert_array_equal(we, before)


# --- Euler model -------------------------------------------------------------


def test_euler_matrix_literals():
    np.testing.assert_array_equal(
        EulerModel().system_matrices(np.array([1.0, 0.0, 1.0])),
        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 2.0, 0.0]]),
    )
    a = EulerModel().system_matrices(np.array([2.0, 1.0, 1.0]))
    np.testing.assert_array_equal(a[1], np.array([0.5, 1.0, 1.0]))
    np.testing.assert_array_equal(a[0], np.array([1.0, 2.0, 0.0]))
    with pytest.raises(StateError):
        EulerModel().system_matrices(np.array([0.0, 0.0, 1.0]))


def test_euler_eigenvalues():
    a = EulerModel().system_matrices(np.array([1.0, 0.0, 1.0]))
    eig = np.sort(np.linalg.eigvals(a).real)
    np.testing.assert_allclose(eig, [-math.sqrt(3.0), 0.0, math.sqrt(3.0)], atol=1e-12)


def test_euler_equals_adaptive_block_at_equilibrium():
    rng = np.random.default_rng(5)
    for _ in range(5):
        rho, u, theta = rng.uniform(0.5, 2.0), rng.uniform(-1, 1), rng.uniform(0.5, 2.0)
        w = np.zeros(7)
        w[0], w[1], w[2] = rho, u, theta
        np.testing.assert_array_equal(
            EulerModel().system_matrices(np.array([rho, u, theta])),
            hme_system_matrix(w)[:3, :3],
        )


# --- model linearizations agree near global equilibrium ----------------------


def _to_fixed_basis(w):
    return basis_transform(hme_state_to_expansion(w), BasisParams(0.0, 1.0))


def _mapped_flux_mismatch(delta, d_state, d_grad, model, a_fixed):
    """|J(A_adaptive g) - A_fixed (J g)| at distance delta from equilibrium."""
    m = model.n_vars
    eq = np.zeros(m)
    eq[0], eq[2] = 1.0, 1.0
    w = eq + delta * d_state
    g = delta * d_grad

    def jac_apply(v, h=1e-5):
        nv = np.linalg.norm(v)
        vh = v / nv
        return (_to_fixed_basis(w + h * vh) - _to_fixed_basis(w - h * vh)) / (2 * h) * nv

    lhs = jac_apply(model.system_matrices(w) @ g)
    rhs = a_fixed @ jac_apply(g)
    return np.max(np.abs(lhs - rhs))


def test_adaptive_and_fixed_fluxes_agree_to_second_order():
    m = 8
    model = make_model("hme", m)
    a_fixed = hsm_system_matrix(m)
    rng = np.random.default_rng(7)
    d1 = rng.standard_normal(m)
    d1 /= np.linalg.norm(d1)
    d2 = rng.standard_normal(m)
    d2 /= np.linalg.norm(d2)
    e1 = _mapped_flux_mismatch(1e-4, d1, d2, model, a_fixed)
    e2 = _mapped_flux_mismatch(5e-5, d1, d2, model, a_fixed)
    assert e1 < 1e-6
    # halving the distance quarters the mismatch: quadratic contact
    assert 3.5 < e1 / e2 < 4.5


# --- shared model interface --------------------------------------------------


def test_wave_speed_estimates():
    hme = make_model("hme", 10)
    w = np.array([[1.0, 0.5, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    r10 = largest_hermite_root(10)
    assert hme.wave_speeds(w)[0] == pytest.approx(0.5 + math.sqrt(2.0) * r10, rel=1e-14)
    hsm = make_model("hsm", 10)
    assert hsm.wave_speeds(np.eye(10)[:1])[0] == r10
    euler = EulerModel()
    assert euler.wave_speeds(np.array([[1.0, -0.5, 2.0]]))[0] == pytest.approx(
        0.5 + math.sqrt(6.0), rel=1e-14
    )


def test_relax_is_single_factor_decay():
    hme = make_model("hme", 6)
    w = np.array([[1.0, 0.2, 1.1, 0.3, -0.2, 0.1]])
    out = hme.relax(w, 0.01, 0.004)
    np.testing.assert_array_equal(out[:, :3], w[:, :3])
    np.testing.assert_array_equal(out[:, 3:], w[:, 3:] * (1.0 - 0.004 / 0.01))
    out = hme.relax_exact(w, 0.01, 0.004)
    np.testing.assert_array_equal(out[:, 3:], w[:, 3:] * math.exp(-0.4))


@pytest.mark.parametrize("kind", ["hme", "hsm", "euler"])
@pytest.mark.parametrize("eps", [0.0, -1.0])
def test_relax_rejects_nonpositive_eps(kind, eps):
    # eps = 0 would divide by zero; eps < 0 would amplify the free moments
    model = make_model(kind, 6)
    w = model.equilibrium(1.0, 0.2, 1.1)
    for relax in (model.relax, model.relax_exact):
        with pytest.raises(ConfigError, match="eps must be positive"):
            relax(w, eps, 1e-3)


def test_euler_binds_the_adaptive_state_rules():
    # Euler is the adaptive model's leading block: one object per rule
    for name in ("primitives", "validate", "primitive_moments", "equilibrium",
                 "relax_moments"):
        assert EulerModel.__dict__[name] is HMEModel.__dict__[name], name


def test_fixed_basis_derives_its_state_rules_from_its_own_primitives():
    # validate and primitive_moments are one object each, bound in every
    # model class's own namespace; the fixed basis differs in primitives
    for name in ("validate", "primitive_moments"):
        assert HSMModel.__dict__[name] is HMEModel.__dict__[name], name
    assert HSMModel.__dict__["primitives"] is not HMEModel.__dict__["primitives"]


@pytest.mark.parametrize("kind,m", [("hme", 4), ("hme", 10), ("hme", 40), ("hsm", 3),
                                    ("hsm", 6), ("hsm", 10), ("euler", 3)])
def test_primitives_of_rows_equal_primitive_moments_of_cells(kind, m):
    # the restriction reads moment-major rows (wt.T) and cell-major cells
    # alike, bit for bit
    rng = np.random.default_rng(m)
    model = make_model(kind, m)
    n = 50
    w = model.equilibrium(rng.uniform(0.2, 3.0, n), rng.uniform(-2.0, 2.0, n),
                          rng.uniform(0.2, 3.0, n))
    w[:, 3:] += 0.01 * rng.standard_normal((n, m - 3))
    model.validate(w)
    wt = np.ascontiguousarray(w.T)
    np.testing.assert_array_equal(np.stack(model.primitives(wt.T)),
                                  model.primitive_moments(w).T)
    if kind != "hsm":  # the adaptive and Euler restrictions are views
        assert all(np.shares_memory(p, wt) for p in model.primitives(wt.T))


def test_relax_exact_fixed_basis_targets_maxwellian():
    hsm = make_model("hsm", 6)
    f = np.array([[1.0, 0.1, 0.05, 0.3, -0.1, 0.02]])
    out = hsm.relax_exact(f, 1e-3, 1.0)  # dt >> eps: lands on the Maxwellian
    prim = hsm.primitive_moments(f)
    m = maxwellian_coefficients(prim[:, 0], prim[:, 1], prim[:, 2], 6)
    np.testing.assert_allclose(out, m, atol=1e-12)


def test_heat_flux_matches_expansion_moments():
    from mmbgk.basis import moments_of

    hme = make_model("hme", 6)
    w = np.array([1.0, 0.3, 1.4, 0.05, -0.02, 0.01])
    q = hme.heat_flux(w[None, :])[0]
    assert q == 6.0 * w[3]
    assert q == pytest.approx(moments_of(hme_state_to_expansion(w))[3], rel=1e-13)


def test_equilibrium_constructor_shapes():
    hme = make_model("hme", 6)
    w = hme.equilibrium(np.array([1.0, 2.0]), np.array([0.1, -0.1]), 1.0)
    assert w.shape == (2, 6)
    np.testing.assert_array_equal(w[:, 0], [1.0, 2.0])
    np.testing.assert_array_equal(w[:, 3:], 0.0)
    hsm = make_model("hsm", 6)
    np.testing.assert_array_equal(hsm.equilibrium(1.0, 0.0, 1.0), np.eye(6)[:1])


def test_validate_names_offending_cell():
    hme = make_model("hme", 4)
    bad = np.ones((4, 4))
    bad[2, 0] = -1.0
    with pytest.raises(StateError, match="cell 2"):
        hme.validate(bad)
    bad = np.ones((4, 4))
    bad[1, 3] = math.nan
    with pytest.raises(StateError, match="cell 1"):
        hme.validate(bad)


@pytest.mark.parametrize("kind", ["hme", "hsm", "euler"])
def test_non_finite_state_error_carries_its_cell(kind):
    # a caller that checks a window of the grid adds the window's first
    # cell to exc.cell, so the non-finite error must carry it like the
    # rho/theta one
    model = make_model(kind, 5) if kind != "euler" else make_model("euler")
    bad = model.equilibrium(np.ones(6), 0.0, 1.0)
    bad[4, 1] = math.inf
    with pytest.raises(StateError, match=r"^non-finite state in cell 4$") as err:
        model.validate(bad)
    assert (err.value.what, err.value.cell) == ("non-finite state", 4)


def test_make_model_validation():
    with pytest.raises(ConfigError):
        make_model("hme", 3)
    with pytest.raises(ConfigError):
        make_model("hsm", 2)
    with pytest.raises(ConfigError):
        make_model("banana", 5)
    with pytest.raises(DomainError):
        largest_hermite_root(0)
