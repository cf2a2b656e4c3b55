"""Acceptance gate: one test per release criterion.

Each test asserts a single numbered property of the solver suite end to end;
run with -v to get one pass/fail line per criterion. Budgeted criteria also
assert their wall-time ceiling.
"""

import math
import time

import numpy as np
import pytest

from mmbgk.basis import (
    hermite_he_values,
    hme_state_to_expansion,
    hsm_expansion,
    weighted_l2_distance,
)
from mmbgk.basis import BasisParams, eval_basis, weight_function
from mmbgk.experiments import (
    BIMODAL_STATE,
    TwoBeamConfig,
    consistency_sweep,
    matching_study,
    moment_snapshot,
    speedup_bench,
    two_beam_initial,
)
from mmbgk.grid import Grid1D, Field, constant_field
from mmbgk.models import make_model
from mmbgk.quadrature import gaussian_rule
from mmbgk.schemes import SimConfig, run
from oracles import connection_coefficients, match_l2

SQRT2 = math.sqrt(2.0)


def test_ac01_gram_matrix_identity_under_quadrature():
    """Basis Gram matrix equals identity to 1e-10 for 20 random (u, theta)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    m = 10
    worst = 0.0
    for _ in range(20):
        params = BasisParams(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
        rule = gaussian_rule(params.u, params.theta, n=60)
        q = eval_basis(params, rule.nodes, m) / weight_function(params, rule.nodes)
        gram = (q * rule.weights) @ q.T
        worst = max(worst, np.max(np.abs(gram - np.eye(m))))
    assert worst < 1e-10
    assert time.perf_counter() - t0 < 5.0


def test_ac02_matching_matrix_equals_quadrature():
    """Closed-form connection matrix matches quadrature entry-wise to 1e-10
    on 50 random valid parameter quadruples for M = 6, 8, 10."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for m in (6, 8, 10):
        scale = np.array([1.0 / math.sqrt(math.factorial(a)) for a in range(m)])
        for _ in range(50):
            u_new, u_prior = rng.uniform(-1.0, 1.0, size=2)
            t_new = rng.uniform(0.5, 2.0)
            t_prior = t_new * rng.uniform(0.3, 1.9)  # inside theta* < 2 theta+
            b = connection_coefficients(u_new, t_new, u_prior, t_prior, m)
            rule = gaussian_rule(u_prior, t_prior, n=40)
            hp = hermite_he_values((rule.nodes - u_prior) / math.sqrt(t_prior), m)
            hn = hermite_he_values((rule.nodes - u_new) / math.sqrt(t_new), m)
            oracle = (hp * scale[:, None] * rule.weights) @ (hn * scale[:, None]).T
            worst = max(worst, np.max(np.abs(b - oracle)))
    assert worst < 1e-10
    assert time.perf_counter() - t0 < 10.0


def test_ac03_matching_is_optimal_under_perturbation():
    """100 random perturbations of the matched free coefficients never beat
    the minimizer by more than 1e-12 in the weighted L2 norm."""
    prior = hme_state_to_expansion(np.asarray(BIMODAL_STATE))
    target = tuple(1.2 * np.asarray(BIMODAL_STATE[:3]))
    matched = match_l2(prior, target)
    d0 = weighted_l2_distance(matched, prior, matched.params)
    rng = np.random.default_rng(303)
    for _ in range(100):
        eta = rng.standard_normal(len(matched.coeffs) - 3)
        eta *= 1e-3 / np.linalg.norm(eta)
        coeffs = matched.coeffs.copy()
        coeffs[3:] += eta
        d = weighted_l2_distance(
            type(matched)(matched.params, coeffs, matched.model), prior,
            matched.params)
        assert d >= d0 - 1e-12


def test_ac04_fixed_basis_matching_degeneracy():
    """Fixed-basis matching carries free coefficients over bitwise and sets
    the first three from the macro constraints."""
    prior = hsm_expansion(np.array([1.0, 0.0, 0.0, 0.5, -0.1, 0.02]))
    rho, u, theta = 1.1, 0.2, 1.05
    out = match_l2(prior, (rho, u, theta))
    assert out.coeffs[0] == rho
    assert out.coeffs[1] == rho * u
    assert out.coeffs[2] == (rho * theta + rho * u * u - rho) / SQRT2
    np.testing.assert_array_equal(out.coeffs[3:], prior.coeffs[3:])


def test_ac05_matching_error_non_increasing_in_macro_size():
    """Matching-study error is non-increasing for L = 3..7 with a strict
    overall decrease."""
    t0 = time.perf_counter()
    rows = matching_study()
    errs = [e for _, e in rows]
    assert [l for l, _ in rows] == [3, 4, 5, 6, 7]
    assert all(b <= a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < errs[0]
    assert time.perf_counter() - t0 < 60.0


def test_ac06_matching_operator_tends_to_identity():
    """inf-norm of (A^-1 B - I) falls below 1e-8 as the basis-parameter
    distance shrinks to within 1e-6, decreasing monotonically. The Gram
    matrix A of the orthonormal basis is the identity, so A^-1 B = B."""
    u0, t0_ = 0.3, 1.2
    devs, dists = [], []
    for k in range(10):
        d = 1e-3 * 0.2 ** k
        ainv_b = connection_coefficients(u0 + d, t0_ + d, u0, t0_, 10)
        devs.append(np.max(np.sum(np.abs(ainv_b - np.eye(10)), axis=1)))
        dists.append(d)
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert dists[-1] < 1e-6
    assert devs[-1] < 1e-8


def test_ac07_consistency_distance_strictly_decreasing():
    """Two-beam distance to the resolved micro reference strictly decreases
    over CFL 0.5 -> 0.4 -> 0.27 for both mm and CPI runs."""
    t0 = time.perf_counter()
    rows = consistency_sweep()
    by_scheme = {"mmhme": [], "cpi": []}
    for scheme, _, _, dist in rows:
        by_scheme[scheme].append(dist)
    for scheme, dists in by_scheme.items():
        assert len(dists) == 3
        assert dists[1] < dists[0] and dists[2] < dists[1], (scheme, dists)
    assert time.perf_counter() - t0 < 300.0


@pytest.mark.parametrize("scheme", ["micro", "micro-split", "euler",
                                    "mmhme", "mmhsm", "pi", "cpi"])
def test_ac08_two_beam_mirror_symmetry(scheme):
    """rho even, u odd, q odd about x = 0 to 1e-10 at every snapshot."""
    cfg = TwoBeamConfig(scheme=scheme, n_snapshots=4,
                        n_macro=10 if scheme == "pi" else None)
    field, model = two_beam_initial(cfg)
    snaps = run(field, cfg)
    for s in snaps:
        snap = moment_snapshot(s, model)
        assert np.max(np.abs(snap.rho - snap.rho[::-1])) < 1e-10
        assert np.max(np.abs(snap.u + snap.u[::-1])) < 1e-10
        assert np.max(np.abs(snap.q + snap.q[::-1])) < 1e-10


def test_ac09_homogeneous_relaxation_is_geometric():
    """Space-homogeneous free coefficients obey f^n = (1 - dt/eps)^n f^0
    to machine precision over 100 steps."""
    grid = Grid1D(-10.0, 10.0, 8)
    model = make_model("hme", n_moments=6)
    state = np.array([1.0, 0.0, 1.0, 0.2, 0.05, -0.03])
    f = constant_field(grid, state)
    eps, dt = 1e-3, 4e-4
    cfg = SimConfig(scheme="micro", model="hme", n_moments=6, eps=eps,
                    dt_micro=dt, dt_macro=dt, t_end=100 * dt)
    out = run(f, cfg)[-1]
    factor = (1.0 - dt / eps) ** 100
    desired = np.broadcast_to(state[3:] * factor, out.data[:, 3:].shape)
    np.testing.assert_allclose(out.data[:, 3:], desired, rtol=1e-12)


def test_ac10_full_width_cpi_equals_pi_bitwise():
    """CPI extrapolating all M variables reproduces PI bitwise over a full
    two-beam run, every snapshot."""
    outs = {}
    for scheme in ("pi", "cpi"):
        cfg = TwoBeamConfig(scheme=scheme, n_macro=10, n_snapshots=4)
        field, _ = two_beam_initial(cfg)
        outs[scheme] = run(field, cfg)
    for a, b in zip(outs["pi"], outs["cpi"]):
        assert a.time == b.time
        np.testing.assert_array_equal(a.data, b.data)


def test_ac11_stiff_speedup_and_flat_mm_cost():
    """mm speedup over the resolved micro run is >= 10 at eps = 1e-5, and mm
    wall time varies < 20% across eps in {1e-3, 1e-4, 1e-5}."""
    t0 = time.perf_counter()
    results = speedup_bench()
    mm = {r.eps: r for r in results if r.scheme == "mmhme"}
    assert mm[1e-5].speedup >= 10.0
    walls = [mm[e].wall_time for e in (1e-3, 1e-4, 1e-5)]
    assert max(walls) / min(walls) < 1.2
    assert time.perf_counter() - t0 < 600.0


@pytest.mark.parametrize("scheme", ["micro", "micro-split", "euler",
                                    "mmhme", "mmhsm", "pi", "cpi"])
def test_ac12_equilibrium_fixed_point_over_1000_steps(scheme):
    """A constant equilibrium field is a fixed point to 1e-14 per step."""
    model_kind = {"mmhsm": "hsm", "euler": "euler"}.get(scheme, "hme")
    model = (make_model("euler") if model_kind == "euler"
             else make_model(model_kind, n_moments=10))
    grid = Grid1D(-10.0, 10.0, 50)
    f = constant_field(grid, model.equilibrium(1.0, 0.0, 1.0)[0])
    kw = dict(scheme=scheme, model=model_kind, n_moments=model.n_vars,
              eps=1e-2, dt_macro=1e-3, t_end=1.0)
    if scheme in ("micro", "micro-split"):
        kw["dt_micro"] = 1e-3  # pace the run at exactly 1000 steps
    if scheme == "pi":
        kw["n_macro"] = 10
    out = run(f, SimConfig(**kw))[-1]
    assert np.max(np.abs(out.data - f.data)) <= 1000 * 1e-14
