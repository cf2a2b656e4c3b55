"""Canned studies: two-beam runs, matching accuracy, consistency, speedup."""

import numpy as np
import pytest

from mmbgk.errors import ConfigError
from mmbgk.experiments import (
    BIMODAL_STATE,
    BenchResult,
    MomentSnapshot,
    TwoBeamConfig,
    consistency_sweep,
    matching_study,
    moment_snapshot,
    scheme_model,
    speedup_bench,
    two_beam,
    two_beam_initial,
)
from mmbgk.quadrature import DEFAULT_ORDER


def test_default_configuration():
    cfg = TwoBeamConfig()
    assert (cfg.u_beam, cfg.x_min, cfg.x_max, cfg.n_cells) == (0.5, -10.0, 10.0, 500)
    assert (cfg.t_end, cfg.eps, cfg.n_moments) == (0.1, 1e-4, 10)
    assert (cfg.scheme, cfg.model, cfg.dt_macro) == ("mmhme", "hme", 5e-4)
    assert (cfg.micro_steps, cfg.cfl, cfg.order, cfg.n_snapshots) == (2, 0.5, 1, 1)
    assert cfg.n_macro is None and cfg.dt_micro is None


def test_initial_field_is_opposed_beams():
    cfg = TwoBeamConfig(n_cells=100)
    field, model = two_beam_initial(cfg)
    snap = moment_snapshot(field, model)
    np.testing.assert_array_equal(snap.rho, 1.0)
    np.testing.assert_array_equal(snap.theta, 1.0)
    np.testing.assert_array_equal(snap.u, np.where(snap.x < 0.0, 0.5, -0.5))
    np.testing.assert_array_equal(snap.q, 0.0)
    np.testing.assert_array_equal(field.data[:, 3:], 0.0)


def test_scheme_model_tracks_scheme():
    assert scheme_model(TwoBeamConfig(scheme="mmhsm")).kind == "hsm"
    assert scheme_model(TwoBeamConfig(scheme="euler")).kind == "euler"
    assert scheme_model(TwoBeamConfig(scheme="cpi", model="hme")).kind == "hme"


def test_snapshot_layout():
    snaps = two_beam(TwoBeamConfig(n_cells=80, t_end=0.005, eps=1e-3,
                                   n_snapshots=2))
    assert len(snaps) == 3
    assert [s.time for s in snaps] == pytest.approx([0.0, 0.0025, 0.005])
    for s in snaps:
        assert isinstance(s, MomentSnapshot)
        np.testing.assert_array_equal(s.p, s.rho * s.theta)
        assert s.x.shape == s.q.shape == (80,)


def test_collision_heats_the_gas_and_carries_heat_flux():
    snaps = two_beam()
    final = snaps[-1]
    mid = np.abs(final.x) < 2.0
    assert final.theta[mid].max() > 1.05  # kinetic energy thermalizes
    assert np.max(np.abs(final.q)) > 1e-6  # non-equilibrium flux survives
    euler = two_beam(TwoBeamConfig(scheme="euler"))[-1]
    np.testing.assert_array_equal(euler.q, 0.0)


def test_matching_error_decreases_with_macro_size():
    rows = matching_study()
    assert [l for l, _ in rows] == [3, 4, 5, 6, 7]
    errs = [e for _, e in rows]
    assert all(e > 0.0 for e in errs)
    assert all(b <= a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < errs[0]


def test_matching_error_vanishes_at_full_width():
    rows = matching_study(l_values=range(3, 9))
    assert rows[-1][0] == 8
    assert rows[-1][1] == 0.0


def test_matching_study_validation():
    with pytest.raises(ConfigError, match="n_moments >= 4"):
        matching_study(n_moments=3)
    with pytest.raises(ConfigError, match="out of range"):
        matching_study(l_values=[2])
    with pytest.raises(ConfigError, match="out of range"):
        matching_study(l_values=[9])
    # the quadrature is exact for the Gram integrands (degree 2 M - 2) only
    # up to M = DEFAULT_ORDER; at 171 sqrt(a!) overflows
    for m in (DEFAULT_ORDER + 1, 200):
        with pytest.raises(ConfigError, match=rf"n_moments <= {DEFAULT_ORDER}.*got {m}$"):
            matching_study(n_moments=m)
    assert matching_study(n_moments=DEFAULT_ORDER, l_values=[DEFAULT_ORDER]) == [
        (DEFAULT_ORDER, 0.0)]


def test_bimodal_state_literal():
    assert BIMODAL_STATE == (1.0, 1.0, 1.0, -0.2, 0.1, -0.01, 0.001, -0.0005)


def test_consistency_distance_shrinks_with_macro_step():
    rows = consistency_sweep(cfl_list=(0.5, 0.4), t_end=0.02)
    assert [(r[0], r[1]) for r in rows] == [
        ("mmhme", 0.5), ("mmhme", 0.4), ("cpi", 0.5), ("cpi", 0.4)]
    for scheme, cfl, dt, dist in rows:
        assert dt == pytest.approx((cfl / 0.5) * 5e-4, rel=1e-15)
        assert dist > 0.0
    assert rows[1][3] < rows[0][3]  # mmhme
    assert rows[3][3] < rows[2][3]  # cpi


def test_speedup_bench_layout():
    results = speedup_bench(eps_list=(1e-3,), t_end=0.02)
    assert [r.scheme for r in results] == ["micro", "mmhme", "euler"]
    for r in results:
        assert isinstance(r, BenchResult)
        assert r.eps == 1e-3 and r.wall_time > 0.0 and r.speedup > 0.0
    micro, mm, euler = results
    assert micro.speedup == 1.0  # timed against itself
    assert micro.steps == 40  # t_end / (eps/2)
    assert mm.steps == 40  # t_end / dt_macro
    assert euler.steps == 40


def test_coarse_width_barely_changes_the_solution():
    # extrapolating 3, 5, or 7 variables gives near-identical fields, all
    # far from the equilibrium closure
    cfg = dict(n_cells=200, t_end=0.02, eps=1e-4)
    finals = []
    for l in (3, 5, 7):
        snaps = two_beam(TwoBeamConfig(scheme="cpi", n_macro=l, **cfg))
        finals.append(np.column_stack([snaps[-1].rho, snaps[-1].u, snaps[-1].theta]))
    e = two_beam(TwoBeamConfig(scheme="euler", **cfg))[-1]
    euler_prim = np.column_stack([e.rho, e.u, e.theta])
    pairwise = max(np.max(np.abs(a - b)) for a in finals for b in finals)
    to_euler = min(np.max(np.abs(a - euler_prim)) for a in finals)
    assert pairwise < 1e-5
    assert to_euler > 100 * pairwise


def test_runs_are_deterministic():
    cfg = TwoBeamConfig(n_cells=60, t_end=0.005, eps=1e-3)
    a = two_beam(cfg)[-1]
    b = two_beam(cfg)[-1]
    np.testing.assert_array_equal(a.rho, b.rho)
    np.testing.assert_array_equal(a.q, b.q)
