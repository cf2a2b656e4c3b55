"""Canned studies: two-beam collision, matching accuracy, step-size
consistency, and the stiffness speedup benchmark.
"""

from dataclasses import dataclass, replace
import math
import time

import numpy as np

from .basis import hme_state_to_expansion, weighted_l2_distance
from .coupling import transform_state_slots
from .errors import ConfigError
from .grid import Field, Grid1D
from .quadrature import DEFAULT_ORDER
from .schemes import SimConfig, run, run_with_reports, scheme_model


@dataclass
class TwoBeamConfig(SimConfig):
    """Colliding-beams setup: the run settings plus the domain and beam speed.
    Defaults follow the reference configuration."""

    u_beam: float = 0.5
    x_min: float = -10.0
    x_max: float = 10.0
    n_cells: int = 500


@dataclass
class MomentSnapshot:
    """Observable fields of one snapshot: density, velocity, temperature,
    pressure p = rho*theta, and heat flux q."""

    time: float
    x: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    p: np.ndarray
    q: np.ndarray


@dataclass
class BenchResult:
    scheme: str
    eps: float
    wall_time: float
    steps: int
    speedup: float


# prior coefficients of the bimodal matching study
BIMODAL_STATE = (1.0, 1.0, 1.0, -0.2, 0.1, -0.01, 0.001, -0.0005)


def two_beam_initial(cfg: TwoBeamConfig):
    """Initial field: opposed equilibrium beams (rho=1, u=+-u_beam, theta=1)."""
    grid = Grid1D(cfg.x_min, cfg.x_max, cfg.n_cells)
    model = scheme_model(cfg)
    x = grid.centers
    u = np.where(x < 0.0, cfg.u_beam, -cfg.u_beam)
    data = model.equilibrium(np.ones_like(x), u, np.ones_like(x))
    return Field(grid, data), model


def moment_snapshot(field: Field, model) -> MomentSnapshot:
    prim = model.primitive_moments(field.data)
    return MomentSnapshot(
        time=field.time, x=field.grid.centers, rho=prim[:, 0], u=prim[:, 1],
        theta=prim[:, 2], p=prim[:, 0] * prim[:, 2], q=model.heat_flux(field.data),
    )


def two_beam(cfg: TwoBeamConfig = None):
    """Run the two-beam test, returning one MomentSnapshot per emitted time."""
    cfg = cfg or TwoBeamConfig()
    field0, model = two_beam_initial(cfg)
    snaps = run(field0, cfg)
    return [moment_snapshot(s, model) for s in snaps]


def matching_study(n_moments: int = 8, p_scale: float = 1.2, l_values=None):
    """Match against a scaled bimodal target for increasing macro sizes L.

    The exact new state is p_scale times the prior; the matched state takes
    its first L variables from the exact one and reconstructs the rest from
    the prior. Returns rows (L, squared weighted L2 error vs exact).
    """
    if n_moments < 4:
        raise ConfigError(f"study needs n_moments >= 4, got {n_moments}")
    if n_moments > DEFAULT_ORDER:
        # the Gram integrands have degree 2 n_moments - 2, and the quadrature
        # rule of order DEFAULT_ORDER is exact to degree 2 DEFAULT_ORDER - 1
        raise ConfigError(f"study needs n_moments <= {DEFAULT_ORDER}, got {n_moments}")
    if l_values is None:
        l_values = range(3, n_moments)
    prior = np.zeros(n_moments)
    k = min(len(BIMODAL_STATE), n_moments)
    prior[:k] = BIMODAL_STATE[:k]
    exact = p_scale * prior
    exact_e = hme_state_to_expansion(exact)
    weight = exact_e.params
    rows = []
    for l in l_values:
        if not 3 <= l <= n_moments:
            raise ConfigError(f"macro size {l} out of range [3, {n_moments}]")
        matched = transform_state_slots(prior[:, None], exact[:l, None])[:, 0]
        err = weighted_l2_distance(hme_state_to_expansion(matched), exact_e, weight)
        rows.append((l, err))
    return rows


def _primitive_distance(grid: Grid1D, prim_a: np.ndarray, prim_b: np.ndarray) -> float:
    d = prim_a - prim_b
    return float(np.sqrt(grid.dx * np.sum(d * d)))


def consistency_sweep(cfl_list=(0.5, 0.4, 0.27), eps: float = 1e-4,
                      n_moments: int = 10, t_end: float = 0.1):
    """Distance of mm and CPI two-beam runs to the resolved micro reference.

    The macro step is dt = (cfl/0.5)*5e-4, anchored so the default CFL 0.5
    reproduces the standard dt = 5e-4. Every run, including the reference,
    embeds the same inner integrator (dt_micro = eps); with mismatched inner
    steps the distance saturates at the inner-diffusion offset instead of
    measuring the macro-step error. All runs start from one initial field.
    Returns rows (scheme, cfl, dt, dist) with dist the discrete L2 norm over
    cells of the stacked (rho, u, theta) difference at t_end.
    """
    base = TwoBeamConfig(eps=eps, n_moments=n_moments, t_end=t_end, dt_micro=eps)
    field0, model = two_beam_initial(base)
    ref = run(field0, replace(base, scheme="micro"))[-1]
    ref_prim = model.primitive_moments(ref.data)
    rows = []
    for scheme in ("mmhme", "cpi"):
        for cfl in cfl_list:
            dt = (cfl / 0.5) * 5e-4
            final = run(field0, replace(base, scheme=scheme, dt_macro=dt, cfl=cfl))[-1]
            dist = _primitive_distance(field0.grid, model.primitive_moments(final.data), ref_prim)
            rows.append((scheme, cfl, dt, dist))
    return rows


def speedup_bench(eps_list=(1e-3, 1e-4, 1e-5), t_end: float = 0.1):
    """Wall-time of micro, mm, and Euler-only two-beam runs per stiffness.

    Every scheme takes the runner's own step sizes, so the micro reference
    resolves eps with dt_micro = min(CFL limit, eps/2). Timing is
    single-threaded wall clock; speedup is relative to the micro run at the
    same eps. Each scheme's runs are repeated until half a second of
    cumulative wall time (at most five repeats) and the minimum is reported,
    so sub-second schemes are not at the mercy of scheduler noise. Each
    repeat runs the eps values back to back, so their minima sample the same
    host state.
    """
    timings = {}
    for scheme in ("micro", "mmhme", "euler"):
        cases = {}
        for eps in eps_list:
            cfg = TwoBeamConfig(scheme=scheme, eps=eps, t_end=t_end)
            cases[eps] = (cfg, two_beam_initial(cfg)[0])
        best = dict.fromkeys(eps_list, math.inf)
        spent = dict.fromkeys(eps_list, 0.0)
        pending = list(eps_list)
        while pending:
            for eps in pending:
                cfg, f0 = cases[eps]
                t0 = time.perf_counter()
                _, reports = run_with_reports(f0, cfg)
                wall = time.perf_counter() - t0
                best[eps], spent[eps] = min(best[eps], wall), spent[eps] + wall
                timings[scheme, eps] = (best[eps], len(reports))
            pending = [e for e in pending if spent[e] < 0.5 and spent[e] < 5 * best[e]]
    results = []
    for eps in eps_list:
        micro_time = timings["micro", eps][0]
        for scheme in ("micro", "mmhme", "euler"):
            wall, steps = timings[scheme, eps]
            results.append(BenchResult(scheme, eps, wall, steps, micro_time / wall))
    return results
