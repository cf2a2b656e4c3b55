"""Time-stepping schemes: micro, macro, micro-macro, and projective variants."""

from dataclasses import replace
import math

import numpy as np
import pytest

from mmbgk import schemes
from mmbgk.coupling import match_hsm_states, pi_extrapolate, transform_state_slots
from mmbgk.errors import ConfigError, DomainError, StateError, StepError
from mmbgk.experiments import TwoBeamConfig, two_beam_initial
from mmbgk.grid import (
    Grid1D, Field, MomentBuffer, apply_source, apply_source_exact, cfl_timestep, constant_field,
    spatial_update,
)
from mmbgk.models import HSMModel, make_model
from mmbgk.schemes import SimConfig, StepReport, run, run_with_reports
from oracles import total_mass

ALL_SCHEMES = ("micro", "micro-split", "euler", "mmhme", "mmhsm", "pi", "cpi")


def _cfg(**kw):
    base = dict(scheme="mmhme", model="hme", n_moments=10, eps=1e-3,
                t_end=0.01, dt_macro=5e-4)
    base.update(kw)
    return SimConfig(**base)


def _two_beam_field(n_cells=100, m=10, model="hme", u_beam=0.5):
    grid = Grid1D(-10.0, 10.0, n_cells)
    mdl = make_model(model, n_moments=m) if model != "euler" else make_model("euler")
    sgn = np.where(grid.centers < 0.0, 1.0, -1.0)
    data = mdl.equilibrium(np.ones(n_cells), u_beam * sgn, np.ones(n_cells))
    return Field(grid, data), mdl


def _scheme_setup(scheme, n_cells=50, m=10, **kw):
    model = {"mmhsm": "hsm", "euler": "euler"}.get(scheme, "hme")
    f, mdl = _two_beam_field(n_cells=n_cells, m=m, model=model)
    cfg = _cfg(scheme=scheme, model=model, n_moments=mdl.n_vars, **kw)
    return f, cfg


# ---------------------------------------------------------------- validation


@pytest.mark.parametrize("kw,msg", [
    (dict(scheme="rk4"), "unknown scheme"),
    (dict(order=3), "order must be 1 or 2"),
    (dict(micro_steps=0), "micro_steps must be >= 1"),
    (dict(eps=0.0), "eps must be positive"),
    (dict(eps=-1.0), "eps must be positive"),
    (dict(dt_macro=0.0), "dt_macro must be positive"),
    (dict(t_end=-0.1), "t_end must be >= 0"),
    (dict(n_snapshots=0), "n_snapshots must be >= 1"),
    (dict(dt_micro=-1e-5), "dt_micro must be positive"),
    (dict(scheme="mmhme", n_macro=5), "n_macro must be 3"),
    (dict(scheme="cpi", n_macro=2), "cpi needs 3 <= n_macro"),
    (dict(scheme="cpi", n_macro=11), "cpi needs 3 <= n_macro"),
    (dict(scheme="pi", n_macro=5), "n_macro must equal n_moments"),
    (dict(scheme="micro", model="euler"), "micro model must be hme or hsm"),
    (dict(dt_micro=4e-4, micro_steps=2, dt_macro=5e-4), "exceeds dt_macro"),
    # an explicit dt_micro leaves cfl unread by micro and pi, and mmhme reads
    # it only at the first Euler leftover: each is rejected before any step
    (dict(scheme="micro", dt_micro=1e-5, cfl=7.0), r"cfl must lie in \(0, 1\]"),
    (dict(scheme="pi", n_macro=10, dt_micro=1e-5, cfl=7.0), r"cfl must lie in \(0, 1\]"),
    (dict(scheme="mmhme", dt_micro=1e-5, cfl=7.0), r"cfl must lie in \(0, 1\]"),
    (dict(scheme="mmhme", dt_micro=1e-5, cfl=0.0), r"cfl must lie in \(0, 1\]"),
    # step inputs that would make the run never end or take no step
    (dict(t_end=math.nan), "t_end must be >= 0 and finite"),
    (dict(t_end=math.inf), "t_end must be >= 0 and finite"),
    (dict(dt_macro=math.inf), "dt_macro must be positive and finite"),
    (dict(scheme="euler", dt_macro=math.inf), "dt_macro must be positive and finite"),
    (dict(scheme="micro", dt_micro=math.inf), "dt_micro must be positive and finite"),
    (dict(scheme="pi", n_macro=10, dt_micro=math.nan), "dt_micro must be positive"),
    # run() absorbs a snapshot interval at or below 1e-6 of the pace
    (dict(scheme="micro", dt_micro=1e300, t_end=0.05), "the run would take no step"),
    (dict(dt_macro=1e6, t_end=1.0), "the run would take no step"),
    (dict(dt_macro=1e-3, t_end=1.5e-9, n_snapshots=2), "the run would take no step"),
    # micro work past dt_macro by more than the absorbed 1e-6 of it
    (dict(dt_micro=2.5e-4 * (1.0 + 2e-6), micro_steps=2, dt_macro=5e-4), "exceeds dt_macro"),
])
def test_config_validation(kw, msg, monkeypatch):
    def no_step(self, t, dt):
        raise AssertionError("a step ran")

    # every configuration error is raised before any step runs
    monkeypatch.setattr(schemes._Runner, "step", no_step)
    f, _ = _two_beam_field(n_cells=20)
    with pytest.raises(ConfigError, match=msg):
        run(f, _cfg(**kw))


def test_micro_work_past_dt_macro_within_the_absorbed_remainder_runs():
    # K dt_micro exceeds dt_macro by 5e-7 of it: each pace step is one macro
    # step whose leftover, short of the micro work, is none
    f, _ = _two_beam_field(n_cells=20)
    cfg = _cfg(dt_micro=2.5e-4 * (1.0 + 5e-7), micro_steps=2, dt_macro=5e-4, t_end=1e-3)
    snaps, reports = run_with_reports(f, cfg)
    assert [r.micro_steps for r in reports] == [2, 2] and snaps[-1].time == 1e-3


@pytest.mark.parametrize("k", [4, 5])
def test_tail_steps_never_exceed_dt_micro(k, monkeypatch):
    # t_end = 0.0123 leaves a tail of 3e-4 after 24 macro steps: two full
    # micro steps and a rest at K = 4, a rest within rounding of one full
    # step at K = 5 (dt_micro = 1e-4). The tail's steps cover it exactly
    # once, none longer than dt_micro
    sizes, micro = [], schemes._Runner._micro

    def recording(self, t, dt, n, keep=0):
        sizes.extend([dt] * n)
        return micro(self, t, dt, n, keep)

    monkeypatch.setattr(schemes._Runner, "_micro", recording)
    f, _ = _two_beam_field(n_cells=60)
    snaps, reports = run_with_reports(f, _cfg(micro_steps=k, t_end=0.0123))
    tail = sizes[24 * k:]
    assert len(tail) == reports[-1].micro_steps == 3
    assert max(tail) <= 5e-4 / k
    assert sum(tail) == pytest.approx(3e-4, rel=1e-12)


def test_field_width_must_match_model():
    f, _ = _two_beam_field(n_cells=20, m=6)
    with pytest.raises(ConfigError, match="field carries 6 variables"):
        run(f, _cfg(n_moments=10))


def test_step_functions_advance_time():
    # t_end = dt_macro: run_with_reports takes exactly one step
    f, _ = _two_beam_field(n_cells=40)
    for kw in (dict(scheme="mmhme"), dict(scheme="pi", n_macro=10),
               dict(scheme="cpi", n_macro=5)):
        cfg = _cfg(**kw)
        snaps, reports = run_with_reports(f, replace(cfg, t_end=cfg.dt_macro))
        assert len(reports) == 1
        assert snaps[-1].time == pytest.approx(5e-4, rel=1e-15)
        assert reports[0].dt == snaps[-1].time


# ------------------------------------------------------------------ run loop


def test_zero_time_returns_initial_snapshot():
    f, _ = _two_beam_field(n_cells=20)
    snaps, reports = run_with_reports(f, _cfg(t_end=0.0))
    assert len(snaps) == 1
    np.testing.assert_array_equal(snaps[0].data, f.data)
    assert snaps[0].time == 0.0
    assert reports == []


def test_snapshot_times_and_count():
    f, _ = _two_beam_field(n_cells=40)
    snaps = run(f, _cfg(t_end=0.01, n_snapshots=4))
    assert len(snaps) == 5  # initial state included
    np.testing.assert_allclose([s.time for s in snaps],
                               [0.0, 0.0025, 0.005, 0.0075, 0.01], rtol=1e-12)


def test_equilibrium_is_a_fixed_point_of_every_scheme():
    cases = [(s, {"mmhsm": "hsm", "euler": "euler"}.get(s, "hme"), None) for s in ALL_SCHEMES]
    cases.append(("cpi", "hsm", 5))  # fixed-basis CPI with free slots to carry over
    for scheme, model, n_macro in cases:
        mdl = make_model(model, n_moments=10) if model != "euler" else make_model("euler")
        grid = Grid1D(-10.0, 10.0, 30)
        f = constant_field(grid, mdl.equilibrium(1.0, 0.0, 1.0)[0])
        kw = dict(scheme=scheme, model=model, n_moments=mdl.n_vars,
                  eps=1e-2, dt_macro=1e-3, t_end=0.05, n_macro=n_macro)
        if scheme in ("micro", "micro-split"):
            kw["dt_micro"] = 1e-3
        snaps = run(f, SimConfig(**kw))
        drift = np.max(np.abs(snaps[-1].data - f.data))
        assert drift < 1e-13, (scheme, drift)


@pytest.mark.parametrize("scheme,model,n_macro", [
    (s, {"mmhsm": "hsm", "euler": "euler"}.get(s, "hme"), None) for s in ALL_SCHEMES
] + [("cpi", "hsm", 5)])
def test_sub_pace_end_time_keeps_the_mass_inflow(scheme, model, n_macro):
    # t_end = 24.6 macro steps: the run ends with a tail of micro steps,
    # which must advance the field by the whole remainder
    u_beam, t_end = 0.5, 0.0123
    f, _ = _two_beam_field(n_cells=120, model=model, u_beam=u_beam)
    cfg = _cfg(scheme=scheme, model=model, n_moments=f.n_vars, eps=1e-3,
               t_end=t_end, n_macro=n_macro)
    last = run(f, cfg)[-1]
    assert last.time == t_end
    inflow = 2.0 * u_beam * t_end
    gain = total_mass(last) - total_mass(f)
    assert abs(gain - inflow) <= 1e-11 * inflow, (gain, inflow)


def test_mm_step_with_full_micro_window_matches_plain_micro():
    # dt_macro = K * dt_micro: the mm update degenerates to K micro steps
    f, mdl = _two_beam_field(n_cells=100)
    cfg_mm = _cfg(scheme="mmhme", eps=1e-3, dt_micro=2e-4, dt_macro=4e-4,
                  micro_steps=2, t_end=4e-4)
    cfg_micro = _cfg(scheme="micro", eps=1e-3, dt_micro=2e-4, dt_macro=4e-4,
                     t_end=4e-4)
    out_mm = run(f, cfg_mm)[-1]
    out_micro = run(f, cfg_micro)[-1]
    np.testing.assert_array_equal(out_mm.data, out_micro.data)


def test_cpi_with_full_width_equals_pi():
    f, _ = _two_beam_field(n_cells=100)
    kw = dict(eps=1e-4, t_end=0.02, dt_macro=5e-4, n_snapshots=2)
    pi_snaps = run(f, _cfg(scheme="pi", n_macro=10, **kw))
    cpi_snaps = run(f, _cfg(scheme="cpi", n_macro=10, **kw))
    for a, b in zip(pi_snaps, cpi_snaps):
        np.testing.assert_array_equal(a.data, b.data)


_SEAMS = ((1e-4, 0.02, 1e-9), (1e-3, 0.02, 1e-12), (1e-3, 0.01025, 1e-12))


@pytest.mark.parametrize("scheme,eps,t_end,offset", [
    pytest.param(s, *c, id=s if c == _SEAMS[0] else f"{s}-{c[0]:g}-{c[1]:g}")
    for s in ("mmhme", "mmhsm", "cpi") for c in _SEAMS])
def test_step_seam_continuity(scheme, eps, t_end, offset):
    # t_end just above/below an exact multiple of dt_macro, or of dt_micro
    # in a tail (0.01025 = 20.5 macro steps): no step covers the absorbed
    # remainder, so the final state is continuous across the seam
    model = "hsm" if scheme == "mmhsm" else "hme"
    n_macro = 10 if scheme == "cpi" else None
    f, _ = _two_beam_field(n_cells=100, model=model)
    outs = []
    for end in (t_end - offset, t_end + offset):
        cfg = _cfg(scheme=scheme, model=model, n_macro=n_macro, eps=eps, t_end=end)
        outs.append(run(f, cfg)[-1].data)
    assert np.max(np.abs(outs[0] - outs[1])) < 1e-6


def test_hme_and_hsm_micro_macro_agree_for_weak_beams():
    # near-equilibrium regime where the two micro models linearize alike
    out = {}
    for scheme, model in (("mmhme", "hme"), ("mmhsm", "hsm")):
        f, mdl = _two_beam_field(n_cells=100, model=model, u_beam=0.05)
        snaps = run(f, _cfg(scheme=scheme, model=model, eps=1e-4, t_end=0.02))
        out[scheme] = mdl.primitive_moments(snaps[-1].data)
    diff = np.linalg.norm(out["mmhme"] - out["mmhsm"])
    assert diff / np.linalg.norm(out["mmhme"]) < 1e-3


def test_split_source_allows_larger_micro_steps():
    # exact collision solve removes the stiff restriction: the split
    # variant takes bare-CFL steps and needs fewer of them
    f, _ = _two_beam_field(n_cells=100)
    kw = dict(eps=1e-3, t_end=0.01, dt_macro=5e-4)
    _, rep_plain = run_with_reports(f, _cfg(scheme="micro", **kw))
    snaps, rep_split = run_with_reports(f, _cfg(scheme="micro-split", **kw))
    assert len(rep_split) < len(rep_plain)
    assert np.all(np.isfinite(snaps[-1].data))


def test_reports_cover_the_interval():
    # t_end is 24.6 steps of 5e-4: the sub-pace remainder makes a report too
    for scheme in ALL_SCHEMES:
        f, cfg = _scheme_setup(scheme, t_end=0.0123)
        snaps, reports = run_with_reports(f, cfg)
        assert sum(r.dt for r in reports) == pytest.approx(0.0123, rel=1e-12), scheme
        for r in reports:
            assert isinstance(r, StepReport)
            assert r.dt > 0 and r.micro_steps >= (scheme != "euler")
            for t in (r.t_micro, r.t_restrict, r.t_macro, r.t_match):
                assert t >= 0.0


def test_runs_are_deterministic():
    f, _ = _two_beam_field(n_cells=60)
    cfg = _cfg(scheme="cpi", n_macro=5, eps=1e-4, t_end=0.01)
    a = run(f, cfg)[-1]
    b = run(f, cfg)[-1]
    np.testing.assert_array_equal(a.data, b.data)


def test_relaxation_decay_through_run():
    # homogeneous state: transport is inert, source relaxes f_3 geometrically
    grid = Grid1D(-10.0, 10.0, 8)
    mdl = make_model("hme", n_moments=6)
    state = np.array([1.0, 0.0, 1.0, 0.2, 0.0, 0.0])
    f = constant_field(grid, state)
    eps, dt = 1e-3, 4e-4
    cfg = _cfg(scheme="micro", n_moments=6, eps=eps, dt_micro=dt,
               dt_macro=dt, t_end=10 * dt)
    out = run(f, cfg)[-1]
    expected = 0.2 * (1.0 - dt / eps) ** 10
    np.testing.assert_allclose(out.data[:, 3], expected, rtol=1e-12)


def test_order_two_runs_every_scheme():
    for scheme in ALL_SCHEMES:
        f, cfg = _scheme_setup(scheme, n_cells=40, order=2, t_end=5e-3,
                               eps=1e-3)
        snaps = run(f, cfg)
        assert np.all(np.isfinite(snaps[-1].data)), scheme


# ------------------------------------------------- loop against single steps


def _reference_run(f, cfg):
    """run_with_reports composed from the public single steps on cell-major
    Fields: spatial_update then apply_source (apply_source_exact for
    micro-split) per micro step, cfl_timestep + spatial_update per Euler
    substep. Returns the snapshots and the number of reported steps."""
    r = schemes._Runner(f, cfg)  # resolved dt_micro, K, L and pace
    model, order, eps, l = r.model, cfg.order, cfg.eps, r.n_macro
    euler_model = make_model("euler")
    source = apply_source_exact if cfg.scheme == "micro-split" else apply_source

    def micro(f, dt, n):
        prev = f
        for _ in range(n):
            prev = f
            f = source(spatial_update(f, model, dt, order), model, eps, dt)
        return f, prev

    def euler(f, dt_total):
        remaining = dt_total
        while remaining > r.absorbed:
            step = min(remaining, cfl_timestep(f, euler_model, cfg.cfl))
            f = spatial_update(f, euler_model, step, order)
            remaining -= step
        return f

    def macro_step(f, dt_total):
        t_start = f.time
        f, prev = micro(f, r.dt_micro, r.k)
        tau = dt_total - r.k * r.dt_micro
        tau = tau if tau > r.absorbed else 0.0
        if r.extrapolate:
            macro = pi_extrapolate(f.data[:, :l], prev.data[:, :l], r.dt_micro,
                                   r.k * r.dt_micro + tau, r.k)
        else:
            macro = model.primitive_moments(f.data)
            if tau > 0.0:
                macro = euler(Field(f.grid, macro, f.time), tau).data
        if r.extrapolate and l == model.n_vars:
            new = macro
        elif model.kind == "hme":
            new = transform_state_slots(f.data.T, macro.T).T
        elif not r.extrapolate:
            new = match_hsm_states(f.data.T, macro.T).T
        else:
            new = f.data.copy()
            new[:, :l] = macro
        return Field(f.grid, new, t_start + dt_total)

    def tail(f, dt_total):
        t_end, n = f.time + dt_total, 0
        while (rest := dt_total - n * r.dt_micro) > r.absorbed:
            f = micro(f, min(rest, r.dt_micro), 1)[0]
            n += 1
        return Field(f.grid, f.data, t_end)

    def step(f, dt):
        if cfg.scheme == "euler":
            return euler(f, dt)
        if not r.macro:
            return micro(f, dt, 1)[0]
        return macro_step(f, dt) if dt > r.k * r.dt_micro - r.absorbed else tail(f, dt)

    snaps, n_steps = [f.copy()], 0
    targets = [f.time + cfg.t_end * i / cfg.n_snapshots for i in range(1, cfg.n_snapshots + 1)]
    targets[-1] = f.time + cfg.t_end
    for target in targets:
        while (rem := target - f.time) > r.absorbed:
            f = step(f, rem if rem <= r.pace * (1.0 + 1e-3) else r.pace)
            n_steps += 1
        f.time = target
        snaps.append(f.copy())
    return snaps, n_steps


_LOOP_CASES = (
    # 24.6 macro steps: full steps, a shrunk last macro step or a tail; at
    # eps = 1e-4 the mm schemes also run the Euler leftover
    [dict(scheme=s, model=mdl, n_macro=l, order=o, eps=e)
     for s, mdl, l in [(s, {"mmhsm": "hsm", "euler": "euler"}.get(s, "hme"), None)
                       for s in ALL_SCHEMES]
     + [("pi", "hsm", None), ("cpi", "hme", 5), ("cpi", "hsm", 5)]
     for o in (1, 2) for e in (1e-3, 1e-4)]
    # 4 steps of 0.05, each in at least 2 CFL-limited Euler substeps
    + [dict(scheme=s, model=mdl, n_macro=None, order=o, eps=1e-4, dt_macro=0.05,
            t_end=0.2, n_snapshots=1)
       for s, mdl in (("mmhme", "hme"), ("mmhsm", "hsm"), ("euler", "euler")) for o in (1, 2)])


@pytest.mark.parametrize("case", _LOOP_CASES, ids=lambda c: "-".join(map(str, c.values())))
def test_buffer_loop_matches_single_step_composition(case):
    f, _ = _two_beam_field(n_cells=120, model=case["model"])
    cfg = _cfg(**{"n_moments": f.n_vars, "t_end": 0.0123, "n_snapshots": 3, **case})
    snaps, reports = run_with_reports(f, cfg)
    ref, n_steps = _reference_run(f, cfg)
    assert len(reports) == n_steps
    assert [s.time for s in snaps] == [s.time for s in ref]
    for a, b in zip(snaps, ref):
        np.testing.assert_array_equal(a.data, b.data)


_SPAN_CASES = (
    [dict(scheme=s, order=o) for s in ALL_SCHEMES for o in (1, 2)]
    + [dict(scheme="cpi", n_macro=5), dict(scheme="pi", model="hsm"),
       dict(scheme="cpi", model="hsm")])


def test_carried_spans_give_the_bits_of_fresh_and_full_grid_spans(monkeypatch):
    # the runner carries spans through micro steps and Euler substeps, hands
    # the micro span to the Euler buffer at restriction and finds it afresh
    # after the hand-back; a span found before each transport, or the full
    # grid, must give the same snapshots bit for bit
    def runs():
        out = []
        for kw in _SPAN_CASES:
            cfg = TwoBeamConfig(n_cells=200, t_end=0.02, n_snapshots=2, **kw)
            out.append([s.data.view(np.int64) for s in run(two_beam_initial(cfg)[0], cfg)])
        return out

    carried = runs()
    transport = MomentBuffer.transport
    for reset in (lambda buf: buf.find_span(), lambda buf: (0, buf.w.shape[1])):
        def reset_span(buf, *args, reset=reset):
            buf.span = reset(buf)
            return transport(buf, *args)

        monkeypatch.setattr(MomentBuffer, "transport", reset_span)
        for kw, a, b in zip(_SPAN_CASES, carried, runs()):
            for sa, sb in zip(a, b):
                np.testing.assert_array_equal(sa, sb, err_msg=str(kw))


@pytest.mark.parametrize("m", [10, 40])
def test_carried_span_is_the_one_a_fresh_search_finds_at_order_1(m, monkeypatch):
    # at order 1 a transport widens the span by one cell per side, the
    # stencil half-width; on the two-beam fronts each edge cell it updates
    # moves, so the carried span is exactly the fresh one
    transport, spans = MomentBuffer.transport, []

    def recorded(buf, *args):
        transport(buf, *args)
        spans.append((buf.span, buf.find_span()))

    monkeypatch.setattr(MomentBuffer, "transport", recorded)
    cfg = TwoBeamConfig(scheme="micro", order=1, n_moments=m, n_cells=200, t_end=0.02)
    run(two_beam_initial(cfg)[0], cfg)
    assert spans and [a for a, _ in spans] == [b for _, b in spans]


def test_cfl_violation_in_the_loop_names_cell_and_time():
    f, _ = _two_beam_field(n_cells=100)
    with pytest.raises(StepError, match=r"CFL violation in cell \d+ at t=0 \(transport\)"):
        run(f, _cfg(scheme="micro", dt_micro=0.05, t_end=0.1))


def test_invalid_state_in_the_loop_names_cell_time_and_phase():
    # dt = 100 eps: the forward-Euler source amplifies the free moments
    # by 99 per step until rho or theta turns negative
    f, _ = _two_beam_field(n_cells=100)
    with pytest.raises(StateError, match=r"<= 0 in cell \d+ at t=[0-9.e-]+ \(source\)"):
        run(f, _cfg(scheme="micro", dt_micro=1e-3, eps=1e-5, t_end=0.5))


# Two runs the physics allows that a frozen step size aborts; step control
# that adapts the step must make them pass


@pytest.mark.xfail(strict=True, raises=StepError, reason="the fold makes the last step "
                   "1.0002 dt_micro, past the CFL limit at cfl = 1")
def test_folded_last_step_keeps_the_cfl_bound():
    model = make_model("hme", 10)
    f = constant_field(Grid1D(-1.0, 1.0, 50), model.equilibrium(1.0, 0.3, 1.0))
    cfg = _cfg(scheme="micro-split", cfl=1.0, eps=1e-2)
    cfg.t_end = 3.0002 * schemes._Runner(f, cfg).dt_micro
    snaps = run(f, cfg)
    assert snaps[-1].time == cfg.t_end
    np.testing.assert_array_equal(snaps[-1].data, f.data)


@pytest.mark.xfail(strict=True, raises=StepError, reason="dt_micro is fixed from the "
                   "entering state; the waves speed up past it at t = 0.0213")
def test_two_beam_runs_to_the_end_at_cfl_095():
    cfg = TwoBeamConfig(scheme="micro-split", cfl=0.95, eps=1e-2, t_end=3.0)
    snaps = run(two_beam_initial(cfg)[0], cfg)
    assert snaps[-1].time == 3.0 and np.all(np.isfinite(snaps[-1].data))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_invalid_input_names_cell_time_and_phase(scheme):
    # every scheme checks the entering state before anything reads it: a
    # negative theta must not reach the sqrt of the wave speeds that size
    # dt_micro. Slot 0 is rho; slot 2 is theta, or for the fixed basis the
    # coefficient that drives the recovered theta below zero.
    cfg = TwoBeamConfig(scheme=scheme, n_cells=50)
    for slot in (0, 2):
        f = two_beam_initial(cfg)[0]
        f.data[7, slot] = -1.0
        with pytest.raises(StateError, match=r"<= 0 in cell 7 at t=0 \(input\)"):
            run(f, cfg)


def _extrapolate_negative_theta(monkeypatch, cell):
    """schemes.pi_extrapolate returns the real extrapolation with the theta
    of one cell negative."""
    extrapolate = schemes.pi_extrapolate

    def negative_theta(*args):
        out = extrapolate(*args)
        out[2, cell] = -1.0
        return out

    monkeypatch.setattr(schemes, "pi_extrapolate", negative_theta)


def test_invalid_extrapolated_state_names_cell_time_and_phase(monkeypatch):
    # pi writes the extrapolated state, theta <= 0 in cell 47, into the
    # buffer; its check names the cell, the time and the phase
    _extrapolate_negative_theta(monkeypatch, 47)
    cfg = TwoBeamConfig(scheme="pi", eps=1e-4, n_cells=100, t_end=0.003)
    with pytest.raises(StateError, match=r"^rho or theta <= 0 in cell 47 at "
                       r"t=0\.0005 \(extrapolate\)$"):
        run(two_beam_initial(cfg)[0], cfg)


def test_cpi_checks_the_extrapolated_rows_before_matching(monkeypatch):
    # cpi extrapolates theta <= 0 in cell 47; the extrapolated rows are
    # checked before the matching reads them, so the run stops with a
    # StateError in phase extrapolate, not with the matching bound's
    # DomainError
    _extrapolate_negative_theta(monkeypatch, 47)
    cfg = TwoBeamConfig(scheme="cpi", eps=1e-4, n_cells=100, t_end=0.003)
    with pytest.raises(StateError, match=r"^rho or theta <= 0 in cell 47 at "
                       r"t=0\.0005 \(extrapolate\)$"):
        run(two_beam_initial(cfg)[0], cfg)


def test_step_that_holds_its_micro_steps_up_to_rounding_completes():
    # t_end falls 4.5e-16 short of K dt_micro = 2000 * 2.5e-7, within the
    # absorbed remainder by which step() takes it as one macro step; the
    # step's leftover is then none, as in the reference
    cfg = TwoBeamConfig(scheme="mmhme", n_cells=20, micro_steps=2000,
                        t_end=0.0004999999999995501)
    f = two_beam_initial(cfg)[0]
    snaps, reports = run_with_reports(f, cfg)
    ref, n_steps = _reference_run(f, cfg)
    assert len(reports) == n_steps == 1 and reports[0].micro_steps == 2000
    assert [s.time for s in snaps] == [s.time for s in ref]
    for a, b in zip(snaps, ref):
        np.testing.assert_array_equal(a.data, b.data)


@pytest.mark.parametrize("scheme", ["mmhme", "mmhsm", "pi", "cpi"])
def test_end_time_an_ulp_past_a_pace_multiple_gives_the_same_bits(scheme):
    # 9 * 5e-4 is one ulp above 0.0045: the last step's leftover past its
    # micro steps is absorbed, so no Euler substep or extrapolation covers it
    assert 9 * 5e-4 > 0.0045
    model = "hsm" if scheme == "mmhsm" else "hme"
    n_macro = 10 if scheme == "pi" else None
    f, _ = _two_beam_field(n_cells=100, model=model)
    a, b = (run(f, _cfg(scheme=scheme, model=model, n_macro=n_macro, eps=1e-3,
                        t_end=t_end))[-1].data for t_end in (9 * 5e-4, 0.0045))
    np.testing.assert_array_equal(a, b)


def test_failed_fixed_basis_relaxation_names_cell_time_and_phase(monkeypatch):
    # a strong density and temperature jump: a transport step leaves a cell
    # whose recovered theta is negative, so the relaxation cannot build its
    # Maxwellian and the run names that cell after the transport
    grid = Grid1D(-1.0, 1.0, 20)
    model = make_model("hsm", 4)
    left = grid.centers < 0.0
    data = model.equilibrium(np.where(left, 10.0, 0.1), 0.0, np.where(left, 0.1, 1.0))
    dt = 0.9 * grid.dx / model.wave_speeds(data).max()
    relax_moments, raised = HSMModel.relax_moments, []

    def recording(self, *args):
        try:
            return relax_moments(self, *args)
        except StateError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(HSMModel, "relax_moments", recording)
    cfg = SimConfig(scheme="micro", model="hsm", n_moments=4, eps=1.0, dt_micro=dt,
                    t_end=0.1, order=1)
    with pytest.raises(StateError, match=r"^recovered rho or theta <= 0 in cell 10 "
                       r"at t=0\.0385536 \(transport\)$"):
        run(Field(grid, data), cfg)
    assert len(raised) == 1


def test_relaxation_error_on_a_valid_state_propagates_unchanged(monkeypatch):
    # a relaxation that rejects a state the state check passes: the check
    # after the transport finds nothing to name, so the runner re-raises the
    # relaxation's own error
    rejected = StateError("rejected by the relaxation", 3)

    def reject(self, *args):
        raise rejected

    monkeypatch.setattr(HSMModel, "relax_moments", reject)
    f, _ = _two_beam_field(m=6, model="hsm")
    with pytest.raises(StateError) as info:
        run(f, _cfg(scheme="micro", model="hsm", n_moments=6))
    assert info.value is rejected


@pytest.mark.parametrize("x_min,cell", [(-1.0, 27), (-3.0, 67)])
def test_rejected_order_two_predictor_names_cell_time_and_phase(x_min, cell):
    # a cold gas next to a hot one: at order 2 the half-step predictor
    # pushes theta below zero (-2.8e-5 in cell 27 of 40) in the step from
    # t = 0.15041, and the flux operator rejects it. Left of the jump the
    # second grid adds 40 level cells, so the span starts at cell 38 and the
    # operator's column must be offset to name the grid cell.
    n = int(round((1.0 - x_min) / 0.05))
    grid = Grid1D(x_min, 1.0, n)
    model = make_model("hme", 6)
    data = model.equilibrium(np.ones(n), 0.0, np.where(grid.centers < 0.0, 1.0, 1e-4))
    cfg = SimConfig(scheme="micro", model="hme", n_moments=6, eps=1.0, t_end=0.2,
                    order=2, cfl=1.0)
    with pytest.raises(StateError, match=rf"^hme rho or theta <= 0 in cell {cell} "
                       r"at t=0\.15041 \(transport\)$"):
        run(Field(grid, data), cfg)


def test_zero_t_end_and_one_short_snapshot_interval_stay_valid():
    # t_end = 0 takes no step whatever the pace; an interval above 1e-6 of
    # the pace takes one
    f, _ = _two_beam_field(n_cells=20)
    assert len(run(f, _cfg(scheme="micro", dt_micro=1e300, t_end=0.0))) == 1
    snaps, reports = run_with_reports(f, _cfg(dt_macro=1e-3, t_end=1.5e-9))
    assert len(snaps) == 2 and len(reports) == 1


@pytest.mark.parametrize("cfl", [0.5, 0.002])
@pytest.mark.parametrize("eps", [1e-3, 1e-4])
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_dt_micro_is_the_smallest_cap_of_its_scheme(scheme, eps, cfl):
    # the caps: the CFL limit; eps for pi/cpi, eps/2 for the forward-Euler
    # source, none for micro-split; dt_macro/K for the macro schemes. euler
    # steps by dt_macro; micro and micro-split advance by dt_micro
    f, cfg = _scheme_setup(scheme, eps=eps, cfl=cfl)
    limit = cfl * f.grid.dx / schemes.scheme_model(cfg).wave_speeds(f.data).max()
    window = cfg.dt_macro / cfg.micro_steps
    dt_micro, pace = {
        "micro": (min(limit, eps / 2.0), None),
        "micro-split": (limit, None),
        "mmhme": (min(limit, eps / 2.0, window), cfg.dt_macro),
        "mmhsm": (min(limit, eps / 2.0, window), cfg.dt_macro),
        "pi": (min(limit, eps, window), cfg.dt_macro),
        "cpi": (min(limit, eps, window), cfg.dt_macro),
        "euler": (cfg.dt_macro, cfg.dt_macro),
    }[scheme]
    r = schemes._Runner(f, cfg)
    assert r.dt_micro == dt_micro
    assert r.pace == (dt_micro if pace is None else pace)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_explicit_dt_micro_wins_except_for_euler(scheme):
    f, cfg = _scheme_setup(scheme, dt_micro=1e-5)
    r = schemes._Runner(f, cfg)
    if scheme == "euler":
        assert r.dt_micro == r.pace == cfg.dt_macro
        # euler does not read dt_micro, so not even an invalid one stops it
        for bad in (-1.0, math.inf):
            assert schemes._Runner(f, replace(cfg, dt_micro=bad)).dt_micro == cfg.dt_macro
    else:
        assert r.dt_micro == 1e-5
        assert r.pace == (cfg.dt_macro if scheme in schemes._MACRO_SCHEMES else 1e-5)


def test_matching_bound_in_the_loop_names_cell_time_and_phase(monkeypatch):
    # at eps = 1e-4 the mm step runs an Euler leftover; it ends with the
    # macro theta of cell 37 below half the prior's. The write comes from
    # outside the buffer, so it sets the span to the whole grid
    euler_advance = schemes._Runner._euler_advance

    def squeeze_theta(self, buf, t, dt_total):
        t = euler_advance(self, buf, t, dt_total)
        buf.w[2, 37] = 0.4 * self.buf.w[2, 37]
        buf.span = (0, buf.w.shape[1])
        return t

    monkeypatch.setattr(schemes._Runner, "_euler_advance", squeeze_theta)
    f, _ = _two_beam_field(n_cells=100)
    with pytest.raises(DomainError, match=r"in cell 37: theta_prior=1, "
                       r"theta_new=0\.4 at t=0\.0005 \(match\)"):
        run(f, _cfg(scheme="mmhme", eps=1e-4, t_end=0.01))


_SPAN_MATCH_CASES = (
    [("mmhme", None, o, e) for o in (1, 2) for e in (1e-3, 1e-4, 1e-5)]
    + [("cpi", l, o, e) for l in (3, 5) for o in (1, 2) for e in (1e-3, 1e-4)])


@pytest.mark.parametrize("scheme,n_macro,order,eps", _SPAN_MATCH_CASES)
def test_span_local_match_equals_the_full_grid_match_bitwise(scheme, n_macro, order, eps,
                                                             monkeypatch):
    # the runner matches only the columns the macro advance can have moved;
    # after every macro step the buffer must hold the bits of
    # transform_state_slots on the whole grid, from the state after the K
    # micro steps and the whole macro rows (Euler buffer or extrapolation)
    micro, macro_step = schemes._Runner._micro, schemes._Runner._macro_step
    extrapolate, transform = schemes.pi_extrapolate, schemes.transform_state_slots
    seen, widths = {}, []

    def recorded_micro(self, *args, **kw):
        out = micro(self, *args, **kw)
        seen["prior"] = self.buf.w.copy()
        return out

    def recorded_extrapolate(*args):
        seen["macro"] = extrapolate(*args)
        return seen["macro"]

    def recorded_transform(w_prior, macro):
        widths.append(w_prior.shape[1])
        return transform(w_prior, macro)

    def compared(self, t, dt_total):
        out = macro_step(self, t, dt_total)
        macro = seen["macro"] if self.extrapolate else self.euler_buf.w
        full = transform(seen["prior"], macro)
        np.testing.assert_array_equal(self.buf.w.view(np.int64), full.view(np.int64))
        seen["steps"] = seen.get("steps", 0) + 1
        return out

    monkeypatch.setattr(schemes._Runner, "_micro", recorded_micro)
    monkeypatch.setattr(schemes._Runner, "_macro_step", compared)
    monkeypatch.setattr(schemes, "pi_extrapolate", recorded_extrapolate)
    monkeypatch.setattr(schemes, "transform_state_slots", recorded_transform)
    cfg = TwoBeamConfig(scheme=scheme, n_macro=n_macro, order=order, eps=eps, n_cells=120,
                        t_end=0.02)
    run(two_beam_initial(cfg)[0], cfg)
    assert seen["steps"] == len(widths) == 40
    assert min(widths) < 120


def test_non_finite_macro_state_in_the_span_names_its_grid_cell(monkeypatch):
    # the Euler leftover ends with a NaN u in cell 50, inside the span; the
    # check after the match reads only the span and names the grid cell
    euler_advance, spans = schemes._Runner._euler_advance, []

    def nan_u(self, buf, t, dt_total):
        t = euler_advance(self, buf, t, dt_total)
        spans.append(buf.span)
        buf.w[1, 50] = math.nan
        return t

    monkeypatch.setattr(schemes._Runner, "_euler_advance", nan_u)
    f, _ = _two_beam_field(n_cells=100)
    with pytest.raises(StateError, match=r"^non-finite state in cell 50 at t=0\.0005 \(match\)$"):
        run(f, _cfg(scheme="mmhme", eps=1e-4, t_end=0.01))
    lo, hi = spans[-1]
    assert 0 < lo < 50 < hi - 1


def test_cpi_matching_bound_in_the_span_names_its_grid_cell(monkeypatch):
    # cpi extrapolates the theta of cell 50 to 0.4 of the prior's, past the
    # matching bound; the match reads only the moved columns [lo, hi) and
    # its error names the grid cell lo + j
    extrapolate, moved_columns, spans = schemes.pi_extrapolate, schemes.bit_span, []

    def squeezed(*args):
        out = extrapolate(*args)
        out[2, 50] = 0.4 * args[0][2, 50]
        return out

    def recorded(new, old):
        spans.append(moved_columns(new, old))
        return spans[-1]

    monkeypatch.setattr(schemes, "pi_extrapolate", squeezed)
    monkeypatch.setattr(schemes, "bit_span", recorded)
    cfg = TwoBeamConfig(scheme="cpi", eps=1e-4, n_cells=100, t_end=0.003)
    with pytest.raises(DomainError, match=r"in cell 50: theta_prior=[^,]+, theta_new=\S+ "
                       r"at t=0\.0005 \(match\)$"):
        run(two_beam_initial(cfg)[0], cfg)
    lo, hi = spans[-1]
    assert 0 < lo < 50 < hi - 1


# ------------------------------------------------------- order of accuracy


def _bump_primitives(scheme, n_cells, order, **kw):
    # a smooth density bump at rest, rho = 1 + 0.2 exp(-x^2), on [-5, 5]
    grid = Grid1D(-5.0, 5.0, n_cells)
    model = make_model("euler") if scheme == "euler" else make_model("hme", kw["n_moments"])
    data = model.equilibrium(1.0 + 0.2 * np.exp(-grid.centers ** 2), 0.0, 1.0)
    cfg = SimConfig(scheme=scheme, order=order, cfl=0.2, **kw)
    return model.primitive_moments(run(Field(grid, data), cfg)[-1].data)


@pytest.mark.parametrize("scheme,kw", [
    # dt_macro = 1 leaves euler's step to its CFL-limited substeps
    ("euler", dict(dt_macro=1.0, t_end=0.5)),
    ("micro-split", dict(n_moments=4, t_end=0.2)),
])
@pytest.mark.parametrize("order,floor", [(1, 0.8), (2, 1.4)])
def test_order_of_accuracy_floors(scheme, kw, order, floor):
    # dx-weighted L2 errors of (rho, u, theta) against a 3200-cell run,
    # averaged onto each grid. FORCE's rates here read 0.90, 1.02, 1.17
    # (euler) and 0.98, 1.05, 1.21 (micro-split) at order 1, and 1.54, 1.68,
    # 1.74 and 1.62, 1.72, 1.79 at order 2
    ref = _bump_primitives(scheme, 3200, order, **kw)
    errs = []
    for n in (100, 200, 400, 800):
        e = _bump_primitives(scheme, n, order, **kw) - ref.reshape(n, -1, 3).mean(axis=1)
        errs.append(math.sqrt(10.0 / n * np.sum(e * e)))
    rates = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(rates > floor), rates
