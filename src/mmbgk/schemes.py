"""Time stepping: one accelerated macro step and the plain reference
integrators.

The accelerated schemes mmhme, mmhsm, pi and cpi share one step: K small
transport + relaxation steps, a macro advance of the leading L = n_macro
variables over the whole step, and matching of the other variables to the
last micro state. Only the macro advance differs. The mm schemes restrict
to (rho, u, theta) and advance those with the Euler system over the
leftover interval; PI and CPI extrapolate the first L variables linearly
from the last two micro states. PI carries all L = M variables, which leaves
no slot to match, so CPI at L = M is PI by construction. micro, micro-split
and euler are the single-model references the experiments compare against.

The micro step size dt_micro is fixed once, in __init__, as the smallest of
its caps: the CFL limit of the entering state; eps for pi/cpi or eps/2 for
the other forward-Euler sources (micro-split's exact source has none); and
dt_macro/K for the macro schemes. An explicit dt_micro wins; euler has no
micro step. Every advance of run() goes through step(), which covers its
interval one of three ways: a macro scheme's interval that holds its K
micro steps in one macro step; euler in CFL-limited Euler substeps; and
any other in micro steps of at most dt, the last one of the rest, with dt
= dt_micro for a macro scheme's shorter interval, the tail, and the whole
interval for micro and micro-split. One remainder rule holds throughout:
no step covers time the run absorbs, a remainder up to 1e-6 of the pace
(the step run() hands to step()). run() stamps such a remainder onto the
time, the split takes an interval within it of K dt_micro as a macro step,
a tail or an Euler advance stops within it of its end, and a macro step's
leftover within it is none. So a tail never exceeds dt_micro. The one other
rule is run()'s fold of a final overshoot up to 1e-3 of the pace into the
last step. Each advance makes one StepReport, so the reports cover t_end.

A run keeps its state in a moment-major grid.MomentBuffer that the runner
allocates once (a second one holds the mm schemes' Euler leftover), and
every stretch of transport steps advances it in place. The state is
converted to a cell-major Field only for snapshots. A macro step stays on
rows: restriction writes the model's primitives of the last micro state's
rows into the Euler buffer, which the leftover advances in place; the L
macro rows (those, or the extrapolated ones) go to the coupling operators
with the buffer's rows, and the runner writes back only the rows that
change. Each buffer's transport updates only its span, the cells whose
stencil holds a jump (see grid.MomentBuffer). Restriction computes each
Euler cell from the same micro cell, so the Euler buffer takes the micro
buffer's span. Right after the hand-back of the macro state the runner
sets the micro buffer's span to the one find_span finds; a span is always
a range, and no transport searches for one. A carried span widens by g per
transport, while the cells that really hold a jump widen more slowly,
since an update below half an ulp leaves a cell's bits as they were; one
search per macro step keeps the span near them, however many transports
the step took (an Euler leftover adds one). The collision needs no
hand-off: it maps each cell alone, so level neighbours stay level.

The adaptive match (mmhme, and cpi on the adaptive model with L < M)
covers only the columns [lo, hi) that the macro advance can have moved.
For mmhme that is the Euler buffer's span after the leftover: outside it
no Euler transport wrote, so the macro rows are the restriction bit for
bit (a write from outside the runner sets a span that bounds the stencils
of the jumps it made, (0, n) at the widest). For cpi it runs from the
first to the last column where the extrapolated rows differ from the
buffer's in any bit. Outside [lo, hi) the macro rows thus equal the
buffer's leading rows, where the match is the identity but for the sign of
a zero (see coupling): the runner adds 0.0 to those columns' rows >= L,
which turns a -0.0 into +0.0 as the match would. The other hand-backs
cover the whole grid: mmhsm's match rebuilds rows 0-2 from the primitives,
which need not give back their bits, and pi's write of the extrapolated
rows costs less than the search for the moved columns. With no leftover
(tau = 0, e.g. eps = 1e-3) the mmhme match is such an identity everywhere,
yet it still runs over the micro span: a branch that skipped it would cut
only the steps that run no leftover, so the mm step's cost would vary more
with eps; that waits until the leftover costs the same at every eps.

The runner checks its input once, in __init__, as it loads the field into
the buffer and before anything reads it: the model's state check (finite,
rho > 0, theta > 0) in phase "input", so an invalid field raises even with
t_end = 0. After that, each step's result is checked once: after the
source for a micro step, after the transport for an Euler substep, after
the hand-back of the macro state for a macro step; cpi on the adaptive
model checks its extrapolated rows before matching them too. Around the
adaptive match, the matching bound and those last two checks read only
[lo, hi): every other cell holds the bits that the last micro step's check
passed, up to the sign of a zero. Every check names the grid cell (a check
of [lo, hi) adds lo), the time and the phase, and so does a transport whose
flux operator rejects an order-2 predicted state. Step inputs are checked
in __init__ too: t_end, dt_macro and a dt_micro the scheme reads must be
finite, and a snapshot interval must exceed the absorbed remainder, so no
accepted run is endless or takes no step.
"""

from dataclasses import dataclass
import math
import time

from .coupling import match_hsm_states, pi_extrapolate, transform_state_slots
from .errors import ConfigError, DomainError, StateError, at_time
# spatial_update, apply_source, apply_source_exact and cfl_timestep are not
# called here; they stay module globals because perfbench's tracer patches
# them by name
from .grid import (  # noqa: F401
    Field, MomentBuffer, apply_source, apply_source_exact, bit_span, cfl_limit, cfl_timestep,
    check_rows, spatial_update,
)
from .models import EulerModel, decay_factor, make_model

SCHEMES = ("mmhme", "mmhsm", "pi", "cpi", "micro", "micro-split", "euler")
_MACRO_SCHEMES = ("mmhme", "mmhsm", "pi", "cpi")


@dataclass
class SimConfig:
    scheme: str = "mmhme"
    model: str = "hme"  # micro model for pi/cpi/micro schemes; mm* pin their own
    n_moments: int = 10
    n_macro: int = None  # L; default 3 (mm, cpi) or M (pi)
    eps: float = 1e-4
    t_end: float = 0.1
    dt_macro: float = 5e-4
    dt_micro: float = None  # default resolved from eps and the CFL limit
    micro_steps: int = 2  # micro substeps per macro step
    cfl: float = 0.5
    order: int = 1
    n_snapshots: int = 1


@dataclass
class StepReport:
    dt: float
    micro_steps: int
    t_micro: float = 0.0
    t_restrict: float = 0.0
    t_macro: float = 0.0
    t_match: float = 0.0


def scheme_model(cfg: SimConfig):
    """The model the configured scheme advances: mm* pin their own micro
    model, euler runs the Euler system, the rest use cfg.model."""
    if cfg.scheme == "euler":
        return EulerModel()
    kind = {"mmhme": "hme", "mmhsm": "hsm"}.get(cfg.scheme, cfg.model)
    if kind not in ("hme", "hsm"):
        raise ConfigError(f"micro model must be hme or hsm, got {kind!r}")
    return make_model(kind, cfg.n_moments)


class _Runner:
    """Config resolution, the run's buffers and the step dispatch of one
    run() call."""

    def __init__(self, field0: Field, cfg: SimConfig):
        if cfg.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {cfg.scheme!r}, pick one of {SCHEMES}")
        if cfg.micro_steps < 1:
            raise ConfigError(f"micro_steps must be >= 1, got {cfg.micro_steps}")
        if not cfg.eps > 0.0:
            raise ConfigError(f"eps must be positive (inf allowed), got {cfg.eps}")
        if not 0.0 < cfg.dt_macro < math.inf:
            raise ConfigError(f"dt_macro must be positive and finite, got {cfg.dt_macro}")
        if not 0.0 < cfg.cfl <= 1.0:
            raise ConfigError(f"cfl must lie in (0, 1], got {cfg.cfl}")
        if not 0.0 <= cfg.t_end < math.inf:
            raise ConfigError(f"t_end must be >= 0 and finite, got {cfg.t_end}")
        if cfg.n_snapshots < 1:
            raise ConfigError(f"n_snapshots must be >= 1, got {cfg.n_snapshots}")
        self.cfg, self.field0 = cfg, field0
        self.scheme = cfg.scheme
        self.macro = self.scheme in _MACRO_SCHEMES
        # the macro advance: extrapolation (pi, cpi) or restrict + Euler (mm)
        self.extrapolate = self.scheme in ("pi", "cpi")
        self.model = scheme_model(cfg)
        if field0.n_vars != self.model.n_vars:
            raise ConfigError(
                f"field carries {field0.n_vars} variables, scheme needs {self.model.n_vars}"
            )
        m = self.model.n_vars
        l = cfg.n_macro
        if l is None:
            l = m if self.scheme == "pi" else 3
        if self.scheme in ("mmhme", "mmhsm") and l != 3:
            raise ConfigError("mm schemes restrict to (rho, u, theta); n_macro must be 3")
        if self.scheme == "pi" and l != m:
            raise ConfigError(
                "pi carries all moments, so n_macro must equal n_moments "
                f"(got L={l}, M={m})"
            )
        if self.scheme == "cpi" and not 3 <= l <= m:
            raise ConfigError(f"cpi needs 3 <= n_macro <= {m}, got {l}")
        self.n_macro = l
        self.k = cfg.micro_steps
        # the state lives in these moment-major buffers from entry to the end;
        # the input is checked before anything reads it
        self.buf = MomentBuffer(field0.grid, self.model, cfg.order)
        self.buf.load(field0.data)
        self.buf.check(field0.time, "input")
        # the dt_micro rule of the module docstring; pi/cpi take eps, which
        # kills the stiff mode before extrapolation (the projective step is
        # unstable for sigma = 1 - dt/eps near 1/2)
        self.dt_micro = cfg.dt_macro if self.scheme == "euler" else cfg.dt_micro
        if self.dt_micro is None:
            caps = [cfl_limit(cfg.cfl, self.buf.dx, self.buf.max_speed())]
            if self.scheme != "micro-split":
                caps.append(cfg.eps if self.extrapolate else cfg.eps / 2.0)
            if self.macro:
                caps.append(cfg.dt_macro / self.k)
            self.dt_micro = min(caps)
        elif not 0.0 < self.dt_micro < math.inf:
            raise ConfigError(f"dt_micro must be positive and finite, got {self.dt_micro}")
        # the step run() hands to step(); euler's dt_micro is its dt_macro
        self.pace = cfg.dt_macro if self.macro else self.dt_micro
        # the run's one remainder rule: no step covers a remainder up to this,
        # since the state change over it is invisible at any tolerance while
        # a FORCE step's dissipation does not shrink with its size. So a
        # snapshot interval no longer than it would end the run without a
        # step, and a pace step must hold the K micro steps up to it
        self.absorbed = self.pace * 1e-6
        if self.macro and self.k * self.dt_micro >= cfg.dt_macro + self.absorbed:
            raise ConfigError(
                f"micro work {self.k}*{self.dt_micro:g} exceeds dt_macro={cfg.dt_macro:g}"
            )
        if 0.0 < cfg.t_end / cfg.n_snapshots <= self.absorbed:
            raise ConfigError(
                f"snapshot interval {cfg.t_end / cfg.n_snapshots:g} is at most 1e-6 of "
                f"the pace {self.pace:g}, so the run would take no step"
            )
        if self.scheme in ("mmhme", "mmhsm"):
            self.euler_buf = MomentBuffer(field0.grid, EulerModel(), cfg.order)

    def _micro(self, t: float, dt: float, n: int, keep: int = 0):
        """n transport + relaxation steps of size dt on the buffer from time t.

        Each step is checked once, after the source. Returns the first keep
        rows of the state before the last step (moment-major), which PI/CPI
        extrapolate from, or None.
        """
        buf, model, eps = self.buf, self.model, self.cfg.eps
        factor = decay_factor(dt, eps, exact=self.scheme == "micro-split")
        # a decay factor in [-1, 1] cannot make a valid state invalid, so a
        # failed check is charged to the transport; a larger one is the
        # unstable forward-Euler source (dt > 2 eps)
        phase = "transport" if abs(factor) <= 1.0 else "source"
        prev = None
        for i in range(n):
            if keep and i == n - 1:
                prev = buf.w[:keep].copy()
            buf.transport(dt, t)
            t += dt
            try:
                model.relax_moments(buf.w, eps, factor)
            except StateError:
                # HSM relaxes towards the Maxwellian of the transported
                # state; name the cell whose recovered rho or theta failed
                buf.check(t, "transport")
                raise
            buf.check(t, phase)
        return prev

    def _euler_advance(self, buf: MomentBuffer, t: float, dt_total: float) -> float:
        """Euler transport of buf over dt_total in CFL-limited substeps; each
        substep's size and CFL check share one wave-speed pass. Returns the
        time reached, accumulated substep by substep."""
        remaining = dt_total
        while remaining > self.absorbed:
            smax = buf.max_speed()
            step = min(remaining, cfl_limit(self.cfg.cfl, buf.dx, smax))
            buf.transport(step, t, smax)
            t += step
            buf.check(t, "transport")
            remaining -= step
        return t

    def _macro_step(self, t: float, dt_total: float):
        """K micro steps, macro advance of the leading n_macro variables, match.

        Everything stays moment-major: the macro state is L rows (the
        extrapolated ones, or the Euler buffer's). The adaptive match and
        the checks after it cover the columns [lo, hi) the macro advance can
        have moved (see the module docstring), and only the buffer rows that
        change are written back.
        """
        l, w, k, dt = self.n_macro, self.buf.w, self.k, self.dt_micro
        t0 = time.perf_counter()
        prev = self._micro(t, dt, k, keep=l if self.extrapolate else 0)
        t1 = t2 = time.perf_counter()
        # the interval left after the micro steps, none if absorbed
        tau = dt_total - k * dt
        if tau <= self.absorbed:
            tau = 0.0
        if self.extrapolate:
            macro = pi_extrapolate(w[:l], prev, dt, k * dt + tau, k)
        else:
            # restriction: the (rho, u, theta) rows of the last micro state
            macro = self.euler_buf.w
            macro[...] = self.model.primitives(w.T)
            self.euler_buf.span = self.buf.span
            t2 = time.perf_counter()
            if tau > 0.0:
                self._euler_advance(self.euler_buf, t + k * dt, tau)
        t3 = time.perf_counter()
        t_next = t + dt_total
        lo, hi = 0, w.shape[1]
        if self.model.kind == "hme" and l < self.model.n_vars:
            # the columns [lo, hi) the macro advance can have moved
            if self.extrapolate:
                lo, hi = bit_span(macro, w[:l]) or (0, 0)
                # match only a valid extrapolated state
                check_rows(self.model, macro[:, lo:hi], lo, t_next, "extrapolate")
            else:
                lo, hi = self.euler_buf.span
            try:
                w[:, lo:hi] = transform_state_slots(w[:, lo:hi], macro[:, lo:hi])
            except DomainError as exc:
                raise at_time(exc.shifted(lo), t_next, "match") from exc
            # the match off [lo, hi): a -0.0 in a row >= L becomes +0.0
            w[l:, :lo] += 0.0
            w[l:, max(lo, hi):] += 0.0
        elif self.extrapolate:  # fixed basis or L = M: the rest carries over
            w[:l] = macro
        else:  # fixed basis: the free rows carry over in place
            w[:3] = match_hsm_states(w[:3], macro)
        self.buf.span = self.buf.find_span()
        self.buf.check(t_next, "extrapolate" if self.extrapolate else "match", lo, hi)
        t4 = time.perf_counter()
        return t_next, StepReport(dt_total, k, t1 - t0, t2 - t1, t3 - t2, t4 - t3)

    def step(self, t: float, dt_total: float):
        """One advance of dt_total from time t on the buffer; returns the time
        reached and its report. A macro scheme's interval that holds the K
        micro steps up to the absorbed remainder: one macro step. euler:
        CFL-limited Euler substeps, reaching the time they accumulate. Any
        other interval runs micro steps of at most dt, the last one of the
        rest, while the rest exceeds the absorbed remainder: dt is dt_micro
        for a macro scheme's shorter interval, the tail, and dt_total for
        micro and micro-split, which thus take one micro step."""
        if self.macro and dt_total > self.k * self.dt_micro - self.absorbed:
            return self._macro_step(t, dt_total)
        t0 = time.perf_counter()
        if self.scheme == "euler":
            t = self._euler_advance(self.buf, t, dt_total)
            return t, StepReport(dt_total, 0, t_macro=time.perf_counter() - t0)
        dt, n = self.dt_micro if self.macro else dt_total, 0
        while (rest := dt_total - n * dt) > self.absorbed:
            self._micro(t + n * dt, min(rest, dt), 1)
            n += 1
        return t + dt_total, StepReport(dt_total, n, t_micro=time.perf_counter() - t0)

    def run(self):
        cfg, field0 = self.cfg, self.field0
        snaps = [field0.copy()]
        reports = []
        if cfg.t_end == 0.0:
            return snaps, reports
        t = t0 = field0.time
        targets = [t0 + cfg.t_end * i / cfg.n_snapshots for i in range(1, cfg.n_snapshots + 1)]
        targets[-1] = t0 + cfg.t_end
        for target in targets:
            # an absorbed remainder goes into the time stamp, not into a step
            while (r := target - t) > self.absorbed:
                # the fold: a sub-permille overshoot joins the final step, so
                # the output stays continuous across step-count seams
                t, rep = self.step(t, self.pace if r > self.pace * (1.0 + 1e-3) else r)
                reports.append(rep)
            t = target
            snaps.append(Field(field0.grid, self.buf.cells(), t))
        return snaps, reports


def run_with_reports(field0: Field, cfg: SimConfig):
    """Advance field0 to t_end; returns (snapshots, per-step reports)."""
    return _Runner(field0, cfg).run()


def run(field0: Field, cfg: SimConfig):
    """Advance field0 to cfg.t_end, returning the snapshot list (initial included)."""
    return _Runner(field0, cfg).run()[0]
