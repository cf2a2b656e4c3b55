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
"""

from dataclasses import dataclass
import math
import time

from .coupling import match_hsm_states, pi_extrapolate, transform_state_slots
from .errors import ConfigError
from .grid import Field, apply_source, apply_source_exact, cfl_timestep, spatial_update
from .models import EulerModel, make_model

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
    """Config resolution + step dispatch shared by run() and the step [OP]s."""

    def __init__(self, field0: Field, cfg: SimConfig):
        if cfg.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {cfg.scheme!r}, pick one of {SCHEMES}")
        if cfg.order not in (1, 2):
            raise ConfigError(f"order must be 1 or 2, got {cfg.order}")
        if cfg.micro_steps < 1:
            raise ConfigError(f"micro_steps must be >= 1, got {cfg.micro_steps}")
        if not cfg.eps > 0.0:
            raise ConfigError(f"eps must be positive (inf allowed), got {cfg.eps}")
        if not cfg.dt_macro > 0.0:
            raise ConfigError(f"dt_macro must be positive, got {cfg.dt_macro}")
        self.cfg = cfg
        self.scheme = cfg.scheme
        # the macro advance: extrapolation (pi, cpi) or restrict + Euler (mm)
        self.extrapolate = self.scheme in ("pi", "cpi")
        self.euler = EulerModel()
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
        self.dt_micro = self._resolve_dt_micro(field0)
        if self.scheme in _MACRO_SCHEMES:
            if self.k * self.dt_micro > cfg.dt_macro * (1.0 + 1e-12):
                raise ConfigError(
                    f"micro work {self.k}*{self.dt_micro:g} exceeds dt_macro={cfg.dt_macro:g}"
                )
        self.step = self._macro_step if self.scheme in _MACRO_SCHEMES else self._plain_step
        self.pace = self.dt_micro if self.scheme in ("micro", "micro-split") else cfg.dt_macro

    def _resolve_dt_micro(self, field0: Field) -> float:
        if self.scheme == "euler":
            return self.cfg.dt_macro
        if self.cfg.dt_micro is not None:
            if not self.cfg.dt_micro > 0.0:
                raise ConfigError(f"dt_micro must be positive, got {self.cfg.dt_micro}")
            return self.cfg.dt_micro
        limit = cfl_timestep(field0, self.model, self.cfg.cfl)
        if self.extrapolate:
            # dt_micro = eps kills the stiff mode before extrapolation; the
            # projective step is unstable for sigma = 1 - dt/eps near 1/2
            return min(self.cfg.eps, limit, self.cfg.dt_macro / self.k)
        if self.scheme in ("mmhme", "mmhsm"):
            return min(self.cfg.eps / 2.0, limit, self.cfg.dt_macro / self.k)
        if self.scheme == "micro-split":
            # exact exponential source integration has no stiffness bound
            return limit
        return min(self.cfg.eps / 2.0, limit)

    def _micro(self, f: Field, dt: float, n: int):
        """n transport + relaxation steps of size dt; returns the last state
        and the one before it, which PI/CPI extrapolate from."""
        source = apply_source_exact if self.scheme == "micro-split" else apply_source
        prev = f
        for _ in range(n):
            prev = f
            f = spatial_update(f, self.model, dt, self.cfg.order)
            f = source(f, self.model, self.cfg.eps, dt)
        return f, prev

    def _leftover(self, dt_total: float) -> float:
        tau = dt_total - self.k * self.dt_micro
        if tau < 0.0:
            if tau < -self.dt_micro * 1e-9:
                raise ConfigError(
                    f"step of {dt_total:g} cannot hold {self.k} micro steps of {self.dt_micro:g}"
                )
            tau = 0.0
        return tau

    def _euler_advance(self, f: Field, dt_total: float) -> Field:
        remaining = dt_total
        while remaining > dt_total * 1e-12:
            step = min(remaining, cfl_timestep(f, self.euler, self.cfg.cfl))
            f = spatial_update(f, self.euler, step, self.cfg.order)
            remaining -= step
        return f

    def _macro_step(self, f: Field, dt_total: float):
        """Micro steps, macro advance of the leading n_macro variables, match."""
        t_start, l = f.time, self.n_macro
        rep = StepReport(dt=dt_total, micro_steps=self.k)
        t0 = time.perf_counter()
        f, prev = self._micro(f, self.dt_micro, self.k)
        t1 = t2 = time.perf_counter()
        tau = self._leftover(dt_total)
        if self.extrapolate:
            dt_eff = self.k * self.dt_micro + tau
            macro = pi_extrapolate(f.data[:, :l], prev.data[:, :l], self.dt_micro, dt_eff, self.k)
        else:
            macro = self.model.primitive_moments(f.data)
            t2 = time.perf_counter()
            if tau > 0.0:
                macro = self._euler_advance(Field(f.grid, macro, f.time), tau).data
        t3 = time.perf_counter()
        if self.extrapolate and l == self.model.n_vars:
            # no free slots, so no matching and no theta_prior < 2 theta_new
            # bound: CPI at L = M is PI
            new = macro
        elif self.model.kind == "hme":
            new = transform_state_slots(f.data, macro[:, :3], first_free=l)
            new[:, 3:l] = macro[:, 3:]
        elif not self.extrapolate:
            new = match_hsm_states(f.data, macro)
        else:
            # fixed basis: the free slots carry over unchanged
            new = f.data.copy()
            new[:, :l] = macro
        self.model.validate(new)
        out = Field(f.grid, new, t_start + dt_total)
        t4 = time.perf_counter()
        rep.t_micro, rep.t_restrict = t1 - t0, t2 - t1
        rep.t_macro, rep.t_match = t3 - t2, t4 - t3
        return out, rep

    def _plain_step(self, f: Field, dt_total: float):
        """One micro step (micro, micro-split) or one Euler advance (euler)."""
        t0 = time.perf_counter()
        if self.scheme == "euler":
            f = self._euler_advance(f, dt_total)
            return f, StepReport(dt_total, 0, t_macro=time.perf_counter() - t0)
        f, _ = self._micro(f, dt_total, 1)
        return f, StepReport(dt_total, 1, t_micro=time.perf_counter() - t0)

    def _micro_fill(self, f: Field, remainder: float) -> Field:
        """Cover a sub-pace interval with plain micro (or euler) stepping."""
        if self.scheme in ("euler", "micro-split"):
            return self._plain_step(f, remainder)[0]
        n_full = int(math.floor(remainder / self.dt_micro * (1.0 + 1e-12)))
        f, _ = self._micro(f, self.dt_micro, n_full)
        rem = remainder - n_full * self.dt_micro
        if rem > self.dt_micro * 1e-9:
            f, _ = self._micro(f, rem, 1)
        return f

    def run(self, field0: Field):
        cfg = self.cfg
        if cfg.t_end < 0.0:
            raise ConfigError(f"t_end must be >= 0, got {cfg.t_end}")
        if cfg.n_snapshots < 1:
            raise ConfigError(f"n_snapshots must be >= 1, got {cfg.n_snapshots}")
        f = field0.copy()
        snaps = [f.copy()]
        reports = []
        if cfg.t_end == 0.0:
            return snaps, reports
        t0 = field0.time
        targets = [t0 + cfg.t_end * i / cfg.n_snapshots for i in range(1, cfg.n_snapshots + 1)]
        targets[-1] = t0 + cfg.t_end
        for target in targets:
            while True:
                r = target - f.time
                # remainders below 1e-6 of the pace are absorbed into the
                # time stamp: the state change over r is invisible at any
                # tolerance, while a FORCE substep at nu -> 0 applies a
                # nu-independent smoothing that would corrupt the field
                if r <= self.pace * 1e-6:
                    break
                if r >= self.pace * (1.0 - 1e-12):
                    # fold sub-permille overshoot into the final step so the
                    # output stays continuous across step-count seams
                    dt_step = r if r <= self.pace * (1.0 + 1e-3) else self.pace
                    f, rep = self.step(f, dt_step)
                    reports.append(rep)
                    continue
                # final sub-pace interval: macro schemes can shrink one step
                # as long as it still holds the micro work, otherwise the
                # interval is filled with plain micro simulation
                if self.scheme in _MACRO_SCHEMES and r > self.k * self.dt_micro * (1.0 + 1e-12):
                    f, rep = self.step(f, r)
                    reports.append(rep)
                else:
                    f = self._micro_fill(f, r)
                break
            f.time = target
            snaps.append(f.copy())
        return snaps, reports


def mm_step(field: Field, cfg: SimConfig):
    """One hierarchical micro-macro step of size cfg.dt_macro."""
    if cfg.scheme not in ("mmhme", "mmhsm"):
        raise ConfigError(f"mm_step needs an mm scheme, got {cfg.scheme!r}")
    return _Runner(field, cfg).step(field, cfg.dt_macro)


def pi_step(field: Field, cfg: SimConfig):
    """One projective-integration step of size cfg.dt_macro."""
    if cfg.scheme != "pi":
        raise ConfigError(f"pi_step needs scheme 'pi', got {cfg.scheme!r}")
    return _Runner(field, cfg).step(field, cfg.dt_macro)


def cpi_step(field: Field, cfg: SimConfig):
    """One coarse projective-integration step of size cfg.dt_macro."""
    if cfg.scheme != "cpi":
        raise ConfigError(f"cpi_step needs scheme 'cpi', got {cfg.scheme!r}")
    return _Runner(field, cfg).step(field, cfg.dt_macro)


def run_with_reports(field0: Field, cfg: SimConfig):
    """Advance field0 to t_end; returns (snapshots, per-step reports)."""
    return _Runner(field0, cfg).run(field0)


def run(field0: Field, cfg: SimConfig):
    """Advance field0 to cfg.t_end, returning the snapshot list (initial included)."""
    return _Runner(field0, cfg).run(field0)[0]
