"""Workload cases of the two-beam benchmark and the code that runs and checks them.

A case is one two-beam run to t_end. Library cases call
`experiments.two_beam_initial` once at set-up and time
`schemes.run_with_reports`; CLI cases time `cli.parse_and_dispatch` on a
`two-beam` command line that writes CSV snapshots. Every workload runs all
seven schemes, so each per-scheme metric exists on each workload.
"""

from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, fields
import hashlib
import io
import math
import os
import traceback
from time import perf_counter

import numpy as np

from mmbgk import cli, errors, experiments, schemes
from mmbgk.experiments import TwoBeamConfig

SCHEMES = ("micro", "micro-split", "mmhme", "mmhsm", "pi", "cpi", "euler")
WORKLOADS = ("beams-m10", "stiff-eps", "wide-m40")
STIFF_EPS = (1e-3, 1e-4, 1e-5)
MMBGK_ERRORS = tuple(
    v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)
)


@dataclass
class Case:
    scheme: str
    eps: float
    cfg: TwoBeamConfig
    argv: list = None  # CLI cases only
    field0: object = None  # library cases only
    model: object = None

    @property
    def key(self):
        return f"{self.scheme}@{self.eps:g}"

    @property
    def matrix_bytes(self):
        """Bytes of one flux-matrix batch; HSM broadcasts one matrix, Euler's are 3x3."""
        if self.scheme in ("mmhsm", "euler") or self.cfg.model != "hme":
            return 0
        return self.cfg.n_cells * self.cfg.n_moments ** 2 * 8


def build_cases(workload, out_dir):
    """Configs, models and initial fields of one workload: the set-up."""
    if workload == "beams-m10":
        cases = []
        for s in SCHEMES:
            cfg = TwoBeamConfig(scheme=s, t_end=0.1, n_snapshots=4)
            argv = ["two-beam", "--scheme", s, "--t-end", repr(cfg.t_end),
                    "--snapshots", str(cfg.n_snapshots),
                    "--out", os.path.join(out_dir, f"{s}.csv")]
            cases.append(Case(s, cfg.eps, cfg, argv=argv))
        return cases
    if workload == "stiff-eps":
        specs = [(s, e, {"t_end": 0.02}) for e in STIFF_EPS for s in SCHEMES]
    elif workload == "wide-m40":
        wide = {"t_end": 0.008, "n_moments": 40, "n_cells": 500, "order": 2}
        specs = [(s, 1e-4, wide) for s in SCHEMES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cases = []
    for s, e, kw in specs:
        # micro resolves eps at dt_micro = eps/2, the reference of the speedup claim
        cfg = TwoBeamConfig(scheme=s, eps=e, dt_micro=e / 2.0 if s == "micro" else None, **kw)
        field0, model = experiments.two_beam_initial(cfg)
        cases.append(Case(s, e, cfg, field0=field0, model=model))
    return cases


def _sim_config(cfg):
    return schemes.SimConfig(**{f.name: getattr(cfg, f.name) for f in fields(schemes.SimConfig)})


@dataclass
class Outcome:
    """One operation: timing, step count, (rho, u, theta) per snapshot, digest.

    A failed operation keeps its error and no timing.
    """

    case: Case
    seconds: float = math.nan  # wall time
    started: float = math.nan  # perf_counter at the start
    scaled: float = math.nan  # wall time rescaled to the reference machine speed
    steps: int = None
    digest: str = None
    prims: list = None  # first and last entries: initial and final fields
    finite: bool = True
    positive: bool = True  # rho > 0 and theta > 0 in every snapshot
    error: dict = None


def run_case(case, tracer=None):
    """Run one case. An mmbgk error becomes a recorded failure; others propagate."""
    out = Outcome(case)
    if tracer is not None:
        tracer.failed_in = None
    try:
        if case.argv is not None:
            _run_cli(case, out)
        else:
            _run_library(case, out)
    except MMBGK_ERRORS as exc:
        out.error = {
            "case": case.key, "scheme": case.scheme, "eps": case.eps,
            "type": type(exc).__name__, "message": str(exc),
            "where": _innermost_mmbgk_frame(exc.__traceback__),
        }
        if tracer is not None:
            out.error["span"] = tracer.failed_in
    return out


def _innermost_mmbgk_frame(tb):
    where = None
    for frame, _ in traceback.walk_tb(tb):
        mod = frame.f_globals.get("__name__", "")
        if mod.startswith("mmbgk."):
            where = f"{mod[len('mmbgk.'):]}.{frame.f_code.co_name}"
    return where


def _run_library(case, out):
    sim = _sim_config(case.cfg)
    t0 = out.started = perf_counter()
    snaps, reports = schemes.run_with_reports(case.field0, sim)
    out.seconds = perf_counter() - t0
    final = snaps[-1].data
    out.steps = len(reports)
    out.finite = bool(np.all(np.isfinite(final)))
    out.digest = hashlib.sha256(final.tobytes()).hexdigest()
    out.prims = [case.model.primitive_moments(s.data) for s in (snaps[0], snaps[-1])]
    out.positive = _positive(out.prims)


def _run_cli(case, out):
    sink_out, sink_err = io.StringIO(), io.StringIO()
    with redirect_stdout(sink_out), redirect_stderr(sink_err):
        t0 = out.started = perf_counter()
        rc = cli.parse_and_dispatch(case.argv)
        out.seconds = perf_counter() - t0
    if rc != 0:
        raise CliExit(rc, sink_err.getvalue().strip())
    base = case.argv[case.argv.index("--out") + 1]
    digest = hashlib.sha256()
    out.prims = []
    for i in range(case.cfg.n_snapshots + 1):
        with open(cli.snapshot_path(base, i), "rb") as fh:
            raw = fh.read()
        digest.update(raw)
        table = np.array([[float(v) for v in ln.split(",")[1:4]]
                          for ln in raw.decode("utf-8").splitlines()[1:]])
        out.prims.append(table)
    out.digest = digest.hexdigest()
    out.finite = all(bool(np.all(np.isfinite(p))) for p in out.prims)
    out.positive = _positive(out.prims)


class CliExit(errors.StepError):
    """The CLI mapped an mmbgk error to a non-zero exit code."""

    def __init__(self, rc, message):
        super().__init__(f"exit code {rc}: {message}")


def balance_gaps(case, out):
    """Relative gaps of the mass and energy change against the boundary inflow.

    Copy-outflow boundaries hold the beam states, so the exact inflow over t
    is 2 rho u t for mass and rho u (u^2 + 3 theta) t for the energy
    rho (u^2 + theta) / 2 (both beams: rho = theta = 1, |u| = u_beam).
    """
    cfg = case.cfg
    dx = (cfg.x_max - cfg.x_min) / cfg.n_cells
    u = cfg.u_beam
    t = cfg.t_end

    def totals(prim):
        rho, vel, theta = prim[:, 0], prim[:, 1], prim[:, 2]
        return dx * np.sum(rho), dx * np.sum(0.5 * rho * (vel * vel + theta))

    m0, e0 = totals(out.prims[0])
    m1, e1 = totals(out.prims[-1])
    mass_in, energy_in = 2.0 * u * t, u * (u * u + 3.0) * t
    return abs(m1 - m0 - mass_in) / mass_in, abs(e1 - e0 - energy_in) / energy_in


def _positive(prims):
    return all(bool(np.all(p[:, 0] > 0.0) and np.all(p[:, 2] > 0.0)) for p in prims)


def primitive_distance(case, prim_a, prim_b):
    """Discrete L2 distance of two (rho, u, theta) fields on the case's grid."""
    cfg = case.cfg
    dx = (cfg.x_max - cfg.x_min) / cfg.n_cells
    d = prim_a - prim_b
    return float(np.sqrt(dx * np.sum(d * d)))
