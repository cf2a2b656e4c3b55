"""Command-line front end: experiment dispatch and CSV emission.

Exit codes: 0 success, 2 configuration problem (bad flags, invalid
combinations, unreadable config file), 1 runtime failure (CFL violation,
invalid state, realizability breach such as the matching bound, IO error).
"""

import argparse
from dataclasses import fields
import os
import sys

import numpy as np

from .errors import ConfigError, DomainError, NumericError, StateError, StepError
from .experiments import (
    MomentSnapshot,
    TwoBeamConfig,
    consistency_sweep,
    matching_study,
    speedup_bench,
    two_beam,
)
from .schemes import SCHEMES


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    # 17 significant digits round-trip doubles losslessly
    return format(float(v), ".17g")


_SNAPSHOT_ROW = ",".join(["%.17g"] * 6) + "\n"


def write_csv(obj, path) -> None:
    """Write a MomentSnapshot or a (header, rows) table as UTF-8 CSV.

    The whole text is formatted before the file is opened, so a value that
    cannot be formatted leaves no file behind.
    """
    if isinstance(obj, MomentSnapshot):
        cols = np.column_stack((obj.x, obj.rho, obj.u, obj.theta, obj.p, obj.q))
        # "%.17g" % x and _fmt's format(x, ".17g") are one CPython routine, so
        # one template over all cells gives the same bytes as _fmt per value
        text = "x,rho,u,theta,p,q\n" + (_SNAPSHOT_ROW * len(cols)) % tuple(cols.ravel().tolist())
    else:
        # tables are few rows of mixed types: format each value by its own type
        header, rows = obj
        text = header + "\n" + "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def snapshot_path(base: str, index: int) -> str:
    root, ext = os.path.splitext(base)
    return f"{root}_t{index}{ext or '.csv'}"


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    # each dest names the TwoBeamConfig field the flag sets
    d = TwoBeamConfig()
    p.add_argument("--scheme", choices=SCHEMES, default=d.scheme)
    p.add_argument("--model", choices=("hme", "hsm"), default=d.model,
                   help="micro model for pi/cpi/micro schemes")
    p.add_argument("--moments", dest="n_moments", type=int, default=d.n_moments, metavar="M")
    p.add_argument("--macro", dest="n_macro", type=int, default=None, metavar="L",
                   help="macro size; defaults to 3 (mm, cpi) or M (pi)")
    p.add_argument("--eps", type=float, default=d.eps)
    p.add_argument("--dt-micro", type=float, default=None)
    p.add_argument("--dt-macro", type=float, default=d.dt_macro)
    p.add_argument("--micro-steps", type=int, default=d.micro_steps)
    p.add_argument("--cells", dest="n_cells", type=int, default=d.n_cells)
    p.add_argument("--xmin", dest="x_min", type=float, default=d.x_min)
    p.add_argument("--xmax", dest="x_max", type=float, default=d.x_max)
    p.add_argument("--t-end", type=float, default=d.t_end)
    p.add_argument("--cfl", type=float, default=d.cfl)
    p.add_argument("--order", type=int, choices=(1, 2), default=d.order)
    p.add_argument("--snapshots", dest="n_snapshots", type=int, default=d.n_snapshots)


def _add_common_flags(p: argparse.ArgumentParser, default_out: str) -> None:
    p.add_argument("--out", default=default_out, metavar="PATH")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="key=value file of flag defaults; flags override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmbgk",
        description="1D Hermite moment solvers for the BGK equation with "
                    "micro-macro, PI, and CPI time stepping",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("two-beam", help="colliding-beams test, CSV per snapshot")
    _add_run_flags(p)
    _add_common_flags(p, "two_beam.csv")

    p = sub.add_parser("matching-study", help="matching error vs macro size L")
    p.add_argument("--moments", type=int, default=8, metavar="M")
    p.add_argument("--scale", type=float, default=1.2,
                   help="factor between prior and exact state")
    _add_common_flags(p, "matching_study.csv")

    p = sub.add_parser("consistency-sweep", help="distance to micro reference vs dt")
    p.add_argument("--cfl", default="0.5,0.4,0.27",
                   help="comma-separated CFL numbers; dt = (cfl/0.5)*5e-4")
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--moments", type=int, default=10, metavar="M")
    p.add_argument("--t-end", type=float, default=0.1)
    _add_common_flags(p, "consistency_sweep.csv")

    p = sub.add_parser("bench", help="wall-time speedup over the micro solver")
    p.add_argument("--eps", default="1e-3,1e-4,1e-5", help="comma-separated list")
    p.add_argument("--t-end", type=float, default=0.1)
    _add_common_flags(p, "bench.csv")
    return parser


def _parse_float_list(text: str, flag: str):
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        raise ConfigError(f"{flag} expects comma-separated numbers: {e}") from None
    if not vals:
        raise ConfigError(f"{flag} got an empty list")
    return vals


def _expand_config(argv):
    """Splice --config file entries (key=value lines) in as early flags."""
    argv = list(argv)
    path = None
    pos = None
    for i, tok in enumerate(argv):
        if tok == "--config":
            if i + 1 >= len(argv):
                raise ConfigError("--config expects a file path")
            path, pos = argv[i + 1], i
            break
        if tok.startswith("--config="):
            path, pos = tok.split("=", 1)[1], i
            break
    if path is None:
        return argv
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from None
    tokens = []
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"{path}:{ln}: expected key=value, got {raw!r}")
        tokens += [f"--{key.strip().replace('_', '-')}", val.strip()]
    # insert after the subcommand so explicit flags, parsed later, win
    if pos == 0:
        raise ConfigError("--config must follow a subcommand")
    return [argv[0]] + tokens + argv[1:]


def _run_two_beam(args) -> int:
    # the run flags' dests are the field names; u_beam has no flag
    cfg = TwoBeamConfig(**{f.name: getattr(args, f.name) for f in fields(TwoBeamConfig)
                           if hasattr(args, f.name)})
    snaps = two_beam(cfg)
    for i, snap in enumerate(snaps):
        write_csv(snap, snapshot_path(args.out, i))
    print(f"wrote {len(snaps)} snapshots to {snapshot_path(args.out, 0)} "
          f"... {snapshot_path(args.out, len(snaps) - 1)}")
    return 0


def _run_matching_study(args) -> int:
    rows = matching_study(n_moments=args.moments, p_scale=args.scale)
    write_csv(("L,error", rows), args.out)
    for l, err in rows:
        print(f"L={l}: weighted L2 error {err:.6e}")
    return 0


def _run_consistency_sweep(args) -> int:
    cfl_list = _parse_float_list(args.cfl, "--cfl")
    rows = consistency_sweep(cfl_list=cfl_list, eps=args.eps,
                             n_moments=args.moments, t_end=args.t_end)
    write_csv(("scheme,cfl,dt,distance", rows), args.out)
    for scheme, cfl, dt, dist in rows:
        print(f"{scheme} cfl={cfl:g} dt={dt:g}: distance {dist:.6e}")
    return 0


def _run_bench(args) -> int:
    eps_list = _parse_float_list(args.eps, "--eps")
    results = speedup_bench(eps_list=eps_list, t_end=args.t_end)
    rows = [(r.scheme, r.eps, r.wall_time, r.steps, r.speedup) for r in results]
    write_csv(("scheme,eps,wall_time,steps,speedup", rows), args.out)
    for r in results:
        print(f"{r.scheme} eps={r.eps:g}: {r.wall_time:.3f}s, "
              f"{r.steps} steps, speedup {r.speedup:.1f}")
    return 0


def parse_and_dispatch(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _expand_config(argv)
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:
            return 0 if e.code in (0, None) else 2
        # every subcommand writes --out after its run: refuse a missing directory first
        out_dir = os.path.dirname(args.out) or "."
        if not os.path.isdir(out_dir):
            raise FileNotFoundError(f"output directory {out_dir!r} does not exist")
        handler = {
            "two-beam": _run_two_beam,
            "matching-study": _run_matching_study,
            "consistency-sweep": _run_consistency_sweep,
            "bench": _run_bench,
        }[args.command]
        return handler(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (StepError, StateError, DomainError, NumericError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
