"""Golden SHA-256 hashes of two-beam output, for refactors that must not move a bit.

Usage: python3 tools/golden_hashes.py OUT_DIR

Imports mmbgk from the src/ directory of the checkout this script lives in,
so a copy placed in another checkout hashes that checkout's code. Prints one
"<sha256>  <name>" line per item:

- the 56 CSVs of `mmbgk two-beam --scheme S --order O --snapshots 3`
  (7 schemes x orders 1, 2 x 4 snapshots), written under OUT_DIR;
- the CSVs of `mmbgk matching-study` (defaults) and of
  `mmbgk consistency-sweep --t-end 0.01`, which go through the CLI's table
  writer;
- the full state (every moment of every cell, and the time stamp) of each
  snapshot of library runs on the branches those CSVs miss: CPI at L = 5 on
  the HME and HSM models, PI/CPI on HSM, a t_end that is not a multiple of
  the macro step (its tail, too short for the K micro steps, runs as micro
  steps; at K = 4 that is two full ones and a rest), M = 40 at order 2,
  eps = 1e-3 (the micro steps fill the macro step, so no Euler leftover
  runs), eps = inf, and dt_macro = 0.05 for mmhme, mmhsm and euler, whose
  steps each take 3 CFL-limited Euler substeps.
"""

import hashlib
import os
import sys
from contextlib import redirect_stdout
import io

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from mmbgk import cli  # noqa: E402
from mmbgk.experiments import TwoBeamConfig, two_beam_initial  # noqa: E402
from mmbgk.schemes import SCHEMES, run  # noqa: E402

# (name, TwoBeamConfig keywords) of the library runs; small grids keep it quick
_SMALL = dict(n_cells=200, t_end=0.02, n_snapshots=2)
LIBRARY_CASES = (
    [(f"{s}-o{o}", dict(_SMALL, scheme=s, order=o)) for s in SCHEMES for o in (1, 2)]
    + [("pi-hsm", dict(_SMALL, scheme="pi", model="hsm")),
       ("cpi-hsm-L3", dict(_SMALL, scheme="cpi", model="hsm")),
       ("cpi-hsm-L5", dict(_SMALL, scheme="cpi", model="hsm", n_macro=5)),
       ("cpi-hme-L5", dict(_SMALL, scheme="cpi", n_macro=5)),
       ("cpi-hme-L10", dict(_SMALL, scheme="cpi", n_macro=10))]
    + [(f"{s}-m40-o2", dict(scheme=s, n_moments=40, order=2, n_cells=200, t_end=0.004))
       for s in SCHEMES]
    + [(f"{s}-subpace", dict(_SMALL, scheme=s, n_cells=120, eps=1e-3, t_end=0.0123))
       for s in SCHEMES]
    + [("cpi-hsm-L5-subpace", dict(scheme="cpi", model="hsm", n_macro=5, n_cells=120,
                                   eps=1e-3, t_end=0.0123)),
       ("mmhme-K4-subpace", dict(scheme="mmhme", micro_steps=4, n_cells=120, eps=1e-3,
                                 t_end=0.0123))]
    + [(f"{s}-eps1e-3", dict(_SMALL, scheme=s, eps=1e-3)) for s in SCHEMES]
    + [(f"{s}-epsinf", dict(_SMALL, scheme=s, eps=float("inf"))) for s in SCHEMES]
    + [(f"{s}-bigstep-o{o}", dict(_SMALL, scheme=s, order=o, dt_macro=0.05, t_end=0.1))
       for s in ("mmhme", "mmhsm", "euler") for o in (1, 2)]
)


def _run_cli(argv):
    with redirect_stdout(io.StringIO()):
        rc = cli.parse_and_dispatch(argv)
    if rc != 0:
        raise SystemExit(f"mmbgk {' '.join(argv)} exited {rc}")


def _file_sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cli_hashes(out_dir):
    """(name, sha256) of every CSV of the two-beam CLI grid."""
    rows = []
    for scheme in SCHEMES:
        for order in (1, 2):
            base = os.path.join(out_dir, f"{scheme}_o{order}.csv")
            _run_cli(["two-beam", "--scheme", scheme, "--order", str(order),
                      "--snapshots", "3", "--out", base])
            for i in range(4):
                path = cli.snapshot_path(base, i)
                rows.append((os.path.basename(path), _file_sha(path)))
    return rows


def table_hashes(out_dir):
    """(name, sha256) of the CSVs of the table-writing subcommands."""
    rows = []
    for name, argv in (("matching_study.csv", ["matching-study"]),
                       ("consistency_sweep.csv", ["consistency-sweep", "--t-end", "0.01"])):
        path = os.path.join(out_dir, name)
        _run_cli(argv + ["--out", path])
        rows.append((name, _file_sha(path)))
    return rows


def library_hashes():
    """(name, sha256) of the full snapshot states of each library case."""
    rows = []
    for name, kw in LIBRARY_CASES:
        cfg = TwoBeamConfig(**kw)
        field0, _ = two_beam_initial(cfg)
        h = hashlib.sha256()
        for snap in run(field0, cfg):
            h.update(repr(snap.time).encode())
            h.update(snap.data.tobytes())
        rows.append((name, h.hexdigest()))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out_dir = argv[0]
    os.makedirs(out_dir, exist_ok=True)
    for name, digest in cli_hashes(out_dir) + table_hashes(out_dir) + library_hashes():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
