"""In-process A/B of two source trees on the cases of one perfbench workload.

Usage: python3 tools/ab_cases.py SRC_A SRC_B --workload W --rounds N

SRC_A and SRC_B are checkout roots (each holding src/mmbgk). Both packages
load into this one interpreter under the names mmbgk_a and mmbgk_b, so the
two sides share the process, its allocator and its CPU state. The cases
are perfbench's own, from perfbench/bench_cases.py's build_cases (which
imports this checkout's src/mmbgk for their configs alone): a CLI case
runs each copy's `two-beam` command line with CSV snapshots into a
temporary directory per side, a library case calls each copy's
`run_with_reports` on an initial field that copy builds from the case's
config. Each case first runs once per side untimed; a case that raises on
either side is reported and not timed, and a case whose final states
differ in any bit is flagged. Then N rounds run every case once per side back to back, A
first in even rounds and B first in odd ones. The thread and allocator
settings are perfbench's, pinned by restarting the interpreter.

For each case it prints both sides' median and minimum wall time in ms, B
over A minus one for each, and the rounds B was faster in. It sizes a
change case by case; perfbench/run.py, one process per side, remains the
judge of the benchmark.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
from run import PINNED_ENV  # noqa: E402

if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    # allocator settings are read at process start, so restart with them
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import bench_cases  # noqa: E402


def load_package(checkout, name):
    """The mmbgk package under checkout/src, imported as the package name."""
    pkg_dir = os.path.join(os.path.abspath(checkout), "src", "mmbgk")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    importlib.import_module(f"{name}.cli")  # not imported by the package itself
    return pkg


def package_errors(pkg):
    """The exception classes of the package's errors module; a case that
    raises one of them, or a CLI case that exits non-zero, is a failure."""
    return tuple(v for v in vars(pkg.errors).values()
                 if isinstance(v, type) and issubclass(v, Exception))


def make_runner(pkg, case):
    """A no-argument call that runs perfbench's case once on pkg and returns
    the bytes of its final state (the last CSV for a CLI case)."""
    if case.argv is not None:
        base = case.argv[case.argv.index("--out") + 1]

        def run_cli():
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                rc = pkg.cli.parse_and_dispatch(case.argv)
            if rc != 0:
                raise RuntimeError(f"exit code {rc}")
            with open(pkg.cli.snapshot_path(base, case.cfg.n_snapshots), "rb") as fh:
                return fh.read()
        return run_cli
    cfg = pkg.experiments.TwoBeamConfig(**{f.name: getattr(case.cfg, f.name)
                                          for f in dataclasses.fields(case.cfg)})
    field0 = pkg.experiments.two_beam_initial(cfg)[0]
    return lambda: pkg.schemes.run_with_reports(field0, cfg)[0][-1].data.tobytes()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src_a")
    p.add_argument("src_b")
    p.add_argument("--workload", required=True, choices=bench_cases.WORKLOADS)
    p.add_argument("--rounds", type=int, default=15)
    args = p.parse_args(argv)
    pkgs = {"a": load_package(args.src_a, "mmbgk_a"), "b": load_package(args.src_b, "mmbgk_b")}
    with tempfile.TemporaryDirectory() as tmp:
        runners, bad, cases = {}, [], {}
        for side in pkgs:
            os.makedirs(os.path.join(tmp, side))
            cases[side] = bench_cases.build_cases(args.workload, os.path.join(tmp, side))
        for i, case in enumerate(cases["a"]):
            key, sides, outs = case.key, {}, {}
            for side, pkg in pkgs.items():
                sides[side] = make_runner(pkg, cases[side][i])
                try:
                    outs[side] = sides[side]()
                except (RuntimeError, *package_errors(pkg)) as exc:
                    outs[side] = f"{type(exc).__name__}: {exc}"
            failed = {side: out for side, out in outs.items() if isinstance(out, str)}
            if failed:
                bad.append(f"{key}: not timed; "
                           + "; ".join(f"{side}: {failed.get(side, 'ok')}" for side in pkgs))
                continue
            if outs["a"] != outs["b"]:
                bad.append(f"{key}: final states differ")
            runners[key] = sides
        times = {key: {"a": [], "b": []} for key in runners}
        for r in range(args.rounds):
            for key, sides in runners.items():
                for side in (("a", "b") if r % 2 == 0 else ("b", "a")):
                    t0 = perf_counter()
                    sides[side]()
                    times[key][side].append(perf_counter() - t0)
    print(f"{args.workload}, {args.rounds} rounds; times in ms; b/a - 1 of the median and "
          "the minimum; rounds b was faster in")
    print(f"{'case':<18}{'a med':>9}{'b med':>9}{'med':>8}{'a min':>9}{'b min':>9}{'min':>8}"
          f"{'b wins':>8}")
    for key, t in times.items():
        a, b = np.array(t["a"]) * 1e3, np.array(t["b"]) * 1e3
        med_a, med_b = statistics.median(a), statistics.median(b)
        wins = int(np.sum(b < a))
        print(f"{key:<18}{med_a:9.2f}{med_b:9.2f}{med_b / med_a - 1:+8.1%}{a.min():9.2f}"
              f"{b.min():9.2f}{b.min() / a.min() - 1:+8.1%}{wins:>5}/{len(a)}")
    for line in bad:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
