"""Paired benchmark record of a base checkout and this one, as one JSON file.

Usage: python3 tools/bench_record.py BASE_DIR OUT_JSON

BASE_DIR is a plain copy of the base revision (from `git archive` or
`git clone`); the other side is the checkout this script lives in, with
its working tree as it is. For each perfbench workload the script runs
PAIRS = 10 pairs of `perfbench/run.py --seconds 30 --trace 0`, one on each
checkout from its own root, pair i with seed i + 1, the base first in even
pairs and the change first in odd ones. It keeps the final JSON line of
every run and, per end-to-end metric, each side's median and quartiles and
the pairs the change wins (reads better than the base; ties count for
neither side).

It then times the phases of the macro steps through `StepReport`: the
wide-m40 cases of mmhme and cpi (500 cells, M = 40, order 2, eps = 1e-4,
t_end = 0.008) run in a fresh interpreter per side with perfbench's pinned
thread and allocator settings, PHASE_RUNS = 15 rounds that alternate base
and change, one run of each case per side and round after a warm-up run. Per
run, a phase's time is its mean over the run's macro steps, in ms; the
record keeps the minimum and the median of those over all runs of a side.

The JSON holds both sides' revisions (the text of a REVISION file
at a checkout's root, which a `git archive` copy needs, else `git describe
--always --dirty` there), the seeds, thread count, Python and numpy
versions, CPU model, core count and the two kinds of results. To bench a
commit rather than a working tree, run the copy of this script inside an
archive of that commit.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("beams-m10", "stiff-eps", "wide-m40")
PHASES = ("t_micro", "t_restrict", "t_macro", "t_match")
PAIRS, SECONDS, PHASE_RUNS = 10, 30.0, 15

# one fresh interpreter: the wide-m40 case of each scheme, per-phase mean ms
# per macro step of one run after a warm-up, printed as one JSON line
_PHASE_CHILD = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
from mmbgk.experiments import TwoBeamConfig, two_beam_initial
from mmbgk.schemes import run_with_reports
out = {}
for scheme in sys.argv[2:]:
    cfg = TwoBeamConfig(scheme=scheme, eps=1e-4, t_end=0.008, n_moments=40,
                        n_cells=500, order=2)
    field0 = two_beam_initial(cfg)[0]
    run_with_reports(field0, cfg)  # warm-up
    reports = [r for r in run_with_reports(field0, cfg)[1] if r.t_match > 0.0]
    out[scheme] = {p: 1e3 * sum(getattr(r, p) for r in reports) / len(reports)
                   for p in %r}
print(json.dumps(out))
""" % (PHASES,)


def _pinned_env():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from run import PINNED_ENV  # noqa: PLC0415
    finally:
        sys.path.pop(0)
    return dict(os.environ, **PINNED_ENV)


def _revision(checkout):
    stamp = os.path.join(checkout, "REVISION")
    if os.path.isfile(stamp):
        with open(stamp, encoding="utf-8") as fh:
            return fh.read().strip()
    res = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                         cwd=checkout, capture_output=True, text=True)
    return res.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _perfbench(checkout, workload, seed, env):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    res = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    return {"exit_code": res.returncode, "final": json.loads(lines[-1]) if lines else None}


def _phases(checkout, schemes, env):
    cmd = [sys.executable, "-c", _PHASE_CHILD, os.path.join(checkout, "src"), *schemes]
    res = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": q2, "q3": q3}


def _compare(runs, better):
    """Per metric: each side's quartiles, and the pairs the change wins."""
    out = {}
    for name, how in better.items():
        vals = {side: [r["final"]["metrics"][name]["value"] for r in rs]
                for side, rs in runs.items()}
        sign = 1.0 if how == "lower" else -1.0
        wins = sum(sign * (b - c) > 0.0 for b, c in zip(vals["base"], vals["change"]))
        out[name] = {"base": _quartiles(vals["base"]), "change": _quartiles(vals["change"]),
                     "change_wins": wins, "pairs": len(vals["base"])}
    return out


def _phase_summary(runs):
    return {p: {"min_ms": min(r[p] for r in runs),
                "median_ms": statistics.median(r[p] for r in runs)} for p in PHASES}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base_dir")
    p.add_argument("out_json")
    args = p.parse_args(argv)
    base = os.path.abspath(args.base_dir)
    sides = {"base": base, "change": ROOT}
    env = _pinned_env()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    seeds = [i + 1 for i in range(PAIRS)]
    perf = {}
    for w in WORKLOADS:
        runs = {side: [] for side in sides}
        for i, seed in enumerate(seeds):
            for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                run = _perfbench(sides[side], w, seed, env)
                runs[side].append(dict(run, seed=seed))
                print(f"{w} pair {i} {side}: exit {run['exit_code']}", file=sys.stderr)
        complete = all(r["final"] for rs in runs.values() for r in rs)
        perf[w] = {"runs": runs, "summary": _compare(runs, better) if complete else None}

    schemes = ("mmhme", "cpi")
    phase_runs = {side: {s: [] for s in schemes} for side in sides}
    for _ in range(PHASE_RUNS):
        for side, checkout in sides.items():
            for s, run in _phases(checkout, schemes, env).items():
                phase_runs[side][s].append(run)

    record = {
        "revisions": {side: _revision(checkout) for side, checkout in sides.items()},
        "seeds": seeds,
        "perfbench_seconds": SECONDS,
        "threads": {k: env[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "machine": {"cpu": _cpu_model(), "cores": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": __import__("numpy").__version__},
        "perfbench": perf,
        "step_phases_wide_m40": {
            "what": "StepReport phase, mean ms per macro step of one run; "
                    "min and median over the runs of a side",
            "runs_per_side": PHASE_RUNS,
            **{side: {s: _phase_summary(runs) for s, runs in per.items()}
               for side, per in phase_runs.items()},
        },
    }
    phases = record["step_phases_wide_m40"]
    phases["match_change_over_base"] = {
        s: {k: phases["change"][s]["t_match"][k] / phases["base"][s]["t_match"][k]
            for k in ("min_ms", "median_ms")} for s in schemes
    }
    with open(args.out_json, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
