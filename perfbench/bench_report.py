"""Pass loop, correctness gates, metrics and the environment record."""

from collections import defaultdict
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import bench_cases
from bench_cases import SCHEMES, run_case
from bench_clock import SpeedClock
import bench_trace

MIN_PASSES = 3
SETUP_PROBES = 11
# after the census, each scheme's cases repeat within a pass until they
# take about REPEAT_TARGET_S, so cheap schemes get more samples
REPEAT_TARGET_S = 0.25
MAX_REPEATS = 50
# the speedup floor of the stiff sweep, as in the acceptance tests; never lower it
SPEEDUP_FLOOR = 10.0
# mass and energy gaps below this are rounding of a double-precision sum
BALANCE_FLOOR = 1e-9
NOTES = (
    "run_s and setup_s are wall seconds rescaled to the machine speed of bench_clock "
    "(raw medians under 'schemes'). Bytes are computed as n*M*M*8 per flux-matrix call, "
    "not measured traffic. No bandwidth ratio is claimed: an array 4x the 300 MiB L3 "
    "needs over 1.2 GB, which a shared machine with 7 GB of memory cannot hold."
)


def measure(args, out_dir, work_dir, probe_cmd, pinned_env):
    """Run passes for args.seconds, check them, print the report; return the exit code."""
    clock = SpeedClock()
    setup_samples = _probe_setup(probe_cmd, clock)
    tracer = bench_trace.Tracer() if args.trace else None
    setup_layers = {}
    if tracer is not None:
        # library workloads build their initial fields here, so trace it once
        tracer.install()
        try:
            cases = bench_cases.build_cases(args.workload, out_dir)
        finally:
            tracer.uninstall()
        calls, self_s = tracer.layer_totals()
        setup_layers = {k: (calls[k], self_s[k]) for k in calls}
    else:
        cases = bench_cases.build_cases(args.workload, out_dir)

    rng = random.Random(args.seed)
    gates = []
    t_start = perf_counter()
    # the census runs every case once, untimed and outside attempted/failed:
    # it warms up, gives the balance, distance and step-count checks, and
    # finds the cases that fail (traced when tracing, to name the failing
    # layer); only the cases that completed in it are timed
    census = _run_pass(_shuffled(cases, dict.fromkeys(SCHEMES, 1), rng), clock,
                       tracer, gates)
    failing = {o.case.key for o in census if o.error is not None}
    timed_cases = [c for c in cases if c.key not in failing]
    if not timed_cases:
        gates.append("no case completed in the census")
    passes = []  # (traced, outcomes, layer metrics or None)
    # traced passes run every case once, so their counts repeat exactly
    reps = _repeats(census) if not args.trace else dict.fromkeys(SCHEMES, 1)
    while not gates and timed_cases:
        traced = bool(args.trace) and len(passes) % 2 == 1
        outcomes = _run_pass(_shuffled(timed_cases, reps, rng), clock,
                             tracer if traced else None, gates)
        layers = _layer_metrics(tracer, setup_layers) if traced else None
        for o in outcomes:  # the census keeps the fields for the balance metrics
            o.prims = None
        passes.append((traced, outcomes, layers))
        done = len(passes) % 2 == 0 if args.trace else len(passes) >= MIN_PASSES
        if done and perf_counter() - t_start >= args.seconds:
            break

    spans_file = None
    if tracer is not None and tracer.spans:
        # spans of the last traced pass, kept in memory until now
        spans_file = os.path.join(work_dir, f"spans-{args.workload}-seed{args.seed}.csv")
        tracer.dump(spans_file)
    all_outcomes = [o for _, outs, _ in passes for o in outs]
    for o in all_outcomes:
        if o.error is None:
            o.scaled = clock.rescale(o.seconds, o.started, o.case.matrix_bytes)
        else:
            gates.append(f"{o.case.key}: failed in a timed pass after completing in the census")
    untraced = [outs for t, outs, _ in passes if not t]
    with_census = [(bool(args.trace), census, None)] + passes
    gates += _check(args.workload, with_census)
    stats = _scheme_stats(untraced)
    if not passes:
        metrics = {}
    elif args.trace:
        metrics = _trace_metrics(passes) if len(passes) > 1 else {}
    else:
        metrics = _end_to_end(args.workload, cases, census, untraced, stats, setup_samples,
                              gates)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "repeats": reps,
        "schemes": stats, "cases": _case_detail(with_census),
        "digest": _workload_digest(with_census),
        "failures": _failures(census + all_outcomes), "gates_failed": gates,
        "setup_samples_s": setup_samples, "machine_speed": clock.overall(),
        "environment": environment(args, pinned_env), "notes": NOTES,
        "spans_file": spans_file,
    }
    print(json.dumps(detail, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    failed = sum(o.error is not None for o in all_outcomes)
    result = {"correct": not gates, "attempted": len(all_outcomes), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if not gates else 1


def _shuffled(cases, reps, rng):
    order = [c for c in cases for _ in range(reps[c.scheme])]
    rng.shuffle(order)
    return order


def _run_pass(order, clock, tracer, gates):
    """Run the cases in order, traced when a tracer is given.

    An exception outside mmbgk.errors appends a gate and ends the pass early.
    """
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    outcomes = []
    try:
        for c in order:
            clock.probe()
            outcomes.append(run_case(c, tracer))
        clock.probe()
    except Exception as exc:  # noqa: BLE001  non-mmbgk error: gate, then stop
        gates.append(f"unexpected {type(exc).__name__} outside mmbgk.errors: {exc}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outcomes


def _probe_setup(cmd, clock):
    """Rescaled wall seconds from spawning a fresh interpreter until its set-up is done.

    Set-up covers the imports, configs, models and initial fields; the median
    of several probes is the setup_s metric.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        clock.probe()
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            t1 = perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if line != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe failed (exit {rc}, said {line!r})")
        clock.probe()
        samples.append((t0, t1))
    return [(t1 - t0) / clock.speed(t0, t1) for t0, t1 in samples]


# --- correctness gates -------------------------------------------------------

def _check(workload, passes):
    gates = []
    digests = defaultdict(set)
    for _, outcomes, _ in passes:
        for o in outcomes:
            if o.error is not None:
                continue
            digests[o.case.key].add(o.digest)
            if not o.finite:
                gates.append(f"{o.case.key}: non-finite output")
            elif not o.positive:
                gates.append(f"{o.case.key}: rho <= 0 or theta <= 0 in the output")
    for key, ds in digests.items():
        if len(ds) != 1:
            gates.append(f"{key}: final states differ between passes (traced or not)")
    if workload == "stiff-eps" and passes:
        steps = {(o.case.scheme, o.case.eps): o.steps for o in passes[0][1]}
        micro = [steps.get(("micro", e)) for e in bench_cases.STIFF_EPS]
        mm = [steps.get(("mmhme", e)) for e in bench_cases.STIFF_EPS]
        if None in micro or any(abs(s - r * micro[0]) > 1 for s, r in zip(micro, (1, 10, 100))):
            gates.append(f"micro step counts {micro} are not 1 : 10 : 100 within 1 step")
        if None in mm or len(set(mm)) != 1:
            gates.append(f"mmhme step counts {mm} differ across eps")
    return gates


# --- end-to-end metrics ------------------------------------------------------

def _repeats(outcomes):
    spent = defaultdict(float)
    for o in outcomes:
        if o.error is None:
            spent[o.case.scheme] += o.seconds
    return {s: max(1, min(MAX_REPEATS, int(REPEAT_TARGET_S / spent[s]))) if spent[s] else 1
            for s in SCHEMES}


def _scheme_samples(outcomes, scheme, attr="scaled"):
    """Samples of one pass: the j-th sample sums the j-th run of each completed case."""
    runs = defaultdict(list)
    for o in outcomes:
        if o.case.scheme == scheme and o.error is None:
            runs[o.case.key].append(getattr(o, attr))
    return [sum(col) for col in zip(*runs.values())]


def _scheme_stats(untraced):
    """Per scheme: seconds of one run of each of its completed cases, over all runs."""
    out = {}
    for s in SCHEMES:
        samples = [x for outs in untraced for x in _scheme_samples(outs, s)]
        raw = [x for outs in untraced for x in _scheme_samples(outs, s, "seconds")]
        if samples:
            out[s] = {"median_s": statistics.median(samples), "n": len(samples),
                      "tail": _tail(samples), "raw_median_s": statistics.median(raw)}
    return out


def _tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return {"percentile": 100.0 * k / n, "value_s": sorted(samples)[k - 1]}


def _speedup(untraced, eps):
    """micro's median rescaled run time over mmhme's, both at eps, over the whole run.

    A single mmhme run on stiff-eps lasts tens of milliseconds, so ratios of
    runs paired within one pass spread 13-19 % between runs there; the ratio
    of whole-run medians of rescaled times spread 12 % over the same runs.
    """
    times = defaultdict(list)
    for outs in untraced:
        for o in outs:
            if o.case.eps == eps and o.error is None:
                times[o.case.scheme].append(o.scaled)
    if not (times["micro"] and times["mmhme"]):
        return None
    return statistics.median(times["micro"]) / statistics.median(times["mmhme"])


def _end_to_end(workload, cases, census, untraced, stats, setup_samples, gates):
    m = {"setup_s": (statistics.median(setup_samples), "s")}
    for s in SCHEMES:
        if s in stats:
            m[f"run_s.{s}"] = (stats[s]["median_s"], "s")
    eps_min = min(c.eps for c in cases)
    speedup = _speedup(untraced, eps_min)
    if speedup is not None:
        m["speedup.mmhme"] = (speedup, "x")
        if workload == "stiff-eps" and speedup < SPEEDUP_FLOOR:
            gates.append(f"speedup.mmhme {speedup:.2f} < {SPEEDUP_FLOOR} at eps={eps_min:g}")
    elif workload == "stiff-eps":
        gates.append("speedup.mmhme missing: micro or mmhme failed at the smallest eps")
    m["completed_frac"] = (sum(o.error is None for o in census) / len(census), "ratio")
    gaps = [bench_cases.balance_gaps(o.case, o) for o in census if o.error is None]
    m["mass_err"] = (max(BALANCE_FLOOR, max(g[0] for g in gaps)), "ratio")
    m["energy_err"] = (max(BALANCE_FLOOR, max(g[1] for g in gaps)), "ratio")
    final = {(o.case.scheme, o.case.eps): o for o in census if o.error is None}
    dists = [bench_cases.primitive_distance(final[("mmhme", e)].case,
                                            final[("mmhme", e)].prims[-1],
                                            final[("micro", e)].prims[-1])
             for e in sorted({c.eps for c in cases})
             if ("mmhme", e) in final and ("micro", e) in final]
    if dists:
        m["ref_dist.mmhme"] = (max(dists), "1")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# --- per-layer metrics -------------------------------------------------------

_COUNTS = {
    "models.system_matrices.bytes": "B",
    "grid.spatial_update.cell_updates": "count",
    "schemes.steps": "count",
    "schemes.euler_substeps": "count",
    "schemes.phase.micro_s": "s",
    "schemes.phase.restrict_s": "s",
    "schemes.phase.macro_s": "s",
    "schemes.phase.match_s": "s",
    "cli.write_csv.bytes": "B",
}


def _layer_metrics(tracer, setup_layers):
    calls, self_s = tracer.layer_totals()
    out = {}
    for name in bench_trace.SPAN_METRICS:
        c0, s0 = setup_layers.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls.get(name, 0) + c0, "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0) + s0, "s")
    for name, unit in _COUNTS.items():
        out[name] = (tracer.counts.get(name, 0), unit)
    return out


def _trace_metrics(passes):
    traced = [layers for t, _, layers in passes if t]
    pass_s = {True: [], False: []}
    for t, outs, _ in passes:
        pass_s[t].append(sum(o.scaled for o in outs if o.error is None))
    m = {}
    for key, (_, unit) in traced[0].items():
        m[key] = (statistics.median(layers[key][0] for layers in traced), unit)
    steps = m["schemes.steps"][0]
    m["models.validate.per_step"] = (m["models.validate.calls"][0] / steps, "ratio")
    m["trace.overhead_frac"] = (statistics.median(pass_s[True])
                                / statistics.median(pass_s[False]) - 1.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# --- report ------------------------------------------------------------------

def _case_detail(passes):
    out = {}
    for traced, outcomes, _ in passes:
        for o in outcomes:
            d = out.setdefault(o.case.key, {"runs": 0, "failed": 0, "steps": o.steps,
                                            "digest": o.digest})
            d["runs"] += 1
            if o.error is not None:
                d["failed"] += 1
            elif "mass_err" not in d:
                d["mass_err"], d["energy_err"] = bench_cases.balance_gaps(o.case, o)
    return out


def _failures(outcomes):
    seen = {}
    for o in outcomes:
        if o.error is not None:
            rec = seen.setdefault(o.case.key, dict(o.error, count=0))
            rec["count"] += 1
            rec.update(o.error)  # a traced failure adds the open span
    return list(seen.values())


def _workload_digest(passes):
    h = hashlib.sha256()
    for key, d in sorted(_case_detail(passes).items()):
        h.update(f"{key}:{d['digest']}\n".encode())
    return h.hexdigest()


def _read(path, default=None):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return default


def environment(args, pinned_env):
    cpu = _read("/proc/cpuinfo", "")
    model = next((ln.split(":", 1)[1].strip() for ln in cpu.splitlines()
                  if ln.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = (_read(f"{base}/{idx}/level") or "").strip()
        kind = (_read(f"{base}/{idx}/type") or "").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = (_read(f"{base}/{idx}/size") or "").strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return {
        "machine": {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
                    "caches": caches},
        "software": {"python": platform.python_version(), "numpy": np.__version__,
                     "blas": blas, "pinned_env": {v: os.environ.get(v) for v in pinned_env}},
        "run": {"git_commit": _git_commit(root), "src_sha256": _src_digest(root),
                "seed": args.seed, "argv": sys.argv[1:]},
    }


def _git_commit(root):
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return None  # not a git checkout; src_sha256 identifies the code
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(os.path.join(root, ".git", ref))
    if sha is None:
        packed = _read(os.path.join(root, ".git", "packed-refs"), "")
        sha = next((ln.split()[0] for ln in packed.splitlines() if ln.endswith(" " + ref)), None)
    return sha.strip() if sha else None


def _src_digest(root):
    """SHA-256 over the package sources."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "mmbgk")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()
