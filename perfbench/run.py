"""Two-beam benchmark of mmbgk: per-scheme time to solution, checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload stiff-eps --seed 1 --seconds 30 --trace 0

One closed-loop client runs one two-beam case at a time in this process,
with BLAS threads pinned to 1. A pass runs the cases of the workload in an
order drawn from --seed; passes repeat until --seconds have elapsed.
--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics. NOTES.md describes the
workloads, metrics and gates. The last stdout line is one
JSON object with keys correct, attempted, failed and metrics. The exit code
is non-zero when a correctness gate fails.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# glibc's dynamic mmap threshold and heap trimming make the page-fault cost
# of the solver's 0.4 MB temporaries flip between passes (+-20 % run to run);
# fixed thresholds keep blocks up to 32 MB on the heap and never trim it.
MALLOC_VARS = {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "268435456"}
PINNED_ENV = dict(dict.fromkeys(THREAD_VARS, "1"), **MALLOC_VARS)

if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    # allocator settings are read at process start, so restart with them
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])

import argparse  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="do the set-up only, print 'ready' and exit")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "mmbgk")):
        print(f"error: no mmbgk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench_cases  # noqa: PLC0415  (imports mmbgk from SRC)

    if args.workload not in bench_cases.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, pick one of "
              f"{bench_cases.WORKLOADS}", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        if args.setup_probe:
            bench_cases.build_cases(args.workload, out_dir)
            print("ready", flush=True)
            return 0
        import bench_report  # noqa: PLC0415

        probe_cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
        return bench_report.measure(args, out_dir, WORK_DIR, probe_cmd, PINNED_ENV)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
