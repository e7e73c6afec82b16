"""Benchmark of the cohchaos verbs, run from the repository root:

    python3 perfbench/run.py --workload fig1_pairs --seed 1 --seconds 24 --trace 0

With --trace 0 the last line of standard output is a JSON object carrying
the end-to-end metrics (wall_s, setup_s, peak_rss_mb); with --trace 1 it
carries the per-layer metrics of a traced run. Outputs of every verb call
are checked; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_BLAS_THREADS = 2


def blas_threads() -> int:
    return min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="fig1_pairs, lyapunov_shell, oracle_dense or entropy_krylov")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time after the warm-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    args = parse_args(argv)
    threads = blas_threads()
    # Set before numpy is first imported, which happens in the imports below.
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    try:
        from perfbench import harness
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the library under {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        harness.check_source()
        res = harness.measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench_out")
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    harness.report(res, harness.environment(args.workload, args.seed, threads), bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
