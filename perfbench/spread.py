"""Run the benchmark several times with different seeds and print each metric's spread.

    python3 perfbench/spread.py --workload fig1_pairs --runs 10

Each run is untraced and measures for BENCHMARK.json's run_seconds, the
length its bounds are judged at. Spread is the interquartile distance of
the per-run values as a share of their median, the figure those bounds are
judged against. Runs one benchmark process at a time from the repository
root.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, vals in values.items():
        med = stats.median(vals)
        q1, q3 = stats.quartiles(vals)
        line = f"{name:<36} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
        line += f"  spread {stats.spread(vals):.4f}  bound {bounds[name]}  spread/bound {stats.spread(vals) / bounds[name]:.2f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
