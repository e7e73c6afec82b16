"""Measurement loop, set-up probes, environment record and result printing.

Imported by run.py after the BLAS thread count is pinned, because importing
this module loads numpy through cohchaos.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import cohchaos
from cohchaos.experiments import config_from_dict, run_experiment

from perfbench import stats, trace
from perfbench.trace import BenchError
from perfbench.workloads import Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60

# Runs in a fresh interpreter: everything a CLI invocation pays before its
# first run_experiment call. Prints the import time it saw itself.
_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cohchaos.cli
from cohchaos.experiments import config_from_dict
t1 = time.perf_counter()
config_from_dict(json.loads(sys.argv[2]))
print(json.dumps({"import_s": t1 - t0}), flush=True)
"""


@dataclass
class Result:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    wall: list[float] = field(default_factory=list)
    traced_wall: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    imports: list[float] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)
    peak_rss_mb: float = 0.0


def check_source() -> None:
    """Refuse to measure a cohchaos other than the one under src/."""
    origin = Path(cohchaos.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"cohchaos imported from {origin}, not from {SRC}")


def probe_setup(raw: dict) -> tuple[float, float]:
    """Wall seconds for a fresh interpreter to import cohchaos and resolve raw, and its own import time."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _PROBE, str(SRC), json.dumps(raw)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        try:
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("set-up probe did not exit") from None
    if code != 0 or not line:
        raise BenchError(f"set-up probe failed with exit code {code}")
    return elapsed, float(json.loads(line)["import_s"])


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas() -> dict:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": None, "version": None}
    return {"name": info.get("name"), "version": info.get("version")}


def environment(workload: str, seed: int, blas_threads: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "commit": _git_commit(),
    }


def _csv_bytes(out: Path, manifest: dict) -> int:
    return sum((out / name).stat().st_size for name in manifest["outputs"])


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    out_root: Path,
    tiny: bool = False,
    setup_samples: int = SETUP_SAMPLES,
) -> Result:
    """Run one workload: set-up probes, a warm-up, then timed verb calls for `seconds`.

    With traced, timed calls alternate between untraced and traced so both
    see the same machine state; only untraced calls give wall_s.
    """
    res = Result()
    raw = workload.raw(seed, tiny)
    for _ in range(setup_samples):
        elapsed, imported = probe_setup(raw)
        res.setup.append(elapsed)
        res.imports.append(imported)

    cfg = config_from_dict(raw)
    expected = workload.expect(cfg)
    out = out_root / workload.name
    tracer = trace.Tracer()

    def operation(with_trace: bool) -> float:
        res.attempted += 1
        if with_trace:
            tracer.run += 1
            tracer.install()
            call = tracer.wrap_span(trace.ROOT_SPAN, run_experiment)
        else:
            call = run_experiment
        gc.collect()  # garbage from the previous call is not this call's cost
        start = perf_counter()
        try:
            manifest = call(workload.verb, cfg, out)
        except Exception:  # a raising verb is a failed operation; keep measuring the rest
            elapsed = perf_counter() - start
            res.failed += 1
            res.failures.append(traceback.format_exc(limit=3).strip())
            return elapsed
        finally:
            tracer.uninstall()
        elapsed = perf_counter() - start
        failures = workload.check(out, manifest, expected)
        if failures:
            res.failed += 1
            res.failures += failures
        if with_trace:
            layer = trace.run_metrics(tracer.run_spans(tracer.run), tracer.run_counts(tracer.run))
            layer["experiments.csv_bytes"] = _csv_bytes(out, manifest)
            res.layers.append(layer)
        return elapsed

    operation(False)  # warm-up: lazy imports and first-touch allocations
    deadline = perf_counter() + seconds
    turn = 0
    while True:
        with_trace = traced and turn % 2 == 1
        (res.traced_wall if with_trace else res.wall).append(operation(with_trace))
        turn += 1
        if perf_counter() >= deadline and (not traced or res.traced_wall):
            break

    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        tracer.write(out_root / f"{workload.name}-seed{seed}-spans.json")
    return res


def end_to_end(res: Result) -> dict[str, float]:
    return {
        "wall_s": stats.median(res.wall),
        "setup_s": stats.median(res.setup),
        "peak_rss_mb": res.peak_rss_mb,
    }


def per_layer(res: Result) -> dict[str, float]:
    # A traced call that raised leaves no layer record; all of them raising leaves zeros.
    layers = res.layers or [{**trace.run_metrics([], {}), "experiments.csv_bytes": 0}]
    metrics = {name: stats.median([layer[name] for layer in layers]) for name in layers[0]}
    metrics["cli.import_s"] = stats.median(res.imports)
    metrics["trace.wall_s"] = stats.median(res.traced_wall)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - stats.median(res.wall)
    return metrics


def _describe(name: str, samples: list[float], unit: str) -> str:
    q1, q3 = stats.quartiles(samples)
    tail = stats.tail_percentile(samples)
    tail_text = f"p{tail[0]:g} {tail[1]:.6g}" if tail else "no percentile with >= 10 samples beyond"
    return (
        f"{name:<12} {stats.median(samples):.6g} {unit}  median of n={len(samples)}, "
        f"quartiles {q1:.6g} .. {q3:.6g}, {tail_text}"
    )


def report(res: Result, env: dict, traced: bool) -> dict:
    """Print the human summary, then the one-line JSON result; returns the latter."""
    print("env " + json.dumps(env, sort_keys=True))
    for failure in res.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(_describe("wall_s", res.wall, "s"))
    print(_describe("setup_s", res.setup, "s"))
    print(f"{'peak_rss_mb':<12} {res.peak_rss_mb:.6g} MiB")
    print(f"{'failed_frac':<12} {res.failed / res.attempted:.6g} ratio  ({res.failed} failed of {res.attempted} operations)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if traced:
        metrics, listed = per_layer(res), spec["per_layer"]
        for module in trace.MODULES:
            print(f"  {module:<12} {metrics[module + '.wall_frac']:7.1%} of traced wall_s")
    else:
        metrics, listed = end_to_end(res), spec["end_to_end"]
    result = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return result
