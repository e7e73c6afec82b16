"""Byte-for-byte regression of the verbs against recorded outputs.

tests/golden/<case>/ holds every file that one CLI run on the fig1 preset
wrote, with the verb and overrides in RUNS. Each case compares a fresh run
with those bytes, so a refactor of the flow, the kernel, the exact oracle
or the writers that moves any printed digit fails here.

The last bits of VODE's steps and of the Chebyshev series' matrix products
depend on the OpenBLAS kernel and, for the exact verbs, on the BLAS thread
count. So every case runs in one subprocess pinned to the AVX2 kernel and
one thread (PIN), which any x86-64 CPU with AVX2 executes alike; the pin
does not cover ARM. To re-record after an intended change, run the same
command under the pin, for example

    OPENBLAS_CORETYPE=Haswell OPENBLAS_NUM_THREADS=1 \\
        cohchaos lyapunov --preset fig1 --override lyapunov.t_total=3 --out tests/golden/lyapunov

The bytes were recorded with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1.
The flow runs on scipy's compiled VODE, and another scipy build of it may
round differently, so a mismatch under another scipy is a difference of
builds to confirm against these versions before it is taken for a bug.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cohchaos

GOLDEN = Path(__file__).parent / "golden"

# OpenBLAS reads these when it loads, so they only act on a new process.
PIN = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}

# case: (verb, overrides); the case names the directory under tests/golden
RUNS = {
    "trajectory": ("trajectory", ["t_final=2"]),
    "overlap-pair": ("overlap-pair", ["t_final=2"]),
    "fig1": ("fig1", ["t_final=2"]),
    "entropy": ("entropy", ["t_final=2", "n_max=null"]),
    "lyapunov": ("lyapunov", ["lyapunov.t_total=3"]),
    "oracle-compare": ("oracle-compare", ["t_final=2"]),
    "entropy-krylov": ("entropy", ["model.j=12.5", "t_final=2", "n_max=120"]),
}

_RUN_ALL = """
import json, sys
from cohchaos.cli import main
for args in json.loads(sys.argv[1]):
    if main(args) != 0:
        sys.exit(f"cohchaos {' '.join(args)} failed")
"""


@pytest.fixture(scope="module")
def pinned_runs(tmp_path_factory) -> Path:
    """Run every case once, in one subprocess under PIN; return the output root."""
    root = tmp_path_factory.mktemp("golden")
    calls = []
    for case, (verb, overrides) in RUNS.items():
        args = [verb, "--preset", "fig1", "--out", str(root / case)]
        for item in overrides:
            args += ["--override", item]
        calls.append(args)
    src = str(Path(cohchaos.__file__).parents[1])
    env = {**os.environ, **PIN, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _RUN_ALL, json.dumps(calls)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return root


@pytest.mark.parametrize("case", list(RUNS))
def test_verb_output_matches_recorded_bytes(case, pinned_runs):
    out = pinned_runs / case
    expected = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        assert (out / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name
