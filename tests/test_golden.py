"""Byte-for-byte regression of the verbs against recorded outputs.

tests/golden/<case>/ holds every file that one CLI run on the fig1 preset
wrote, with the verb and overrides in RUNS. Each case compares a fresh run
with those bytes, so a refactor of the flow, the kernel, the exact oracle
or the writers that moves any printed digit fails here.
A failure names the file, its first differing line and both versions of
that line.

The last bits of VODE's steps and of the Chebyshev series' matrix products
depend on the OpenBLAS kernel and, for the exact verbs, on the BLAS thread
count. So every case runs in one subprocess pinned to the AVX2 kernel and
one thread (PIN), which any x86-64 CPU with AVX2 executes alike; the pin
does not cover ARM. To re-record after an intended change, run this module
as a script:

    python tests/test_golden.py [case ...]

It re-records the named cases (all of them by default) into tests/golden
through the same pinned subprocess as the test (prefix PYTHONPATH=src when
the package is not installed), and prints, for each CSV it re-records, the
largest absolute and relative change of every column against the old bytes,
and for run_manifest.json the lines removed and added.

The bytes were recorded with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1.
The flow runs on scipy's compiled VODE, and another scipy build of it may
round differently, so a mismatch under another scipy is a difference of
builds to confirm against these versions before it is taken for a bug.
"""

from __future__ import annotations

import csv
import difflib
import io
import json
import math
import os
import shutil
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


def run_pinned(root: Path, cases) -> None:
    """Run the named cases of RUNS in one subprocess under PIN, each into root/<case>."""
    calls = []
    for case in cases:
        verb, overrides = RUNS[case]
        args = [verb, "--preset", "fig1", "--out", str(root / case)]
        for item in overrides:
            args += ["--override", item]
        calls.append(args)
    src = str(Path(cohchaos.__file__).parents[1])
    env = {**os.environ, **PIN, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _RUN_ALL, json.dumps(calls)], env=env, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise RuntimeError(done.stderr)


@pytest.fixture(scope="module")
def pinned_runs(tmp_path_factory) -> Path:
    """Run every case once, in one subprocess under PIN; return the output root."""
    root = tmp_path_factory.mktemp("golden")
    run_pinned(root, RUNS)
    return root


def first_difference(name: str, got: bytes, recorded: bytes) -> str | None:
    """Where two files' bytes first differ: the file, the line number and both lines."""
    got_lines, recorded_lines = got.split(b"\n"), recorded.split(b"\n")
    for number, (line, want) in enumerate(zip(got_lines, recorded_lines), start=1):
        if line != want:
            return f"{name} line {number}: got {line!r}, recorded {want!r}"
    if len(got_lines) != len(recorded_lines):
        return f"{name}: got {len(got_lines)} lines, recorded {len(recorded_lines)}"
    return None


def test_first_difference_names_the_line():
    assert first_difference("a.csv", b"t,x\r\n0,1\r\n", b"t,x\r\n0,1\r\n") is None
    assert first_difference("a.csv", b"t,x\r\n0,2\r\n", b"t,x\r\n0,1\r\n") == (
        "a.csv line 2: got b'0,2\\r', recorded b'0,1\\r'"
    )
    assert first_difference("a.csv", b"t,x\n", b"t,x\n0,1\n") == "a.csv line 2: got b'', recorded b'0,1'"


def column_changes(old: bytes, new: bytes) -> list[str]:
    """One line per column of a CSV: how many cells changed from the old bytes to the new, and the largest change."""
    (old_head, *old_rows), (new_head, *new_rows) = (list(csv.reader(io.StringIO(b.decode()))) for b in (old, new))
    if old_head != new_head or len(old_rows) != len(new_rows):
        return [f"columns {old_head} x {len(old_rows)} rows, now {new_head} x {len(new_rows)} rows"]
    lines = []
    for k, name in enumerate(old_head):
        moved = [(i, float(a[k]), float(b[k])) for i, (a, b) in enumerate(zip(old_rows, new_rows)) if a[k] != b[k]]
        if not moved:
            lines.append(f"{name}: identical")
            continue
        row, before, after = max(moved, key=lambda m: abs(m[2] - m[1]))
        relative = max(abs(b - a) / abs(a) if a else math.inf for _, a, b in moved)
        lines.append(
            f"{name}: {len(moved)} of {len(old_rows)} cells moved, largest {abs(after - before):.2g} "
            f"(row {row + 1}: {old_rows[row][k]} -> {new_rows[row][k]}), largest relative {relative:.2g}"
        )
    return lines


def test_column_changes_names_the_largest_moved_cell():
    old = b"t,x,y\r\n0,1,0\r\n0.5,2,3\r\n"
    assert column_changes(old, old) == ["t: identical", "x: identical", "y: identical"]
    assert column_changes(old, b"t,x,y\r\n0,1.5,1e-3\r\n0.5,2,3.3\r\n") == [
        "t: identical",
        "x: 1 of 2 cells moved, largest 0.5 (row 1: 1 -> 1.5), largest relative 0.5",
        "y: 2 of 2 cells moved, largest 0.3 (row 2: 3 -> 3.3), largest relative inf",
    ]
    assert column_changes(old, b"t,x\r\n0,1\r\n") == ["columns ['t', 'x', 'y'] x 2 rows, now ['t', 'x'] x 1 rows"]


def line_changes(old: bytes, new: bytes) -> list[str]:
    """How many lines a text file lost and gained from the old bytes to the new, then each of them, - or +."""
    if old == new:
        return ["identical"]
    diff = difflib.unified_diff(old.decode().splitlines(), new.decode().splitlines(), lineterm="", n=0)
    lines = [line for line in diff if line[:1] in "-+" and not line.startswith(("---", "+++"))]
    removed = sum(line.startswith("-") for line in lines)
    return [f"{removed} lines removed, {len(lines) - removed} added", *lines]


def test_line_changes_lists_the_removed_and_added_lines():
    old = b'{\n  "dim": 710,\n  "n_max": 70\n}\n'
    assert line_changes(old, old) == ["identical"]
    assert line_changes(old, b'{\n  "dim": 710,\n  "drift": 0.1,\n  "n_max": 70\n}\n') == [
        "0 lines removed, 1 added",
        '+  "drift": 0.1,',
    ]
    assert line_changes(old, b'{\n  "dim": 1210,\n  "n_max": 120\n}\n') == [
        "2 lines removed, 2 added",
        '-  "dim": 710,',
        '-  "n_max": 70',
        '+  "dim": 1210,',
        '+  "n_max": 120',
    ]


@pytest.mark.parametrize("case", list(RUNS))
def test_verb_output_matches_recorded_bytes(case, pinned_runs):
    out = pinned_runs / case
    expected = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    differences = [
        first_difference(name, (out / name).read_bytes(), (GOLDEN / case / name).read_bytes()) for name in expected
    ]
    if any(differences):
        pytest.fail("; ".join(filter(None, differences)))


if __name__ == "__main__":
    cases = sys.argv[1:] or list(RUNS)
    unknown = sorted(set(cases).difference(RUNS))
    if unknown:
        sys.exit(f"unknown case(s) {unknown}; available: {list(RUNS)}")
    # each case's files are its CSVs and run_manifest.json
    old = {case: {p.name: p.read_bytes() for p in (GOLDEN / case).glob("*")} for case in cases}
    for case in cases:
        # a file the verb no longer writes must not stay behind
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
    run_pinned(GOLDEN, cases)
    for case in cases:
        new = {p.name: p.read_bytes() for p in (GOLDEN / case).glob("*")}
        for name in sorted(old[case].keys() | new.keys()):
            before, after = old[case].get(name), new.get(name)
            if before is None or after is None:
                changes = ["new" if before is None else "removed"]
            elif name.endswith(".csv"):
                changes = ["identical"] if before == after else column_changes(before, after)
            else:
                changes = line_changes(before, after)
            for line in changes:
                print(f"{case}/{name}: {line}")
