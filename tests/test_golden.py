"""Byte-for-byte regression of the mean-field verbs against recorded outputs.

tests/golden/<verb>/ holds every file that one CLI run on the fig1 preset
wrote, with the overrides in RUNS. Each case reruns the verb into a fresh
directory and compares bytes, so a refactor of the flow, the kernel or the
writers that moves any printed digit fails here. To re-record after an
intended change, run the same command with --out tests/golden/<verb>.

The bytes were recorded with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1.
The flow runs on scipy's compiled VODE, and another scipy build of it may
round differently, so a mismatch under another scipy is a difference of
builds to confirm against these versions before it is taken for a bug.

The exact-oracle verbs (oracle-compare, and entropy with n_max set) are
left out: their last bits move with the OpenBLAS kernel, through VODE and
the Chebyshev series' matrix products, and with the BLAS thread count.
"""

from pathlib import Path

import pytest

from cohchaos.cli import main

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "trajectory": ["t_final=2"],
    "overlap-pair": ["t_final=2"],
    "fig1": ["t_final=2"],
    "entropy": ["t_final=2", "n_max=null"],
    "lyapunov": ["lyapunov.t_total=3"],
}


@pytest.mark.parametrize("verb", list(RUNS))
def test_verb_output_matches_recorded_bytes(verb, tmp_path, capsys):
    args = [verb, "--preset", "fig1", "--out", str(tmp_path)]
    for item in RUNS[verb]:
        args += ["--override", item]
    assert main(args) == 0
    expected = sorted(p.name for p in (GOLDEN / verb).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (GOLDEN / verb / name).read_bytes(), name
