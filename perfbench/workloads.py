"""The four benchmark workloads: their inputs and the checks on their outputs.

Every workload is one cohchaos verb on one configuration, as the CLI would
run it. Only ``lyapunov_shell`` draws inputs from the seed; the other three
reproduce fixed figures of the paper, so their outputs are compared with
CSVs recorded on the seed commit (``reference/<workload>/``).
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# A recorded CSV matches when every value is within REF_ATOL + REF_RTOL * |ref|
# and the time column is identical. Tightening rel_tol tenfold moves the
# fig1 columns by at most 2.3e-8 absolute and 4.6e-7 relative, so a change
# that only reorders the arithmetic stays inside these.
REF_RTOL = 1e-6
REF_ATOL = 1e-7
# Running Lyapunov exponents against the benchmark's own integration of the
# same windows; the two agree to about 1e-6 on the fig1 shell.
LYAP_ATOL = 1e-4
# Linear entropy is 1 - purity in double precision; at t = 0 it reads -1e-15.
ENTROPY_ROUNDING = 1e-12

_ROOT2 = math.sqrt(2.0)
FIG1_MODEL = {"epsilon": 1.0, "omega": 1.0, "g": 0.5 / _ROOT2, "g_prime": 0.2 / _ROOT2, "j": 4.5}


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    make_raw: Callable[[int], dict]
    check: Callable[[Path, dict, object], list[str]]
    expect: Callable[[object], object] = lambda cfg: None
    tiny: dict = field(default_factory=dict)

    def raw(self, seed: int, tiny: bool = False) -> dict:
        """Raw config for config_from_dict; tiny shrinks it for the smoke test."""
        raw = self.make_raw(seed)
        if tiny:
            raw.update(self.tiny)
        return raw


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def _match_reference(out: Path, workload: str, name: str) -> list[str]:
    head, got = read_csv(out / name)
    ref_head, ref = read_csv(REFERENCE_DIR / workload / name)
    if head != ref_head or got.shape != ref.shape:
        return [f"{name}: columns {head} x {len(got)} rows, reference {ref_head} x {len(ref)} rows"]
    if not np.array_equal(got[:, 0], ref[:, 0]):
        return [f"{name}: time column differs from the reference"]
    err = np.abs(got - ref) - (REF_ATOL + REF_RTOL * np.abs(ref))
    if np.any(err > 0.0):
        row, col = np.unravel_index(int(np.argmax(err)), err.shape)
        return [f"{name}: {head[col]} at t = {got[row, 0]:g} is {got[row, col]!r}, reference {ref[row, col]!r}"]
    return []


def run_checks(checks) -> list[str]:
    """Run every (label, thunk) pair; a raising check is one failure and never stops the rest."""
    failures = []
    for label, thunk in checks:
        try:
            failures += thunk()
        except Exception as exc:  # a malformed output is a failed check, not a benchmark crash
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
    return failures


def _fig1_raw(seed: int) -> dict:
    return {"preset": "fig1"}


def _check_fig1(out: Path, manifest: dict, expected) -> list[str]:
    def minimum(name: str) -> float:
        return float(read_csv(out / name)[1][:, 1].min())

    def separation() -> list[str]:
        chaotic, regular = minimum("fig1_chaotic.csv"), minimum("fig1_regular.csv")
        if chaotic < 0.2 and regular > 0.6:
            return []
        return [f"criterion 09: chaotic overlap^2 min {chaotic:.3g} (< 0.2), regular min {regular:.3g} (> 0.6)"]

    return run_checks(
        [("criterion 09", separation)]
        + [(n, lambda n=n: _match_reference(out, "fig1_pairs", n)) for n in ("fig1_chaotic.csv", "fig1_regular.csv")]
    )


def _lyapunov_raw(seed: int) -> dict:
    # One point per cell of a 4 x 2 grid over the field plane coordinate
    # q in [3, 6] and the real spin label y in [-0.6, 0.6], around the fig1
    # pairs; the seed places each point inside its cell. The library then
    # shifts each point onto the E = 8.5 shell. Solver work per point
    # varies by about 30% (regular points are cheaper than chaotic ones),
    # and one point per cell keeps the total steady across seeds.
    rng = random.Random(seed)
    pairs = [
        [(3.0 + 0.75 * (i + rng.random())) / _ROOT2, 0.0, -0.6 + 0.6 * (k + rng.random()), 0.0]
        for i in range(4)
        for k in range(2)
    ]
    return {"preset": "fig1", "pairs": pairs, "lyapunov": {"window": 1.0, "t_total": 10.0}}


def _label_flow(model: dict):
    """Right-hand side of the maser label flow in (re x, im x, re y, im y), without phases."""
    omega, eps, j = model["omega"], model["epsilon"], model["j"]
    g, gp = model["g"] / math.sqrt(j), model["g_prime"] / math.sqrt(j)

    def rhs(t, v):
        x, y = complex(v[0], v[1]), complex(v[2], v[3])
        den = 1.0 + abs(y) ** 2
        a_plus = (g * 2.0 * j * y + gp * 2.0 * j * y.conjugate()) / den
        b_plus = gp * x.conjugate() + g * x
        dx = -1j * (omega * x + a_plus)
        dy = -1j * b_plus - 1j * eps * y + 1j * b_plus.conjugate() * y * y
        return [dx.real, dx.imag, dy.real, dy.imag]

    return rhs


def lyapunov_reference(model: dict, x: complex, y: complex, lyap: dict, rel_tol: float, abs_tol: float) -> np.ndarray:
    """Running two-trajectory exponent, integrated independently of cohchaos.dynamics.

    Same algorithm as the lyapunov verb: a partner offset by delta0 along
    the scaled real field direction, renormalized to delta0 at every window
    end, in scaled coordinates (x / sqrt(4j), y).
    """
    rhs = _label_flow(model)
    window, delta0 = lyap["window"], lyap["delta0"]
    root = math.sqrt(4.0 * model["j"])
    scale = np.array([1.0 / root, 1.0 / root, 1.0, 1.0])

    def advance(v):
        sol = solve_ivp(rhs, (0.0, window), v, method="DOP853", rtol=rel_tol, atol=abs_tol, t_eval=[window])
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        return sol.y[:, -1]

    ref = np.array([x.real, x.imag, y.real, y.imag])
    pert = ref + np.array([delta0 * root, 0.0, 0.0, 0.0])
    n = int(round(lyap["t_total"] / window))
    running = np.empty(n)
    log_sum = 0.0
    for w in range(n):
        ref, pert = advance(ref), advance(pert)
        sep = (pert - ref) * scale
        dist = float(np.linalg.norm(sep))
        log_sum += math.log(dist / delta0)
        running[w] = log_sum / ((w + 1) * window)
        pert = ref + sep * (delta0 / dist) / scale
    return running


def _lyapunov_expect(cfg) -> list[np.ndarray]:
    from cohchaos.experiments import project_with_fallback
    from cohchaos.model import maser_hamiltonian

    model = {k: getattr(cfg.model, k) for k in FIG1_MODEL}
    lyap = {"window": cfg.lyapunov_window, "delta0": cfg.lyapunov_delta0, "t_total": cfg.lyapunov_t_total}
    h = maser_hamiltonian(cfg.model)
    series = []
    for s in cfg.states:
        p, _ = project_with_fallback(s, h, cfg.energy_target)
        series.append(lyapunov_reference(model, p.x, p.y, lyap, cfg.rel_tol, cfg.abs_tol))
    return series


def _check_lyapunov(out: Path, manifest: dict, expected: list[np.ndarray]) -> list[str]:
    def energies() -> list[str]:
        worst = max(abs(e - manifest["config"]["energy_target"]) for e in manifest["achieved_energies"])
        return [] if worst <= 1e-8 else [f"projection: energy off the shell by {worst:.3g}"]

    def estimates() -> list[str]:
        values = manifest["lyapunov_estimates"]
        if len(values) == len(expected) and all(math.isfinite(v) for v in values):
            return []
        return [f"lyapunov_estimates {values} not {len(expected)} finite numbers"]

    def series(i: int) -> list[str]:
        _, got = read_csv(out / f"lyapunov_{i}.csv")
        ref = expected[i]
        if got.shape != (len(ref), 2) or not np.all(np.isfinite(got)):
            return [f"lyapunov_{i}.csv: shape {got.shape} or non-finite values"]
        worst = float(np.max(np.abs(got[:, 1] - ref)))
        if worst > LYAP_ATOL:
            return [f"lyapunov_{i}.csv: running exponent off the reference by {worst:.3g} (> {LYAP_ATOL})"]
        return []

    return run_checks(
        [("projection", energies), ("estimates", estimates)]
        + [(f"lyapunov_{i}", lambda i=i: series(i)) for i in range(len(expected))]
    )


def _check_oracle(out: Path, manifest: dict, expected) -> list[str]:
    def conserved() -> list[str]:
        head, rows = read_csv(out / "oracle_compare.csv")
        ov = rows[:, head.index("abs_overlap_exact")]
        drift = float(np.max(np.abs(ov - ov[0])))
        return [] if drift <= 1e-8 else [f"criterion 10: exact pair overlap drifts by {drift:.3g} (> 1e-8)"]

    return run_checks(
        [("criterion 10", conserved),
         ("oracle_compare.csv", lambda: _match_reference(out, "oracle_dense", "oracle_compare.csv"))]
    )


def _entropy_raw(seed: int) -> dict:
    return {"preset": "fig1", "model": dict(FIG1_MODEL, j=12.5), "t_final": 2.0, "n_max": 120}


def _check_entropy(out: Path, manifest: dict, expected) -> list[str]:
    def table():
        head, rows = read_csv(out / "entropy.csv")
        return rows[:, head.index("t")], rows[:, head.index("delta2")], rows[:, head.index("delta_exact")]

    def bounded() -> list[str]:
        exact = table()[2]
        if np.all((exact >= -ENTROPY_ROUNDING) & (exact <= 1.0 + ENTROPY_ROUNDING)):
            return []
        return [f"delta_exact leaves [0, 1]: range [{exact.min():.3g}, {exact.max():.3g}]"]

    def short_time() -> list[str]:
        t, delta2, exact = table()
        early = (t > 0.0) & (t <= 0.5 + 1e-12)
        worst = float(np.max(np.abs(delta2[early] - exact[early]) / exact[early]))
        return [] if worst <= 0.20 else [f"criterion 08: delta2 off delta_exact by {worst:.1%} (> 20%) for t <= 0.5"]

    return run_checks(
        [("delta_exact range", bounded), ("criterion 08", short_time)]
        + [(n, lambda n=n: _match_reference(out, "entropy_krylov", n)) for n in ("entropy.csv", "kernel.csv")]
    )


# Why each workload is in the benchmark: README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig1_pairs", "fig1", _fig1_raw, _check_fig1, tiny={"t_final": 1.0}),
        Workload(
            "lyapunov_shell", "lyapunov", _lyapunov_raw, _check_lyapunov, _lyapunov_expect,
            tiny={"lyapunov": {"window": 1.0, "t_total": 2.0}},
        ),
        Workload("oracle_dense", "oracle-compare", _fig1_raw, _check_oracle, tiny={"t_final": 0.5, "n_max": None}),
        Workload("entropy_krylov", "entropy", _entropy_raw, _check_entropy, tiny={"t_final": 0.3}),
    )
}
