"""Configured experiment runs: JSON config, energy-shell projection, CSV output.

Every run writes its data files plus a run_manifest.json with the fully
expanded configuration, achieved energies, the conventions version, and
(for every verb that integrates the flow) the right-hand-side evaluations
of each trajectory, so a result directory is self-describing and
byte-reproducible.
"""

from __future__ import annotations

import csv
import difflib
import json
import math
import sys
from collections.abc import Callable, Collection, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from .algebra import CONVENTIONS_VERSION, CohChaosError
from .corrections import CorrectionKernel, build_kernel, entropy_series
from .dynamics import (
    IntegratorConfig,
    ProductState,
    Trajectory,
    integrate,
    label_distances,
    lyapunov_series,
    mf_overlap,
    trajectory_energy,
    window_count,
)
from .model import BilinearHamiltonian, MaserParams, classical_energy, maser_hamiltonian
from .oracle import (
    ExactEvolver,
    OracleState,
    build_hamiltonian_matrix,
    exact_overlap_pair,
    field_annihilation_expectation,
    hilbert_for_labels,
    product_coherent_vector,
    reduced_linear_entropy,
    top_fock_population,
)


class ConfigError(CohChaosError):
    """Malformed or inconsistent experiment configuration."""


class EnergyProjectionError(CohChaosError):
    """No crossing of the target energy along the requested direction."""


class OutputError(CohChaosError):
    """The output directory or a file in it cannot be created or written."""


_MODEL_KEYS = tuple(f.name for f in fields(MaserParams))
_LYAP_KEYS = ("delta0", "window", "t_total")
# Top-level numbers whose defaults are those of ExperimentConfig.
_NUMBER_KEYS = ("t_final", "sampling_dt", "rel_tol", "abs_tol")
_TOP_KEYS = {*_NUMBER_KEYS, "preset", "model", "pairs", "energy_target", "n_max", "lyapunov"}

# project_to_energy scans shifts in [-_SCAN_SPAN, _SCAN_SPAN] at _SCAN_SAMPLES points.
_SCAN_SPAN = 8.0
_SCAN_SAMPLES = 161

_ROOT2 = math.sqrt(2.0)

# Demonstration set: two nearby initial pairs on the E = 8.5 shell of the
# resonant maser, the first pair deep in the chaotic sea and the second on
# a regular island. Field labels are quoted as real plane coordinates q
# with x = q / sqrt(2), and the couplings 0.5 and 0.2 are quoted in the
# matching normalization, hence the same sqrt(2) divisor.
_FIG1_PLANE = (
    (5.7263433, -0.24253563),
    (5.7778567, -0.26845243),
    (3.615516, 0.53452248),
    (3.68977334, 0.50086791),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run description.

    integrator is derived from rel_tol, abs_tol and sampling_dt on
    construction; it is not an argument and takes no part in comparisons.
    """

    model: MaserParams
    states: tuple[ProductState, ...]
    t_final: float = 25.0
    sampling_dt: float = IntegratorConfig.sample_dt
    energy_target: float | None = None
    n_max: int | None = None
    rel_tol: float = IntegratorConfig.rel_tol
    abs_tol: float = IntegratorConfig.abs_tol
    lyapunov_delta0: float = 1e-6
    lyapunov_window: float = 1.0
    lyapunov_t_total: float = 300.0
    integrator: IntegratorConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.states:
            raise ConfigError("config needs at least one initial state in 'pairs'")
        if not (self.t_final > 0.0 and self.sampling_dt > 0.0):
            raise ConfigError("t_final and sampling_dt must be positive")
        if self.n_max is not None and self.n_max < 1:
            raise ConfigError(f"'n_max' must be at least 1, got {self.n_max}")
        if not self.lyapunov_delta0 > 0.0:
            raise ConfigError("'lyapunov.delta0' must be positive")
        if not 0.0 < self.lyapunov_window <= self.lyapunov_t_total:
            raise ConfigError("'lyapunov.window' must lie in (0, lyapunov.t_total]")
        _checked("'lyapunov.t_total'", window_count, t_total=self.lyapunov_t_total, window=self.lyapunov_window)
        integrator = _checked(
            "tolerances", IntegratorConfig, rel_tol=self.rel_tol, abs_tol=self.abs_tol, sample_dt=self.sampling_dt
        )
        object.__setattr__(self, "integrator", integrator)


def expand_preset(name: str) -> dict:
    if name != "fig1":
        raise ConfigError(f"unknown preset '{name}'; available presets: fig1")
    return {
        "model": {"epsilon": 1.0, "omega": 1.0, "g": 0.5 / _ROOT2, "g_prime": 0.2 / _ROOT2, "j": 4.5},
        "pairs": [[q / _ROOT2, 0.0, y, 0.0] for q, y in _FIG1_PLANE],
        "t_final": 25.0,
        "sampling_dt": 0.05,
        "energy_target": 8.5,
        "n_max": 120,
    }


def _check_keys(given, allowed: Collection[str], prefix: str = "") -> None:
    unknown = sorted(set(given).difference(allowed))
    if not unknown:
        return
    parts = []
    for key in unknown:
        hint = difflib.get_close_matches(key, sorted(allowed), n=1)
        suffix = f" (did you mean '{hint[0]}'?)" if hint else ""
        parts.append(f"'{prefix}{key}'{suffix}")
    raise ConfigError(f"unknown config key(s) {', '.join(parts)}; allowed: {sorted(allowed)}")


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{where}' must be a number, got {value!r}")
    # json.loads reads Infinity, NaN and 1e400 as floats; NaN fails every comparison
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"'{where}' must be finite, got {value!r}")
    return float(value)


def _checked(where: str, make, **values):
    """make(**values), with its ValueError reported as a ConfigError naming where."""
    try:
        return make(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    """Validate a raw mapping and build the run description.

    A 'preset' key expands first; any other keys given alongside it
    override the expansion. Unknown keys anywhere are an error.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    _check_keys(data, _TOP_KEYS)
    data = dict(data)
    preset = data.pop("preset", None)
    if preset is not None:
        base = expand_preset(preset)
        base.update(data)
        data = base

    model_raw = data.get("model", {})
    if not isinstance(model_raw, dict):
        raise ConfigError("'model' must be an object")
    _check_keys(model_raw, _MODEL_KEYS, prefix="model.")
    values = {k: _require_number(v, f"model.{k}") for k, v in model_raw.items()}
    model = _checked("model", MaserParams, **values)

    pairs = data.get("pairs")
    if not isinstance(pairs, list) or not pairs:
        raise ConfigError("'pairs' must be a non-empty list of [re_x, im_x, re_y, im_y] rows")
    states = []
    for i, row in enumerate(pairs):
        if not isinstance(row, list) or len(row) != 4:
            raise ConfigError(f"'pairs[{i}]' must be a list of four numbers [re_x, im_x, re_y, im_y]")
        vals = [_require_number(v, f"pairs[{i}][{k}]") for k, v in enumerate(row)]
        x, y = complex(vals[0], vals[1]), complex(vals[2], vals[3])
        states.append(_checked(f"pairs[{i}]", ProductState, x=x, y=y))

    lyap_raw = data.get("lyapunov", {})
    if not isinstance(lyap_raw, dict):
        raise ConfigError("'lyapunov' must be an object")
    _check_keys(lyap_raw, _LYAP_KEYS, prefix="lyapunov.")

    n_max = data.get("n_max")
    if n_max is not None:
        if isinstance(n_max, bool) or not isinstance(n_max, int):
            raise ConfigError(f"'n_max' must be an integer, got {n_max!r}")

    energy_target = data.get("energy_target")
    if energy_target is not None:
        energy_target = _require_number(energy_target, "energy_target")

    # only the numbers given are passed on; ExperimentConfig holds the defaults
    numbers = {k: _require_number(data[k], k) for k in _NUMBER_KEYS if k in data}
    numbers.update(
        (f"lyapunov_{k}", _require_number(lyap_raw[k], f"lyapunov.{k}")) for k in _LYAP_KEYS if k in lyap_raw
    )
    return ExperimentConfig(model=model, states=tuple(states), energy_target=energy_target, n_max=n_max, **numbers)


def load_raw(path) -> dict:
    """Read a config file into a raw mapping, with located JSON errors."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config root in {path} must be an object, got {type(data).__name__}")
    return data


def apply_overrides(data: dict, overrides) -> dict:
    """Apply 'dotted.key=json_value' items onto a raw config mapping."""
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"override '{item}' must have the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.setdefault(part, {})
            if not isinstance(nxt, dict):
                raise ConfigError(f"override '{key}' descends into non-object '{part}'")
            node = nxt
        node[parts[-1]] = value
    return data


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "model": asdict(cfg.model),
        "pairs": [[s.x.real, s.x.imag, s.y.real, s.y.imag] for s in cfg.states],
        "energy_target": cfg.energy_target,
        "n_max": cfg.n_max,
        "lyapunov": {k: getattr(cfg, f"lyapunov_{k}") for k in _LYAP_KEYS},
        **{k: getattr(cfg, k) for k in _NUMBER_KEYS},
    }


def project_to_energy(
    s: ProductState,
    h: BilinearHamiltonian,
    target: float,
    direction: str = "im_x",
) -> ProductState:
    """Shift one real coordinate of the field label onto the target energy shell.

    The shift closest to zero is found by scanning for a sign change and
    polishing it with a bracketing root solve. The energy is quadratic in
    the shift, so a shell crossed twice inside one scan cell shows no sign
    change; the scan then also tries the parabola's vertex. If the energy
    never crosses the target along the direction, the scanned interval and
    attained range are reported.
    """
    if direction == "im_x":
        step = 1j
    elif direction == "re_x":
        step = 1.0
    else:
        raise ValueError(f"direction must be 'im_x' or 're_x', got {direction!r}")

    def gap(u: float) -> float:
        return classical_energy(h, s.x + step * u, s.y) - target

    g0 = gap(0.0)
    if abs(g0) <= 1e-12 * max(1.0, abs(target)):
        return s
    us = np.linspace(-_SCAN_SPAN, _SCAN_SPAN, _SCAN_SAMPLES)
    vals = np.array([gap(u) for u in us])
    best = None
    for i in range(len(us) - 1):
        if vals[i] * vals[i + 1] <= 0.0:
            center = abs(0.5 * (us[i] + us[i + 1]))
            if best is None or center < best[0]:
                best = (center, us[i], us[i + 1])
    if best is None:
        # the vertex of the parabola through the ends and the middle of the scan
        curvature = vals[0] + vals[-1] - 2.0 * g0
        vertex = 0.5 * _SCAN_SPAN * (vals[0] - vals[-1]) / curvature if curvature else math.inf
        if abs(vertex) <= _SCAN_SPAN:
            g_vertex = gap(vertex)
            vals = np.append(vals, g_vertex)
            if g_vertex * g0 <= 0.0:
                best = (0.0, min(0.0, vertex), max(0.0, vertex))
    if best is None:
        raise EnergyProjectionError(
            f"no {direction} shift in [{-_SCAN_SPAN}, {_SCAN_SPAN}] reaches energy {target}: "
            f"attained range [{vals.min() + target:.6g}, {vals.max() + target:.6g}]"
        )
    root = brentq(gap, best[1], best[2], xtol=1e-14, rtol=8.9e-16)
    return replace(s, x=s.x + step * float(root))


def project_with_fallback(
    s: ProductState, h: BilinearHamiltonian, target: float
) -> tuple[ProductState, str]:
    """Project along im_x, falling back to re_x when the shell is one-sided there."""
    failures = []
    for direction in ("im_x", "re_x"):
        try:
            return project_to_energy(s, h, target, direction=direction), direction
        except EnergyProjectionError as exc:
            failures.append(str(exc))
    raise EnergyProjectionError("; ".join(failures))


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _sig3(value: float) -> float:
    # three significant figures, so the manifest stays byte-reproducible
    return float(f"{value:.3g}")


@contextmanager
def _new_file(path: Path, **kwargs):
    """path opened for writing as a new file; an OSError becomes an OutputError naming it."""
    try:
        # ext4 forces a truncated-then-rewritten file out to disk on close; a new file is not
        path.unlink(missing_ok=True)
        with open(path, "w", **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def _write_csv(path: Path, header, rows) -> None:
    with _new_file(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


@dataclass
class _Run:
    """One verb's inputs (config, model, projected states) and its output sink."""

    cfg: ExperimentConfig
    h: BilinearHamiltonian
    states: list[ProductState]
    out: Path
    manifest: dict

    def emit(self, name: str, header, rows) -> None:
        _write_csv(self.out / name, header, rows)
        self.manifest["outputs"].append(name)

    def integrate(self, s: ProductState) -> Trajectory:
        """The flow from s to t_final, its RHS evaluations listed in the manifest."""
        traj = integrate(self.h, s, self.cfg.t_final, self.cfg.integrator)
        self.manifest.setdefault("rhs_evals", []).append(traj.rhs_evals)
        return traj


def _pair_rows(run: _Run, s1, s2):
    """(t, overlap_sq, d_field, d_spin) per sample; overlap_sq is exp(-(d_field + d_spin))."""
    h = run.h
    t1 = run.integrate(s1)
    t2 = run.integrate(s2)
    rows = []
    for i, t in enumerate(t1.times):
        d_f, d_s = label_distances(t1.state_at(i), t2.state_at(i), h.group_a, h.group_b)
        rows.append((t, math.exp(-(d_f + d_s)), d_f, d_s))
    return rows


def _exact_runs(run: _Run, states, times) -> Iterator[tuple[OracleState, ...]]:
    """Yield, per time, the exact evolutions of the product vectors of states.

    The basis is sized for the states' field labels. It, the spectral
    interval the evolution is scaled by, the truncation deficits, and (once
    the times are exhausted) the largest top-Fock population over every
    yielded state and the sparse products the evolution took go into the
    manifest.
    """
    hcfg = hilbert_for_labels([s.x for s in states], run.cfg.model.j, n_max=run.cfg.n_max)
    evolver = ExactEvolver(build_hamiltonian_matrix(run.h, hcfg))
    hilbert = run.manifest["hilbert"] = {
        "n_max": hcfg.n_max, "j": hcfg.j, "dim": hcfg.dim,
        "spectral_interval": [_sig3(end) for end in evolver.spectral_interval],
    }
    psi0 = [product_coherent_vector(s.x, s.y, hcfg) for s in states]
    run.manifest["truncation_deficits"] = [p.truncation_deficit for p in psi0]
    top = 0.0
    for evolved in evolver.evolve_grid(psi0, times):
        top = max(top, *(top_fock_population(p) for p in evolved))
        yield evolved
    hilbert["top_fock_population"] = _sig3(top)
    hilbert["chebyshev_orders"] = evolver.chebyshev_orders


def _trajectory(run: _Run) -> None:
    """integrate the mean-field flow for each initial state"""
    drifts = []
    for i, s in enumerate(run.states):
        traj = run.integrate(s)
        energy = trajectory_energy(run.h, traj)
        drifts.append(float(np.max(np.abs(energy - energy[0]))))
        run.emit(
            f"trajectory_{i}.csv",
            ["t", "re_x", "im_x", "re_y", "im_y", "eta_x", "eta_y", "s0", "s1", "energy"],
            zip(
                traj.times, traj.x.real, traj.x.imag, traj.y.real, traj.y.imag,
                traj.eta_x, traj.eta_y, traj.s0, traj.s1, energy,
            ),
        )
    run.manifest["energy_drift"] = drifts


def _overlap_pair(run: _Run) -> None:
    """track the overlap of two nearby evolving product states"""
    if len(run.states) < 2:
        raise ConfigError("overlap-pair needs two initial states")
    run.emit("overlap_pair.csv", ["t", "overlap_sq", "d_field", "d_spin"], _pair_rows(run, *run.states[:2]))


def _entropy(run: _Run) -> None:
    """correction kernel and second-order linear entropy for one state"""
    traj = run.integrate(run.states[0])
    kernel = build_kernel(traj, run.h)
    delta2 = entropy_series(kernel)
    save_kernel_csv(run, kernel, delta2)
    if run.cfg.n_max is None:
        run.emit("entropy.csv", ["t", "delta2"], zip(traj.times, delta2))
        return
    delta_exact = [reduced_linear_entropy(psi) for (psi,) in _exact_runs(run, run.states[:1], traj.times)]
    run.emit("entropy.csv", ["t", "delta2", "delta_exact"], zip(traj.times, delta2, delta_exact))


def save_kernel_csv(run: _Run, kernel: CorrectionKernel, delta2: np.ndarray) -> None:
    """Write kernel.csv: t, re_c, im_c, abs_C, delta2 per sample."""
    # a function of its own so that perfbench/trace.py can time it by name
    rows = zip(kernel.times, kernel.c.real, kernel.c.imag, np.abs(kernel.cum), delta2)
    run.emit("kernel.csv", ["t", "re_c", "im_c", "abs_C", "delta2"], rows)


def _lyapunov(run: _Run) -> None:
    """two-trajectory largest-Lyapunov estimate for each state"""
    cfg = run.cfg
    estimates = []
    rhs_evals = run.manifest["rhs_evals"] = []
    for i, s in enumerate(run.states):
        series = lyapunov_series(
            run.h, s,
            delta0=cfg.lyapunov_delta0,
            t_total=cfg.lyapunov_t_total,
            renorm_interval=cfg.lyapunov_window,
            cfg=cfg.integrator,
        )
        estimates.append(float(series.running[-1]))
        rhs_evals.append(series.rhs_evals)
        run.emit(f"lyapunov_{i}.csv", ["window_end", "running_exponent"], zip(series.window_ends, series.running))
    run.manifest["lyapunov_estimates"] = estimates


def _oracle_compare(run: _Run) -> None:
    """exact truncated-basis run against the mean-field labels"""
    if len(run.states) < 2:
        raise ConfigError("oracle-compare needs two initial states")
    h, pair = run.h, run.states[:2]
    trajs = [run.integrate(s) for s in pair]
    rows = []
    for i, (a, b) in enumerate(_exact_runs(run, pair, trajs[0].times)):
        ov_mf = abs(mf_overlap(trajs[0].state_at(i), trajs[1].state_at(i), h.group_a, h.group_b))
        field_err = abs(field_annihilation_expectation(a) - trajs[0].x[i])
        rows.append((trajs[0].times[i], field_err, abs(exact_overlap_pair(a, b)), ov_mf))
    run.emit("oracle_compare.csv", ["t", "field_err", "abs_overlap_exact", "abs_overlap_mf"], rows)


def _fig1(run: _Run) -> None:
    """both preset pair-overlap diagnostics (chaotic and regular)"""
    if len(run.states) < 4:
        raise ConfigError("fig1 needs the four preset initial states (two pairs)")
    for name, i in (("chaotic", 0), ("regular", 2)):
        rows = _pair_rows(run, run.states[i], run.states[i + 1])
        run.emit(f"fig1_{name}.csv", ["t", "overlap_sq", "d_field", "d_spin"], rows)


# Each verb's function; the first line of its docstring is the CLI help.
VERBS: dict[str, Callable[[_Run], None]] = {
    "trajectory": _trajectory,
    "overlap-pair": _overlap_pair,
    "entropy": _entropy,
    "lyapunov": _lyapunov,
    "oracle-compare": _oracle_compare,
    "fig1": _fig1,
}


def run_experiment(verb: str, cfg: ExperimentConfig, out_dir) -> dict:
    """Execute one verb, write its CSVs and manifest under out_dir."""
    if verb not in VERBS:
        raise ConfigError(f"unknown verb '{verb}'; available: {', '.join(VERBS)}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory {out}: {exc}") from exc
    h = maser_hamiltonian(cfg.model)

    states = list(cfg.states)
    manifest: dict = {
        "verb": verb,
        "conventions_version": CONVENTIONS_VERSION,
        "config": config_to_dict(cfg),
        "initial_energies": [float(classical_energy(h, s.x, s.y)) for s in states],
        "outputs": [],
    }
    if cfg.energy_target is not None:
        projected = [project_with_fallback(s, h, cfg.energy_target) for s in states]
        states = [p[0] for p in projected]
        manifest["projection_directions"] = [p[1] for p in projected]
        manifest["achieved_energies"] = [float(classical_energy(h, s.x, s.y)) for s in states]
        manifest["initial_condition_note"] = (
            "configured label coordinates are real parts; imaginary parts were set "
            "by shifting one field coordinate onto the target energy shell"
        )

    VERBS[verb](_Run(cfg, h, states, out, manifest))

    with _new_file(out / "run_manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
