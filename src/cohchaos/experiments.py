"""Configured experiment runs: JSON config, energy-shell projection, CSV output.

With an energy target, each state's Im x (or else Re x) is first shifted
onto the energy shell; the energy is quadratic in the shift, solved in closed form.

Every run writes its data files plus a run_manifest.json with the fully
expanded configuration, achieved energies, the conventions version, and
(for every verb that integrates the flow) the right-hand-side evaluations
of each trajectory, so a result directory is self-describing and
byte-reproducible. The exact verbs stop with a TruncationError when an
evolved state's population at the truncation edge n = n_max passes
_TOP_FOCK_BOUND.
"""

from __future__ import annotations

import csv
import difflib
import json
import math
import sys
from collections.abc import Callable, Collection, Iterator
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .algebra import CONVENTIONS_VERSION, CohChaosError, TruncationError, expectations
from .corrections import CorrectionKernel, build_kernel, entropy_series
from .dynamics import (
    IntegratorConfig,
    ProductState,
    Trajectory,
    capped_count,
    integrate,
    label_distances,
    lyapunov_series,
    mf_overlap,  # not called here; perfbench/trace.py times it as experiments.mf_overlap
    trajectory_energy,
    window_count,
)
from .model import BilinearHamiltonian, MaserParams, classical_energy, maser_hamiltonian, mean_field_coeffs
from .oracle import (
    ExactEvolver,
    HilbertConfig,
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
# Objects whose keys override a preset's one by one.
_OBJECT_KEYS = ("model", "lyapunov")

_MAX_SHIFT = 8.0  # the largest shift of a field coordinate onto the energy shell

# Largest population of the top Fock level n = n_max an exact run may reach.
# Measured to t = 25 against n_max = 120 (docs/conventions.md), <a> moved by
# 77 to 155 times a run's peak top population where that peak reached 1e-11,
# so this keeps <a> within about 2e-8. The fig1 preset peaks at 5.8e-15; its
# regular pair, in the n_max = 48 the policy gives it, reaches 2.6e-8.
_TOP_FOCK_BOUND = 1e-10

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
    lyapunov_delta0: float = 1e-6  # validated and recorded; only perfbench's two-trajectory reference reads it
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
        _checked("'t_final' / 'sampling_dt'", capped_count, self.t_final, self.sampling_dt, "samples")
        _checked("'lyapunov.t_total' / 'lyapunov.window'", window_count, self.lyapunov_t_total, self.lyapunov_window)
        integrator = _checked("tolerances", IntegratorConfig, self.rel_tol, self.abs_tol, self.sampling_dt)
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
        "n_max": 70,
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


def _checked(where: str, make, *args, **values):
    """make(*args, **values), with its ValueError reported as a ConfigError naming where."""
    try:
        return make(*args, **values)
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    """Validate a raw mapping and build the run description.

    A 'preset' key expands first; any other keys given alongside it
    override the expansion, and the keys of a 'model' or 'lyapunov' object
    override the preset's object key by key. Unknown keys anywhere are an
    error.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    _check_keys(data, _TOP_KEYS)
    data = dict(data)
    preset = data.pop("preset", None)
    if preset is not None:
        base = expand_preset(preset)
        for key in _OBJECT_KEYS:
            if isinstance(data.get(key), dict):
                data[key] = {**base.get(key, {}), **data[key]}
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
    """Read a UTF-8 config file into a raw mapping, with located JSON errors."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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


def project_with_fallback(
    s: ProductState, h: BilinearHamiltonian, target: float, reasons: list[str] | None = None
) -> tuple[ProductState, str]:
    """Shift Im x, or else Re x, of the field label onto the target energy shell.

    Along x + step u the energy is E(s) + c0 u^2 + b u, with c0, c_- = conj(c_+)
    the field's mean-field coefficients and b = 2 Re(step (c0 conj(x) + c_-)),
    taken on real parts: 2 (c0 Im x + Im c_+) for step i, 2 (c0 Re x + Re c_+) for 1.
    The shift is the root closest to zero with |u| <= _MAX_SHIFT (-r when
    b = 0 gives +-r), solved with c0, b and gap scaled by one power of two so
    that the discriminant cannot overflow. Why
    Im x failed is appended to reasons, if given; if Re x fails too, the
    error gives both directions' ranges.
    """
    if h.group_a.is_spin:
        raise ValueError("the energy is quadratic in the shift only for an oscillator field label")
    energy = classical_energy(h, s.x, s.y)
    gap = energy - target
    if abs(gap) <= 1e-12 * max(1.0, abs(target)):
        return s, "im_x"
    ev_a = expectations(h.group_a, s.x.real, s.x.imag)
    ev_b = expectations(h.group_b, s.y.real, s.y.imag)
    (c0, cpr, cpi), _, _ = mean_field_coeffs(h, ev_a, ev_b)
    failures = []
    for direction, step, b in (("im_x", 1j, 2.0 * (c0 * s.x.imag + cpi)), ("re_x", 1.0, 2.0 * (c0 * s.x.real + cpr))):
        # c0 u^2 + b u + gap over the power of two that brings the largest below 1: the
        # discriminant stays finite, and the scaling is exact, so the roots keep their bits
        shift = -math.frexp(max(abs(c0), abs(b), abs(gap)))[1]
        qa, qb, qc = (math.ldexp(v, shift) for v in (c0, b, gap))
        disc = qb * qb - 4.0 * qa * qc
        if qa == 0.0:
            roots = [-qc / qb] if qb else []
        elif qb == 0.0:
            roots = [-math.sqrt(-qc / qa)] if disc >= 0.0 else []
        elif disc >= 0.0:
            q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
            roots = [q / qa, qc / q]
        else:
            roots = []
        shifts = [u for u in roots if abs(u) <= _MAX_SHIFT]
        if shifts:
            if reasons is not None:
                reasons.extend(failures)
            return replace(s, x=s.x + step * min(shifts, key=abs)), direction
        # the energy's extremes over the allowed shifts lie at the two ends and the vertex
        us = (-_MAX_SHIFT, _MAX_SHIFT, -b / (2.0 * c0) if c0 else 0.0)
        rises = [c0 * u * u + b * u for u in us if abs(u) <= _MAX_SHIFT]
        # the range from the state's energy: gap + target cancels to 0 for a target far above it
        failures.append(
            f"no {direction} shift in [{-_MAX_SHIFT}, {_MAX_SHIFT}] reaches energy {target}: attained range "
            f"[{min(rises) + energy:.6g}, {max(rises) + energy:.6g}] comes no closer than "
            f"{min(abs(r + gap) for r in rises):.2g}"
        )
    raise EnergyProjectionError("; ".join(failures))


def _fmt(value) -> str:
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
    """One verb's inputs (config, model, projected states, exact basis) and its output sink."""

    cfg: ExperimentConfig
    h: BilinearHamiltonian
    states: list[ProductState]
    out: Path
    manifest: dict
    exact: list[ProductState] = field(default_factory=list)  # the states evolved in the truncated basis
    hilbert: HilbertConfig | None = None  # their basis, sized before the verb runs

    def emit(self, name: str, header, rows) -> None:
        _write_csv(self.out / name, header, rows)
        self.manifest["outputs"].append(name)

    def integrate(self, s: ProductState) -> Trajectory:
        """The flow from s to t_final, its RHS evaluations listed in the manifest."""
        traj = integrate(self.h, s, self.cfg.t_final, self.cfg.integrator)
        self.manifest.setdefault("rhs_evals", []).append(traj.rhs_evals)
        return traj


def _integrate_pair(run: _Run, s1, s2) -> tuple[tuple[Trajectory, Trajectory], list[float], list[float]]:
    """Both trajectories of a pair and their label distances d_field and d_spin, one per sample."""
    pair = run.integrate(s1), run.integrate(s2)
    d_field, d_spin = label_distances(*pair, run.h.group_a, run.h.group_b)
    return pair, d_field.tolist(), d_spin.tolist()


def _pair_rows(run: _Run, s1, s2):
    """(t, overlap_sq, d_field, d_spin) per sample; overlap_sq is exp(-(d_field + d_spin))."""
    (t1, _), d_field, d_spin = _integrate_pair(run, s1, s2)
    # math.exp per sample: numpy's exp rounds some inputs one ulp apart from it
    return [(t, math.exp(-(d_f + d_s)), d_f, d_s) for t, d_f, d_s in zip(t1.times.tolist(), d_field, d_spin)]


def _exact_runs(run: _Run, times) -> Iterator[tuple[np.ndarray, list[OracleState]]]:
    """Yield, per chunk of times, those times and the exact evolutions of the product vectors of run.exact.

    Each evolution is one OracleState stacked over the chunk's times, in
    the basis run.hilbert. It, the configured n_max where the truncation
    policy raised it, the spectral interval the evolution is scaled by,
    the truncation deficits, and (once the times are exhausted)
    the largest top-Fock population over every yielded state and the
    sparse products the evolution took go into the manifest. A chunk in
    which a state's top-Fock population passes _TOP_FOCK_BOUND raises
    TruncationError, naming the first such time and state, instead of
    being yielded.
    """
    hcfg = run.hilbert
    evolver = ExactEvolver(build_hamiltonian_matrix(run.h, hcfg))
    hilbert = run.manifest["hilbert"] = {
        "n_max": hcfg.n_max, "j": hcfg.j, "dim": hcfg.dim,
        "spectral_interval": [_sig3(end) for end in evolver.spectral_interval],
    }
    if run.cfg.n_max is not None and run.cfg.n_max < hcfg.n_max:
        # the truncation policy raised the configured n_max to fit the field labels
        hilbert["n_max_raised_from"] = run.cfg.n_max
    psi0 = [product_coherent_vector(s.x, s.y, hcfg) for s in run.exact]
    run.manifest["truncation_deficits"] = [p.truncation_deficit for p in psi0]
    top = 0.0
    for chunk, amplitudes in evolver.evolve_chunks(psi0, times):
        populations = top_fock_population(OracleState(amplitudes, hcfg))  # [times, states]
        over = np.argwhere(populations > _TOP_FOCK_BOUND)
        if over.size:
            m, i = over[0]
            raise TruncationError(
                f"top Fock population {populations[m, i]:.3g} of state {i} at t = {float(chunk[m]):.12g} exceeds "
                f"{_TOP_FOCK_BOUND:g} at n_max = {hcfg.n_max}; raise n_max"
            )
        top = max(top, float(populations.max()))
        yield chunk, [OracleState(amplitudes[:, i], hcfg, p.truncation_deficit) for i, p in enumerate(psi0)]
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
    run.emit("overlap_pair.csv", ["t", "overlap_sq", "d_field", "d_spin"], _pair_rows(run, *run.states[:2]))


def _entropy(run: _Run) -> None:
    """correction kernel and second-order linear entropy for one state"""
    traj = run.integrate(run.states[0])
    kernel = build_kernel(traj, run.h)
    delta2 = entropy_series(kernel)
    save_kernel_csv(run, kernel, delta2)
    if not run.exact:
        run.emit("entropy.csv", ["t", "delta2"], zip(traj.times, delta2))
        return
    delta_exact = np.concatenate(
        [reduced_linear_entropy(psi, chunk) for chunk, (psi,) in _exact_runs(run, traj.times)]
    )
    run.emit("entropy.csv", ["t", "delta2", "delta_exact"], zip(traj.times, delta2, delta_exact))


def save_kernel_csv(run: _Run, kernel: CorrectionKernel, delta2: np.ndarray) -> None:
    """Write kernel.csv: t, re_c, im_c, abs_C, delta2 per sample."""
    # a function of its own so that perfbench/trace.py can time it by name
    rows = zip(kernel.times, kernel.c.real, kernel.c.imag, np.abs(kernel.cum), delta2)
    run.emit("kernel.csv", ["t", "re_c", "im_c", "abs_C", "delta2"], rows)


def _lyapunov(run: _Run) -> None:
    """largest-Lyapunov estimate for each state, from the unit tangent carried with the flow"""
    cfg = run.cfg
    estimates = []
    rhs_evals = run.manifest["rhs_evals"] = []
    for i, s in enumerate(run.states):
        series = lyapunov_series(run.h, s, t_total=cfg.lyapunov_t_total, window=cfg.lyapunov_window, cfg=cfg.integrator)
        estimates.append(float(series.running[-1]))
        rhs_evals.append(series.rhs_evals)
        run.emit(f"lyapunov_{i}.csv", ["window_end", "running_exponent"], zip(series.window_ends, series.running))
    run.manifest["lyapunov_estimates"] = estimates


def _oracle_compare(run: _Run) -> None:
    """exact truncated-basis run against the mean-field labels"""
    (t1, _), d_field, d_spin = _integrate_pair(run, *run.exact)
    field, ov_exact = [], []
    for _, (a, b) in _exact_runs(run, t1.times):
        field.append(field_annihilation_expectation(a))
        ov_exact.append(np.abs(exact_overlap_pair(a, b)))
    ov_mf = [math.exp(-0.5 * (d_f + d_s)) for d_f, d_s in zip(d_field, d_spin)]
    field_err = np.abs(np.concatenate(field) - t1.x)
    rows = zip(t1.times, field_err, np.concatenate(ov_exact), ov_mf)
    run.emit("oracle_compare.csv", ["t", "field_err", "abs_overlap_exact", "abs_overlap_mf"], rows)


def _fig1(run: _Run) -> None:
    """both preset pair-overlap diagnostics (chaotic and regular)"""
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

# The initial states each two-state verb needs: one pair, or fig1's two.
_PAIR_STATES = {"overlap-pair": 2, "oracle-compare": 2, "fig1": 4}


def run_experiment(verb: str, cfg: ExperimentConfig, out_dir) -> dict:
    """Execute one verb, write its CSVs and manifest under out_dir.

    The verb's state count is checked, the states projected and the exact basis sized (its cap checked) before
    out_dir is created; a failed run removes the files it wrote, so out_dir holds a whole run or none of it.
    """
    if verb not in VERBS:
        raise ConfigError(f"unknown verb '{verb}'; available: {', '.join(VERBS)}")
    if len(cfg.states) < _PAIR_STATES.get(verb, 0):
        raise ConfigError(f"{verb} needs {_PAIR_STATES[verb]} initial states, got {len(cfg.states)}")
    h = _checked("model", maser_hamiltonian, cfg.model)

    states = list(cfg.states)
    energies = [float(classical_energy(h, s.x, s.y)) for s in states]
    for i, energy in enumerate(energies):
        if not math.isfinite(energy):
            raise ConfigError(f"'pairs[{i}]' has classical energy {energy!r}, which is not finite")
    manifest: dict = {
        "verb": verb,
        "conventions_version": CONVENTIONS_VERSION,
        "config": config_to_dict(cfg),
        "initial_energies": energies,
        "outputs": [],
    }
    if cfg.energy_target is not None:
        reasons: list[list[str]] = [[] for _ in states]
        projected = [project_with_fallback(s, h, cfg.energy_target, r) for s, r in zip(states, reasons)]
        states = [p[0] for p in projected]
        manifest["projection_directions"] = [p[1] for p in projected]
        # why each state that went along re_x could not go along im_x
        manifest["projection_fallbacks"] = [r[0] if r else None for r in reasons]
        manifest["achieved_energies"] = [float(classical_energy(h, s.x, s.y)) for s in states]
        manifest["initial_condition_note"] = (
            "configured label coordinates are real parts; imaginary parts were set "
            "by shifting one field coordinate onto the target energy shell"
        )

    # oracle-compare evolves its pair in the truncated basis, entropy its state when n_max is set
    exact = states[: {"oracle-compare": 2, "entropy": 1 if cfg.n_max is not None else 0}.get(verb, 0)]
    hilbert = hilbert_for_labels([s.x for s in exact], cfg.model.j, n_max=cfg.n_max) if exact else None

    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory {out}: {exc}") from exc
    # the verb's outputs as it lists them, then with the manifest once that is written
    written = manifest["outputs"]
    try:
        VERBS[verb](_Run(cfg, h, states, out, manifest, exact, hilbert))
        written = [*written, "run_manifest.json"]
        with _new_file(out / "run_manifest.json") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except BaseException:
        for name in written:
            with suppress(OSError):  # missing, or not ours: a directory where the manifest belongs
                (out / name).unlink()
        raise
    return manifest
