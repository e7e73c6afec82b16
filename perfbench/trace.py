"""Spans and counters recorded from outside the library.

The tracer wraps public cohchaos functions by replacing the names that the
calling module looks up at call time (for example ``integrate`` inside both
``cohchaos.experiments`` and ``cohchaos.dynamics``), plus scipy's
``solve_ivp`` and ``expm_multiply`` as ``dynamics`` and ``oracle`` see
them. The library itself carries no tracing code.

A span is named ``<module>.<what>``; the module prefix is the layer that
owns the time. Self time is a span's duration minus the time its child
spans cover, so summing self time by module splits one workload run into
layers without double counting.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

ROOT_SPAN = "experiments.run_experiment"
MODULES = ("dynamics", "oracle", "corrections", "experiments")


class BenchError(Exception):
    """The benchmark could not measure the workload."""


# (owner, attribute, span name): owner is "module" or "module:Class".
SPAN_TARGETS = (
    ("cohchaos.experiments", "project_with_fallback", "experiments.project"),
    # run_experiment writes its CSVs through this private helper; there is no
    # public callee to wrap. The coupling is intended: if the helper is
    # renamed, install() fails and the target here must follow.
    ("cohchaos.experiments", "_write_csv", "experiments.write"),
    ("cohchaos.experiments", "save_kernel_csv", "experiments.write"),
    ("cohchaos.experiments", "integrate", "dynamics.integrate"),
    ("cohchaos.dynamics", "integrate", "dynamics.integrate"),
    ("cohchaos.dynamics", "solve_ivp", "dynamics.solve_ivp"),
    ("cohchaos.experiments", "lyapunov_series", "dynamics.lyapunov_series"),
    ("cohchaos.experiments", "mf_overlap", "dynamics.pair_overlap"),
    ("cohchaos.experiments", "label_distances", "dynamics.pair_overlap"),
    ("cohchaos.experiments", "build_kernel", "corrections.build_kernel"),
    ("cohchaos.experiments", "entropy_series", "corrections.entropy_series"),
    ("cohchaos.experiments", "build_hamiltonian_matrix", "oracle.build_hamiltonian_matrix"),
    ("cohchaos.experiments", "ExactEvolver", "oracle.evolver_init"),
    ("cohchaos.oracle:ExactEvolver", "evolve", "oracle.evolve"),
    ("cohchaos.oracle", "expm_multiply", "oracle.expm_multiply"),
    ("cohchaos.experiments", "product_coherent_vector", "oracle.product_coherent_vector"),
    ("cohchaos.experiments", "reduced_linear_entropy", "oracle.reduced_linear_entropy"),
    ("cohchaos.experiments", "exact_overlap_pair", "oracle.exact_overlap_pair"),
    ("cohchaos.experiments", "field_annihilation_expectation", "oracle.field_annihilation_expectation"),
)

# (owner, attribute, counter name): calls counted without a span.
COUNT_TARGETS = (
    ("cohchaos.dynamics", "mean_field_coeffs", "model.mean_field_coeffs_calls"),
    ("cohchaos.dynamics", "classical_energy", "model.classical_energy_calls"),
    ("cohchaos.experiments", "classical_energy", "model.classical_energy_calls"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _record_solve_ivp(tracer: "Tracer", sol) -> None:
    tracer.count("dynamics.rhs_evals", sol.nfev)


def _record_matrix(tracer: "Tracer", h) -> None:
    tracer.set("oracle.dim", h.shape[0])
    tracer.set("oracle.nnz", h.nnz)
    tracer.set("oracle.csr_bytes", h.data.nbytes + h.indices.nbytes + h.indptr.nbytes)


_ON_RESULT = {
    "dynamics.solve_ivp": _record_solve_ivp,
    "oracle.build_hamiltonian_matrix": _record_matrix,
}


class Tracer:
    """In-memory span and counter store for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.run = 0
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(self.run, name)] += amount

    def set(self, name: str, value: float) -> None:
        self.counts[(self.run, name)] = value

    def wrap_span(self, name: str, fn):
        on_result = _ON_RESULT.get(name)

        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), 0.0, self._open[-1] if self._open else None, self.run)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def wrap_count(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[(self.run, name)] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Replace every target name by its wrapper.

        A target that no longer exists raises BenchError before anything is
        replaced, so a renamed library function fails the run instead of
        reading 0.
        """
        wrappers = []
        for targets, wrap in ((SPAN_TARGETS, self.wrap_span), (COUNT_TARGETS, self.wrap_count)):
            for owner_path, attr, name in targets:
                try:
                    owner = _resolve(owner_path)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    raise BenchError(f"trace target {owner_path}.{attr} not found") from None
                wrappers.append((owner, attr, original, wrap(name, original)))
        for owner, attr, original, wrapper in wrappers:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run_spans(self, run: int) -> list[Span]:
        """Spans of one run, with parent indices renumbered into the returned list."""
        index = {}
        out = []
        for i, s in enumerate(self.spans):
            if s.run == run:
                index[i] = len(out)
                out.append(Span(s.name, s.start, s.end, index.get(s.parent), run))
        return out

    def run_counts(self, run: int) -> dict[str, float]:
        return {name: v for (r, name), v in self.counts.items() if r == run}

    def write(self, path) -> None:
        rows = [vars(s) for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": [[r, n, v] for (r, n), v in self.counts.items()]}, fh)


def _resolve(owner_path: str):
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so the children of a span never overlap and
    their durations add up to the part of the parent they cover.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def module_self(spans: list[Span]) -> dict[str, float]:
    """Self time summed by the module prefix of the span names."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span.name.partition(".")[0]] += own
    return dict(totals)


def run_metrics(spans: list[Span], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced workload run.

    spans holds that run's spans only, with parent indices into the same
    list; counts holds its counters by name.
    """

    def total(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    wall = total(ROOT_SPAN)
    by_module = module_self(spans)
    rhs_evals = counts.get("dynamics.rhs_evals", 0.0)
    dim = counts.get("oracle.dim", 0.0)
    evolve_calls = calls("oracle.evolve")
    expm_calls = calls("oracle.expm_multiply")
    # Computed, not measured: the propagator bytes one evolve call must read.
    # Dense path: the eigenvector matrix, once into and once out of the
    # eigenbasis. Krylov path: one pass over the CSR matrix per
    # expm_multiply call, a lower bound on its matrix-vector products.
    if expm_calls:
        apply_bytes = expm_calls * counts.get("oracle.csr_bytes", 0.0)
    else:
        apply_bytes = evolve_calls * 2 * 16 * dim * dim
    metrics = {
        "model.mean_field_coeffs_calls": counts.get("model.mean_field_coeffs_calls", 0.0),
        "model.classical_energy_calls": counts.get("model.classical_energy_calls", 0.0),
        "dynamics.integrate_calls": calls("dynamics.integrate"),
        "dynamics.integrate_s": total("dynamics.integrate"),
        "dynamics.solve_ivp_calls": calls("dynamics.solve_ivp"),
        "dynamics.rhs_evals": rhs_evals,
        "dynamics.rhs_us": 1e6 * total("dynamics.solve_ivp") / rhs_evals if rhs_evals else 0.0,
        "dynamics.lyapunov_series_s": total("dynamics.lyapunov_series"),
        "dynamics.pair_overlap_s": total("dynamics.pair_overlap"),
        "oracle.dim": dim,
        "oracle.nnz": counts.get("oracle.nnz", 0.0),
        "oracle.build_hamiltonian_matrix_s": total("oracle.build_hamiltonian_matrix"),
        "oracle.evolver_init_s": total("oracle.evolver_init"),
        "oracle.evolve_calls": evolve_calls,
        "oracle.evolve_s": total("oracle.evolve"),
        "oracle.apply_bytes": apply_bytes,
        "oracle.expm_multiply_calls": expm_calls,
        "oracle.expm_multiply_s": total("oracle.expm_multiply"),
        "oracle.reduced_linear_entropy_s": total("oracle.reduced_linear_entropy"),
        "corrections.build_kernel_s": total("corrections.build_kernel"),
        "experiments.project_s": total("experiments.project"),
        "experiments.write_s": total("experiments.write"),
    }
    for module in MODULES:
        own = by_module.get(module, 0.0)
        metrics[f"{module}.self_s"] = own
        metrics[f"{module}.wall_frac"] = own / wall if wall else 0.0
    return metrics
