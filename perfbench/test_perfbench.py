"""Tests of the benchmark's own code: statistics, span arithmetic, checks, and a smoke run."""

import json
import shutil
import statistics
from pathlib import Path

import pytest

from perfbench import harness, stats, trace
from perfbench.trace import Span, Tracer
from perfbench.workloads import REFERENCE_DIR, WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_median_and_quartiles_follow_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    assert stats.median(values) == 3.5
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 3.5)
    assert stats.quartiles([2.0]) == (2.0, 2.0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(range(1, 40)) is None
    p, value = stats.tail_percentile(range(1, 41))
    assert p == 75.0 and sum(v > value for v in range(1, 41)) >= 10
    p, value = stats.tail_percentile(range(1, 101))
    assert p == 90.0 and value == pytest.approx(90.1)
    assert sum(v > value for v in range(1, 101)) == 10
    assert stats.tail_percentile(range(1000))[0] == 99.0


def _tree():
    # experiments root [0, 10] holds dynamics [1, 4] (with solve_ivp [2, 3])
    # and oracle evolve [5, 9] (with expm_multiply [6, 8]).
    return [
        Span("experiments.run_experiment", 0.0, 10.0, None, 1),
        Span("dynamics.integrate", 1.0, 4.0, 0, 1),
        Span("dynamics.solve_ivp", 2.0, 3.0, 1, 1),
        Span("oracle.evolve", 5.0, 9.0, 0, 1),
        Span("oracle.expm_multiply", 6.0, 8.0, 3, 1),
    ]


def test_self_time_subtracts_direct_children_only():
    assert trace.self_times(_tree()) == [3.0, 2.0, 1.0, 2.0, 2.0]
    assert trace.module_self(_tree()) == {"experiments": 3.0, "dynamics": 3.0, "oracle": 4.0}


def test_run_metrics_split_the_root_span_by_module():
    m = trace.run_metrics(_tree(), {"dynamics.rhs_evals": 4.0, "oracle.csr_bytes": 100.0})
    assert m["dynamics.integrate_s"] == 3.0 and m["dynamics.integrate_calls"] == 1
    assert m["dynamics.rhs_us"] == pytest.approx(1e6 / 4.0)
    assert m["oracle.evolve_s"] == 4.0 and m["oracle.expm_multiply_calls"] == 1
    assert m["oracle.apply_bytes"] == 100.0
    assert m["oracle.wall_frac"] == pytest.approx(0.4)
    assert sum(m[f"{mod}.wall_frac"] for mod in trace.MODULES) == pytest.approx(1.0)


def test_tracer_links_nested_calls_and_renumbers_runs():
    tracer = Tracer()
    inner = tracer.wrap_span("dynamics.integrate", lambda: None)
    outer = tracer.wrap_span("dynamics.lyapunov_series", lambda: inner())
    tracer.run = 1
    outer()
    tracer.run = 2
    outer()
    spans = tracer.run_spans(2)
    assert [(s.name, s.parent) for s in spans] == [("dynamics.lyapunov_series", None), ("dynamics.integrate", 0)]
    assert spans[0].start <= spans[1].start <= spans[1].end <= spans[0].end


def test_every_trace_target_exists_and_is_restored():
    import cohchaos.dynamics

    original = cohchaos.dynamics.integrate
    tracer = Tracer()
    tracer.install()
    try:
        assert cohchaos.dynamics.integrate is not original
    finally:
        tracer.uninstall()
    assert cohchaos.dynamics.integrate is original


def test_a_missing_trace_target_fails_before_anything_is_replaced(monkeypatch):
    import cohchaos.dynamics

    original = cohchaos.dynamics.integrate
    monkeypatch.setattr(trace, "COUNT_TARGETS", trace.COUNT_TARGETS + (("cohchaos.dynamics", "gone", "x.gone"),))
    with pytest.raises(trace.BenchError, match="cohchaos.dynamics.gone"):
        Tracer().install()
    assert cohchaos.dynamics.integrate is original


def _reference_copy(tmp_path, workload):
    out = tmp_path / workload
    shutil.copytree(REFERENCE_DIR / workload, out)
    return out


def _perturb(path: Path, column: str, scale: float) -> None:
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(column)
    row = lines[5].split(",")
    row[col] = repr(float(row[col]) * scale)
    lines[5] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", ["fig1_pairs", "oracle_dense", "entropy_krylov"])
def test_reference_outputs_pass_their_checks(tmp_path, name):
    assert WORKLOADS[name].check(_reference_copy(tmp_path, name), {}, None) == []


def test_a_failed_check_does_not_stop_the_others(tmp_path):
    out = _reference_copy(tmp_path, "fig1_pairs")
    _perturb(out / "fig1_regular.csv", "d_field", 1.01)
    failures = WORKLOADS["fig1_pairs"].check(out, {}, None)
    assert len(failures) == 1 and failures[0].startswith("fig1_regular.csv")

    (out / "fig1_chaotic.csv").unlink()
    failures = WORKLOADS["fig1_pairs"].check(out, {}, None)
    assert [f.split(":")[0] for f in failures] == ["criterion 09", "fig1_chaotic.csv", "fig1_regular.csv"]


def test_oracle_gate_catches_a_drifting_exact_overlap(tmp_path):
    out = _reference_copy(tmp_path, "oracle_dense")
    _perturb(out / "oracle_compare.csv", "abs_overlap_exact", 1.0 + 1e-5)
    failures = WORKLOADS["oracle_dense"].check(out, {}, None)
    assert [f.split(":")[0] for f in failures] == ["criterion 10", "oracle_compare.csv"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric_once_with_its_unit(tmp_path, capsys, name):
    for traced, listed in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        res = harness.measure(WORKLOADS[name], 7, 0.0, traced, tmp_path, tiny=True, setup_samples=1)
        harness.report(res, {"workload": name}, traced)
        line = capsys.readouterr().out.strip().splitlines()[-1]
        result = json.loads(line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 2 and 0 <= result["failed"] <= result["attempted"]
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
        for m in listed:
            assert line.count(f'"{m["name"]}"') == 1
    if name == "lyapunov_shell":
        assert result["correct"], res.failures
