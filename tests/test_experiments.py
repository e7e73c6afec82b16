"""Config parsing, energy projection, and run orchestration tests."""

import csv
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohchaos import experiments
from cohchaos.algebra import HEISENBERG, spin
from cohchaos.dynamics import IntegrationError, IntegratorConfig, ProductState, integrate, lyapunov_series
from cohchaos.experiments import (
    _TOP_FOCK_BOUND,
    ConfigError,
    EnergyProjectionError,
    ExperimentConfig,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    _pair_rows,
    _Run,
    expand_preset,
    load_raw,
    project_with_fallback,
    run_experiment,
)
from cohchaos.model import BilinearHamiltonian, MaserParams, classical_energy, maser_hamiltonian
from cohchaos.oracle import DimensionError, HilbertConfig, build_hamiltonian_matrix
from reference import shell_scan

ROOT2 = math.sqrt(2.0)


def minimal_dict(**extra):
    data = {"model": {"j": 1.5}, "pairs": [[0.4, 0.0, 0.2, 0.1]]}
    data.update(extra)
    return data


def test_preset_values():
    d = expand_preset("fig1")
    assert d["model"]["g"] == pytest.approx(0.5 / ROOT2)
    assert d["model"]["g_prime"] == pytest.approx(0.2 / ROOT2)
    assert d["model"]["j"] == 4.5
    assert d["energy_target"] == 8.5
    assert d["n_max"] == 70
    assert len(d["pairs"]) == 4
    assert d["pairs"][0][0] == pytest.approx(5.7263433 / ROOT2)
    assert all(row[1] == 0.0 and row[3] == 0.0 for row in d["pairs"])


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        expand_preset("fig2")


def test_config_minimal():
    cfg = config_from_dict(minimal_dict())
    assert cfg.model.j == 1.5
    assert cfg.model.g == MaserParams().g
    assert cfg.states == (ProductState(x=0.4 + 0.0j, y=0.2 + 0.1j),)
    assert cfg.t_final == 25.0
    assert cfg.energy_target is None


def test_config_built_directly_rejects_bad_tolerances():
    base = config_from_dict(minimal_dict())
    for tolerances in ({"rel_tol": 0.0}, {"abs_tol": -1e-14}, {"rel_tol": 0.5}):
        with pytest.raises(ConfigError, match="invalid tolerances: "):
            ExperimentConfig(model=base.model, states=base.states, **tolerances)


def test_config_preset_with_override_key():
    cfg = config_from_dict({"preset": "fig1", "t_final": 3.0})
    assert cfg.t_final == 3.0
    assert cfg.energy_target == 8.5
    assert len(cfg.states) == 4


def test_config_partial_objects_merge_over_the_preset():
    preset = config_from_dict({"preset": "fig1"})
    cfg = config_from_dict({"preset": "fig1", "model": {"j": 12.5}, "lyapunov": {"window": 0.5}})
    assert cfg.model == MaserParams(epsilon=1.0, omega=1.0, g=0.5 / ROOT2, g_prime=0.2 / ROOT2, j=12.5)
    assert (cfg.lyapunov_window, cfg.lyapunov_t_total) == (0.5, preset.lyapunov_t_total)
    # the merged object is still checked key by key
    with pytest.raises(ConfigError, match=r"'model\.gg' \(did you mean 'g'\?\)"):
        config_from_dict({"preset": "fig1", "model": {"gg": 1.0}})
    with pytest.raises(ConfigError, match="'model' must be an object"):
        config_from_dict({"preset": "fig1", "model": 12.5})


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="positive"):
        config_from_dict(minimal_dict(sampling_dt=-0.1))
    with pytest.raises(ConfigError, match="must be a number"):
        config_from_dict(minimal_dict(t_final="soon"))
    with pytest.raises(ConfigError, match="n_max"):
        config_from_dict(minimal_dict(n_max=True))
    with pytest.raises(ConfigError, match="n_max"):
        config_from_dict(minimal_dict(n_max=2.5))
    with pytest.raises(ConfigError, match="root must be an object"):
        config_from_dict([1, 2])
    with pytest.raises(ConfigError, match="invalid model: spin magnitude .* got 1.3"):
        config_from_dict(minimal_dict(model={"j": 1.3}))
    with pytest.raises(ConfigError, match=r"'model\.g' must be finite"):
        config_from_dict(apply_overrides(minimal_dict(), ["model.g=1e400"]))
    with pytest.raises(ConfigError, match="invalid tolerances: rel_tol"):
        config_from_dict(minimal_dict(rel_tol=0))
    with pytest.raises(ConfigError, match=r"'lyapunov\.window'"):
        config_from_dict(minimal_dict(lyapunov={"window": 0}))
    with pytest.raises(ConfigError, match=r"'lyapunov\.window'"):
        config_from_dict(minimal_dict(lyapunov={"window": 5.0, "t_total": 2.0}))
    with pytest.raises(ConfigError, match=r"'lyapunov\.delta0'"):
        config_from_dict(minimal_dict(lyapunov={"delta0": -1e-6}))
    # json.loads reads Infinity and NaN, in files and in overrides alike
    for key, where in (
        ("t_final=Infinity", "t_final"),
        ("lyapunov.t_total=Infinity", "lyapunov.t_total"),
        ("energy_target=Infinity", "energy_target"),
        ("sampling_dt=Infinity", "sampling_dt"),
        ("model.epsilon=NaN", "model.epsilon"),
        ("t_final=1" + "0" * 400, "t_final"),
    ):
        with pytest.raises(ConfigError, match=f"'{where}' must be finite"):
            config_from_dict(apply_overrides(minimal_dict(), [key]))
    with pytest.raises(ConfigError, match=r"'pairs\[0\]\[2\]' must be finite"):
        config_from_dict(minimal_dict(pairs=[[0.4, 0.0, math.nan, 0.1]]))
    with pytest.raises(ConfigError, match=r"invalid pairs\[1\]: coherent label magnitude"):
        config_from_dict(minimal_dict(pairs=[[0.4, 0.0, 0.2, 0.1], [2e6, 0.0, 0.2, 0.1]]))
    # a run must not stop short of, or overshoot, its Lyapunov horizon
    with pytest.raises(ConfigError, match=r"'lyapunov\.t_total'.*whole number"):
        config_from_dict(minimal_dict(lyapunov={"window": 1.0, "t_total": 2.6}))
    assert config_from_dict(minimal_dict(lyapunov={"window": 0.1, "t_total": 0.3})).lyapunov_t_total == 0.3
    # a sample or window count past the cap, before any array of them is built
    with pytest.raises(ConfigError, match=r"'t_final' / 'sampling_dt': .* more than 1000000 samples"):
        config_from_dict(minimal_dict(sampling_dt=1e-300))
    with pytest.raises(ConfigError, match=r"'lyapunov\.t_total' / 'lyapunov\.window': .* more than 1000000 windows"):
        config_from_dict(minimal_dict(lyapunov={"t_total": 1.0, "window": 1e-300}))


def test_config_unknown_key_suggestions():
    with pytest.raises(ConfigError, match="did you mean 't_final'"):
        config_from_dict(minimal_dict(t_fnal=3.0))
    with pytest.raises(ConfigError, match=r"'model\.g_prim' \(did you mean 'g_prime'"):
        config_from_dict({"model": {"j": 1.5, "g_prim": 0.1}, "pairs": [[0.1, 0, 0, 0]]})
    with pytest.raises(ConfigError, match=r"'lyapunov\.delta' \(did you mean 'delta0'"):
        config_from_dict(minimal_dict(lyapunov={"delta": 1e-5}))


def test_config_pairs_validation():
    with pytest.raises(ConfigError, match="non-empty list"):
        config_from_dict({"model": {}, "pairs": []})
    with pytest.raises(ConfigError, match=r"pairs\[0\]"):
        config_from_dict({"model": {}, "pairs": [[0.1, 0.2]]})
    with pytest.raises(ConfigError, match=r"pairs\[1\]\[2\]"):
        config_from_dict({"model": {}, "pairs": [[0, 0, 0, 0], [0, 0, "x", 0]]})


def test_apply_overrides():
    data = minimal_dict()
    apply_overrides(data, ["t_final=3.5", "model.g=0.25", "n_max=40"])
    assert data["t_final"] == 3.5
    assert data["model"]["g"] == 0.25
    assert data["n_max"] == 40
    # non-JSON value stays a string (and is then rejected downstream)
    apply_overrides(data, ["t_final=fast"])
    assert data["t_final"] == "fast"
    # dotted path creates missing intermediate objects
    fresh = {}
    apply_overrides(fresh, ["lyapunov.window=0.5"])
    assert fresh == {"lyapunov": {"window": 0.5}}


def test_apply_overrides_errors():
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides({}, ["t_final"])
    with pytest.raises(ConfigError, match="non-object"):
        apply_overrides({"model": 3}, ["model.g=0.1"])


def test_load_raw_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_raw(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": {\n  "j": }\n}')
    with pytest.raises(ConfigError, match="line 2"):
        load_raw(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="must be an object"):
        load_raw(arr)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(minimal_dict(t_final=2.0)))
    cfg = config_from_dict(load_raw(path))
    assert cfg.t_final == 2.0
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_roundtrip_preserves_preset_expansion():
    cfg = config_from_dict({"preset": "fig1"})
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg
    assert again.integrator == IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, sample_dt=0.05)


def test_project_noop_when_on_shell():
    p = MaserParams(j=1.5)
    h = maser_hamiltonian(p)
    s = ProductState(x=1.2 + 0.3j, y=0.2 - 0.4j)
    e = classical_energy(h, s.x, s.y)
    out, direction = project_with_fallback(s, h, float(e))
    assert out.x == s.x and out.y == s.y and direction == "im_x"


def test_project_decoupled_closed_form():
    # with g = g' = 0 the shell is omega |x|^2 - eps j (1-|y|^2)/(1+|y|^2)
    p = MaserParams(g=0.0, g_prime=0.0, j=2.0, epsilon=1.0, omega=1.0)
    h = maser_hamiltonian(p)
    s = ProductState(x=0.7 + 0.0j, y=0.3 + 0.2j)
    target = 3.0
    out, direction = project_with_fallback(s, h, target)
    assert direction == "im_x" and out.x.real == s.x.real and out.y == s.y
    yy = abs(s.y) ** 2
    want_x_sq = target + 2.0 * (1.0 - yy) / (1.0 + yy)
    assert abs(out.x) ** 2 == pytest.approx(want_x_sq, abs=1e-10)
    assert classical_energy(h, out.x, out.y) == pytest.approx(target, abs=1e-10)


def test_project_unreachable_reports_range():
    p = MaserParams(g=0.0, g_prime=0.0, j=0.5)
    h = maser_hamiltonian(p)
    s = ProductState(x=0.0j, y=0.0j)
    # the energy is omega u^2 + const >= const along both directions; a far negative target fails
    reasons = []
    both = "no im_x shift .* attained range .*; no re_x shift .* attained range"
    with pytest.raises(EnergyProjectionError, match=both):
        project_with_fallback(s, h, -50.0, reasons)
    assert reasons == []


@pytest.mark.parametrize("target", [1e200, 1e308])
def test_project_to_a_target_far_out_of_reach_fails_with_the_attained_range(target):
    # at 1e308 the unscaled discriminant would overflow; the range comes
    # from the state's energy (here 0 to rounding), since gap + target
    # cancels to 0 at both targets
    h = maser_hamiltonian(MaserParams(g=0.0, g_prime=0.0, j=0.5))
    s = ProductState(x=0.7 + 0.1j, y=0.0j)
    with pytest.raises(EnergyProjectionError) as exc:
        project_with_fallback(s, h, target)
    # along im_x the energy is u^2 + 0.2 u, along re_x u^2 + 1.4 u, for |u| <= 8
    ranges = re.findall(r"attained range \[([^,]+), ([^\]]+)\]", str(exc.value))
    assert ranges == [("-0.01", "65.6"), ("-0.49", "75.2")]


def test_project_finds_a_root_whose_unscaled_discriminant_overflows():
    # b^2 - 4 c0 gap is about 1e601 here; scaled by a power of two it stays
    # finite, and the shift of 3 along im_x is found
    h = maser_hamiltonian(MaserParams(omega=1e300, g=0.0, g_prime=0.0, j=0.5))
    s = ProductState(x=0.7 + 0.1j, y=0.0j)
    target = classical_energy(h, s.x + 3j, s.y)
    out, direction = project_with_fallback(s, h, target)
    assert direction == "im_x" and out.x.real == s.x.real and out.y == s.y
    assert out.x.imag == pytest.approx(3.1, rel=1e-15)
    assert classical_energy(h, out.x, out.y) == pytest.approx(target, rel=1e-15)


def test_project_finds_a_shell_crossed_twice_inside_one_scan_cell():
    # along im_x the energy is E(0.7, y) + (u - 0.05)^2, so the target
    # E(0.7, y) + 0.001 is crossed at u = 0.05 -+ sqrt(0.001), 0.018 and
    # 0.082, which a scan at spacing 0.1 sees as no sign change
    h = maser_hamiltonian(MaserParams(g=0.0, g_prime=0.0, j=2.0))
    s = ProductState(x=0.7 - 0.05j, y=0.3 + 0.2j)
    floor = classical_energy(h, 0.7, s.y)
    out, direction = project_with_fallback(s, h, floor + 0.001)
    assert direction == "im_x" and out.x.real == s.x.real and out.y == s.y
    assert out.x.imag + 0.05 == pytest.approx(0.05 - math.sqrt(0.001), abs=1e-12)
    assert classical_energy(h, out.x, out.y) == pytest.approx(floor + 0.001, abs=1e-12)
    # below the vertex there is no crossing along im_x, and the range reaches down to it
    reasons = []
    out, direction = project_with_fallback(s, h, floor - 0.001, reasons)
    assert direction == "re_x"
    assert re.fullmatch(rf"no im_x shift in \[-8\.0, 8\.0\] reaches energy .* range \[{floor:.6g},.*", reasons[0])


def test_project_takes_the_crossing_closest_to_zero():
    # along im_x the energy is E(0.7, y) + (u + 0.024)^2, crossed by the target
    # E(0.7, y) + 0.125^2 at u = +0.101 and u = -0.149
    h = maser_hamiltonian(MaserParams(g=0.0, g_prime=0.0, j=2.0))
    s = ProductState(x=0.7 + 0.024j, y=0.3 + 0.2j)
    target = classical_energy(h, 0.7, s.y) + 0.125**2
    out, direction = project_with_fallback(s, h, target)
    assert direction == "im_x"
    assert out.x.imag - s.x.imag == pytest.approx(0.101, abs=1e-12)
    assert classical_energy(h, out.x, out.y) == pytest.approx(target, abs=1e-14)


def test_project_without_an_oscillator_term_is_linear_in_the_shift():
    # omega = 0: the energy is E(s) + b u along either direction, b = 2 Re(step c_-)
    h = maser_hamiltonian(MaserParams(omega=0.0, g=0.5, g_prime=0.2, j=1.5))
    s = ProductState(x=0.3 + 0.1j, y=0.4 - 0.2j)
    e0 = classical_energy(h, s.x, s.y)
    slope = classical_energy(h, s.x + 1j, s.y) - e0
    out, direction = project_with_fallback(s, h, e0 + 0.3)
    assert direction == "im_x" and out.x.real == s.x.real
    assert out.x.imag - s.x.imag == pytest.approx(0.3 / slope, rel=1e-12)
    assert classical_energy(h, out.x, out.y) == pytest.approx(e0 + 0.3, abs=1e-14)


def test_project_with_a_negative_omega_opens_downward():
    # omega = -1, g = g' = 0: along im_x the energy is E(0.7, y) - (0.1 + u)^2
    h = maser_hamiltonian(MaserParams(omega=-1.0, g=0.0, g_prime=0.0, j=2.0))
    s = ProductState(x=0.7 + 0.1j, y=0.3 + 0.2j)
    top = classical_energy(h, 0.7, s.y)
    # (0.1 + u)^2 = 0.0225 at u = 0.05 and u = -0.25
    out, direction = project_with_fallback(s, h, top - 0.0225)
    assert direction == "im_x"
    assert out.x.imag - s.x.imag == pytest.approx(0.05, abs=1e-12)
    # above the vertex im_x fails with the range's top at the vertex; along
    # re_x the energy is E(0, y) - 0.01 - (0.7 + u)^2, which reaches it
    reasons = []
    out, direction = project_with_fallback(s, h, top + 0.001, reasons)
    assert direction == "re_x" and out.x.imag == s.x.imag
    assert re.fullmatch(rf"no im_x shift .* range \[[-0-9.e]+, {top:.6g}\] comes no closer than 0\.001", reasons[0])
    assert out.x.real - s.x.real == pytest.approx(-0.7 + math.sqrt(0.49 - 0.011), abs=1e-12)
    assert classical_energy(h, out.x, out.y) == pytest.approx(top + 0.001, abs=1e-14)


@pytest.mark.parametrize("x", [0.7, -0.7])
def test_project_breaks_the_tie_of_opposite_shifts_towards_the_negative_one(x):
    # x and y real make b exactly zero along im_x (of either sign, by the
    # sign of x): the energy is E(s) + u^2 + const and the roots are +-0.2
    h = maser_hamiltonian(MaserParams(g=0.5, g_prime=0.2, j=2.0))
    s = ProductState(x=complex(x), y=0.3 + 0.0j)
    target = classical_energy(h, s.x, s.y) + 0.04
    out, direction = project_with_fallback(s, h, target)
    assert direction == "im_x"
    assert out.x.imag == pytest.approx(-0.2, abs=1e-14)


def test_project_rejects_a_spin_first_model():
    h = BilinearHamiltonian(
        group_a=spin(0.5), group_b=HEISENBERG, alpha=[1.0, 0.0, 0.0], beta=[1.0, 0.0, 0.0], gamma=np.zeros((3, 3))
    )
    with pytest.raises(ValueError, match="oscillator"):
        project_with_fallback(ProductState(x=0.1j, y=0.2), h, 3.0)


COEFFICIENT = st.floats(-2.0, 2.0)
LABEL = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(COEFFICIENT, COEFFICIENT, COEFFICIENT, COEFFICIENT, st.integers(1, 20).map(lambda n: n / 2)),
    LABEL,
    LABEL,
    st.floats(-20.0, 20.0),
)
def test_project_agrees_with_a_brute_force_scan(params, x, y, offset):
    h = maser_hamiltonian(MaserParams(*params))
    s = ProductState(x=x, y=y)
    target = classical_energy(h, s.x, s.y) + offset
    if abs(classical_energy(h, s.x, s.y) - target) <= 1e-12 * max(1.0, abs(target)):
        # a state this close to the shell is kept as it is
        assert project_with_fallback(s, h, target) == (s, "im_x")
        return
    scans = {"im_x": shell_scan(s, h, target, 1j), "re_x": shell_scan(s, h, target, 1.0)}
    try:
        out, direction = project_with_fallback(s, h, target)
    except EnergyProjectionError as exc:
        assert scans["im_x"].shift is None and scans["re_x"].shift is None
        ranges = re.findall(r"attained range \[([^,]+), ([^\]]+)\]", str(exc))
        for (low, high), scan in zip(ranges, scans.values()):
            assert float(low) == pytest.approx(scan.low, rel=1e-5, abs=1e-9)
            assert float(high) == pytest.approx(scan.high, rel=1e-5, abs=1e-9)
        return
    assert direction == ("im_x" if scans["im_x"].shift is not None else "re_x")
    step = 1j if direction == "im_x" else 1.0
    shift = (out.x - s.x) / step
    assert shift.imag == 0.0 and out.y == s.y
    # on the shell to 64 eps of the energy's scale; the worst of 3 400 random draws was 23 eps
    bound = 64 * np.finfo(float).eps * max(1.0, abs(target), abs(out.x) ** 2, h.group_b.j)
    assert abs(classical_energy(h, out.x, out.y) - target) <= bound
    # no crossing closer to zero, up to the roots' conditioning (the bound over the energy's slope)
    ref = scans[direction].shift
    ends = [classical_energy(h, s.x + step * (ref + d), s.y) for d in (-1e-3, 1e-3)]
    slope = abs(ends[1] - ends[0]) / 2e-3
    assert abs(shift.real) * slope <= abs(ref) * slope + 2.0 * bound


def test_fig1_projection_directions(fig1_cfg, fig1_h):
    dirs = []
    for s in fig1_cfg.states:
        out, direction = project_with_fallback(s, fig1_h, fig1_cfg.energy_target)
        dirs.append(direction)
        e = classical_energy(fig1_h, out.x, out.y)
        assert e == pytest.approx(8.5, abs=1e-9)
        # configured coordinates are kept as the real parts
        if direction == "im_x":
            assert out.x.real == s.x.real
    assert dirs[:3] == ["im_x", "im_x", "im_x"]
    assert dirs[3] == "re_x"


def test_manifest_names_why_a_state_fell_back_to_re_x(tmp_path, fig1_cfg):
    manifest = run_experiment("trajectory", replace(fig1_cfg, t_final=0.1), tmp_path)
    assert manifest["projection_directions"] == ["im_x", "im_x", "im_x", "re_x"]
    fallbacks = manifest["projection_fallbacks"]
    assert fallbacks[:3] == [None, None, None]
    # along im_x the energy of fig1 state 3 stays 6.2e-8 above the 8.5 shell
    assert re.fullmatch(
        r"no im_x shift in \[-8\.0, 8\.0\] reaches energy 8\.5: "
        r"attained range \[8\.5, [0-9.e+]+\] comes no closer than 6\.2e-08",
        fallbacks[3],
    )


def test_run_unknown_verb(tmp_path):
    cfg = config_from_dict(minimal_dict())
    with pytest.raises(ConfigError, match="unknown verb"):
        run_experiment("spectrum", cfg, tmp_path)


def test_run_pair_verbs_need_enough_states(tmp_path):
    cfg = config_from_dict(minimal_dict())
    with pytest.raises(ConfigError, match="overlap-pair needs 2 initial states, got 1"):
        run_experiment("overlap-pair", cfg, tmp_path)
    with pytest.raises(ConfigError, match="fig1 needs 4 initial states, got 1"):
        run_experiment("fig1", cfg, tmp_path)


def test_run_trajectory_outputs(tmp_path):
    cfg = config_from_dict(minimal_dict(t_final=1.0, pairs=[[0.4, 0.0, 0.2, 0.1], [0.5, 0.1, 0.1, 0.0]]))
    manifest = run_experiment("trajectory", cfg, tmp_path)
    assert manifest["verb"] == "trajectory"
    assert manifest["outputs"] == ["trajectory_0.csv", "trajectory_1.csv"]
    assert max(manifest["energy_drift"]) < 1e-8
    assert len(manifest["initial_energies"]) == 2
    assert "conventions_version" in manifest
    lines = (tmp_path / "trajectory_0.csv").read_text().strip().splitlines()
    assert lines[0] == "t,re_x,im_x,re_y,im_y,eta_x,eta_y,s0,s1,energy"
    assert len(lines) == 22  # 21 samples at dt = 0.05 plus header
    on_disk = json.loads((tmp_path / "run_manifest.json").read_text())
    assert on_disk == manifest


def test_run_is_deterministic(tmp_path):
    pair = {"pairs": [[0.4, 0.0, 0.2, 0.1], [0.45, 0.0, 0.2, 0.1]], "n_max": 30}
    for verb, cfg in (
        ("trajectory", config_from_dict(minimal_dict(t_final=1.0))),
        ("oracle-compare", config_from_dict(minimal_dict(t_final=1.0, **pair))),
    ):
        a, b = tmp_path / verb / "a", tmp_path / verb / "b"
        outputs = run_experiment(verb, cfg, a)["outputs"]
        run_experiment(verb, cfg, b)
        for name in (*outputs, "run_manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), (verb, name)


def test_rerun_replaces_outputs(tmp_path):
    # a shorter rerun into the same directory must leave exactly what a fresh run writes
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    run_experiment("trajectory", config_from_dict(minimal_dict(t_final=1.0)), reused)
    short = config_from_dict(minimal_dict(t_final=0.5))
    run_experiment("trajectory", short, reused)
    run_experiment("trajectory", short, fresh)
    for name in ("trajectory_0.csv", "run_manifest.json"):
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()


def test_a_basis_past_the_cap_fails_before_any_file_is_written(tmp_path):
    # the basis is sized before the verb runs; the kernel.csv it writes first never appears
    cfg = config_from_dict({"preset": "fig1", "t_final": 0.1, "n_max": 10_000_000})
    with pytest.raises(DimensionError, match="exceeds cap"):
        run_experiment("entropy", cfg, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_a_run_failing_mid_verb_removes_the_files_it_wrote(tmp_path, monkeypatch):
    # fig1 writes the chaotic pair's file, then fails integrating the regular pair
    calls = 0

    def failing_integrate(*args):
        nonlocal calls
        calls += 1
        if calls == 3:
            raise IntegrationError("integration failed at t = 0.05: injected")
        return integrate(*args)

    monkeypatch.setattr(experiments, "integrate", failing_integrate)
    (tmp_path / "notes.txt").write_text("not this run's")
    with pytest.raises(IntegrationError, match="injected"):
        run_experiment("fig1", config_from_dict({"preset": "fig1", "t_final": 0.1}), tmp_path)
    assert calls == 3
    assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]


def test_csv_formatting_is_stable(tmp_path):
    cfg = config_from_dict(minimal_dict(t_final=0.5))
    run_experiment("trajectory", cfg, tmp_path)
    lines = (tmp_path / "trajectory_0.csv").read_text().strip().splitlines()
    for line in lines[1:3]:
        for cell in line.split(","):
            # every cell is the shortest %.12g rendering of its own value
            assert cell == f"{float(cell):.12g}"


def test_run_overlap_pair_schema(tmp_path):
    cfg = config_from_dict(
        minimal_dict(t_final=0.5, pairs=[[0.4, 0.0, 0.2, 0.1], [0.42, 0.0, 0.2, 0.1]])
    )
    run_experiment("overlap-pair", cfg, tmp_path)
    lines = (tmp_path / "overlap_pair.csv").read_text().strip().splitlines()
    assert lines[0] == "t,overlap_sq,d_field,d_spin"
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    # identical spin labels, slightly separated field labels
    assert 0.99 < first[1] < 1.0
    assert first[3] == pytest.approx(0.0, abs=1e-15)
    assert first[2] == pytest.approx(0.02**2, rel=1e-9)


def test_run_entropy_schema(tmp_path):
    cfg = config_from_dict(minimal_dict(t_final=0.3))
    manifest = run_experiment("entropy", cfg, tmp_path)
    assert manifest["outputs"] == ["kernel.csv", "entropy.csv"]
    lines = (tmp_path / "entropy.csv").read_text().strip().splitlines()
    assert lines[0] == "t,delta2"
    assert float(lines[1].split(",")[1]) == 0.0


def test_run_entropy_with_oracle_column(tmp_path):
    cfg = config_from_dict(minimal_dict(t_final=0.3, n_max=30))
    manifest = run_experiment("entropy", cfg, tmp_path)
    assert manifest["hilbert"]["n_max"] == 30
    assert manifest["truncation_deficits"][0] < 1e-8
    lines = (tmp_path / "entropy.csv").read_text().strip().splitlines()
    assert lines[0] == "t,delta2,delta_exact"
    last = [float(v) for v in lines[-1].split(",")]
    # second-order estimate tracks the exact entropy at short times
    assert last[1] == pytest.approx(last[2], rel=0.1)


def test_run_lyapunov_schema(tmp_path):
    cfg = config_from_dict(minimal_dict(lyapunov={"t_total": 3.0, "window": 0.5}))
    manifest = run_experiment("lyapunov", cfg, tmp_path)
    assert manifest["outputs"] == ["lyapunov_0.csv"]
    assert len(manifest["lyapunov_estimates"]) == 1
    lines = (tmp_path / "lyapunov_0.csv").read_text().strip().splitlines()
    assert lines[0] == "window_end,running_exponent"
    assert len(lines) == 7  # six windows of 0.5 up to 3.0


def test_run_oracle_compare_schema(tmp_path):
    cfg = config_from_dict(
        {
            "model": {"j": 1.0},
            "pairs": [[0.4, 0.0, 0.2, 0.1], [0.45, 0.0, 0.2, 0.1]],
            "t_final": 0.3,
            "sampling_dt": 0.1,
            "n_max": 30,
        }
    )
    manifest = run_experiment("oracle-compare", cfg, tmp_path)
    hilbert = manifest["hilbert"]
    assert hilbert["dim"] == 31 * 3
    # the Gershgorin interval, to three significant figures, holds the spectrum
    low, high = hilbert["spectral_interval"]
    assert [float(f"{end:.3g}") for end in (low, high)] == [low, high]
    evals = np.linalg.eigvalsh(
        build_hamiltonian_matrix(maser_hamiltonian(cfg.model), HilbertConfig(n_max=30, j=1.0)).toarray()
    )
    assert low <= evals[0] + 5e-3 * abs(low) and high >= evals[-1] - 5e-3 * abs(high)
    # one series to t = 0.3 takes about R t orders, R the interval's half-width
    orders, r_t = hilbert["chebyshev_orders"], 0.5 * (high - low) * 0.3
    assert isinstance(orders, int) and r_t < orders < r_t + 10.0 * r_t ** (1.0 / 3.0) + 40.0
    lines = (tmp_path / "oracle_compare.csv").read_text().strip().splitlines()
    assert lines[0] == "t,field_err,abs_overlap_exact,abs_overlap_mf"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert len(rows) == 4
    # moduli, not squared: both columns start at the same sub-unity value
    assert rows[0][2] == pytest.approx(rows[0][3], abs=1e-8)
    assert 0.9 < rows[0][2] < 1.0
    for row in rows:
        assert row[1] < 0.05


@pytest.mark.parametrize("verb", ["entropy", "oracle-compare"])
def test_oracle_verbs_record_top_fock_population(tmp_path, verb):
    cfg = config_from_dict(
        {"model": {"j": 1.0}, "pairs": [[0.4, 0.0, 0.2, 0.1], [0.45, 0.0, 0.2, 0.1]], "t_final": 0.3, "n_max": 30}
    )
    top = run_experiment(verb, cfg, tmp_path)["hilbert"]["top_fock_population"]
    assert 0.0 <= top < 1e-8
    # rounded to three significant figures, so reruns write the same manifest
    assert float(f"{top:.3g}") == top


def test_the_preset_basis_keeps_its_top_fock_level_far_under_the_guard(tmp_path):
    # n_max = 70 is what the truncation policy asks for the chaotic pair; over
    # the full t_final = 25 run its top level stays 1e3 times under the bound
    hilbert = run_experiment("oracle-compare", config_from_dict({"preset": "fig1"}), tmp_path)["hilbert"]
    assert (hilbert["n_max"], hilbert["dim"]) == (70, 710)
    assert hilbert["top_fock_population"] <= 1e-3 * _TOP_FOCK_BOUND


@pytest.mark.parametrize(
    "verb, states",
    [("trajectory", 2), ("overlap-pair", 2), ("entropy", 1), ("lyapunov", 2), ("oracle-compare", 2)],
)
def test_integrating_verbs_record_rhs_evals_per_trajectory(tmp_path, verb, states):
    raw = {
        "model": {"j": 1.0},
        "pairs": [[0.4, 0.0, 0.2, 0.1], [0.45, 0.0, 0.2, 0.1]],
        "t_final": 0.3,
        "n_max": 30,
        "lyapunov": {"t_total": 1.0, "window": 0.5},
    }
    cfg = config_from_dict(raw)
    counts = run_experiment(verb, cfg, tmp_path)["rhs_evals"]
    assert len(counts) == states and all(isinstance(n, int) and n > 0 for n in counts)
    h = maser_hamiltonian(cfg.model)
    if verb == "lyapunov":
        series = lyapunov_series(h, cfg.states[1], t_total=1.0, window=0.5, cfg=IntegratorConfig())
        assert counts[1] == series.rhs_evals
    else:
        icfg = IntegratorConfig(sample_dt=cfg.sampling_dt)
        assert counts[-1] == integrate(h, cfg.states[states - 1], cfg.t_final, icfg).rhs_evals


def test_run_fig1_writes_pair_files(tmp_path):
    cfg = config_from_dict({"preset": "fig1", "t_final": 1.0})
    manifest = run_experiment("fig1", cfg, tmp_path)
    assert manifest["outputs"] == ["fig1_chaotic.csv", "fig1_regular.csv"]
    assert manifest["projection_directions"] == ["im_x", "im_x", "im_x", "re_x"]
    assert "initial_condition_note" in manifest
    for e in manifest["achieved_energies"]:
        assert e == pytest.approx(8.5, abs=1e-9)
    lines = (tmp_path / "fig1_chaotic.csv").read_text().strip().splitlines()
    assert lines[0] == "t,overlap_sq,d_field,d_spin"
    first = [float(v) for v in lines[1].split(",")]
    assert 0.9 < first[1] < 1.0


def test_fig1_overlap_column_is_the_exponential_of_the_distances(tmp_path, fig1_cfg, fig1_h, fig1_states):
    # one closed form: the printed modulus and the printed distances never
    # disagree, over the full t_final = 25 run of both preset pairs
    run = _Run(fig1_cfg, fig1_h, list(fig1_states), tmp_path, {})
    for i in (0, 2):
        rows = _pair_rows(run, fig1_states[i], fig1_states[i + 1])
        assert len(rows) == 501 and rows[-1][0] == 25.0
        for _, overlap_sq, d_f, d_s in rows:
            assert overlap_sq == math.exp(-(d_f + d_s))


def test_oracle_compare_prints_the_root_of_the_pair_overlap(tmp_path):
    # oracle-compare and overlap-pair print one modulus: abs_overlap_mf^2 is overlap_sq on every row
    columns = {}
    for verb, name, column in (
        ("oracle-compare", "oracle_compare.csv", "abs_overlap_mf"),
        ("overlap-pair", "overlap_pair.csv", "overlap_sq"),
    ):
        run_experiment(verb, config_from_dict({"preset": "fig1", "t_final": 2.0}), tmp_path / verb)
        with open(tmp_path / verb / name, newline="") as fh:
            columns[column] = [float(row[column]) for row in csv.DictReader(fh)]
    assert len(columns["overlap_sq"]) == 41
    squares = [m * m for m in columns["abs_overlap_mf"]]
    assert squares == pytest.approx(columns["overlap_sq"], rel=1e-11, abs=0.0)
