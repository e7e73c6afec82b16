"""End-to-end command line tests, run in process through main()."""

import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohchaos.cli import build_parser, main
from cohchaos.experiments import VERBS, expand_preset


def write_config(tmp_path, **extra):
    data = {"model": {"j": 1.5}, "pairs": [[0.4, 0.0, 0.2, 0.1]], "t_final": 0.5}
    data.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    return path


def test_no_arguments_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_missing_out_is_a_parser_error():
    with pytest.raises(SystemExit) as exc:
        main(["trajectory", "--preset", "fig1"])
    assert exc.value.code == 2


def test_unknown_verb_rejected():
    with pytest.raises(SystemExit):
        main(["spectrum", "--out", "x"])


def test_trajectory_from_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["trajectory", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "wrote trajectory_0.csv, run_manifest.json" in stdout
    assert (out / "trajectory_0.csv").exists()
    assert (out / "run_manifest.json").exists()


def test_preset_with_override(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["overlap-pair", "--preset", "fig1", "--out", str(out), "--override", "t_final=1.0"]
    )
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["t_final"] == 1.0
    assert (out / "overlap_pair.csv").exists()


def test_override_of_one_model_key_keeps_the_preset_model(tmp_path):
    out = tmp_path / "out"
    args = ["trajectory", "--preset", "fig1", "--out", str(out), "--override", "model.j=12.5"]
    assert main(args + ["--override", "t_final=0.1"]) == 0
    model = json.loads((out / "run_manifest.json").read_text())["config"]["model"]
    root2 = math.sqrt(2.0)
    assert model == {"epsilon": 1.0, "omega": 1.0, "g": 0.5 / root2, "g_prime": 0.2 / root2, "j": 12.5}


def test_fig1_verb_defaults_to_its_preset(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["fig1", "--out", str(out), "--override", "t_final=0.5"])
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["energy_target"] == 8.5
    assert (out / "fig1_chaotic.csv").exists()
    assert (out / "fig1_regular.csv").exists()


def test_config_keys_beat_preset_flag(tmp_path):
    cfg = write_config(tmp_path, t_final=0.25)
    out = tmp_path / "out"
    assert main(["trajectory", "--config", str(cfg), "--preset", "fig1", "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    # the file's own keys win over the expanded preset defaults
    assert manifest["config"]["t_final"] == 0.25
    assert manifest["config"]["model"]["j"] == 1.5


def test_bad_config_key_reports_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["trajectory", "--config", str(cfg), "--out", str(out), "--override", "t_fnal=1"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "did you mean 't_final'" in err


@pytest.mark.parametrize(
    "override",
    [
        "model.j=1.3", "model.j=1e308", "rel_tol=0", "model.g=1e400", "lyapunov.window=0", "t_final=Infinity",
        "n_max=0", "n_max=-3",
    ],
)
def test_bad_config_value_reports_error(tmp_path, capsys, override):
    cfg = write_config(tmp_path)
    code = main(["lyapunov", "--config", str(cfg), "--out", str(tmp_path / "out"), "--override", override])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("override", "keys"),
    [
        ("sampling_dt=1e-300", "'t_final' / 'sampling_dt'"),
        ("lyapunov.window=1e-300", "'lyapunov.t_total' / 'lyapunov.window'"),
    ],
)
def test_a_grid_past_the_cap_reports_error(tmp_path, capsys, override, keys):
    # at 1e-300 the sample or window count is far past any array numpy can build
    cfg = write_config(tmp_path, lyapunov={"t_total": 1.0})
    code = main(["lyapunov", "--config", str(cfg), "--out", str(tmp_path / "out"), "--override", override])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: invalid {keys}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("verb", "overrides", "error"),
    [
        ("overlap-pair", ["pairs=[[4, 0, 0.1, 0]]"], "overlap-pair needs 2 initial states, got 1"),
        ("oracle-compare", ["pairs=[[4, 0, 0.1, 0]]"], "oracle-compare needs 2 initial states, got 1"),
        ("fig1", [f"pairs={[[4, 0, 0.1, 0]] * 3}"], "fig1 needs 4 initial states, got 3"),
        ("trajectory", ["energy_target=1e6"], "no im_x shift"),
        ("trajectory", ["energy_target=1e308"], "no im_x shift"),
        ("entropy", ["n_max=10000000"], "dimension 100000010 exceeds cap"),
        # a spin magnitude that rounds to 2j = 0 describes no spin
        ("trajectory", ["model.j=1e-17"], "invalid model: spin magnitude must be positive half-integer, got 1e-17"),
        (
            "oracle-compare", ["model.j=1e-300", "model.g_prime=-1e300"],
            "invalid model: spin magnitude must be positive half-integer, got 1e-300",
        ),
        # g / sqrt(j) overflows at j = 1/2; at j = 9/2 it does not, but the energy does
        ("trajectory", ["model.g=1.7e308", "model.j=0.5"], "invalid model: gamma must be finite"),
        ("trajectory", ["model.g=1.7e308"], "'pairs[0]' has classical energy -inf, which is not finite"),
    ],
    ids=[
        "overlap-pair", "oracle-compare", "fig1", "projection", "projection-overflow", "basis-cap",
        "spin-rounds-to-zero", "spin-rounds-to-zero-overflow", "coupling-overflow", "energy-overflow",
    ],
)
def test_a_run_failing_before_its_verb_leaves_no_out_directory(tmp_path, capsys, verb, overrides, error):
    # the model, the state count, the energies, the projection and the basis
    # size are all settled before --out is created
    out = tmp_path / "out"
    args = [verb, "--preset", "fig1", "--out", str(out), "--override", "t_final=0.1"]
    assert main(args + [f"--override={item}" for item in overrides]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}") and err.count("\n") == 1
    assert not out.exists()


def test_long_coarse_steps_converge(tmp_path):
    # a chunk's R tau run from 234 to 4682: the columns past about 3000 once
    # began Miller's recurrence at the largest one's order, overflowed and
    # made the series fail to converge
    out = tmp_path / "out"
    args = ["oracle-compare", "--preset", "fig1", "--out", str(out), "--override", "t_final=100"]
    assert main(args + ["--override", "sampling_dt=5"]) == 0
    assert len((out / "oracle_compare.csv").read_text().splitlines()) == 22


def test_a_raised_n_max_is_recorded_in_the_manifest_without_a_warning(tmp_path, capsys):
    # the chaotic preset pair needs n_max = 70; the truncation policy raises a configured 24 to it
    out = tmp_path / "out"
    args = ["oracle-compare", "--preset", "fig1", "--out", str(out), "--override", "t_final=0.1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*args, "--override", "n_max=24"]) == 0
    assert capsys.readouterr().err == ""
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["n_max"] == 24
    assert (manifest["hilbert"]["n_max"], manifest["hilbert"]["n_max_raised_from"]) == (70, 24)


def test_a_basis_too_small_for_the_evolution_stops_the_run_and_leaves_no_files(tmp_path, capsys):
    # the policy sizes the regular preset pair's basis from its initial labels
    # alone (n_max = 48); by t = 4.85 its top Fock level holds more than 1e-10,
    # in the second chunk of times, after the first was consumed
    pairs = json.dumps(expand_preset("fig1")["pairs"][2:])
    out = tmp_path / "out"
    args = ["oracle-compare", "--preset", "fig1", "--out", str(out), "--override", "n_max=null"]
    assert main([*args, "--override", f"pairs={pairs}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: top Fock population ")
    assert err.endswith(" of state 1 at t = 4.85 exceeds 1e-10 at n_max = 48; raise n_max\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("blocked", ["out", "out/run_manifest.json"])
def test_unwritable_output_reports_error(tmp_path, capsys, blocked):
    # a file where the output directory belongs, or a directory where an output file belongs
    out = tmp_path / "out"
    if blocked == "out":
        out.write_text("not a directory")
    else:
        (tmp_path / blocked).mkdir(parents=True)
    code = main(["fig1", "--out", str(out), "--override", "t_final=0.1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ") and str(tmp_path / blocked) in err


def test_needs_config_or_preset(tmp_path, capsys):
    code = main(["trajectory", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "need --config or --preset" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["trajectory", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


def test_a_config_file_that_is_not_utf8_reports_error(tmp_path, capsys):
    # Latin-1 text, whose bytes 0xe9 and 0xe0 are not valid UTF-8
    cfg = tmp_path / "run.json"
    cfg.write_bytes('{"t_final": 1.0, "note": "d\u00e9j\u00e0 vu"}'.encode("latin-1"))
    out = tmp_path / "out"
    assert main(["trajectory", "--config", str(cfg), "--preset", "fig1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config {cfg}: 'utf-8' codec can't decode")
    assert not out.exists()


def test_parser_metadata():
    parser = build_parser()
    assert parser.prog == "cohchaos"
    help_text = parser.format_help()
    for verb in ("trajectory", "overlap-pair", "entropy", "lyapunov", "oracle-compare", "fig1"):
        assert verb in help_text


# Override values as a fuzz of the command line draws them: ordinary ones,
# short enough for a test (t_final <= 0.5, lyapunov.t_total <= 2), with up
# to two keys set to an extreme, subnormal or overflowing float.
EXTREME = st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585e-313, 1e-300, 1e-17, 1e-8, 1e300, -1e300, 1.7e308, -1.7e308])
ORDINARY = {
    **{f"model.{key}": st.floats(-2.0, 2.0) for key in ("epsilon", "omega", "g", "g_prime")},
    "model.j": st.integers(1, 12).map(lambda two_j: two_j / 2),
    "n_max": st.one_of(st.none(), st.integers(1, 40)),
    "rel_tol": st.floats(1e-12, 1e-4),
    "abs_tol": st.floats(1e-12, 1e-4),
    "sampling_dt": st.floats(0.01, 0.5),
    "energy_target": st.one_of(st.none(), st.floats(-5.0, 20.0)),
}


@st.composite
def overrides(draw) -> dict:
    window = draw(st.sampled_from([0.25, 0.5, 1.0]))
    values = {
        "t_final": draw(st.floats(0.05, 0.5)),
        "lyapunov.window": window,
        "lyapunov.t_total": window * draw(st.integers(1, int(2 / window))),
    }
    values.update(draw(st.fixed_dictionaries({}, optional=ORDINARY)))
    for key in draw(st.lists(st.sampled_from(sorted(values.keys() | ORDINARY.keys())), max_size=2, unique=True)):
        values[key] = draw(EXTREME)
    return values


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(VERBS)), overrides())
def test_a_run_writes_all_its_outputs_or_one_error_line_and_no_file(verb, overrides):
    # a RuntimeWarning, which tier-1 turns into an error, or any other
    # exception escapes main as a traceback and fails this test
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [verb, "--preset", "fig1", "--out", str(out)]
        argv += [f"--override={key}={json.dumps(value)}" for key, value in overrides.items()]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        if code == 0:
            manifest = json.loads((out / "run_manifest.json").read_text())
            assert sorted(path.name for path in out.iterdir()) == sorted([*manifest["outputs"], "run_manifest.json"])
        else:
            lines = err.getvalue().splitlines()
            assert code == 2 and len(lines) == 1 and lines[0].startswith("error: ")
            assert not out.exists() or not any(out.iterdir())
