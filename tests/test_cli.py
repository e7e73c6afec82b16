"""End-to-end command line tests, run in process through main()."""

import json
import math

import pytest

from cohchaos.cli import build_parser, main
from cohchaos.experiments import expand_preset


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
    ("verb", "override", "error"),
    [
        ("overlap-pair", "pairs=[[4, 0, 0.1, 0]]", "overlap-pair needs 2 initial states, got 1"),
        ("oracle-compare", "pairs=[[4, 0, 0.1, 0]]", "oracle-compare needs 2 initial states, got 1"),
        ("fig1", f"pairs={[[4, 0, 0.1, 0]] * 3}", "fig1 needs 4 initial states, got 3"),
        ("trajectory", "energy_target=1e6", "no im_x shift"),
        ("trajectory", "energy_target=1e308", "no im_x shift"),
        ("entropy", "n_max=10000000", "dimension 100000010 exceeds cap"),
    ],
    ids=["overlap-pair", "oracle-compare", "fig1", "projection", "projection-overflow", "basis-cap"],
)
def test_a_run_failing_before_its_verb_leaves_no_out_directory(tmp_path, capsys, verb, override, error):
    # the state count, the projection and the basis size are all settled before --out is created
    out = tmp_path / "out"
    assert main([verb, "--preset", "fig1", "--out", str(out), "--override", override]) == 2
    assert capsys.readouterr().err.startswith(f"error: {error}")
    assert not out.exists()


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
