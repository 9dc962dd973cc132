"""Command-line interface: argument wiring, artifacts, exit codes."""

from dataclasses import fields
import json

import pytest

from shiftagg.cli import main
from shiftagg.harness import ExperimentConfig

TINY_RUN = [
    "run",
    "--dataset", "sinc",
    "--n", "40",
    "--m", "40",
    "--eval-size", "40",
    "--l", "2",
    "--seeds", "0",
]


def test_run_writes_artifacts_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(TINY_RUN + ["--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "iwa" in captured.out
    assert captured.err == ""
    assert (out / "results.csv").exists()
    assert (out / "results.json").exists()
    assert (out / "plots" / "risk_by_method.svg").exists()


def test_flags_land_in_the_recorded_config(tmp_path):
    out = tmp_path / "out"
    assert main(TINY_RUN + ["--sinc-interpret-std", "false", "--out", str(out)]) == 0
    payload = json.loads((out / "results.json").read_text())
    assert payload["config"]["sinc_interpret_std"] is False
    assert payload["config"]["n"] == 40
    assert payload["config"]["seeds"] == [0]


def test_config_file_with_flag_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dataset = sinc\nn = 40\nm = 40\neval_size = 40\nl = 2\nseeds = 0\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--n", "50", "--out", str(out)]) == 0
    payload = json.loads((out / "results.json").read_text())
    assert payload["config"]["n"] == 50
    assert payload["config"]["m"] == 40


def test_config_error_exits_one(capsys):
    assert main(["run", "--rcond", "1.5"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_repeated_seeds_exit_one(tmp_path, capsys):
    args = ["run", "--n", "40", "--m", "40", "--eval-size", "40", "--l", "2",
            "--seeds", "0,0", "--methods", "iwa", "--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert "seeds:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_file_exits_one(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "not found" in capsys.readouterr().err


def test_repeated_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dataset = sinc\nn = 40\nm = 40\n# later\nn = 50\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: line 5: n: repeated config key\n"
    assert not (tmp_path / "out").exists()


def test_sensitivity_subcommand(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "sensitivity",
            "--dataset", "moons",
            "--beta", "learned",
            "--n", "60",
            "--m", "60",
            "--eval-size", "40",
            "--l", "3",
            "--seeds", "0",
            "--methods", "iwa,tmv",
            "--counts", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "results.json").read_text())
    assert payload["kind"] == "sensitivity"
    assert {row["count"] for row in payload["rows"]} == {0, 2}
    assert (out / "plots" / "sensitivity.svg").exists()


def test_correlate_subcommand(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "correlate",
            "--dataset", "moons",
            "--beta", "learned",
            "--n", "60",
            "--m", "60",
            "--eval-size", "40",
            "--l", "3",
            "--seeds", "0,1",
            "--methods", "iwa",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "results.json").read_text())
    assert payload["kind"] == "correlation"
    assert len(payload["rows"]) == 2
    assert (out / "plots" / "correlation.svg").exists()


def test_rate_check_subcommand(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "rate-check",
            "--dataset", "sinc",
            "--n", "80",
            "--l", "2",
            "--seeds", "0",
            "--sizes", "50,120",
            "--oracle-draws", "1500",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "results.json").read_text())
    assert payload["kind"] == "rate"
    assert {row["size"] for row in payload["rows"]} == {50, 120}
    assert payload["config"]["sizes"] == [50, 120]
    assert payload["config"]["oracle_draws"] == 1500
    assert (out / "plots" / "rate.svg").exists()


def test_rate_check_with_zero_oracle_draws_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["rate-check", "--n", "80", "--l", "2", "--seeds", "0", "--sizes", "50,120",
            "--oracle-draws", "0", "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: oracle_draws: ")
    assert not out.exists()


def _write_csv_instance(tmp_path):
    (tmp_path / "source.csv").write_text(
        "x0,x1,y0,y1\n0,0,1,0\n0,1,0,1\n0,2,1,0\n"
    )
    (tmp_path / "target.csv").write_text("x0,x1\n1,0\n1,1\n")
    (tmp_path / "eval.csv").write_text("x0,x1,y0,y1\n1,2,1,0\n1,3,0,1\n")


def _write_model_csv(path, *, with_eval_rows):
    rows = [
        "split,index,y0,y1",
        "source,0,0.9,0.1",
        "source,1,0.2,0.8",
        "source,2,0.6,0.4",
        "target,0,0.7,0.3",
        "target,1,0.4,0.6",
    ]
    if with_eval_rows:
        rows += ["target,2,0.8,0.2", "target,3,0.3,0.7"]
    path.write_text("\n".join(rows) + "\n")


def _csv_args(tmp_path, model_paths):
    return [
        "run",
        "--dataset", "csv",
        "--beta", "learned",
        "--source-csv", str(tmp_path / "source.csv"),
        "--target-csv", str(tmp_path / "target.csv"),
        "--eval-csv", str(tmp_path / "eval.csv"),
        "--seeds", "0",
        "--methods", "iwa,tmv",
        "--model-csvs", ",".join(str(path) for path in model_paths),
    ]


def test_precomputed_models_over_csv_instance(tmp_path):
    _write_csv_instance(tmp_path)
    models = [tmp_path / "model_a.csv", tmp_path / "model_b.csv"]
    for path in models:
        _write_model_csv(path, with_eval_rows=True)
    out = tmp_path / "out"
    assert main(_csv_args(tmp_path, models) + ["--out", str(out)]) == 0
    payload = json.loads((out / "results.json").read_text())
    assert all(row.get("error") in (None, "") for row in payload["rows"])


def test_model_csvs_of_different_widths_fail_loudly(tmp_path, capsys):
    _write_csv_instance(tmp_path)
    wide, narrow = tmp_path / "model_a.csv", tmp_path / "model_b.csv"
    _write_model_csv(wide, with_eval_rows=True)
    narrow.write_text("split,index,y0\nsource,0,0.5\n")
    out = tmp_path / "out"
    assert main(_csv_args(tmp_path, [wide, narrow]) + ["--out", str(out)]) == 2
    rows = json.loads((out / "results.json").read_text())["rows"]
    assert rows and all(row["error"].startswith("DimensionError: ") for row in rows)
    assert "output_dim" in capsys.readouterr().err


def test_partial_failures_exit_two(tmp_path, capsys):
    _write_csv_instance(tmp_path)
    # The prediction tables lack the evaluation rows, so every method fails.
    model = tmp_path / "model_a.csv"
    _write_model_csv(model, with_eval_rows=False)
    assert main(_csv_args(tmp_path, [model])) == 2
    err = capsys.readouterr().err
    assert "failed" in err
    assert "no stored prediction" in err


# One value per config field, written in the config-file syntax. The base
# config below keeps every run tiny; each value differs from it and, except
# selection_loss (zero_one needs classification outputs), from the default.
FIELD_VALUES = {
    "dataset": "moons",
    "n": "41",
    "m": "42",
    "eval_size": "43",
    "l": "3",
    "beta": "analytic",
    "beta_bound": "20",
    "rcond": "0.05",
    "oracle_rcond": "1e-6",
    "seeds": "1, 2",
    "methods": "iwa, sor",
    "sinc_interpret_std": "false",
    "sinc_noise_std": "0.5",
    "moons_noise": "0.2",
    "moons_rotation_deg": "20",
    "moons_translation_x": "0.1",
    "moons_translation_y": "0.4",
    "ridge": "1e-3",
    "classifier_epochs": "4",
    "classifier_lr": "0.25",
    "base_weight_decay": "0.25",
    "domain_epochs": "4",
    "domain_lr": "0.25",
    "selection_loss": "squared",
    "source_csv": "source.csv",
    "target_csv": "target.csv",
    "eval_csv": "eval.csv",
    "model_csvs": "a.csv, b.csv",
    "counts": "5, 7",
    "sizes": "60, 90",
    "oracle_draws": "1500",
}

BASE_CONFIG = (
    "beta = learned\nn = 40\nm = 40\neval_size = 40\nl = 2\nseeds = 0\n"
    "classifier_epochs = 3\ndomain_epochs = 3\n"
)


def test_every_config_field_has_a_value():
    assert set(FIELD_VALUES) == {field.name for field in fields(ExperimentConfig)}


@pytest.mark.parametrize("key", sorted(FIELD_VALUES))
def test_flag_and_config_line_record_the_same_config(tmp_path, key):
    value = FIELD_VALUES[key]
    base = tmp_path / "base.cfg"
    base.write_text(BASE_CONFIG)
    with_line = tmp_path / "with_line.cfg"
    # A key may appear once in a file, so the line replaces the base's own.
    kept = [line for line in BASE_CONFIG.splitlines() if line.split(" = ")[0] != key]
    with_line.write_text("\n".join([*kept, f"{key} = {value}"]) + "\n")
    flag = "--" + key.replace("_", "-")
    out = tmp_path / "out"
    assert main(["run", "--config", str(base), flag, value, "--out", str(out)]) == 0
    by_flag = json.loads((out / "results.json").read_text())["config"]
    assert main(["run", "--config", str(with_line), "--out", str(out)]) == 0
    by_file = json.loads((out / "results.json").read_text())["config"]
    assert by_flag == by_file


@pytest.mark.parametrize(
    "args",
    [["--sinc-widths", "variance"], ["--model-csv", "a.csv", "--model-csv", "b.csv"]],
)
def test_old_flag_spellings_are_rejected(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(TINY_RUN + args)
    assert exc.value.code != 0
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [(["--model-csv", "a.csv"], "unrecognized arguments"), (["--n"], "expected one argument")],
)
def test_usage_errors_exit_one(args, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", *args])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert message in err


FLOAT_FIELDS = [field.name for field in fields(ExperimentConfig) if field.type is float]


def test_float_fields_are_listed():
    assert {"beta_bound", "rcond", "ridge", "moons_rotation_deg"} <= set(FLOAT_FIELDS)


@pytest.mark.parametrize("key", FLOAT_FIELDS)
def test_nan_float_value_is_a_config_error(key, capsys):
    for value in ("nan", "inf"):
        assert main(TINY_RUN + ["--" + key.replace("_", "-"), value]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")


@pytest.mark.parametrize("key, value", [("n", "many"), ("dataset", "bogus"), ("seeds", "0,x")])
def test_malformed_flag_value_is_a_config_error(tmp_path, capsys, key, value):
    flag = "--" + key.replace("_", "-")
    assert main(["run", flag, value]) == 1
    by_flag = capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main(["run", "--config", str(cfg)]) == 1
    by_file = capsys.readouterr().err
    assert by_flag.startswith(f"error: {key}: ")
    assert by_flag == by_file


def _artifacts(out):
    return {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_output_does_not_depend_on_out(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second" / "nested"
    assert main(TINY_RUN + ["--out", str(first)]) == 0
    assert main(TINY_RUN + ["--out", str(second)]) == 0
    produced = _artifacts(first)
    assert {"results.csv", "results.json"} <= set(produced)
    assert any(name.startswith("plots/") for name in produced)
    assert produced == _artifacts(second)
