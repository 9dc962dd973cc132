"""Command-line interface: argument wiring, artifacts, exit codes."""

from dataclasses import fields
import hashlib
import json
import os
import subprocess
import sys

import pytest

import shiftagg
from shiftagg import harness
from shiftagg.cli import main
from shiftagg.harness import ExperimentConfig

TINY_RUN = [
    "run",
    "--dataset", "sinc",
    "--n", "40",
    "--m", "40",
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
    cfg.write_text("dataset = sinc\nn = 40\nm = 40\nl = 2\nseeds = 0\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--n", "50", "--out", str(out)]) == 0
    payload = json.loads((out / "results.json").read_text())
    assert payload["config"]["n"] == 50
    assert payload["config"]["m"] == 40


def test_config_error_exits_one(capsys):
    assert main(["run", "--rcond", "1.5"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_out_that_cannot_be_a_directory_exits_one(tmp_path, capsys, out):
    (tmp_path / "afile").write_text("not a directory\n")
    assert main(TINY_RUN + ["--out", str(tmp_path / out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(tmp_path / out) in captured.err
    assert (tmp_path / "afile").read_text() == "not a directory\n"


def test_repeated_seeds_exit_one(tmp_path, capsys):
    args = ["run", "--n", "40", "--m", "40", "--l", "2",
            "--seeds", "0,0", "--methods", "iwa", "--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert "seeds:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "correlate"])
def test_repeated_methods_exit_one(tmp_path, capsys, command):
    args = [command, "--dataset", "moons", "--n", "40", "--m", "40",
            "--l", "2", "--seeds", "0,1", "--methods", "iwa,iwa",
            "--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: methods: each method may appear once")
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
            "--n", "60",
            "--m", "60",
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
            "--n", "60",
            "--m", "60",
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
    assert main(_csv_args(tmp_path, [wide, narrow]) + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {narrow}: a table of width 1 for labels of width 2\n")
    assert not out.exists()


def test_key_beyond_exact_float64_integers_exits_one(tmp_path, capsys):
    # A split file is read as float64, so its index 2^53 + 1 would arrive as
    # 2^53 and read another table row; the run refuses that file instead.
    big = 2**53
    (tmp_path / "source.csv").write_text(f"x0,x1,y0\n0,0,1\n0,{big + 1},0\n0,1,1\n")
    (tmp_path / "target.csv").write_text("x0,x1\n1,0\n1,1\n")
    (tmp_path / "eval.csv").write_text("x0,x1,y0\n1,2,1\n1,3,0\n")
    rows = ["split,index,y0", "source,0,0.9", "source,1,0.8", f"source,{big},1000.0",
            f"source,{big + 1},0.0", *(f"target,{index},0.5" for index in range(4))]
    models = [tmp_path / "model_a.csv", tmp_path / "model_b.csv"]
    for path in models:
        path.write_text("\n".join(rows) + "\n")
    args = _csv_args(tmp_path, models)
    args[args.index("iwa,tmv")] = "sor"
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'source.csv'}: a key at or beyond 2^53 in magnitude, which"
        f" float64 cannot hold exactly\n")
    assert not out.exists()


@pytest.mark.parametrize("fault", [harness.ConfigError("bad setting"), OSError("unreadable")],
                         ids=["config", "os"])
@pytest.mark.parametrize("command", ["run", "sensitivity", "correlate"])
def test_input_fault_in_a_method_exits_one(tmp_path, monkeypatch, capsys, command, fault):
    # A bad setting or input file stops the run, wherever it surfaces.
    def raises(*args, **kwargs):
        raise fault

    monkeypatch.setattr(harness.aggregation, "sor", raises)
    args = [command, "--dataset", "moons", "--n", "40", "--m", "40", "--l", "2",
            "--seeds", "0", "--methods", "iwa,sor", "--out", str(tmp_path / "out")]
    assert main(args + (["--counts", "1"] if command == "sensitivity" else [])) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {fault}\n"
    assert not (tmp_path / "out").exists()


def _ratio_fit_fails(*args, **kwargs):
    raise harness.NumericalError("domain classifier did not converge")


def test_partial_failures_exit_two(tmp_path, monkeypatch, capsys):
    _write_csv_instance(tmp_path)
    # The density ratio cannot be fitted, so every method fails.
    monkeypatch.setattr(harness, "fit_domain_classifier", _ratio_fit_fails)
    model = tmp_path / "model_a.csv"
    _write_model_csv(model, with_eval_rows=True)
    assert main(_csv_args(tmp_path, [model])) == 2
    err = capsys.readouterr().err
    assert "failed" in err
    assert "NumericalError: domain classifier did not converge" in err


def test_failed_classification_seed_lists_the_default_methods(tmp_path, monkeypatch, capsys):
    # A seed that fails to prepare lists the methods a successful run on the
    # same classification instance lists, the vote baselines included.
    _write_csv_instance(tmp_path)
    methods = {}
    model = tmp_path / "model_a.csv"
    _write_model_csv(model, with_eval_rows=True)
    for code in (0, 2):
        if code == 2:
            monkeypatch.setattr(harness, "fit_domain_classifier", _ratio_fit_fails)
        args = _csv_args(tmp_path, [model])
        del args[args.index("--methods"):args.index("--methods") + 2]
        out = tmp_path / f"out-{code}"
        assert main(args + ["--out", str(out)]) == code
        rows = json.loads((out / "results.json").read_text())["rows"]
        assert all((row.get("error") is None) == (code == 0) for row in rows)
        methods[code] = [row["method"] for row in rows]
    assert "NumericalError: domain classifier did not converge" in capsys.readouterr().err
    assert methods[2] == methods[0]
    assert {"tmv", "tmr", "tcr"} <= set(methods[2])


# sha256 of results.csv and of the rows and aggregates of results.json (the
# recorded config holds temporary paths) for the two CSV-instance runs below:
# two prediction tables, and the softmax ladder fitted on the split files.
CSV_RUN_DIGESTS = {
    "tables": (
        "a3d35b51ce78d0ddd6345a567739bc4ef92d00b155318333f42b901c6bfce150",
        "349994c730c20686d5a0b5513115d49fc1042ea8abb26aa40cfc83a8ab4cac57",
    ),
    "ladder": (
        "b2149f49acb88418d3df053c3db4e340159386ae5791473cfa09cc0881dee81d",
        "f564a633561a5b466783952f36a00905c9055d571a4b5e9db9ee2cf904918a5a",
    ),
}


@pytest.mark.parametrize("case", sorted(CSV_RUN_DIGESTS))
def test_csv_run_bytes_pinned(tmp_path, case):
    _write_csv_instance(tmp_path)
    models = [tmp_path / "model_a.csv", tmp_path / "model_b.csv"]
    for path in models:
        _write_model_csv(path, with_eval_rows=True)
    args = _csv_args(tmp_path, models)
    if case == "ladder":  # drop --model-csvs: the softmax ladder is fitted instead
        args = args[:-2] + ["--l", "3"]
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 0
    payload = json.loads((out / "results.json").read_text())
    body = json.dumps({key: payload[key] for key in ("rows", "aggregates")}, sort_keys=True)
    digests = (
        hashlib.sha256((out / "results.csv").read_bytes()).hexdigest(),
        hashlib.sha256(body.encode()).hexdigest(),
    )
    assert digests == CSV_RUN_DIGESTS[case]


# One tiny call of each subcommand, and the sha256 of its stdout, results.csv
# and results.json: every byte each study kind reports is pinned.
STUDY_REPORTS = {
    "run": (
        ["--dataset", "sinc", "--n", "40", "--m", "40", "--l", "3", "--seeds", "0,1"],
        "150f8379711f7ab21653dbef6a30633c16df212cd45e972ff46adf2e3c758dd3",
        "172415c1c0bc12e564b9eb5a3a0f70eacc3f040ac4fbb6653f7b5f5f60c686c1",
        "901d8d771a6e3fcc3e911882cb35eae682761540b210f2cb0d8a40690d53fe89",
    ),
    "sensitivity": (
        ["--dataset", "moons", "--n", "60", "--m", "60", "--l", "3", "--seeds", "0",
         "--methods", "iwa,tmv,iwv", "--counts", "2"],
        "b46ab12d6acc4e2f29a53635f19c3ca9b5e59ec9f86e7a7eaa8d1dec5f0de5b0",
        "951328bc3d6486b233c01963b3d79e166bca96a5600f74986b95df8cd160f946",
        "7d6070b72625caf52610f8ea63bec8f2e5e4a8965b4c75b94600750e93f24300",
    ),
    "correlate": (
        ["--dataset", "moons", "--n", "60", "--m", "60", "--l", "3", "--seeds", "0,1"],
        "65679b758ec27495f5ac46059e895fbe0658ad34a67ffc57caefa199d438e8e0",
        "a3f748165bee58c15048068165685d1bebe09d2be28e76bd6465cc923221839d",
        "e2391e36948a781abe49b3e297ce1e19643ca04c0396d375b8aa4125788cfdf4",
    ),
    "rate-check": (
        ["--n", "80", "--l", "2", "--seeds", "0,1", "--sizes", "50,120",
         "--oracle-draws", "1500"],
        "416842833a9875b697a8d048cff0423c0dd1ffaddc92b511970ef19d656ef3c4",
        "a99c3d591d7eaaea991993d0ff7ce6758827407ef9dfebb9255b2e0363dc9d37",
        "e4b92a02bc44d4765a108c011066033eb4f170f67209e633c0731d1f8b29892d",
    ),
}


@pytest.mark.parametrize("command", sorted(STUDY_REPORTS))
def test_study_reports_pinned(tmp_path, capsys, command):
    args, *expected = STUDY_REPORTS[command]
    out = tmp_path / "out"
    assert main([command, *args, "--out", str(out)]) == 0
    reports = (
        capsys.readouterr().out.encode(),
        (out / "results.csv").read_bytes(),
        (out / "results.json").read_bytes(),
    )
    assert [hashlib.sha256(report).hexdigest() for report in reports] == expected


@pytest.mark.parametrize("command", sorted(STUDY_REPORTS))
def test_study_call_leaves_numpy_ma_out(tmp_path, command):
    # np.median and np.percentile import numpy.ma on first use, about 5 ms of
    # every CLI call; the studies take their quartiles from metrics.quartiles.
    args = [command, *STUDY_REPORTS[command][0], "--out", str(tmp_path / "out")]
    src = os.path.dirname(os.path.dirname(os.path.abspath(shiftagg.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys; from shiftagg.cli import main; "
        f"status = main({args!r}); print(status, 'numpy.ma' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("source", ["ladder", "tables"])
def test_correlate_with_one_model_exits_one_before_any_seed(tmp_path, monkeypatch, capsys,
                                                           source):
    prepared = []
    monkeypatch.setattr(harness, "_prepare", lambda *args, **kwargs: prepared.append(args))
    if source == "ladder":
        args = ["--dataset", "moons", "--l", "1", "--seeds", "0,1"]
    else:
        _write_csv_instance(tmp_path)
        _write_model_csv(tmp_path / "model_a.csv", with_eval_rows=True)
        args = _csv_args(tmp_path, [tmp_path / "model_a.csv"])[1:]
        args[args.index("--methods") + 1] = "iwa"
    assert main(["correlate", *args, "--out", str(tmp_path / "out")]) == 1
    key = "l" if source == "ladder" else "model_csvs"
    assert capsys.readouterr().err == (
        f"error: {key}: correlation needs at least two models, got 1\n")
    assert prepared == []
    assert not (tmp_path / "out").exists()


def _csv_seeds(command):
    """Two seeds where the study takes them on a CSV instance; the others refuse a second."""
    return "0,1" if command == "sensitivity" else "0"


# A study, or `run --methods iwa,tmv`, on one-column labels: the command,
# the dataset and the start of the refusal.
REGRESSION_REFUSALS = {
    "sensitivity": ("sensitivity", "csv", "dataset: the sensitivity study needs"),
    "correlate": ("correlate", "csv", "dataset: the correlation study needs"),
    "run": ("run", "csv", "methods: ['tmv'] need"),
    "sinc-sensitivity": ("sensitivity", "sinc", "dataset: the sensitivity study needs"),
    "sinc-correlate": ("correlate", "sinc", "dataset: the correlation study needs"),
    "sinc-run": ("run", "sinc", "methods: ['tmv'] need"),
}


@pytest.mark.parametrize("case", list(REGRESSION_REFUSALS))
def test_classification_study_on_regression_csv_exits_one(tmp_path, monkeypatch, capsys, case):
    # Refused before the first seed: no context is prepared.
    command, dataset, refusal = REGRESSION_REFUSALS[case]
    prepared = []
    monkeypatch.setattr(harness, "_prepare", lambda *args, **kwargs: prepared.append(args))
    out = tmp_path / "out"
    args = [command, "--dataset", dataset, "--seeds", _csv_seeds(command), "--out", str(out)]
    if dataset == "csv":
        (tmp_path / "source.csv").write_text("x0,y0\n0,0.5\n1,0.25\n2,0.75\n")
        (tmp_path / "target.csv").write_text("x0\n1.5\n2.5\n")
        (tmp_path / "eval.csv").write_text("x0,y0\n1,0.5\n3,0.25\n")
        for split in ("source", "target", "eval"):
            args += [f"--{split}-csv", str(tmp_path / f"{split}.csv")]
    if command == "run":
        args += ["--methods", "iwa,tmv"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {refusal} classification outputs")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert prepared == []
    assert not out.exists()


def _study_args(tmp_path, command, seeds, model_paths):
    methods = {"run": "iwa,tmv", "correlate": "iwa,sor", "sensitivity": "iwa,tmv"}[command]
    args = [command, *_csv_args(tmp_path, model_paths)[1:], "--counts", "2"]
    args[args.index("--seeds") + 1] = seeds
    args[args.index("--methods") + 1] = methods
    return args


# Input files whose content is at fault: the file, how its text is spoiled,
# and the line the error cites (None where the line is not known).
CONTENT_FAULTS = {
    "malformed": ("source.csv", lambda text: text.replace("0,1,0,1", "0,oops,0,1"), 3),
    "nonfinite": ("source.csv", lambda text: text.replace("0,1,0,1", "0,1,nan,1"), 3),
    "nonfinite-model": ("model_a.csv", lambda text: text.replace("1,0.2,", "1,inf,"), 3),
    "binary": ("source.csv", lambda text: text.encode("utf-16"), None),  # a UTF-16 export
    "binary-config": ("run.cfg", lambda text: "# r\xe9sum\xe9\nn = 3\n".encode("latin-1"), None),
    "narrow-target": ("target.csv", lambda text: "x0\n1\n1\n", None),  # x widths 2, 1, 2
}


# A file whose content is at fault, or a directory given where the flag wants a file.
@pytest.mark.parametrize("command, fault", [
    pytest.param(command, fault, id=command if fault == "malformed" else
                 f"{command}-{fault.lstrip('-')}")
    for fault in (*CONTENT_FAULTS, "--config", "--source-csv", "--model-csvs")
    for command in ("run", "correlate", "sensitivity")
])
def test_bad_csv_file_under_two_seeds_exits_one(tmp_path, capsys, command, fault):
    _write_csv_instance(tmp_path)
    models = [tmp_path / "model_a.csv", tmp_path / "model_b.csv"]
    for path in models:
        _write_model_csv(path, with_eval_rows=True)
    args = _study_args(tmp_path, command, _csv_seeds(command), models)
    if fault in CONTENT_FAULTS:
        name, spoil, line = CONTENT_FAULTS[fault]
        path = tmp_path / name
        spoiled = spoil(path.read_text() if path.exists() else "")
        path.write_bytes(spoiled if isinstance(spoiled, bytes) else spoiled.encode())
        if name.endswith(".cfg"):
            args += ["--config", str(path)]
        expected = (str(path),) if line is None else (str(path), f"line {line}")
    else:
        folder = tmp_path / "folder"
        folder.mkdir()
        # the folder takes the first model table's place: correlate needs two models
        args += [fault, f"{folder},{models[1]}" if fault == "--model-csvs" else str(folder)]
        expected = (str(folder),)
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(part in err for part in expected)
    assert not out.exists()


# Prediction tables that do not fit the instance: how the second table is
# spoiled, and what the error names beside its path.
TABLE_FAULTS = {
    "width": (lambda text: "".join(",".join(line.split(",")[:3]) + "\n"
                                   for line in text.splitlines()),
              "a table of width 1 for labels of width 2"),
    "eval-rows": (lambda text: text.replace("target,2,0.8,0.2\n", ""),
                  "no stored prediction for split 'target', index 2"),
    "source-row": (lambda text: text.replace("source,1,0.2,0.8\n", ""),
                   "no stored prediction for split 'source', index 1"),
}


@pytest.mark.parametrize("fault", sorted(TABLE_FAULTS))
@pytest.mark.parametrize("command", ["run", "sensitivity", "correlate"])
def test_table_that_does_not_fit_the_instance_exits_one(tmp_path, monkeypatch, capsys, command,
                                                       fault):
    # Checked before any prediction stack is built, like every other malformed input file.
    _write_csv_instance(tmp_path)
    models = [tmp_path / "model_a.csv", tmp_path / "model_b.csv"]
    for path in models:
        _write_model_csv(path, with_eval_rows=True)
    spoil, names = TABLE_FAULTS[fault]
    models[1].write_text(spoil(models[1].read_text()))
    stacked = []
    monkeypatch.setattr(harness, "stack_predictions", lambda *args: stacked.append(args))
    out = tmp_path / "out"
    args = _study_args(tmp_path, command, _csv_seeds(command), models)
    assert main(args + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {models[1]}: {names}\n"
    assert stacked == []
    assert not out.exists()


def test_instance_without_key_columns_exits_one(tmp_path, capsys):
    # A table is read by (split code, index) keys; three x columns are not keys.
    (tmp_path / "source.csv").write_text("x0,x1,x2,y0,y1\n0,0,0,1,0\n0,1,0,0,1\n0,2,0,1,0\n")
    (tmp_path / "target.csv").write_text("x0,x1,x2\n1,0,0\n1,1,0\n")
    (tmp_path / "eval.csv").write_text("x0,x1,x2,y0,y1\n1,2,0,1,0\n1,3,0,0,1\n")
    model = tmp_path / "model_a.csv"
    _write_model_csv(model, with_eval_rows=True)
    out = tmp_path / "out"
    assert main(_csv_args(tmp_path, [model]) + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {model}: xs of (split_code, index) key rows has 3 columns, expected 2\n")
    assert not out.exists()


@pytest.mark.parametrize("command, seeds", [("run", "0"), ("correlate", "0"),
                                            ("sensitivity", "0,1,2")])
def test_each_csv_file_is_opened_once_per_run(tmp_path, monkeypatch, command, seeds):
    _write_csv_instance(tmp_path)
    models = [tmp_path / "model_a.csv", tmp_path / "model_b.csv"]
    for path in models:
        _write_model_csv(path, with_eval_rows=True)
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    assert main(_study_args(tmp_path, command, seeds, models)) == 0
    inputs = [str(tmp_path / name) for name in ("source.csv", "target.csv", "eval.csv")]
    inputs += [str(path) for path in models]
    assert sorted(path for path in opened if path in inputs) == sorted(inputs)


@pytest.mark.parametrize("command", ["run", "correlate"])
def test_csv_instance_under_two_seeds_exits_one(tmp_path, capsys, command):
    # No input file exists: the second seed is refused before any file is read.
    model = tmp_path / "model_a.csv"
    out = tmp_path / "out"
    assert main(_study_args(tmp_path, command, "0,1", [model]) + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seeds: a CSV instance is one fixed sample")
    assert err.count("\n") == 1
    assert not out.exists()


def _ladder_args(tmp_path, *extra):
    return [
        "run",
        "--dataset", "csv",
        "--source-csv", str(tmp_path / "source.csv"),
        "--target-csv", str(tmp_path / "target.csv"),
        "--eval-csv", str(tmp_path / "eval.csv"),
        "--seeds", "0",
        "--out", str(tmp_path / "out"),
        *extra,
    ]


def test_softmax_ladder_too_long_exits_one(tmp_path, capsys):
    _write_csv_instance(tmp_path)
    assert main(_ladder_args(tmp_path, "--l", "15")) == 1
    err = capsys.readouterr().err
    assert err == "error: l: the moons sequence has at most 14 settings, got 15\n"
    assert not (tmp_path / "out").exists()


def test_regression_csv_run_defaults_to_regression_methods(tmp_path):
    (tmp_path / "source.csv").write_text("x0,y0\n0,0.5\n1,0.25\n2,0.75\n3,0.5\n")
    (tmp_path / "target.csv").write_text("x0\n1.5\n2.5\n")
    (tmp_path / "eval.csv").write_text("x0,y0\n1,0.5\n3,0.25\n")
    assert main(_ladder_args(tmp_path, "--l", "2")) == 0
    rows = json.loads((tmp_path / "out" / "results.json").read_text())["rows"]
    assert [row["method"] for row in rows] == sorted(
        ["iwa", "sor", "iwv", "dev", "oracle", "source_only", "target_best"]
    )
    assert all("error" not in row for row in rows)


def test_polynomial_ladder_on_wide_inputs_exits_one(tmp_path, capsys):
    (tmp_path / "source.csv").write_text("x0,x1,y0\n0,0,0.5\n0,1,0.25\n0,2,0.75\n")
    (tmp_path / "target.csv").write_text("x0,x1\n1,0\n1,1\n")
    (tmp_path / "eval.csv").write_text("x0,x1,y0\n1,2,0.5\n1,3,0.25\n")
    assert main(_ladder_args(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dataset: the polynomial ladder needs univariate inputs")
    assert "model_csvs" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# One value per config field, written in the config-file syntax. The base
# config below keeps every run tiny; each value differs from it and from the default.
FIELD_VALUES = {
    "dataset": "moons",
    "n": "41",
    "m": "42",
    "l": "3",
    "rcond": "0.05",
    "seeds": "1, 2",
    "methods": "iwa, sor",
    "sinc_interpret_std": "false",
    "moons_rotation_deg": "20",
    "source_csv": "source.csv",
    "target_csv": "target.csv",
    "eval_csv": "eval.csv",
    "model_csvs": "a.csv, b.csv",
    "counts": "5, 7",
    "sizes": "60, 90",
    "oracle_draws": "1500",
}

BASE_CONFIG = "n = 40\nm = 40\nl = 2\nseeds = 0\n"

# Paths read only by dataset = csv: on the sinc base config both forms exit 1.
CSV_KEYS = ("source_csv", "target_csv", "eval_csv", "model_csvs")

# Settings that no study varies: constants or library defaults, not config keys.
REMOVED_KEYS = (
    "beta_bound", "oracle_rcond", "sinc_noise_std", "moons_noise", "moons_translation_x",
    "moons_translation_y", "ridge", "classifier_epochs", "classifier_lr", "base_weight_decay",
    "domain_epochs", "domain_lr", "selection_loss", "eval_size", "beta",
)


def test_every_config_field_has_a_value():
    assert set(FIELD_VALUES) == {field.name for field in fields(ExperimentConfig)}


@pytest.mark.parametrize("key", sorted([*FIELD_VALUES, *REMOVED_KEYS]))
def test_flag_and_config_line_record_the_same_config(tmp_path, capsys, key):
    value = FIELD_VALUES.get(key, "1")
    base = tmp_path / "base.cfg"
    base.write_text(BASE_CONFIG)
    with_line = tmp_path / "with_line.cfg"
    # A key may appear once in a file, so the line replaces the base's own.
    kept = [line for line in BASE_CONFIG.splitlines() if line.split(" = ")[0] != key]
    with_line.write_text("\n".join([*kept, f"{key} = {value}"]) + "\n")
    flag = "--" + key.replace("_", "-")
    out = tmp_path / "out"
    if key in REMOVED_KEYS:  # neither form sets it, and both exit 1
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(base), flag, value, "--out", str(out)])
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert main(["run", "--config", str(with_line), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {key}: unknown config key\n"
        assert not out.exists()
        return
    if key in CSV_KEYS:  # both forms give the same error, and nothing is written
        assert main(["run", "--config", str(base), flag, value, "--out", str(out)]) == 1
        by_flag = capsys.readouterr().err
        assert main(["run", "--config", str(with_line), "--out", str(out)]) == 1
        assert capsys.readouterr().err == by_flag
        assert by_flag == f"error: {key}: only read when dataset = csv, not sinc\n"
        assert not out.exists()
        return
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
    assert {"rcond", "moons_rotation_deg"} <= set(FLOAT_FIELDS)


@pytest.mark.parametrize("key", FLOAT_FIELDS)
def test_nan_float_value_is_a_config_error(key, capsys):
    for value in ("nan", "inf"):
        assert main(TINY_RUN + ["--" + key.replace("_", "-"), value]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")


def test_non_finite_fields_are_each_reported_once(capsys):
    assert main(TINY_RUN + ["--rcond", "inf", "--moons-rotation-deg=-inf"]) == 1
    problems = capsys.readouterr().err.removeprefix("error: ").rstrip("\n").split("; ")
    assert problems == [
        "rcond: must be finite, got inf",
        "moons_rotation_deg: must be finite, got -inf",
    ]


@pytest.mark.parametrize(
    "key, value", [("n", "many"), ("dataset", "bogus"), ("seeds", "0,x"), ("seeds", "-1")]
)
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
