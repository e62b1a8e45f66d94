import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import labimpute
from labimpute.cli import cli_main
from labimpute.data import (ColumnKind, DataTable, load_csv, save_csv, split_label,
                            train_test_split)
from labimpute.forest import ForestParams
from labimpute.imputers import MissForestParams
from labimpute.strategies import cbmi_predict


@pytest.fixture(scope="module")
def iris_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    ref = resources.files("labimpute") / "_assets" / "iris.csv"
    with resources.as_file(ref) as p:
        table = load_csv(p)
    path = root / "iris.csv"
    save_csv(table, path)
    return path


def test_simulate_outputs(iris_csv, tmp_path):
    code = cli_main([
        "simulate", str(iris_csv), "--rate", "0.2",
        "--seed", "9", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    masked = load_csv(tmp_path / "masked.csv")
    assert int(masked.missing.sum()) == round(0.2 * 150 * 5)
    with open(tmp_path / "mask.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == round(0.2 * 150 * 5)
    for rec in rows:
        assert masked.missing[int(rec["row"]), int(rec["col"])]


def test_simulate_deterministic(iris_csv, tmp_path):
    for sub in ("a", "b"):
        cli_main([
            "simulate", str(iris_csv), "--rate", "0.3",
            "--seed", "4", "--out-dir", str(tmp_path / sub),
        ])
    assert (tmp_path / "a" / "masked.csv").read_bytes() == \
        (tmp_path / "b" / "masked.csv").read_bytes()


def test_simulate_output_bytes_pinned(tmp_path):
    # The bytes simulate writes for the bundled iris table; any change to
    # the MCAR draw, the mask file's order or the CSV format moves them.
    ref = resources.files("labimpute") / "_assets" / "iris.csv"
    with resources.as_file(ref) as p:
        assert cli_main(["simulate", str(p), "--rate", "0.3", "--seed", "4",
                         "--out-dir", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("mask.csv", "masked.csv")}
    assert digests == {
        "mask.csv": "c564839aabd26e06b7f2723131f6cd3c34bab3f2a7403d33718274371ecf41fd",
        "masked.csv": "8b72e62fdd6859cd29df6feaf3f0aaaee49ad044ed8975dfd851a9745b6e4edc",
    }


def test_impute_output_bytes_pinned(tmp_path):
    # The bytes impute writes for the bundled iris table, label column
    # included, masked at rate 0.2; any change to the missForest engine, the
    # column handling of the command or the CSV format moves them.
    ref = resources.files("labimpute") / "_assets" / "iris.csv"
    with resources.as_file(ref) as p:
        assert cli_main(["simulate", str(p), "--rate", "0.2", "--seed", "2",
                         "--out-dir", str(tmp_path)]) == 0
    assert cli_main(["impute", str(tmp_path / "masked.csv"), "--trees", "5",
                     "--max-iter", "2", "--out-dir", str(tmp_path / "out")]) == 0
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in ("imputed.csv", "trace.csv")}
    assert digests == {
        "imputed.csv": "5862fe1461b1eda610e1ba57c0ed6bbab61dfee3ead9b5c6f74395970c665d72",
        "trace.csv": "a2affc356b90a09553c9af864426f28864da98b5a5e17f2a35d17ce832a99c91",
    }


def test_impute_missforest(iris_csv, tmp_path):
    cli_main([
        "simulate", str(iris_csv), "--rate", "0.3",
        "--seed", "1", "--out-dir", str(tmp_path),
    ])
    code = cli_main([
        "impute", str(tmp_path / "masked.csv"),
        "--method", "missforest", "--trees", "5", "--max-iter", "2",
        "--seed", "3", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 0
    completed = load_csv(tmp_path / "out" / "imputed.csv")
    assert completed.is_complete()
    masked = load_csv(tmp_path / "masked.csv")
    obs = ~masked.missing
    assert np.array_equal(completed.values[obs], masked.values[obs])
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,delta_continuous,delta_categorical"
    assert len(trace) >= 2


def test_impute_mice_no_trace(iris_csv, tmp_path):
    cli_main([
        "simulate", str(iris_csv), "--rate", "0.2",
        "--seed", "1", "--out-dir", str(tmp_path),
    ])
    code = cli_main([
        "impute", str(tmp_path / "masked.csv"),
        "--method", "mice", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 0
    assert load_csv(tmp_path / "out" / "imputed.csv").is_complete()
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_impute_iul_keeps_label_column(iris_csv, tmp_path):
    # a label column in the file is imputed with the rest (IUL): the output
    # keeps every column, label included, in input order
    order = ("species", "sepal_length", "sepal_width", "petal_length", "petal_width")
    cli_main([
        "simulate", str(iris_csv), "--rate", "0.2",
        "--seed", "2", "--out-dir", str(tmp_path),
    ])
    with open(tmp_path / "masked.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(tmp_path / "first.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, order, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    for name in ("masked.csv", "first.csv"):
        assert cli_main([
            "impute", str(tmp_path / name),
            "--trees", "5", "--max-iter", "2", "--out-dir", str(tmp_path / name[:-4]),
        ]) == 0
        source = load_csv(tmp_path / name)
        completed = load_csv(tmp_path / name[:-4] / "imputed.csv", source.schema)
        assert completed.is_complete()
        assert completed.column_names == source.column_names
        assert source.missing[:, source.column_index("species")].any()
        obs = ~source.missing
        assert np.array_equal(completed.values[obs], source.values[obs])
    # no option moves the label column or names it
    for flag in ("--strategy", "--label"):
        assert cli_main(["impute", str(iris_csv), flag, "iul", "--out-dir", str(tmp_path)]) == 1


def test_cbmi_predictions(iris_csv, tmp_path):
    table = load_csv(iris_csv)
    _, y = split_label(table, "species")
    (tr, _), (te, _) = train_test_split(table, y, 0.6, 1)
    save_csv(tr, tmp_path / "train.csv")
    save_csv(te.drop_column(te.column_index("species")), tmp_path / "test.csv")
    code = cli_main([
        "cbmi", "--train", str(tmp_path / "train.csv"),
        "--test", str(tmp_path / "test.csv"), "--label", "species",
        "--trees", "10", "--max-iter", "2", "--seed", "5",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    lines = (tmp_path / "predictions.csv").read_text().splitlines()
    assert lines[0] == "species"
    assert len(lines) == 1 + 60
    assert set(lines[1:]) <= {"setosa", "versicolor", "virginica"}


_COLORS = ("red", "green", "blue")


def _cbmi_files(tmp_path, test_colors):
    """A training file whose `color` categories first appear as red, green,
    blue, and a test file of one row per entry of test_colors."""
    rng = np.random.default_rng(3)
    with open(tmp_path / "train.csv", "w") as fh:
        fh.write("x,color,y\n")
        for i in range(30):
            k = i % 3
            fh.write(f"{k + rng.normal():.3f},{_COLORS[k]},{'ab'[k // 2]}\n")
    with open(tmp_path / "test.csv", "w") as fh:
        fh.write("x,color\n")
        for i, c in enumerate(test_colors):
            fh.write(f"{i % 3}.25,{c}\n")
    return ["cbmi", "--train", str(tmp_path / "train.csv"),
            "--test", str(tmp_path / "test.csv"), "--label", "y",
            "--trees", "3", "--max-iter", "2", "--seed", "4",
            "--out-dir", str(tmp_path / "out")]


def test_cbmi_reads_reordered_test_categories(tmp_path):
    assert cli_main(_cbmi_files(tmp_path, ["blue", "green", "red", "blue"])) == 0
    lines = (tmp_path / "out" / "predictions.csv").read_text().splitlines()
    assert len(lines) == 1 + 4 and set(lines[1:]) <= {"a", "b"}


def test_cbmi_reads_a_subset_of_test_categories_in_training_codes(tmp_path):
    colors = ["blue", "red", "blue", "red", "red"]
    assert cli_main(_cbmi_files(tmp_path, colors)) == 0
    got = (tmp_path / "out" / "predictions.csv").read_text().splitlines()[1:]
    # the same rows written in training codes: red 0, green 1, blue 2
    x_train, y_train = split_label(load_csv(tmp_path / "train.csv"), "y")
    assert x_train.schema[1].kind is ColumnKind.CATEGORICAL
    assert x_train.schema[1].categories == _COLORS
    cells = [[i % 3 + 0.25, _COLORS.index(c)] for i, c in enumerate(colors)]
    x_test = DataTable(x_train.schema, np.array(cells), np.zeros((5, 2), dtype=bool))
    params = MissForestParams(ForestParams(n_trees=3), max_iter=2, seed=4)
    pred = cbmi_predict(x_train, y_train, x_test, params).y_pred
    assert got == [pred.categories[k] for k in pred.as_ints()]


def test_cbmi_names_an_unseen_test_category(tmp_path, capsys):
    assert cli_main(_cbmi_files(tmp_path, ["red", "purple"])) == 2
    err = capsys.readouterr().err
    assert "row 1, column 'color'" in err and "unknown category 'purple'" in err


def test_experiment_command(tmp_path):
    ref = resources.files("labimpute") / "_assets" / "iris_experiment.json"
    with resources.as_file(ref) as p:
        raw = json.loads(Path(p).read_text())
    raw["repetitions"] = 1
    raw["rates"] = [0.2]
    raw["methods"] = ["rf-missing"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    code = cli_main([
        "experiment", "--config", str(cfg), "--threads", "2",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 0
    for name in ("runs.csv", "timings.csv", "aggregates.csv", "curves.csv",
                 "report.json"):
        assert (tmp_path / "out" / name).exists()


def test_experiment_unexpected_failure_exits_3(tmp_path, monkeypatch, capsys):
    from labimpute import harness

    def fault(*args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(harness, "rf_missing_predict", fault)
    raw = {
        "dataset": "builtin:iris", "label": "species", "rates": [0.2, 0.6],
        "repetitions": 1, "methods": ["rf-missing", "iul-vs-di-mice"],
        "forest": {"n_trees": 3},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    code = cli_main([
        "experiment", "--config", str(cfg), "--threads", "2",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 3
    assert "RuntimeError: injected fault" in capsys.readouterr().err
    # the finished cells are still written
    with open(tmp_path / "out" / "runs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 3
    for row in rows:
        if row["method"] == "rf-missing":
            assert row["status"] == "error"
            assert row["error"] == "RuntimeError: injected fault"
        else:
            assert row["status"] == "ok"


def _tiny_experiment_config(tmp_path) -> Path:
    raw = {"dataset": "builtin:iris", "label": "species", "rates": [0.2, 0.4],
           "repetitions": 2, "methods": ["rf-missing"], "forest": {"n_trees": 3}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    return cfg


def _refuse(*args, **kwargs):
    raise AssertionError("ran before its outputs were checked")


@pytest.mark.parametrize("formats, message", [
    ("xml", "unknown report format 'xml'; known: csv, json"),
    ("csv,xml", "unknown report format 'xml'; known: csv, json"),
    ("", "no report format given; known: csv, json"),
    (",", "no report format given; known: csv, json"),
])
def test_experiment_rejects_formats_before_running(formats, message, tmp_path,
                                                   monkeypatch, capsys):
    from labimpute import cli

    monkeypatch.setattr(cli, "run_experiment", _refuse)
    code = cli_main(["experiment", "--config", str(_tiny_experiment_config(tmp_path)),
                     "--formats", formats, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_experiment_and_cbmi_make_out_dir_before_running(iris_csv, tmp_path,
                                                         monkeypatch, capsys):
    from labimpute import cli

    monkeypatch.setattr(cli, "run_experiment", _refuse)
    monkeypatch.setattr(cli, "cbmi_predict", _refuse)
    (tmp_path / "file").write_text("", encoding="utf-8")
    below_file = str(tmp_path / "file" / "out")
    assert cli_main(["experiment", "--config", str(_tiny_experiment_config(tmp_path)),
                     "--out-dir", below_file]) == 2
    assert "file" in capsys.readouterr().err
    table = load_csv(iris_csv)
    save_csv(table.drop_column(table.column_index("species")), tmp_path / "test.csv")
    assert cli_main(["cbmi", "--train", str(iris_csv), "--test", str(tmp_path / "test.csv"),
                     "--label", "species", "--out-dir", below_file]) == 2
    assert "file" in capsys.readouterr().err


def test_commands_write_no_file_in_the_locale_encoding(iris_csv, tmp_path):
    # every file a command opens names its encoding: under these flags an
    # open() that falls back to the locale encoding fails the command
    src = Path(labimpute.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    table = load_csv(iris_csv)
    save_csv(table.drop_column(table.column_index("species")), tmp_path / "test.csv")
    masked = tmp_path / "sim" / "masked.csv"
    commands = [
        ["simulate", str(iris_csv), "--rate", "0.2", "--out-dir", str(tmp_path / "sim")],
        ["impute", str(masked), "--trees", "3", "--max-iter", "2",
         "--out-dir", str(tmp_path / "imp")],
        ["cbmi", "--train", str(iris_csv), "--test", str(tmp_path / "test.csv"),
         "--label", "species", "--trees", "3", "--max-iter", "2",
         "--out-dir", str(tmp_path / "cbmi")],
        ["experiment", "--config", str(_tiny_experiment_config(tmp_path)),
         "--out-dir", str(tmp_path / "exp")],
        ["theorem-check", "--instances", "5", "--out-dir", str(tmp_path / "thm")],
    ]
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "labimpute", *argv],
            capture_output=True, text=True, encoding="utf-8", timeout=120, env=env,
        )
        assert proc.returncode == 0, (argv[0], proc.stderr)
    assert (tmp_path / "imp" / "trace.csv").exists()


def test_theorem_check(tmp_path):
    code = cli_main([
        "theorem-check", "--instances", "30", "--seed", "2",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    lines = (tmp_path / "theorem_reports.csv").read_text().splitlines()
    assert len(lines) == 31
    assert lines[0].startswith("instance,n,")


def test_theorem_check_impossible_tolerance(tmp_path, capsys):
    # a zero tolerance turns harmless float noise into a reported violation,
    # which is exactly the invariant-failure exit path
    code = cli_main([
        "theorem-check", "--instances", "20", "--tol", "0",
        "--out-dir", str(tmp_path),
    ])
    assert code == 3
    assert "invariant violated" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "-0.5", "inf"])
def test_theorem_check_rejects_negative_tolerance(tol, tmp_path, capsys):
    # a negative bound is bad input, not a violated identity
    assert cli_main(["theorem-check", "--instances", "5", "--tol", tol,
                     "--out-dir", str(tmp_path)]) == 2
    assert "'--tol' has an invalid value" in capsys.readouterr().err


def test_theorem_check_rejects_nan_tolerance(tmp_path, capsys):
    # every comparison with nan is false, so a nan bound would check nothing
    assert cli_main(["theorem-check", "--instances", "5", "--tol", "nan",
                     "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "'--tol' has an invalid value: nan" in err
    assert not (tmp_path / "theorem_reports.csv").exists()


def test_usage_errors():
    assert cli_main([]) == 1
    assert cli_main(["bogus"]) == 1
    assert cli_main(["simulate", "--rate", "0.1"]) == 1  # missing --input
    assert cli_main(["simulate", "x.csv", "--rate", "abc"]) == 1
    # --threads belongs to experiment alone, whose seed comes from its config
    assert cli_main(["simulate", "x.csv", "--rate", "0.1", "--threads", "2"]) == 1
    assert cli_main(["experiment", "--config", "x.json", "--seed", "3"]) == 1


def test_data_errors(iris_csv, tmp_path, capsys):
    assert cli_main([
        "experiment", "--config", str(tmp_path / "none.json"),
    ]) == 2
    assert "config file not found" in capsys.readouterr().err
    assert cli_main([
        "simulate", str(tmp_path / "absent.csv"), "--rate", "0.2",
        "--out-dir", str(tmp_path),
    ]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli_main([
        "simulate", str(iris_csv), "--rate", "1.0",
        "--out-dir", str(tmp_path),
    ]) == 2
    assert cli_main([
        "theorem-check", "--instances", "0", "--out-dir", str(tmp_path),
    ]) == 2


def test_simulate_on_non_utf8_csv_names_the_file(tmp_path, capsys):
    bad = tmp_path / "latin.csv"
    bad.write_bytes(b"a,b\n1.0,\xff\n2.0,x\n")
    assert cli_main(["simulate", str(bad), "--rate", "0.2", "--seed", "1",
                     "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "latin.csv: not UTF-8" in err and "Traceback" not in err


def test_malformed_inputs_exit_2(iris_csv, tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(
        {"dataset": "builtin:iris", "label": "species", "forest": {"n_trees": "a"}}))
    assert cli_main(["experiment", "--config", str(config),
                     "--out-dir", str(tmp_path / "out")]) == 2
    assert "'forest.n_trees'" in capsys.readouterr().err
    for ridge in ("nan", "inf"):
        assert cli_main([
            "impute", str(iris_csv), "--method", "mice", "--ridge", ridge,
            "--out-dir", str(tmp_path / "imp"),
        ]) == 2
        assert "ridge" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["impute", "<csv>", "--method", "mice", "--ridge", "-1e-05"], "'ridge'"),
    (["theorem-check", "--instances", "5", "--tol", "-1e-300"], "'--tol'"),
    (["simulate", "<csv>", "--rate", "-2e-3"], "'rate'"),
    (["theorem-check", "--instances", "5", "--tol", "-.5E+1"], "'--tol'"),
    (["impute", "<csv>", "--method", "mice", "--ridge", "-inf"], "'ridge'"),
], ids=["ridge", "tol", "rate", "tol-upper-e", "ridge-inf"])
def test_negative_exponent_value_is_a_data_error(argv, named, iris_csv, tmp_path, capsys):
    # argparse alone reads -1e-05 or -inf as a flag: "expected one argument"
    argv = [str(iris_csv) if a == "<csv>" else a for a in argv]
    assert cli_main(argv + ["--out-dir", str(tmp_path)]) == 2
    assert f"{named} has an invalid value" in capsys.readouterr().err


def test_positive_exponent_ridge_still_imputes(iris_csv, tmp_path):
    masked = tmp_path / "masked.csv"
    assert cli_main(["simulate", str(iris_csv), "--rate", "0.1", "--out-dir", str(tmp_path)]) == 0
    assert cli_main(["impute", str(masked), "--method", "mice", "--ridge", "1e-05",
                     "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "imputed.csv").exists()


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert "labimpute" in capsys.readouterr().out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "labimpute", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "command" in proc.stdout


def test_import_loads_no_pool_or_parser_module():
    # a fresh `import labimpute` stays cheap: worker pools and argparse load
    # only when an experiment or the command line needs them
    code = ("import sys, labimpute; print(sorted(m for m in ('argparse', "
            "'concurrent.futures', 'multiprocessing') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(labimpute.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Values of each kind the argv fuzz passes: small numbers and boundary
# strings; one value in some examples is junk without digits instead, which
# parses as nothing but nan or inf, and which as an output directory cannot
# leave the working directory.
_JUNK = st.text(st.characters(blacklist_categories=("Cs", "Nd"), blacklist_characters="\x00/"),
                max_size=5).filter(lambda s: s != "..")
_VALUES = {
    "seed": st.integers(-3, 2**64).map(str),
    "n": st.integers(0, 12).map(str),
    "real": st.one_of(st.floats(-0.5, 1.5).map(repr), st.sampled_from(["nan", "inf", "1e-8"])),
    # a bound below the float noise of the identity reports a violation (exit 3)
    "tol": st.sampled_from(["1e-8", "0.5", "-1", "nan", "inf"]),
    "trees": st.integers(0, 3).map(str),
    "iter": st.integers(0, 3).map(str),
    "threads": st.integers(-1, 2).map(str),
    "instances": st.integers(-1, 20).map(str),
    "csv": st.sampled_from(["<csv>", "<csv>", "<csv>", "<absent>"]),
    "config": st.sampled_from(["<absent>", "<absent>.json"]),
    "label": st.sampled_from(["a", "b", "species", "c"]),
    "method": st.sampled_from(["missforest", "mice"]),
    "formats": st.sampled_from(["csv", "json", "csv,json", ",", "xml"]),
}
_COMMANDS = {
    "simulate": {"input": "csv", "--rate": "real", "--seed": "seed"},
    "impute": {"input": "csv", "--method": "method", "--trees": "trees",
               "--max-iter": "iter", "--n-iter": "iter", "--ridge": "real", "--seed": "seed"},
    "cbmi": {"--train": "csv", "--test": "csv", "--label": "label", "--trees": "trees",
             "--max-iter": "iter", "--seed": "seed"},
    "experiment": {"--config": "config", "--threads": "threads", "--formats": "formats"},
    "theorem-check": {"--instances": "instances", "--n-min": "n", "--n-max": "n",
                      "--tol": "tol", "--seed": "seed"},
}
_ALL_FLAGS = sorted({f for flags in _COMMANDS.values() for f in flags if f.startswith("-")})


@st.composite
def _argv(draw):
    """A subcommand with most of its own flags in random order; now and
    then a junk value, a flag of another command, --help or a junk command."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    flags = _COMMANDS[command]
    argv = [command]
    for flag in draw(st.permutations(sorted(flags))):
        if draw(st.integers(0, 9)) == 7:   # hypothesis favours the ends
            continue                      # leave it out, required or not
        value = draw(_VALUES[flags[flag]])
        argv += [value] if flag == "input" else [flag, value]
    if draw(st.booleans()):
        argv += ["--out-dir", "<out>" + draw(_JUNK)]
    twist = draw(st.integers(0, 19))
    if twist in (7, 8, 9) and len(argv) > 1:
        argv[draw(st.integers(1, len(argv) - 1))] = draw(_JUNK)
    elif twist == 10:
        argv.insert(1, draw(st.sampled_from(_ALL_FLAGS + ["--help", "--out-dir"])))
    elif twist == 11:
        argv[0] = draw(_JUNK)
    return argv


@settings(max_examples=500, deadline=None, derandomize=True)
@given(argv=_argv())
def test_cli_argv_fuzz_exits_0_1_or_2(argv):
    # every argv ends in success, a usage error or a data error, and never
    # raises; inputs are one small CSV or a missing file, outputs stay in
    # a temporary directory, and no config exists, so no experiment starts
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "t.csv").write_text("a,b,species\n1.5,2,x\n2.5,,y\n3,1,x\n,4,y\n5,3,x\n6,2,y\n")
        args = [_placed(a, root) for a in argv]
        cwd = os.getcwd()
        os.chdir(root)   # so relative outputs, the default --out-dir . too, land here
        try:
            code = cli_main(args)
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2), args


def _placed(token: str, root: Path) -> str:
    for mark, name in (("<csv>", "t.csv"), ("<absent>", "absent"), ("<out>", "out")):
        if token.startswith(mark):
            return str(root / name) + token[len(mark):]
    return token
