import dataclasses
import functools
import glob
import hashlib
import json
import multiprocessing
import os
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from labimpute import harness
from labimpute.data import load_csv, save_csv
from labimpute.errors import DataError
from labimpute.forest import ForestParams
from labimpute.harness import (
    AggregateRow,
    ExperimentConfig,
    emit_report,
    load_experiment_config,
    resolve_dataset,
    run_experiment,
    save_experiment_config,
)
from labimpute.imputers import MiceParams, MissForestParams
from labimpute.strategies import Scenario


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        dataset="builtin:iris",
        label="species",
        scenario=Scenario.TEST_MISSING,
        rates=(0.3,),
        repetitions=2,
        methods=("cbmi", "iul-vs-di-mice"),
        seed=11,
        forest=ForestParams(n_trees=3),
        missforest_max_iter=2,
        mice_n_iter=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


_ALL_METHODS = (
    "cbmi", "iclf-missforest", "iclf-mice", "rf-missing",
    "iul-vs-di-missforest", "iul-vs-di-mice",
)


def records_without_time(report):
    return [
        dataclasses.replace(r, wall_time_seconds=0.0) for r in report.records
    ]


# --- config ---

def test_config_json_round_trip(tmp_path):
    cfg = small_config(rates=(0.1, 0.5), forest=ForestParams(n_trees=7, mtry=2),
                       seed=2**62 + 1)
    path = tmp_path / "cfg.json"
    save_experiment_config(cfg, path)
    loaded = load_experiment_config(path)
    assert loaded == cfg


def test_config_defaults_from_minimal_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dataset": "builtin:iris", "label": "species"}))
    cfg = load_experiment_config(path)
    assert cfg.rates == (0.2, 0.4, 0.6, 0.8)
    assert cfg.repetitions == 10
    assert cfg.scenario is Scenario.TEST_MISSING
    assert cfg.forest == ForestParams()


def test_config_default_rates_follow_scenario(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "dataset": "builtin:iris", "label": "species",
        "scenario": "test_observed",
    }))
    assert load_experiment_config(path).rates == (0.0, 0.2, 0.4, 0.6, 0.8)
    path.write_text(json.dumps({
        "dataset": "builtin:iris", "label": "species",
        "scenario": "test_observed", "rates": [0.5],
    }))
    assert load_experiment_config(path).rates == (0.5,)


def test_config_rejections(tmp_path):
    with pytest.raises(DataError, match="unknown method"):
        small_config(methods=("notathing",))
    with pytest.raises(DataError, match="outside"):
        small_config(rates=(1.0,))
    with pytest.raises(DataError, match="duplicate rates"):
        small_config(rates=(0.2, 0.2))
    with pytest.raises(DataError, match="duplicate methods"):
        small_config(methods=("cbmi", "cbmi"))
    with pytest.raises(DataError, match="repetitions"):
        small_config(repetitions=0)
    with pytest.raises(DataError, match="train_ratio"):
        small_config(train_ratio=1.5)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dataset": "x.csv", "label": "y", "bogus": 1}))
    with pytest.raises(DataError, match="unknown config keys"):
        load_experiment_config(path)
    path.write_text("{not json")
    with pytest.raises(DataError, match="not valid JSON"):
        load_experiment_config(path)
    with pytest.raises(DataError, match="config file not found"):
        load_experiment_config(tmp_path / "absent.json")
    path.write_text(json.dumps({"dataset": "x.csv", "label": "y", "scenario": "nope"}))
    with pytest.raises(DataError, match="scenario must be one of"):
        load_experiment_config(path)


@pytest.mark.parametrize("extra, key", [
    ({"repetitions": "abc"}, "repetitions"),
    ({"repetitions": 2.5}, "repetitions"),
    ({"rates": 5}, "rates"),
    ({"rates": ["0.2"]}, "rates"),
    ({"methods": [["cbmi"]]}, "methods"),
    ({"seed": True}, "seed"),
    ({"forest": {"n_trees": "a"}}, "forest.n_trees"),
    ({"forest": {"bootstrap": "false"}}, "forest.bootstrap"),
    ({"forest": [1]}, "forest"),
    ({"mice": 5}, "mice"),
    ({"mice": {"ridge": "nan"}}, "mice.ridge"),
    ({"missforest": {"max_iter": None}}, "missforest.max_iter"),
    ({"dataset": 3}, "dataset"),
    # direct construction runs the same checks
    (functools.partial(small_config, repetitions="3"), "repetitions"),
    (functools.partial(small_config, rates=0.2), "rates"),
    (functools.partial(small_config, methods="cbmi"), "methods"),
    (functools.partial(small_config, mice_n_iter=2.5), "mice_n_iter"),
    (functools.partial(ForestParams, n_trees="5"), "n_trees"),
    (functools.partial(MissForestParams, max_iter="2"), "max_iter"),
    (functools.partial(ForestParams, n_trees=np.True_), "n_trees"),
    (functools.partial(run_experiment, small_config(), threads="2"), "threads"),
    # range rules name the dotted key too
    ({"forest": {"n_trees": 0}}, "forest.n_trees"),
    ({"missforest": {"max_iter": 0}}, "missforest.max_iter"),
    ({"mice": {"ridge": -1}}, "mice.ridge"),
    ({"forest": {"bogus": 1}}, "forest.bogus"),
])
def test_malformed_config_value_names_its_key(extra, key):
    build = extra if callable(extra) else functools.partial(
        ExperimentConfig.from_json_dict,
        {"dataset": "builtin:iris", "label": "species", **extra})
    with pytest.raises(DataError, match=f"'{key}'"):
        build()


@pytest.mark.parametrize("extra, message", [
    ({"forest": {"n_trees": "a"}}, "'forest.n_trees' has an invalid value: 'a'; expected an integer"),
    ({"forest": {"max_depth": -1}}, "'forest.max_depth' has an invalid value: -1; must be >= 0"),
    ({"rates": [0.2, 1.0]}, "'rates' has an invalid value: [0.2, 1.0]; outside [0, 1)"),
    ({"label": ""}, "'label' has an invalid value: ''; must be non-empty"),
    ({"train_ratio": 1}, "'train_ratio' has an invalid value: 1; outside (0, 1)"),
])
def test_config_error_states_the_rule(extra, message):
    with pytest.raises(DataError) as info:
        ExperimentConfig.from_json_dict(
            {"dataset": "builtin:iris", "label": "species", **extra})
    assert str(info.value) == message


@pytest.mark.parametrize("text", [
    b"\xff\xfe{}",  # not UTF-8
    b'{"dataset": "x.csv", "label": "y", "seed": ' + b"9" * 5000 + b"}",
], ids=["not-utf8", "5000-digit-integer"])
def test_config_file_json_cannot_read_is_a_data_error(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    with pytest.raises(DataError, match="not valid JSON"):
        load_experiment_config(path)


def test_rejected_huge_integer_is_a_data_error():
    # an int of over 4,300 digits has no repr; the error describes it
    with pytest.raises(DataError, match=r"'n_trees' has an invalid value: "
                                        r"an integer of 16610 bits; must be >= 1"):
        ForestParams(n_trees=-10**5000)
    for make in (lambda seed: ExperimentConfig("builtin:iris", "species", seed=seed),
                 lambda seed: MissForestParams(seed=seed)):
        for seed in (10**5000, 1 << 64, -(1 << 63) - 1):
            with pytest.raises(DataError, match=r"'seed' .*outside \[-2\*\*63, 2\*\*64\)"):
                make(seed)


@pytest.mark.parametrize("seed", [0, (1 << 64) - 1, -(1 << 63), 2**53 + 1])
def test_config_round_trips_every_accepted_seed(tmp_path, seed):
    cfg = ExperimentConfig("builtin:iris", "species", seed=seed)
    save_experiment_config(cfg, tmp_path / "cfg.json")
    assert load_experiment_config(tmp_path / "cfg.json") == cfg


# Arbitrary JSON values, nan and huge integers included ...
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**53, 2**80)
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# ... and, by field name, values near the valid ones, so that configs load.
_NEAR_VALID = {
    "dataset": st.text(max_size=6), "label": st.text(max_size=6),
    "scenario": st.sampled_from(["test_missing", "test_observed", "x"]),
    "rates": st.lists(st.floats(-0.25, 1.0), max_size=4),
    "methods": st.lists(st.sampled_from([*harness._METHODS, "x"]), max_size=3),
    "train_ratio": st.floats(0.0, 1.0), "ridge": st.floats(-1.0, 1e300),
    "bootstrap": st.booleans(), "forest": st.builds(ForestParams),
}
_NEAR_INTEGER = st.none() | st.integers(-1, 2**70) | st.integers(-1, 8).map(float)


def _values_for(name: str):
    return _JSON_VALUES | _NEAR_VALID.get(name, _NEAR_INTEGER)


_SECTION_KEYS = {name: [*fields, "bogus"]
                 for name, fields in harness._CONFIG_SECTIONS.items()}
_CONFIG_KEYS = [*harness._CONFIG_FIELDS, *_SECTION_KEYS, "bogus",
                *(f"{name}.{k}" for name, keys in _SECTION_KEYS.items() for k in keys)]


@st.composite
def _config_entry(draw):
    key = draw(st.sampled_from(_CONFIG_KEYS))
    if key in _SECTION_KEYS:
        section = st.fixed_dictionaries(
            {}, optional={k: _values_for(k) for k in _SECTION_KEYS[key]})
        return key, draw(_JSON_VALUES | section)
    return key, draw(_values_for(key.rpartition(".")[2]))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(entry=_config_entry())
def test_config_json_fuzz_loads_back_or_names_its_key(entry):
    key, value = entry
    raw = {"dataset": "builtin:iris", "label": "species"}
    name, _, sub = key.partition(".")
    raw[name] = {sub: value} if sub else value
    try:
        cfg = ExperimentConfig.from_json_dict(raw)
    except DataError as exc:
        assert key in str(exc)
        return
    text = json.dumps(cfg.to_json_dict(), allow_nan=False)
    assert ExperimentConfig.from_json_dict(json.loads(text)) == cfg


@st.composite
def _params_entry(draw):
    cls = draw(st.sampled_from([ForestParams, MissForestParams, MiceParams]))
    key = draw(st.sampled_from([f.name for f in dataclasses.fields(cls)]))
    return cls, key, draw(_values_for(key))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(entry=_params_entry())
def test_params_fuzz_rebuild_equal_or_name_their_key(entry):
    cls, key, value = entry
    try:
        params = cls(**{key: value})
    except DataError as exc:
        assert key in str(exc)
        return
    fields = {f.name: getattr(params, f.name) for f in dataclasses.fields(cls)}
    assert cls(**fields) == params


@pytest.mark.parametrize("ridge", [float("nan"), float("inf"), -1.0])
def test_config_rejects_non_finite_ridge(ridge):
    with pytest.raises(DataError, match="ridge"):
        small_config(mice_ridge=ridge)
    with pytest.raises(DataError, match="ridge"):
        ExperimentConfig.from_json_dict(
            {"dataset": "builtin:iris", "label": "species", "mice": {"ridge": ridge}})


def test_record_method_expansion():
    cfg = small_config(
        methods=("iul-vs-di-missforest", "cbmi", "iul-vs-di-mice")
    )
    assert cfg.record_methods() == (
        "iul-missforest", "di-missforest", "cbmi", "iul-mice", "di-mice",
    )


def test_resolve_builtin_iris():
    table, label = resolve_dataset("builtin:iris")
    assert (table.n_rows, table.n_cols) == (150, 5)
    assert label == "species"
    assert table.is_complete()
    with pytest.raises(DataError, match="unknown builtin"):
        resolve_dataset("builtin:nope")
    with pytest.raises(DataError, match="dataset file not found"):
        resolve_dataset("/no/such/file.csv")


# --- running ---

def test_run_shapes_and_ordering():
    cfg = small_config(rates=(0.1, 0.4))
    report = run_experiment(cfg)
    assert len(report.records) == 2 * 2 * 3  # rates x reps x expanded methods
    keys = [(r.method, r.rate, r.repetition) for r in report.records]
    assert keys == sorted(keys)
    assert all(r.status == "ok" for r in report.records)
    assert all(r.dataset == "builtin:iris" for r in report.records)
    for r in report.records:
        if r.method == "cbmi":
            assert r.accuracy is not None and r.masked_mse is None
        else:
            assert r.masked_mse is not None and r.accuracy is None
            # scored on the test side of the pool: 60 rows x 4 numeric cols
            assert r.masked_cells == round(60 * 4 * r.rate)


def test_thread_count_never_changes_results():
    cfg = small_config(rates=(0.15, 0.45))
    a = run_experiment(cfg, threads=1)
    b = run_experiment(cfg, threads=4)
    assert records_without_time(a) == records_without_time(b)
    assert a.aggregates == b.aggregates


def test_repeat_run_identical():
    cfg = small_config()
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert records_without_time(a) == records_without_time(b)


def test_seeds_unique_per_record():
    cfg = small_config(rates=(0.1, 0.4), repetitions=3)
    report = run_experiment(cfg)
    seeds = [r.seed for r in report.records]
    assert len(set(seeds)) == len(seeds)


def test_adding_method_leaves_others_untouched():
    lean = run_experiment(small_config(methods=("cbmi",)))
    full = run_experiment(small_config(methods=("cbmi", "rf-missing")))
    lean_cbmi = [r for r in records_without_time(lean) if r.method == "cbmi"]
    full_cbmi = [r for r in records_without_time(full) if r.method == "cbmi"]
    assert lean_cbmi == full_cbmi


def test_rate_zero_classifiers_coincide():
    # with nothing masked the imputers are no-ops and both pipelines reduce
    # to one forest fit on identical data with the shared per-cell seed
    cfg = small_config(
        scenario=Scenario.TEST_OBSERVED, rates=(0.0,),
        methods=("iclf-missforest", "rf-missing"),
        forest=ForestParams(n_trees=10), repetitions=3,
    )
    report = run_experiment(cfg)
    by = {}
    for r in report.records:
        by[(r.method, r.repetition)] = r.accuracy
    for rep in range(3):
        assert by[("iclf-missforest", rep)] == by[("rf-missing", rep)]


def test_rate_zero_test_observed():
    cfg = small_config(
        scenario=Scenario.TEST_OBSERVED, rates=(0.0,), methods=("iul-vs-di-mice",)
    )
    report = run_experiment(cfg)
    for r in report.records:
        assert r.status == "ok"
        assert r.masked_mse == 0.0
        assert r.masked_cells == 0


def test_regression_label_downstream(tmp_path):
    rng = np.random.default_rng(3)
    n = 40
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    y = 2.0 * a - b + rng.normal(scale=0.1, size=n)
    path = tmp_path / "reg.csv"
    with open(path, "w") as fh:
        fh.write("a,b,target\n")
        for i in range(n):
            fh.write(f"{float(a[i])!r},{float(b[i])!r},{float(y[i])!r}\n")
    cfg = small_config(
        dataset=str(path), label="target", rates=(0.2,),
        methods=("iul-vs-di-mice",), repetitions=2,
    )
    report = run_experiment(cfg)
    assert all(r.status == "ok" for r in report.records)
    assert all(r.downstream_mse is not None for r in report.records)
    metrics = {a.metric for a in report.aggregates}
    assert metrics == {"masked_mse", "downstream_mse"}


def test_classification_methods_rejected_on_regression_label(tmp_path):
    path = tmp_path / "reg.csv"
    path.write_text("a,target\n" + "".join(f"{i},{i * 0.5}\n" for i in range(20)))
    cfg = small_config(dataset=str(path), label="target", methods=("cbmi",))
    with pytest.raises(DataError, match="categorical label"):
        run_experiment(cfg)


def test_method_failure_becomes_error_record():
    # forest mtry larger than the feature count fails at fit time; the
    # mice-based rows in the same cells do not touch a forest and still pass
    cfg = small_config(
        methods=("rf-missing", "iul-vs-di-mice"),
        forest=ForestParams(n_trees=3, mtry=50),
    )
    report = run_experiment(cfg)
    by_method = {}
    for r in report.records:
        by_method.setdefault(r.method, []).append(r)
    assert all(r.status == "error" for r in by_method["rf-missing"])
    assert all(r.error.startswith("mtry") for r in by_method["rf-missing"])
    assert not any(r.defect for r in report.records)
    assert all(r.status == "ok" for r in by_method["iul-mice"])
    # failed rows never reach the aggregates
    assert not any(a.method == "rf-missing" for a in report.aggregates)


def _injected_fault(*args, **kwargs):
    # the pid tells which process ran the cell
    raise RuntimeError(f"injected fault in pid {os.getpid()}")


# the result rows that call each strategy entry point of the harness
_ROWS_USING = {
    "cbmi_predict": {"cbmi"},
    "iclf_predict": {"iclf-missforest", "iclf-mice"},
    "rf_missing_predict": {"rf-missing"},
    "iul_impute": {"iul-missforest", "iul-mice"},
    "di_impute": {"di-missforest", "di-mice"},
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("target", sorted(_ROWS_USING))
def test_unexpected_exception_stays_in_its_cell(monkeypatch, target, threads):
    # the runner calls strategies through the module attributes, which
    # forked workers inherit patched
    monkeypatch.setattr(harness, target, _injected_fault)
    cfg = small_config(rates=(0.2, 0.5), methods=_ALL_METHODS)
    report = run_experiment(cfg, threads=threads)
    assert len(report.records) == 2 * 2 * 8
    faulty = _ROWS_USING[target]
    for r in report.records:
        if r.method in faulty:
            assert r.status == "error" and r.defect
            assert r.error.startswith("RuntimeError: injected fault")
        else:
            assert r.status == "ok" and not r.defect and r.error == ""
    assert {a.method for a in report.aggregates} == set(cfg.record_methods()) - faulty


def _child_pids() -> list[int]:
    """Children of this process that are still running or not yet reaped."""
    files = glob.glob("/proc/self/task/*/children")
    if files:
        return [int(pid) for f in files for pid in Path(f).read_text().split()]
    # kernels built without the children files: match parent pids instead
    me, out = os.getpid(), []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            fields = Path(stat).read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process exited during the scan
            continue
        if int(fields[1]) == me:
            out.append(int(Path(stat).parent.name))
    return out


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("fail", [False, True], ids=["ok", "one-method-fails"])
def test_no_process_outlives_the_pool(monkeypatch, fail):
    if fail:
        monkeypatch.setattr(harness, "rf_missing_predict", _injected_fault)
    cfg = small_config(rates=(0.1, 0.4), methods=("rf-missing", "iul-vs-di-mice"))
    report = run_experiment(cfg, threads=4)
    assert multiprocessing.active_children() == []
    assert _child_pids() == []
    assert len(report.records) == 2 * 2 * 3
    if fail and "fork" in multiprocessing.get_all_start_methods():
        # the cells ran in worker processes, not in this one
        parent = f"in pid {os.getpid()}"
        assert not any(r.error.endswith(parent) for r in report.records)


def test_missing_label_column_rejected():
    cfg = small_config(label="petals")
    with pytest.raises(DataError):
        run_experiment(cfg)


# --- aggregation ---

def test_aggregate_mean_sd_oracle():
    cfg = small_config(methods=("cbmi",), repetitions=3)
    report = run_experiment(cfg)
    vals = [r.accuracy for r in report.records]
    mean = sum(vals) / 3
    sd = (sum((v - mean) ** 2 for v in vals) / 2) ** 0.5
    (agg,) = report.aggregates
    assert agg == AggregateRow(
        dataset="builtin:iris", scenario="test_missing", method="cbmi",
        rate=0.3, metric="accuracy", mean=mean, sd=sd, n=3,
    )


def test_single_repetition_sd_zero():
    cfg = small_config(methods=("cbmi",), repetitions=1)
    (agg,) = run_experiment(cfg).aggregates
    assert agg.sd == 0.0 and agg.n == 1


# --- emission ---

def test_emit_report_files(tmp_path):
    report = run_experiment(small_config())
    paths = emit_report(report, tmp_path / "out")
    names = [p.name for p in paths]
    assert names == [
        "runs.csv", "timings.csv", "aggregates.csv", "curves.csv", "report.json",
    ]
    runs = (tmp_path / "out" / "runs.csv").read_text().splitlines()
    assert runs[0] == (
        "dataset,method,scenario,rate,repetition,seed,masked_mse,"
        "masked_cells,accuracy,downstream_mse,status,error"
    )
    assert len(runs) == 1 + len(report.records)
    timings = (tmp_path / "out" / "timings.csv").read_text().splitlines()
    assert timings[0] == (
        "dataset,method,scenario,rate,repetition,wall_time_seconds"
    )
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["config"]["dataset"] == "builtin:iris"
    assert len(doc["runs"]) == len(report.records)
    assert len(doc["aggregates"]) == len(report.aggregates)


def test_emit_empty_report_headers_only(tmp_path):
    from labimpute.harness import ExperimentReport

    empty = ExperimentReport(config=small_config(), records=(), aggregates=())
    emit_report(empty, tmp_path)
    for name in ("runs.csv", "timings.csv", "aggregates.csv", "curves.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == 1 and "," in lines[0]
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["runs"] == [] and doc["aggregates"] == []


def test_emit_csv_json_numbers_agree(tmp_path):
    import csv

    report = run_experiment(small_config())
    emit_report(report, tmp_path)
    with open(tmp_path / "runs.csv") as fh:
        rows = list(csv.DictReader(fh))
    doc = json.loads((tmp_path / "report.json").read_text())
    for row, jrow in zip(rows, doc["runs"]):
        for key in ("masked_mse", "accuracy", "rate"):
            csv_v = None if row[key] == "" else float(row[key])
            assert csv_v == jrow[key]
        assert int(row["seed"]) == jrow["seed"]


def test_emit_format_selection(tmp_path):
    report = run_experiment(small_config(methods=("iul-vs-di-mice",)))
    paths = emit_report(report, tmp_path / "j", formats=("json",))
    assert [p.name for p in paths] == ["report.json"]
    with pytest.raises(DataError, match="unknown report format"):
        emit_report(report, tmp_path, formats=("xml",))


def test_runs_csv_byte_identical_across_threads(tmp_path):
    cfg = small_config()
    blobs = []
    for i, threads in enumerate((1, 4, 1, 4)):
        out = tmp_path / f"run{i}"
        emit_report(run_experiment(cfg, threads=threads), out)
        blobs.append((out / "runs.csv").read_bytes())
    assert all(b == blobs[0] for b in blobs)


# sha256 of the bundled iris experiment's runs.csv.  A change that alters the
# results on purpose re-pins it and says why in CHANGES.md.
BUNDLED_RUNS_SHA256 = (
    "72abea616050f4826566f394579c4cfc047af8dfddc077838bea4fea6b9ad95f"
)


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_bundled_config_runs_csv_digest_pinned(tmp_path, threads):
    ref = resources.files("labimpute") / "_assets" / "iris_experiment.json"
    with resources.as_file(ref) as path:
        cfg = load_experiment_config(path)
    emit_report(run_experiment(cfg, threads=threads), tmp_path, formats=("csv",))
    digest = hashlib.sha256((tmp_path / "runs.csv").read_bytes()).hexdigest()
    assert digest == BUNDLED_RUNS_SHA256


# sha256 of runs.csv for grids the bundled config does not cover: every method
# under test_observed, and the regression downstream_mse path on a continuous
# label.  Every row of both is status=ok.
_EXTRA_RUNS_SHA256 = {
    "all-methods-test-observed": (
        dict(label="species", scenario=Scenario.TEST_OBSERVED, rates=(0.0, 0.4),
             seed=3, methods=_ALL_METHODS),
        "3a4670866f9525c03e00b27aeacd273b0d058401f5318d087f3d482f4ffad1cd",
    ),
    "regression-label": (
        dict(label="petal_width", rates=(0.3,), seed=5,
             methods=("iul-vs-di-missforest", "iul-vs-di-mice")),
        "c5465d03c1e009395363f7fdf69139a7ec56af868cd39056403bfa813e5216d9",
    ),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", sorted(_EXTRA_RUNS_SHA256))
def test_uncovered_methods_runs_csv_digest_pinned(tmp_path, case, threads):
    overrides, expected = _EXTRA_RUNS_SHA256[case]
    cfg = ExperimentConfig(
        dataset="builtin:iris", repetitions=2, forest=ForestParams(n_trees=5),
        missforest_max_iter=3, mice_n_iter=3, **overrides,
    )
    report = run_experiment(cfg, threads=threads)
    assert all(r.status == "ok" for r in report.records)
    emit_report(report, tmp_path, formats=("csv",))
    digest = hashlib.sha256((tmp_path / "runs.csv").read_bytes()).hexdigest()
    assert digest == expected
