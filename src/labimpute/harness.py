"""Repeated-measurement experiment harness.

An experiment sweeps missing-data rates over repeated train/test splits and
runs a configured set of methods on every (rate, repetition) cell.  All
randomness descends from one master seed through named child streams, so a
given config produces byte-identical result tables no matter how many worker
processes execute it or in what order the cells finish.

Cells run on a pool of forked worker processes, at most one per cell.  A
failure stays in its cell: bad input (DataError) and any other exception
alike become status=error rows, and the finished cells are kept.

Pairing discipline: within one repetition every method sees the same split
and the same missingness pattern, and methods that train a downstream forest
share one per-cell classifier stream.  Masks depend on the (repetition, rate)
pair only, never on the method list, so adding a method to a config does not
disturb the numbers of the others.

Classification methods work on the train/test pair scaled against observed
training cells.  The imputation-error methods impute the pooled matrix (train
rows plus test rows, labels stacked in for the label-using variant) scaled
against its own observed cells, and score masked cells per unit of column
range so the error is comparable across datasets.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from ._rng import child_seed
from .data import (
    DataTable,
    LabelKind,
    LabelVector,
    _rate,
    _ratio,
    accuracy,
    apply_mcar,
    concat_rows,
    load_csv,
    masked_mse,
    scale_minmax,
    split_label,
    train_test_split,
)
from .errors import (DataError, _of, _positive, _seed, _tuple_of, _where,
                     check_fields, checked)
from .forest import _PARAM_FIELDS, ForestParams, fit_forest, predict
from .imputers import _MICE_FIELDS, _MISSFOREST_FIELDS, MiceParams, MissForestParams
from .strategies import (
    Scenario,
    cbmi_predict,
    di_impute,
    iclf_predict,
    iul_impute,
    rf_missing_predict,
)

_REP_TAG = 565601

# Config method -> its result rows as (row method, strategy, engine).  The
# head-to-head entries yield a pair of rows sharing one preparation but
# carrying independent seeds.  Strategies are named, not held, so the runner
# looks each one up among this module's attributes at call time.
_METHODS = {
    "cbmi": (("cbmi", "cbmi", "missforest"),),
    "iclf-missforest": (("iclf-missforest", "iclf", "missforest"),),
    "iclf-mice": (("iclf-mice", "iclf", "mice"),),
    "rf-missing": (("rf-missing", "rf-missing", None),),
    "iul-vs-di-missforest": (("iul-missforest", "iul", "missforest"),
                             ("di-missforest", "di", "missforest")),
    "iul-vs-di-mice": (("iul-mice", "iul", "mice"), ("di-mice", "di", "mice")),
}

_BUILTIN_PREFIX = "builtin:"
_BUILTIN_DATASETS = {"iris": ("iris.csv", "species")}


def _rate_key(rate: float) -> int:
    # stable integer identity for a rate, immune to float formatting
    return int(round(rate * 1_000_000))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment end to end."""

    dataset: str
    label: str
    scenario: Scenario = Scenario.TEST_MISSING
    rates: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)
    repetitions: int = 10
    methods: tuple[str, ...] = ("cbmi",)
    seed: int = 0
    train_ratio: float = 0.6
    forest: ForestParams = field(default_factory=ForestParams)
    missforest_max_iter: int = 10
    mice_n_iter: int = 10
    mice_ridge: float = 1e-8

    def __post_init__(self):
        check_fields(self, {**_CONFIG_FIELDS, "forest": _of(ForestParams)})
        for name in _FLAT_SECTIONS:
            check_fields(self, {f"{name}_{k}": convert
                                for k, convert in _CONFIG_SECTIONS[name].items()})

    def record_methods(self) -> tuple[str, ...]:
        return tuple(row for m in self.methods for row, _, _ in _METHODS[m])

    def to_json_dict(self) -> dict:
        doc = {k: _json_value(getattr(self, k)) for k in _CONFIG_FIELDS}
        doc["forest"] = {k: getattr(self.forest, k) for k in _CONFIG_SECTIONS["forest"]}
        for name in _FLAT_SECTIONS:
            doc[name] = {k: getattr(self, f"{name}_{k}") for k in _CONFIG_SECTIONS[name]}
        return doc

    @classmethod
    def from_json_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise DataError("experiment config must be a JSON object")
        extra = set(raw) - {*_CONFIG_FIELDS, *_CONFIG_SECTIONS}
        if extra:
            raise DataError(f"unknown config keys: {sorted(extra)}")
        for req in ("dataset", "label"):
            if req not in raw:
                raise DataError(f"config missing required key {req!r}")
        kwargs: dict = {k: raw[k] for k in _CONFIG_FIELDS if k in raw}
        if "rates" not in raw and raw.get("scenario") == Scenario.TEST_OBSERVED.value:
            # an untouched test side makes the zero-rate point meaningful
            kwargs["rates"] = (0.0, 0.2, 0.4, 0.6, 0.8)
        for name, fields in _CONFIG_SECTIONS.items():
            if name not in raw:
                continue
            section = checked(raw[name], _of(dict), name)
            extra = [f"{name}.{k}" for k in section if k not in fields]
            if extra:
                raise DataError(f"unknown config keys: {sorted(extra)}")
            # checked here so that a message names the dotted key
            vals = {k: checked(v, fields[k], f"{name}.{k}") for k, v in section.items()}
            if name == "forest":
                kwargs["forest"] = ForestParams(**vals)
            else:
                kwargs.update((f"{name}_{k}", v) for k, v in vals.items())
        return cls(**kwargs)


def _json_value(value):
    if isinstance(value, Scenario):
        return value.value
    return list(value) if isinstance(value, tuple) else value


def _scenario(value) -> Scenario:
    try:
        return Scenario(value)
    except ValueError:
        vals = ", ".join(s.value for s in Scenario)
        raise DataError(f"scenario must be one of: {vals}") from None


def _list_of(convert, key, what: str):
    """A non-empty list of convert's values, no two alike under key."""
    return _where(_where(_tuple_of(convert), bool, "must be non-empty"),
                  lambda vs: len({key(v) for v in vs}) == len(vs), f"duplicate {what}")


_text = _where(_of(str), bool, "must be non-empty")
_method = _where(_of(str), _METHODS.__contains__,
                 f"unknown method; known methods: {', '.join(sorted(_METHODS))}")

# JSON keys of the config and their converters; ExperimentConfig runs its
# fields through the same tables, so both ways in get the same checks.
_CONFIG_FIELDS = {
    "dataset": _text, "label": _text, "scenario": _scenario,
    "rates": _list_of(_rate, _rate_key, "rates"), "repetitions": _positive,
    "methods": _list_of(_method, str, "methods"), "seed": _seed,
    "train_ratio": _ratio,
}
_CONFIG_SECTIONS = {
    "forest": _PARAM_FIELDS,
    "missforest": _MISSFOREST_FIELDS,
    "mice": _MICE_FIELDS,
}
# sections held in flat fields: missforest.max_iter is missforest_max_iter
_FLAT_SECTIONS = ("missforest", "mice")


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise DataError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:  # also bad UTF-8 and integers too long to parse
        raise DataError(f"config is not valid JSON: {exc}") from None
    return ExperimentConfig.from_json_dict(raw)


def save_experiment_config(config: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(config.to_json_dict(), indent=2) + "\n", encoding="utf-8"
    )


def resolve_dataset(name: str) -> tuple[DataTable, str]:
    """Load the configured dataset, returning (table, default label column)."""
    if name.startswith(_BUILTIN_PREFIX):
        key = name[len(_BUILTIN_PREFIX):]
        if key not in _BUILTIN_DATASETS:
            known = ", ".join(sorted(_BUILTIN_DATASETS))
            raise DataError(f"unknown builtin dataset {key!r}; known: {known}")
        fname, label = _BUILTIN_DATASETS[key]
        ref = resources.files("labimpute") / "_assets" / fname
        with resources.as_file(ref) as p:
            return load_csv(p), label
    p = Path(name)
    if not p.is_file():
        raise DataError(f"dataset file not found: {p}")
    return load_csv(p), ""


@dataclass(frozen=True)
class RunRecord:
    """Result of one method on one (rate, repetition) cell.

    masked_mse is the squared imputation error per unit of column range,
    averaged over the cell's scored coordinates (masked_cells of them).
    defect marks an error row raised by an exception other than DataError,
    i.e. a bug rather than bad input; it is not written to the result tables.
    """

    dataset: str
    method: str
    scenario: str
    rate: float
    repetition: int
    seed: int
    masked_mse: float | None
    masked_cells: int | None
    accuracy: float | None
    downstream_mse: float | None
    status: str
    error: str
    wall_time_seconds: float
    defect: bool = False


@dataclass(frozen=True)
class AggregateRow:
    dataset: str
    scenario: str
    method: str
    rate: float
    metric: str
    mean: float
    sd: float
    n: int


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    records: tuple[RunRecord, ...]
    aggregates: tuple[AggregateRow, ...]


# The scaled span is 2, so dividing squared errors by its square reports
# imputation error per unit of column range, comparable across datasets.
_RANGE_SQ = 4.0


@dataclass(frozen=True)
class _CellPrep:
    """Shared inputs every method sees for one (rate, repetition) cell.

    Classification methods consume the train/test pair.  The imputation-error
    methods consume the pooled matrix (train rows first, then test rows) plus
    the pre-mask truth in the same scaled space and the cells to score on.
    """

    x_train: DataTable          # masked, scaled
    y_train: LabelVector
    x_test: DataTable           # scenario-dependent missingness, scaled
    y_test: LabelVector
    x_pool: DataTable           # masked train rows + test rows, scaled
    x_pool_reference: DataTable
    y_pool: LabelVector
    pool_eval_mask: np.ndarray  # (n_pool, p) bool: the cells to score
    n_train: int


def _concat_labels(a: LabelVector, b: LabelVector) -> LabelVector:
    return LabelVector(
        a.kind,
        np.concatenate([a.values, b.values]),
        np.concatenate([a.missing, b.missing]),
        categories=a.categories,
        name=a.name,
    )


def _prepare_cell(
    x: DataTable,
    y: LabelVector,
    config: ExperimentConfig,
    rep_seed: int,
    rate: float,
) -> _CellPrep:
    split_seed = child_seed(rep_seed, 1)
    (x_tr, y_tr), (x_te, y_te) = train_test_split(x, y, config.train_ratio, split_seed)
    rk = _rate_key(rate)
    x_tr_masked, _ = apply_mcar(x_tr, rate, child_seed(rep_seed, 2, rk))
    test_missing = config.scenario is Scenario.TEST_MISSING
    x_te_used = (apply_mcar(x_te, rate, child_seed(rep_seed, 3, rk))[0]
                 if test_missing else x_te)
    scaled = scale_minmax(x_tr_masked, [x_tr_masked, x_te_used])

    pool = concat_rows(x_tr_masked, x_te_used)
    pool_ref = concat_rows(x_tr, x_te)
    pool_scaled = scale_minmax(pool, [pool, pool_ref])
    eval_mask = pool.missing.copy()
    if test_missing:
        # score where held-back truth exists on the test side (the paired
        # test mask), so the error is read off rows the classifiers predict
        eval_mask[:x_tr.n_rows] = False
    return _CellPrep(
        x_train=scaled[0],
        y_train=y_tr,
        x_test=scaled[1],
        y_test=y_te,
        x_pool=pool_scaled[0],
        x_pool_reference=pool_scaled[1],
        y_pool=_concat_labels(y_tr, y_te),
        pool_eval_mask=eval_mask,
        n_train=x_tr.n_rows,
    )


def _downstream_mse(
    x_imp_pool: DataTable,
    prep: _CellPrep,
    config: ExperimentConfig,
    seed: int,
) -> float | None:
    """Test-set regression error of a forest trained on the imputed features.

    Train and test rows come out of the same completed pool, so the test
    side needs no missing-value routing.
    """
    if prep.y_train.kind is not LabelKind.REGRESSION:
        return None
    idx = np.arange(x_imp_pool.n_rows)
    model = fit_forest(
        x_imp_pool.take_rows(idx[:prep.n_train]), prep.y_train, config.forest, seed
    )
    pred = predict(model, x_imp_pool.take_rows(idx[prep.n_train:]))
    diff = pred.values - prep.y_test.values
    return float(diff @ diff / diff.size)


_NO_METRICS = dict.fromkeys(
    ("masked_mse", "masked_cells", "accuracy", "downstream_mse"))


def _run_one_method(
    strategy: str,
    engine: str | None,
    prep: _CellPrep,
    config: ExperimentConfig,
    seed: int,
    clf_seed: int,
) -> dict:
    """Run one result row's strategy; returns the metric fields for its record.

    seed drives the method's own imputation randomness.  clf_seed drives any
    downstream forest and is shared by every method of the cell, so paired
    methods differ only through the data they hand that forest.
    """
    params = None
    if engine == "missforest":
        params = MissForestParams(forest=config.forest,
                                  max_iter=config.missforest_max_iter,
                                  seed=child_seed(seed, 1))
    elif engine == "mice":
        params = MiceParams(n_iter=config.mice_n_iter, ridge=config.mice_ridge)
    if strategy in ("iul", "di"):
        x_imp = (iul_impute(prep.x_pool, prep.y_pool, params)[0] if strategy == "iul"
                 else di_impute(prep.x_pool, params))
        err = masked_mse(x_imp, prep.x_pool_reference, prep.pool_eval_mask)
        return {**_NO_METRICS, "masked_mse": err.value / _RANGE_SQ,
                "masked_cells": err.n_cells,
                "downstream_mse": _downstream_mse(x_imp, prep, config, clf_seed)}
    if strategy == "cbmi":
        pred = cbmi_predict(prep.x_train, prep.y_train, prep.x_test, params).y_pred
    elif strategy == "iclf":
        pred = iclf_predict(prep.x_train, prep.y_train, prep.x_test, params,
                            config.forest, config.scenario, clf_seed)
    else:
        pred = rf_missing_predict(prep.x_train, prep.y_train, prep.x_test,
                                  config.forest, clf_seed)
    return {**_NO_METRICS, "accuracy": accuracy(pred, prep.y_test)}


def _failure(exc: Exception) -> tuple[str, bool]:
    """Error text and defect flag of a failed run.

    A DataError is bad input and keeps its message.  Any other exception is
    a defect; its text starts with the exception type.
    """
    if isinstance(exc, DataError):
        return str(exc), False
    return f"{type(exc).__name__}: {exc}", True


def _run_cell(
    x: DataTable,
    y: LabelVector,
    config: ExperimentConfig,
    rate: float,
    rep: int,
) -> list[RunRecord]:
    rep_seed = child_seed(config.seed, _REP_TAG, rep)
    rk = _rate_key(rate)
    common = {
        "dataset": config.dataset,
        "scenario": config.scenario.value,
        "rate": rate,
        "repetition": rep,
    }
    rows = [row for m in config.methods for row in _METHODS[m]]
    seeds = {m: child_seed(rep_seed, 4, rk, m) for m, _, _ in rows}
    clf_seed = child_seed(rep_seed, 5, rk)
    try:
        prep = _prepare_cell(x, y, config, rep_seed, rate)
    except Exception as exc:  # a failure stays in its cell
        error, defect = _failure(exc)
        # one shared failure fails every method of the cell the same way
        return [
            RunRecord(method=m, seed=seeds[m], status="error", error=error,
                      wall_time_seconds=0.0, defect=defect, **common, **_NO_METRICS)
            for m in seeds
        ]
    records = []
    for m, strategy, engine in rows:
        t0 = time.perf_counter()
        try:
            metrics = _run_one_method(strategy, engine, prep, config, seeds[m], clf_seed)
            status, error, defect = "ok", "", False
        except Exception as exc:  # a failure stays in its cell
            metrics, status = _NO_METRICS, "error"
            error, defect = _failure(exc)
        wall = time.perf_counter() - t0
        records.append(
            RunRecord(
                method=m, seed=seeds[m], status=status, error=error,
                wall_time_seconds=wall, defect=defect, **common, **metrics,
            )
        )
    return records


def _aggregate(config: ExperimentConfig, records: tuple[RunRecord, ...]):
    """Mean and sample sd per (method, rate, metric) over successful runs."""
    metrics = ("masked_mse", "accuracy", "downstream_mse")
    groups: dict[tuple[str, float, str], list[float]] = {}
    for rec in records:
        if rec.status != "ok":
            continue
        for metric in metrics:
            v = getattr(rec, metric)
            if v is not None:
                groups.setdefault((rec.method, rec.rate, metric), []).append(v)
    rows = []
    for method in config.record_methods():
        for rate in config.rates:
            for metric in metrics:
                vals = groups.get((method, float(rate), metric))
                if not vals:
                    continue
                n = len(vals)
                mean = sum(vals) / n
                var = sum((v - mean) ** 2 for v in vals) / (n - 1) if n > 1 else 0.0
                sd = var ** 0.5
                rows.append(
                    AggregateRow(
                        dataset=config.dataset,
                        scenario=config.scenario.value,
                        method=method,
                        rate=float(rate),
                        metric=metric,
                        mean=mean,
                        sd=sd,
                        n=n,
                    )
                )
    return tuple(rows)


def _run_cells(
    x: DataTable,
    y: LabelVector,
    config: ExperimentConfig,
    cells: list[tuple[float, int]],
    threads: int,
) -> list[list[RunRecord]]:
    """Run the cells, in parallel where it pays; results in cell order.

    With fork the pool starts every worker before its own manager thread, so
    that thread is never copied into a worker.  Workers inherit the loaded
    modules, and no helper process (forkserver, resource tracker) is started
    that could outlive the call.  Without fork, or with one worker, the cells
    run in this process.
    """
    workers = min(threads, len(cells))
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
                futures = [
                    pool.submit(_run_cell, x, y, config, rate, rep)
                    for rate, rep in cells
                ]
                return [f.result() for f in futures]
    return [_run_cell(x, y, config, rate, rep) for rate, rep in cells]


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Run every configured method on every (rate, repetition) cell.

    threads is the number of worker processes, at most one per cell.  The
    report is a pure function of the config: worker count and scheduling
    order never change any emitted value, only wall times.
    """
    threads = checked(threads, _positive, "threads")
    table, _ = resolve_dataset(config.dataset)
    label = config.label
    x, y = split_label(table, label)
    if not y.is_complete():
        raise DataError(f"label column {label!r} has missing entries")
    if y.kind is not LabelKind.CLASS:
        bad = [m for m in config.methods
               if any(s not in ("iul", "di") for _, s, _ in _METHODS[m])]
        if bad:
            raise DataError(
                f"methods {bad} need a categorical label; {label!r} is continuous"
            )
    cells = [(float(rate), rep)
             for rep in range(config.repetitions)
             for rate in config.rates]
    results = _run_cells(x, y, config, cells, threads)
    records = [rec for batch in results for rec in batch]
    records.sort(key=lambda r: (r.method, r.rate, r.repetition))
    records = tuple(records)
    return ExperimentReport(
        config=config, records=records, aggregates=_aggregate(config, records)
    )


# ---------------------------------------------------------------------------
# report emission

_RUNS_COLUMNS = (
    "dataset", "method", "scenario", "rate", "repetition", "seed",
    "masked_mse", "masked_cells", "accuracy", "downstream_mse",
    "status", "error",
)
_TIMINGS_COLUMNS = (
    "dataset", "method", "scenario", "rate", "repetition", "wall_time_seconds",
)
_AGG_COLUMNS = (
    "dataset", "scenario", "method", "rate", "metric", "mean", "sd", "n",
)
_CURVE_COLUMNS = ("metric", "method", "rate", "mean", "sd")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _num(v):
    # JSON carries the same 6-significant-digit values the CSVs do
    if v is None or isinstance(v, (int, str)):
        return v
    return float(f"{v:.6g}")


def _write_csv(path: Path, columns: tuple[str, ...], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(getattr(row, c)) for c in columns])


def emit_report(
    report: ExperimentReport,
    out_dir: str | Path,
    formats: tuple[str, ...] = ("csv", "json"),
) -> list[Path]:
    """Write result tables under out_dir; returns the paths written.

    csv: runs.csv (per-run metrics), timings.csv (wall times, kept apart so
    runs.csv is byte-stable), aggregates.csv, curves.csv (plot-ready means).
    json: report.json bundling config, runs, and aggregates.
    """
    for f in formats:
        if f not in ("csv", "json"):
            raise DataError(f"unknown report format {f!r}; known: csv, json")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if "csv" in formats:
        curves = sorted(report.aggregates, key=lambda a: (a.metric, a.method, a.rate))
        for name, columns, rows in (
            ("runs.csv", _RUNS_COLUMNS, report.records),
            ("timings.csv", _TIMINGS_COLUMNS, report.records),
            ("aggregates.csv", _AGG_COLUMNS, report.aggregates),
            ("curves.csv", _CURVE_COLUMNS, curves),
        ):
            _write_csv(out / name, columns, rows)
            written.append(out / name)
    if "json" in formats:
        doc = {
            "config": report.config.to_json_dict(),
            "runs": [
                {c: _num(getattr(rec, c)) for c in _RUNS_COLUMNS}
                for rec in report.records
            ],
            "aggregates": [
                {c: _num(getattr(a, c)) for c in _AGG_COLUMNS}
                for a in report.aggregates
            ],
        }
        path = out / "report.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        written.append(path)
    return written
