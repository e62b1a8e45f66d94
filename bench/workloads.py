"""The benchmark's three workloads, their generated inputs and output checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  ``setup`` builds everything a pass only
reads; ``run_pass`` performs the workload's fixed list of operations once and
checks every output.  Library calls go through module attributes
(``imputers.missforest_impute``), so the tracer's wrappers see them.

Checks are written against numpy arrays here rather than with labimpute's
own helpers, so a defect in the program cannot hide in its checker.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from labimpute import cli, data, forest, harness, imputers
from labimpute.data import ColumnKind, ColumnSchema, DataTable, LabelVector


@dataclass
class Op:
    key: str            # identifies the same operation across passes
    latency_s: float
    error: str = ""     # empty when the operation and its checks succeeded
    digest: str = ""    # hash of the output, compared across passes


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    ops: list[Op] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)
    masked_mse: list[float] = field(default_factory=list)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# generated inputs

def _quantile_bins(score: np.ndarray, k: int) -> np.ndarray:
    edges = np.quantile(score, np.linspace(0.0, 1.0, k + 1)[1:-1])
    return np.searchsorted(edges, score).astype(np.float64)


def mixed_table(seed: int, n: int, n_cont: int, cat_ks: tuple[int, ...],
                label_k: int = 0, n_factors: int = 3
                ) -> tuple[DataTable, LabelVector | None]:
    """A complete n-row table driven by a few shared latent factors.

    Continuous columns are noisy linear views of the factors; categorical
    columns (and the optional class label) are quantile bins of further
    views, so every column is predictable from the others.  The loadings are
    fixed for a given shape and only the rows are drawn from ``seed``, so
    every seed samples the same distribution.
    """
    shape_rng = np.random.default_rng([n_cont, len(cat_ks), label_k, n_factors])
    n_views = n_cont + len(cat_ks) + (1 if label_k else 0)
    loadings = shape_rng.standard_normal((n_factors, n_views))
    loadings /= np.linalg.norm(loadings, axis=0)
    rng = np.random.default_rng(seed)
    views = rng.standard_normal((n, n_factors)) @ loadings
    views += 0.5 * rng.standard_normal(views.shape)

    cols, schema = [], []
    for j in range(n_cont):
        cols.append(views[:, j])
        schema.append(ColumnSchema(f"x{j}", ColumnKind.CONTINUOUS))
    for i, k in enumerate(cat_ks):
        cols.append(_quantile_bins(views[:, n_cont + i], k))
        schema.append(ColumnSchema(f"c{i}", ColumnKind.CATEGORICAL,
                                   tuple(f"k{t}" for t in range(k))))
    values = np.column_stack(cols)
    table = DataTable(tuple(schema), values, np.zeros(values.shape, dtype=bool))
    label = None
    if label_k:
        label = LabelVector.from_ints(_quantile_bins(views[:, -1], label_k),
                                      tuple(f"y{t}" for t in range(label_k)), "y")
    return table, label


# ---------------------------------------------------------------------------
# output checks; each returns "" or the reason the output is wrong

def check_imputed(out: DataTable, given: DataTable) -> str:
    if out.schema != given.schema or out.values.shape != given.values.shape:
        return "imputed table changed shape or schema"
    if out.missing.any() or not np.isfinite(out.values).all():
        return "imputed table still has missing cells"
    seen = ~given.missing
    if not np.array_equal(out.values[seen].view(np.uint64),
                          given.values[seen].view(np.uint64)):
        return "observed cells are not bit-exact"
    for j, col in enumerate(out.schema):
        if col.kind is ColumnKind.CATEGORICAL:
            v = out.values[:, j]
            if np.any(v != np.floor(v)) or v.min() < 0 or v.max() >= col.n_categories:
                return f"column {col.name} left its category range"
    return ""


def check_labels(pred: LabelVector, classes: np.ndarray, n: int) -> str:
    if pred.n != n or pred.missing.any():
        return "predictions missing or of the wrong length"
    if not np.isin(pred.values, classes).all():
        return "prediction outside the class set"
    return ""


def masked_error(out: DataTable, truth: DataTable, holes: np.ndarray) -> float:
    """Mean squared error per unit of column range over the masked
    continuous cells."""
    errs = []
    for j in truth.continuous_columns():
        h = holes[:, j]
        span = np.ptp(truth.values[:, j])
        errs.append(((out.values[h, j] - truth.values[h, j]) / span) ** 2)
    return float(np.concatenate(errs).mean())


def masked_cat_accuracy(out: DataTable, truth: DataTable, holes: np.ndarray) -> float:
    """Share of masked categorical cells imputed to their true category."""
    hits = [out.values[holes[:, j], j] == truth.values[holes[:, j], j]
            for j in truth.categorical_columns()]
    return float(np.concatenate(hits).mean())


def _op(res: PassResult, key: str, call, check):
    """Time one op, check its output and record it in ``res``.  Returns the
    output, or None when the call raised or the check failed."""
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # a failed call is a counted error
        res.ops.append(Op(key, time.perf_counter() - t0, repr(exc)))
        return None
    latency = time.perf_counter() - t0
    error = check(out)
    res.ops.append(Op(key, latency, error, _sha(out.values)))
    return None if error else out


def _number(row: dict, column: str) -> float | None:
    try:
        return float(row[column])
    except (KeyError, ValueError):
        return None


# ---------------------------------------------------------------------------
# workloads

class IrisGrid:
    """The paper's experiment through the CLI on builtin:iris, cells on the
    harness thread pool at --threads = nproc.  One op is one result row."""

    name = "iris-grid"
    tail_pct = 90
    _CLASSIFIERS = {"cbmi", "iclf-missforest", "rf-missing"}

    def __init__(self, smoke: bool, workdir: Path):
        self.workdir = workdir
        self.threads = nproc()
        self.config = {
            "dataset": "builtin:iris",
            "label": "species",
            "scenario": "test_missing",
            "rates": [0.3] if smoke else [0.2, 0.4],
            "repetitions": 1 if smoke else 4,
            "methods": ["cbmi", "iclf-missforest", "rf-missing",
                        "iul-vs-di-missforest", "iul-vs-di-mice"],
            "train_ratio": 0.6,
            "forest": {"n_trees": 2 if smoke else 4},
            "missforest": {"max_iter": 2 if smoke else 10},
            "mice": {"n_iter": 10, "ridge": 1e-8},
        }

    def setup(self, seed: int) -> dict:
        harness.resolve_dataset(self.config["dataset"])
        path = self.workdir / "iris_grid.json"
        path.write_text(json.dumps(dict(self.config, seed=seed)), encoding="utf-8")
        cfg = harness.load_experiment_config(path)
        keys = [f"{m},{float(r):g},{rep}" for m in cfg.record_methods()
                for r in cfg.rates for rep in range(cfg.repetitions)]
        return {"config": path, "keys": keys, "out": self.workdir / "iris_grid_out"}

    def run_pass(self, state: dict, threads: int | None = None) -> PassResult:
        argv = ["experiment", "--config", str(state["config"]),
                "--threads", str(threads or self.threads),
                "--out-dir", str(state["out"]), "--formats", "csv"]
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.cli_main(argv)
        except Exception as exc:  # every row of the pass then counts as failed
            code = repr(exc)
        res = PassResult(time.perf_counter() - t0, time.process_time() - c0)

        rows, times = {}, {}
        if code == 0:
            with open(state["out"] / "runs.csv", encoding="utf-8", newline="") as fh:
                for r in csv.DictReader(fh):
                    rows[f"{r['method']},{float(r['rate']):g},{r['repetition']}"] = r
            with open(state["out"] / "timings.csv", encoding="utf-8", newline="") as fh:
                for r in csv.DictReader(fh):
                    key = f"{r['method']},{float(r['rate']):g},{r['repetition']}"
                    times[key] = float(r["wall_time_seconds"])
        for key in state["keys"]:
            row = rows.get(key)
            if row is None:
                res.ops.append(Op(key, 0.0, f"no result row (cli exit {code})"))
                continue
            error = "" if row["status"] == "ok" else f"status={row['status']}"
            if not error and row["method"] in self._CLASSIFIERS:
                acc = _number(row, "accuracy")
                if acc is None or not 0.0 <= acc <= 1.0:
                    error = "accuracy missing or outside [0, 1]"
                else:
                    res.accuracy.append(acc)
            elif not error:
                mse = _number(row, "masked_mse")
                if mse is None or not (np.isfinite(mse) and mse >= 0.0):
                    error = "masked_mse missing or not a finite non-negative number"
                else:
                    res.masked_mse.append(mse)
            line = ",".join(row[c] for c in row)
            res.ops.append(Op(key, times[key], error,
                              hashlib.sha256(line.encode()).hexdigest()))
        if len(rows) != len(state["keys"]):
            res.ops.append(Op("row-count", 0.0,
                              f"{len(rows)} rows, expected {len(state['keys'])}"))
        return res


class SynthMissForest:
    """missForest called directly on a generated 2000x10 mixed table (7
    latent-factor continuous columns, categoricals with k = 3, 6, 14) under
    MCAR masks at several rates.  One op is one call."""

    name = "synth-missforest"
    tail_pct = 75

    def __init__(self, smoke: bool, workdir: Path):
        self.n = 200 if smoke else 2000
        self.rates = (0.1, 0.3) if smoke else (0.05, 0.1, 0.2, 0.3, 0.4)
        self.forest = forest.ForestParams(n_trees=1)
        self.max_iter = 1  # one sweep per call: short ops, many per run

    def setup(self, seed: int) -> dict:
        truth, _ = mixed_table(seed, self.n, 7, (3, 6, 14))
        masked = [data.apply_mcar(truth, r, seed * 1000 + i)[0]
                  for i, r in enumerate(self.rates)]
        params = imputers.MissForestParams(self.forest, self.max_iter, seed)
        return {"truth": truth, "masked": masked, "params": params}

    def run_pass(self, state: dict) -> PassResult:
        res = PassResult(0.0, 0.0)
        c0, t0 = time.process_time(), time.perf_counter()
        for rate, given in zip(self.rates, state["masked"]):
            out = _op(res, f"rate={rate}",
                      lambda: imputers.missforest_impute(given, state["params"])[0],
                      lambda out: check_imputed(out, given))
            if out is not None:
                res.masked_mse.append(masked_error(out, state["truth"], given.missing))
                res.accuracy.append(masked_cat_accuracy(out, state["truth"], given.missing))
        res.wall_s, res.cpu_s = time.perf_counter() - t0, time.process_time() - c0
        return res


class MicePredict:
    """Deterministic MICE on a wide 20000x24 mixed table, then forest
    predictions with missing-value routing on large incomplete batches
    through a 100-tree forest fitted in setup.  The timed pass grows no
    trees.  One op is one mice_impute or one predict_with_missing call."""

    name = "mice-predict"
    tail_pct = 75

    def __init__(self, smoke: bool, workdir: Path):
        self.n = 1000 if smoke else 20000
        self.n_train = 200 if smoke else 300
        self.batches = 2 if smoke else 8
        self.mice = imputers.MiceParams(n_iter=2 if smoke else 10, ridge=1e-8)
        self.forest = forest.ForestParams(n_trees=10 if smoke else 100)
        self.rate = 0.2

    def setup(self, seed: int) -> dict:
        table, label = mixed_table(seed, self.n_train + self.n, 18,
                                   (2, 3, 4, 5, 6, 8), label_k=3)
        idx = np.arange(table.n_rows)
        train, test = idx[:self.n_train], idx[self.n_train:]
        truth = table.take_rows(test)
        given, _ = data.apply_mcar(truth, self.rate, seed)
        model = forest.fit_forest(table.take_rows(train), label.take(train),
                                  self.forest, seed)
        parts = np.array_split(np.arange(self.n), self.batches)
        return {
            "truth": truth, "given": given, "model": model,
            "batches": [(given.take_rows(p), label.take(test[p])) for p in parts],
            "classes": np.unique(label.values),
        }

    def run_pass(self, state: dict) -> PassResult:
        res = PassResult(0.0, 0.0)
        c0, t0 = time.process_time(), time.perf_counter()
        given = state["given"]
        out = _op(res, "mice", lambda: imputers.mice_impute(given, self.mice),
                  lambda out: check_imputed(out, given))
        if out is not None:
            res.masked_mse.append(masked_error(out, state["truth"], given.missing))
        for i, (batch, y) in enumerate(state["batches"]):
            pred = _op(res, f"predict{i}",
                       lambda: forest.predict_with_missing(state["model"], batch),
                       lambda pred: check_labels(pred, state["classes"], batch.n_rows))
            if pred is not None:
                res.accuracy.append(float(np.mean(pred.values == y.values)))
        res.wall_s, res.cpu_s = time.perf_counter() - t0, time.process_time() - c0
        return res


WORKLOADS = {w.name: w for w in (IrisGrid, SynthMissForest, MicePredict)}
