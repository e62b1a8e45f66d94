"""Bit-level pins of raw engine output.

Each pin is the sha256 of the bytes of one array the engines return.  The
``runs.csv`` digests of test_harness write metrics at 6 significant digits,
so they cannot see a change in the last bits of a regression average or of
an imputed cell; these pins can.  A pin that moves means the engine's output
changed, which a change meant to be bit-neutral (a faster grower, a new tree
layout) must not do.

The forest and missForest pins depend only on numpy's integer and IEEE
arithmetic.  MICE goes through BLAS products and LAPACK ``solve``, so its
pin holds for one numpy/BLAS build and one OpenBLAS core; its failure
message names both.
"""

import ctypes
import hashlib
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from labimpute.data import (
    ColumnKind,
    ColumnSchema,
    DataTable,
    LabelVector,
    apply_mcar,
    load_csv,
    split_label,
    train_test_split,
)
from labimpute.forest import ForestParams, fit_forest, predict, predict_with_missing
from labimpute.imputers import MiceParams, MissForestParams, mice_impute, missforest_impute
from labimpute.strategies import cbmi_predict


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _iris() -> DataTable:
    return load_csv(str(resources.files("labimpute") / "_assets/iris.csv"))


def _mixed() -> DataTable:
    """120 complete rows: three continuous columns and categoricals of
    k = 3, 6 (enumerated subsets) and 13 (mean-order prefixes), all driven
    by two shared factors."""
    rng = np.random.default_rng(20231128)
    n = 120
    f = rng.standard_normal((n, 2))
    cont = f @ rng.standard_normal((2, 3)) + 0.3 * rng.standard_normal((n, 3))
    cats = []
    for k, w in ((3, (1.0, 0.0)), (6, (0.5, 1.0)), (13, (1.0, -1.0))):
        score = f @ np.array(w) + 0.3 * rng.standard_normal(n)
        edges = np.quantile(score, np.linspace(0.0, 1.0, k + 1)[1:-1])
        cats.append(np.searchsorted(edges, score))
    schema = tuple(ColumnSchema(f"x{j}", ColumnKind.CONTINUOUS) for j in range(3)) + tuple(
        ColumnSchema(f"c{k}", ColumnKind.CATEGORICAL, tuple(f"v{i}" for i in range(k)))
        for k in (3, 6, 13))
    values = np.column_stack([cont] + cats).astype(np.float64)
    return DataTable(schema, values, np.zeros(values.shape, dtype=bool))


def _subsets() -> DataTable:
    """120 complete rows: two continuous columns and categoricals of k = 2
    (one subset), 4 and 10 (511 subsets), driven by two shared factors."""
    rng = np.random.default_rng(20261022)
    n = 120
    f = rng.standard_normal((n, 2))
    cont = f @ rng.standard_normal((2, 2)) + 0.3 * rng.standard_normal((n, 2))
    cats = []
    for k, w in ((2, (1.0, 0.5)), (4, (0.5, 1.0)), (10, (1.0, -1.0))):
        score = f @ np.array(w) + 0.3 * rng.standard_normal(n)
        edges = np.quantile(score, np.linspace(0.0, 1.0, k + 1)[1:-1])
        cats.append(np.searchsorted(edges, score))
    schema = tuple(ColumnSchema(f"x{j}", ColumnKind.CONTINUOUS) for j in range(2)) + tuple(
        ColumnSchema(f"c{k}", ColumnKind.CATEGORICAL, tuple(f"v{i}" for i in range(k)))
        for k in (2, 4, 10))
    values = np.column_stack([cont] + cats).astype(np.float64)
    return DataTable(schema, values, np.zeros(values.shape, dtype=bool))


def _trace_array(trace) -> np.ndarray:
    return np.array([[s.iteration,
                      np.nan if s.delta_continuous is None else s.delta_continuous,
                      np.nan if s.delta_categorical is None else s.delta_categorical]
                     for s in trace.sweeps], dtype=np.float64)


def _forest_outputs(table: DataTable, label: str, missing: bool) -> np.ndarray:
    X, y = split_label(table, label)
    (X_tr, y_tr), (X_te, _) = train_test_split(X, y, 0.7, seed=3)
    params = ForestParams(n_trees=12)
    if not missing:
        model = fit_forest(X_tr, y_tr, params, seed=5)
        return np.concatenate([predict(model, X_te).values,
                               predict_with_missing(model, X_te).values])
    X_tr, _ = apply_mcar(X_tr, 0.25, seed=7)
    X_te, _ = apply_mcar(X_te, 0.25, seed=8)
    model = fit_forest(X_tr, y_tr, params, seed=5)
    return predict_with_missing(model, X_te).values


FOREST_PINS = {
    ("iris", "species", False): "f18a7d412025d1f667e7c48cc834961d4021a9ae9be9d0e5157c8b044d76d946",
    ("iris", "species", True): "7e2756021bf9ff8d319d8984e9c108b711b063acc13763b054fdc85c1a8e0974",
    ("iris", "petal_width", False): "12106956de1cb15fd65cd66348b4edcfb561d5e902fd950dfdd9f8778a89571e",
    ("iris", "petal_width", True): "a00ec2225544d4cf3e9eb546f5b1971299e2c701a2f8139fb03e8c2d06867d50",
    ("mixed", "c13", False): "4112dbf44264d9fd0b42e59e8779906c3ec1e31bc123cc4ed808980b3b3fd5c6",
    ("mixed", "c13", True): "53fe54e926082267fdf44c79181f1a5491ab8ea86eed553bc7c3287dab24e61e",
    ("mixed", "c6", False): "3e633ee5b3b43d9203d92b3291a1bdc9787b97a89ef5e3c10e2146c9c295a783",
    ("mixed", "c6", True): "bc94296036edccafc740c35c92e1f7b091d1aa3ac0ba565db8afba2c88532350",
    ("mixed", "x0", False): "ab5624335a4a76eedfc83a2796ca7457845d196b084c7e6f62ece177176f2a72",
    ("mixed", "x0", True): "fbfe9aa189d9e5065748167ec4806c777a065f20741ec79eb67f07764610671e",
    ("subsets", "c4", False): "b893062655da9630173eca6b7beb7f180250bd89c0f32d13c0de32e60a415ccc",
    ("subsets", "c4", True): "057680c6366da156fb881ea81db12761812d3166241c3e16cab42e3103efa1ed",
    ("subsets", "x0", False): "1e8a78d18a0f94b4c3ee7c270b6f1770d086c528a9b11e590e832bb081de2267",
    ("subsets", "x0", True): "c6a00b77a4ffef693c6fe13fe358a96a5f897280ba424ad999be8e6308a88912",
}


@pytest.mark.parametrize("dataset,label,missing", sorted(FOREST_PINS),
                         ids=lambda v: str(v))
def test_forest_predictions_pinned(dataset, label, missing):
    table = {"iris": _iris, "mixed": _mixed, "subsets": _subsets}[dataset]()
    out = _forest_outputs(table, label, missing)
    assert _sha(out) == FOREST_PINS[dataset, label, missing]


MANY_CLASSES_PIN = "9f99ccc6063197075d9f4d94dcd2cdb111ec185807c1d3e40f150603dfba099b"


def test_forest_predictions_beyond_255_classes_pinned():
    # 311 classes, with missing cells: the class codes sort as uint16
    rng = np.random.default_rng(31)
    n = 1200
    x = rng.normal(size=(n, 3))
    y = np.clip(((x[:, 0] + 3) * 70).astype(int) + rng.integers(0, 5, n), 0, 399)
    schema = tuple(ColumnSchema(f"x{j}", ColumnKind.CONTINUOUS) for j in range(3))
    X, _ = apply_mcar(DataTable(schema, x, np.zeros(x.shape, dtype=bool)), 0.1, seed=41)
    labels = LabelVector.from_ints(y.tolist(), [f"c{i}" for i in range(400)])
    model = fit_forest(X, labels, ForestParams(n_trees=3), seed=37)
    assert _sha(predict(model, X).values) == MANY_CLASSES_PIN


MISSFOREST_PINS = {
    "iris": ("ad8225bb7ed3bfcb33a944a985149af341ad2c0fc58c9b515303467bd5a8f458",
             "04e4795a8887673079ca477db9936ab9e098105b07f278cf79ea0003747d06de",
             "max_iter"),
    "mixed": ("67cc835dd0554198f665791dae8b3adfbd843428681480a330d59025938af454",
              "0180c93485b0e27400609ef8ccbb7ff4aaac9c7450d1da26958e4966b53f83eb",
              "delta_increase"),
}


@pytest.mark.parametrize("dataset", sorted(MISSFOREST_PINS))
def test_missforest_values_and_trace_pinned(dataset):
    table = _iris() if dataset == "iris" else _mixed()
    masked, _ = apply_mcar(table, 0.2, seed=11)
    params = MissForestParams(ForestParams(n_trees=8), max_iter=6, seed=13)
    done, trace = missforest_impute(masked, params)
    values, sweeps, reason = MISSFOREST_PINS[dataset]
    assert (_sha(done.values), _sha(_trace_array(trace)), trace.stop_reason) == (
        values, sweeps, reason)


def _numpy_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # older numpy has no dict mode
        blas = f"unknown ({exc})"
    return f"numpy {np.__version__}, BLAS {blas}"


def _openblas_core() -> str:
    """The core OpenBLAS picked at load time (e.g. SkylakeX), read from the
    OpenBLAS that numpy ships, or "unknown" without that library."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


MICE_PINS = {
    "iris": "476d7dd2dfc4cdd733b126a1c63f3c67b9ace28df9621b2712c07448432aa891",
    "mixed": "3a48333528133ed73600e5597917a76a7416c60d3af9484cc65b90a797221305",
}


@pytest.mark.parametrize("dataset", sorted(MICE_PINS))
def test_mice_values_pinned(dataset):
    # BLAS and LAPACK: bit-stable for one numpy/BLAS build and one OpenBLAS core
    table = _iris() if dataset == "iris" else _mixed()
    masked, _ = apply_mcar(table, 0.2, seed=17)
    done = mice_impute(masked, MiceParams(n_iter=5))
    assert _sha(done.values) == MICE_PINS[dataset], (
        f"MICE output changed; the pin was taken with numpy 2.4.6 and "
        f"scipy-openblas on the SkylakeX core; this run uses {_numpy_build()} "
        f"on the {_openblas_core()} core")


CBMI_PIN = "ae10177263cd9d03f82b915b59a4a3de432633544859c5c3043c962bbe7cc895"


def test_cbmi_predictions_pinned():
    X, y = split_label(_iris(), "species")
    (X_tr, y_tr), (X_te, _) = train_test_split(X, y, 0.6, seed=19)
    X_tr, _ = apply_mcar(X_tr, 0.2, seed=23)
    result = cbmi_predict(X_tr, y_tr, X_te,
                          MissForestParams(ForestParams(n_trees=8), max_iter=4, seed=29))
    assert isinstance(result.y_pred, LabelVector) and result.y_pred.kind is ColumnKind.CATEGORICAL
    assert _sha(result.y_pred.values) == CBMI_PIN
