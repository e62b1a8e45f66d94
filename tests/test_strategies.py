import numpy as np
import pytest

from labimpute.data import (
    ColumnKind,
    ColumnSchema,
    DataTable,
    LabelKind,
    LabelVector,
    apply_mcar,
    labels_equal,
    tables_equal,
)
from labimpute.errors import DataError
from labimpute.forest import ForestParams, fit_forest, predict
from labimpute.imputers import MiceParams, MissForestParams
from labimpute.strategies import (
    Scenario,
    cbmi_predict,
    di_impute,
    iclf_predict,
    iul_impute,
    rf_missing_predict,
    stack_labels,
    unstack,
)


def cont_table(values, missing=None):
    values = np.asarray(values, dtype=np.float64)
    schema = tuple(ColumnSchema(f"x{j}", ColumnKind.CONTINUOUS)
                   for j in range(values.shape[1]))
    if missing is None:
        missing = np.zeros(values.shape, dtype=bool)
    return DataTable(schema, values, np.asarray(missing, dtype=bool))


def class_labels(ints, k=None, name="label"):
    ints = list(ints)
    k = k if k is not None else max(ints) + 1
    return LabelVector.from_ints(ints, [f"c{i}" for i in range(k)], name=name)


def mf_params(seed=0, trees=10, max_iter=10):
    return MissForestParams(forest=ForestParams(n_trees=trees),
                            max_iter=max_iter, seed=seed)


# ---------------------------------------------------------------------------
# stacking
# ---------------------------------------------------------------------------

def test_stack_unstack_round_trip():
    rng = np.random.default_rng(0)
    X = cont_table(rng.normal(size=(12, 3)))
    y = class_labels(rng.integers(0, 2, 12).tolist(), k=2)
    st = stack_labels(X, y)
    assert st.n_cols == 4
    assert st.schema[3].kind is ColumnKind.CATEGORICAL
    X2, y2 = unstack(st, y.name)
    assert tables_equal(X, X2)
    assert labels_equal(y, y2)


def test_stack_regression_label_and_missing_labels():
    X = cont_table([[1.0], [2.0]])
    y = LabelVector(LabelKind.REGRESSION, np.array([0.5, np.nan]),
                    np.array([False, True]))
    st = stack_labels(X, y)
    assert st.schema[1].kind is ColumnKind.CONTINUOUS
    assert st.missing[1, 1]
    _, y2 = unstack(st, y.name)
    assert labels_equal(y, y2)


def test_stack_renames_colliding_label():
    X = DataTable((ColumnSchema("label", ColumnKind.CONTINUOUS),),
                  np.array([[1.0]]), np.array([[False]]))
    y = class_labels([0], k=1)
    st = stack_labels(X, y)
    assert st.schema[1].name == "label_target"
    X2, y2 = unstack(st, "label")
    assert y2.name == "label" and labels_equal(y, y2)
    assert tables_equal(X, X2)


# ---------------------------------------------------------------------------
# IUL / DI
# ---------------------------------------------------------------------------

def test_iul_preserves_fully_observed_labels_bit_exact():
    rng = np.random.default_rng(1)
    base = cont_table(rng.normal(size=(30, 3)))
    masked, _ = apply_mcar(base, 0.25, seed=2)
    y = class_labels(rng.integers(0, 2, 30).tolist(), k=2)
    X_imp, y_imp = iul_impute(masked, y, mf_params(seed=3))
    assert X_imp.is_complete()
    assert labels_equal(y, y_imp)


def test_iul_fills_missing_labels_semisupervised():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, 40)
    X = cont_table(np.column_stack([x, x + 0.01 * rng.normal(size=40)]))
    yvals = (x > 0).astype(float)
    miss = np.zeros(40, dtype=bool)
    miss[[3, 17, 29]] = True
    y = LabelVector(LabelKind.CLASS, np.where(miss, np.nan, yvals), miss, ("n", "p"))
    X_imp, y_imp = iul_impute(X, y, mf_params(seed=4, trees=30))
    assert y_imp.is_complete()
    # strongly separated labels should be recovered
    assert np.array_equal(y_imp.values[miss], yvals[miss])


def test_iul_and_di_with_mice_engine():
    rng = np.random.default_rng(3)
    base = cont_table(rng.normal(size=(25, 3)))
    masked, _ = apply_mcar(base, 0.2, seed=5)
    y = class_labels(rng.integers(0, 2, 25).tolist(), k=2)
    X_imp, y_imp = iul_impute(masked, y, MiceParams())
    assert X_imp.is_complete() and y_imp.is_complete()
    di = di_impute(masked, MiceParams())
    assert di.is_complete()


def test_di_equals_engine_on_plain_table():
    rng = np.random.default_rng(4)
    base = cont_table(rng.normal(size=(20, 3)))
    masked, _ = apply_mcar(base, 0.2, seed=6)
    from labimpute.imputers import missforest_impute

    direct, _ = missforest_impute(masked, mf_params(seed=7))
    assert tables_equal(di_impute(masked, mf_params(seed=7)), direct)


# ---------------------------------------------------------------------------
# CBMI
# ---------------------------------------------------------------------------

def test_cbmi_single_class_training_labels():
    rng = np.random.default_rng(5)
    Xtr = cont_table(rng.normal(size=(15, 2)))
    Xte = cont_table(rng.normal(size=(6, 2)))
    y = class_labels([1] * 15, k=2)
    res = cbmi_predict(Xtr, y, Xte, mf_params(seed=8))
    assert np.all(res.y_pred.values == 1.0)
    assert res.y_pred.n == 6


def test_cbmi_separable_one_dimension():
    # x < 0 -> class 0, x > 0 -> class 1; single exhaustive tree
    x = np.concatenate([np.linspace(-2, -0.1, 10), np.linspace(0.1, 2, 10)])
    Xtr = cont_table(x[:, None])
    y = class_labels([0] * 10 + [1] * 10)
    Xte = cont_table(np.array([[5.0], [-5.0]]))
    params = MissForestParams(forest=ForestParams(n_trees=1, bootstrap=False),
                              max_iter=10, seed=0)
    res = cbmi_predict(Xtr, y, Xte, params)
    assert res.y_pred.values.tolist() == [1.0, 0.0]


def test_cbmi_transduction_no_train_row_is_touched():
    rng = np.random.default_rng(6)
    Xtr = cont_table(rng.normal(size=(20, 3)))
    Xte = cont_table(rng.normal(size=(8, 3)))
    y = class_labels(rng.integers(0, 3, 20).tolist(), k=3)
    res = cbmi_predict(Xtr, y, Xte, mf_params(seed=9))
    assert labels_equal(res.y_train_imputed, y)
    assert res.completed.is_complete()
    # feature cells were fully observed: completion preserved them
    assert np.array_equal(res.completed.values[:20, :3], Xtr.values)
    assert np.array_equal(res.completed.values[20:, :3], Xte.values)
    assert res.y_pred.n == 8 and res.y_pred.is_complete()


def test_cbmi_handles_missing_features_and_train_labels():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, 40)
    X = cont_table(np.column_stack([x, -x]))
    yv = (x > 0).astype(float)
    Xtr, Xte = X.take_rows(np.arange(30)), X.take_rows(np.arange(30, 40))
    Xtr_m, _ = apply_mcar(Xtr, 0.2, seed=10)
    miss = np.zeros(30, dtype=bool)
    miss[[2, 11]] = True
    ytr = LabelVector(LabelKind.CLASS, np.where(miss, np.nan, yv[:30]), miss, ("n", "p"))
    res = cbmi_predict(Xtr_m, ytr, Xte, mf_params(seed=11, trees=30))
    assert res.y_pred.is_complete() and res.y_train_imputed.is_complete()
    acc = np.mean(res.y_pred.values == yv[30:])
    assert acc >= 0.8


def test_cbmi_rejects_bad_inputs():
    Xtr = cont_table([[1.0], [2.0]])
    Xte = cont_table([[1.0]])
    with pytest.raises(DataError):
        cbmi_predict(Xtr, LabelVector(LabelKind.REGRESSION, np.array([1.0, 2.0]),
                                      np.zeros(2, dtype=bool)), Xte, mf_params())
    all_missing = LabelVector.all_missing(2, LabelKind.CLASS, ("a", "b"))
    with pytest.raises(DataError):
        cbmi_predict(Xtr, all_missing, Xte, mf_params())


# ---------------------------------------------------------------------------
# IClf / RF baselines
# ---------------------------------------------------------------------------

def test_iclf_on_complete_data_equals_plain_forest():
    rng = np.random.default_rng(8)
    Xtr = cont_table(rng.normal(size=(30, 3)))
    Xte = cont_table(rng.normal(size=(12, 3)))
    y = class_labels((Xtr.values[:, 0] > 0).astype(int).tolist(), k=2)
    fp = ForestParams(n_trees=15)
    direct = predict(fit_forest(Xtr, y, fp, seed=21), Xte)
    via = iclf_predict(Xtr, y, Xte, mf_params(seed=1), fp,
                       Scenario.TEST_OBSERVED, seed=21)
    assert np.array_equal(direct.values, via.values)
    via2 = iclf_predict(Xtr, y, Xte, mf_params(seed=1), fp,
                        Scenario.TEST_MISSING, seed=21)
    assert np.array_equal(direct.values, via2.values)


def test_iclf_test_missing_imputes_both_sides():
    rng = np.random.default_rng(9)
    base_tr = cont_table(rng.normal(size=(40, 3)))
    base_te = cont_table(rng.normal(size=(15, 3)))
    y = class_labels((base_tr.values[:, 0] > 0).astype(int).tolist(), k=2)
    Xtr, _ = apply_mcar(base_tr, 0.3, seed=12)
    Xte, _ = apply_mcar(base_te, 0.3, seed=13)
    pred = iclf_predict(Xtr, y, Xte, mf_params(seed=2), ForestParams(n_trees=15),
                        Scenario.TEST_MISSING, seed=22)
    assert pred.n == 15 and pred.is_complete()


def test_iclf_test_observed_rejects_missing_test_rows():
    Xtr = cont_table([[1.0], [2.0], [3.0], [4.0]])
    y = class_labels([0, 0, 1, 1])
    Xte = cont_table([[np.nan]], missing=[[True]])
    with pytest.raises(DataError):
        iclf_predict(Xtr, y, Xte, mf_params(), ForestParams(n_trees=3),
                     Scenario.TEST_OBSERVED, seed=0)


def test_rf_missing_fits_and_predicts_through_holes():
    rng = np.random.default_rng(10)
    base_tr = cont_table(rng.normal(size=(60, 3)))
    yv = (base_tr.values[:, 0] > 0).astype(int)
    Xtr, _ = apply_mcar(base_tr, 0.3, seed=14)
    base_te = cont_table(rng.normal(size=(20, 3)))
    Xte, _ = apply_mcar(base_te, 0.3, seed=15)
    pred = rf_missing_predict(Xtr, class_labels(yv.tolist(), k=2), Xte,
                              ForestParams(n_trees=25), seed=23)
    assert pred.n == 20 and pred.is_complete()
    clean_acc = np.mean(
        rf_missing_predict(Xtr, class_labels(yv.tolist(), k=2), base_te,
                           ForestParams(n_trees=25), seed=23).values
        == (base_te.values[:, 0] > 0)
    )
    assert clean_acc >= 0.8


def test_strategies_are_deterministic():
    rng = np.random.default_rng(11)
    base = cont_table(rng.normal(size=(30, 3)))
    Xtr, _ = apply_mcar(base, 0.25, seed=16)
    y = class_labels(rng.integers(0, 2, 30).tolist(), k=2)
    Xte = cont_table(rng.normal(size=(10, 3)))
    a = cbmi_predict(Xtr, y, Xte, mf_params(seed=30))
    b = cbmi_predict(Xtr, y, Xte, mf_params(seed=30))
    assert np.array_equal(a.y_pred.values, b.y_pred.values)
    p1 = iclf_predict(Xtr, y, Xte, mf_params(seed=31), ForestParams(n_trees=10),
                      Scenario.TEST_OBSERVED, seed=32)
    p2 = iclf_predict(Xtr, y, Xte, mf_params(seed=31), ForestParams(n_trees=10),
                      Scenario.TEST_OBSERVED, seed=32)
    assert np.array_equal(p1.values, p2.values)
