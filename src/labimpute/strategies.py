"""Label-aware imputation strategies and classification baselines.

The central move: append the target as one more column of the table so the
imputation engine can exploit it, then peel it back off.

  iul_impute     impute [X | y] jointly, return both parts completed
  di_impute      impute X alone (the label-free counterpart)
  cbmi_predict   classify by stacking train and test rows, hiding the test
                 labels, and letting the imputer fill them in; no separate
                 classifier is ever fit
  iclf_predict   impute first, test rows jointly with the training input
                 when they have holes, then fit a forest classifier
  rf_missing_predict  skip imputation, fit the forest directly on missing
                 data with majority-direction routing
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import (
    ColumnKind,
    ColumnSchema,
    DataTable,
    LabelVector,
    concat_rows,
    split_label,
)
from .errors import DataError
from .forest import ForestParams, fit_forest, predict
from .imputers import (ImputerParams, IterationTrace, MissForestParams, impute,
                       missforest_impute)


def _stack_labels(X: DataTable, y: LabelVector) -> DataTable:
    """Append y as the last column of X, renamed ``<name>_target`` if X
    already has a column of its name."""
    if y.n != X.n_rows:
        raise DataError("label length does not match table rows")
    name = y.name
    if name in X.column_names:
        name = name + "_target"
    # both parts are checked, so the stacked cells need no second check
    schema = X.schema + (ColumnSchema(name, y.kind, y.categories),)
    return DataTable._unsafe(schema, np.column_stack([X.values, y.values]),
                             np.column_stack([X.missing, y.missing]))


def _unstack(table: DataTable, name: str) -> tuple[DataTable, LabelVector]:
    """Split the last column back off as the label vector called `name`."""
    X, y = split_label(table, table.n_cols - 1)
    return X, replace(y, name=name)


def iul_impute(X: DataTable, y: LabelVector, params: ImputerParams
               ) -> tuple[DataTable, LabelVector]:
    """Impute X with the label stacked in as an extra column.

    The label may itself have missing entries (they are imputed along with
    everything else); a fully-observed label comes back bit-exact.
    """
    return _unstack(impute(_stack_labels(X, y), params)[0], y.name)


def di_impute(X: DataTable, params: ImputerParams) -> DataTable:
    """Impute X alone, without looking at any label."""
    return impute(X, params)[0]


@dataclass(frozen=True)
class CbmiResult:
    y_pred: LabelVector
    y_train_imputed: LabelVector
    completed: DataTable
    trace: IterationTrace


def cbmi_predict(X_train: DataTable, y_train: LabelVector, X_test: DataTable,
                 params: MissForestParams) -> CbmiResult:
    """Classify test rows by imputing their hidden labels.

    Builds [X_train | y_train] over [X_test | all-missing], row-stacks the
    two blocks (train first), runs the forest imputer on the whole thing,
    and reads the test-row label column back out as the predictions.  Any
    missing training labels are imputed in the same pass, so partially
    labeled training data needs no special handling.
    """
    if y_train.kind is not ColumnKind.CATEGORICAL:
        raise DataError("label-imputation classification needs class labels")
    if X_train.schema != X_test.schema:
        raise DataError("train and test schemas differ")
    if bool(y_train.missing.all()) and y_train.n > 0:
        raise DataError("all training labels are missing; nothing to learn from")
    n_train = X_train.n_rows
    y_hidden = LabelVector.all_missing(X_test.n_rows, ColumnKind.CATEGORICAL,
                                       y_train.categories, y_train.name)
    stacked = concat_rows(_stack_labels(X_train, y_train), _stack_labels(X_test, y_hidden))
    completed, trace = missforest_impute(stacked, params)
    _, y_all = _unstack(completed, y_train.name)
    return CbmiResult(
        y_pred=y_all.take(np.arange(n_train, n_train + X_test.n_rows)),
        y_train_imputed=y_all.take(np.arange(n_train)),
        completed=completed,
        trace=trace,
    )


def _check_classifier_inputs(X_train: DataTable, y_train: LabelVector,
                              X_test: DataTable) -> None:
    if y_train.kind is not ColumnKind.CATEGORICAL:
        raise DataError("classification needs class labels")
    if y_train.missing.any():
        raise DataError("training labels must be fully observed")
    if X_train.schema != X_test.schema:
        raise DataError("train and test schemas differ")


def iclf_predict(X_train: DataTable, y_train: LabelVector, X_test: DataTable,
                 imputer_params: ImputerParams, forest_params: ForestParams,
                 seed: int) -> LabelVector:
    """Impute, then classify with a forest.

    Test rows with holes are row-stacked with the training input for a
    joint label-free imputation and split back out; complete ones are used
    as they are, which is what that imputation would return.  The
    classifier itself is trained on an imputation of the training input
    alone.  The forest is seeded with `seed` directly, so on fully-observed
    data this composes to a plain fit-and-predict.
    """
    _check_classifier_inputs(X_train, y_train, X_test)
    if X_test.missing.any():
        merged = concat_rows(X_train, X_test)
        X_test = di_impute(merged, imputer_params).take_rows(
            np.arange(X_train.n_rows, merged.n_rows))
    model = fit_forest(di_impute(X_train, imputer_params), y_train, forest_params, seed)
    return predict(model, X_test)


def rf_missing_predict(X_train: DataTable, y_train: LabelVector, X_test: DataTable,
                       forest_params: ForestParams, seed: int) -> LabelVector:
    """Forest classification straight on the incomplete data.

    No imputation: split scores ignore rows missing the candidate feature
    and rows are routed through the majority child at both fit and
    predict time.
    """
    _check_classifier_inputs(X_train, y_train, X_test)
    return predict(fit_forest(X_train, y_train, forest_params, seed), X_test)
