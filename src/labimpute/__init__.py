"""Random-forest imputation for mixed tables, and classifiers built on it.

The core engine fills missing cells by repeatedly fitting random forests
column by column.  On top of it sit two labeling strategies: stacking the
label into the table before imputing, and classifying unlabeled rows by
imputing their blanked-out labels.  A deterministic chained-equations
imputer, a forest that routes missing values natively, an experiment
harness, and a verifier for the label-stacking error decomposition round
out the package.
"""

from .data import (
    ColumnKind,
    ColumnSchema,
    DataTable,
    LabelVector,
    MaskedMse,
    accuracy,
    apply_mcar,
    concat_rows,
    labels_equal,
    load_csv,
    masked_mse,
    save_csv,
    scale_minmax,
    schema_from_json,
    schema_to_json,
    split_label,
    tables_equal,
    train_test_split,
)
from .errors import DataError, InvariantError, SchemaError
from .forest import (
    ForestModel,
    ForestParams,
    fit_forest,
    predict,
    predict_with_missing,
)
from .harness import (
    AggregateRow,
    ExperimentConfig,
    ExperimentReport,
    RunRecord,
    Scenario,
    emit_report,
    load_experiment_config,
    resolve_dataset,
    run_experiment,
    save_experiment_config,
)
from .imputers import (
    IterationTrace,
    MiceParams,
    MissForestParams,
    SweepRecord,
    impute,
    mice_impute,
    missforest_impute,
)
from .strategies import (
    CbmiResult,
    cbmi_predict,
    di_impute,
    iclf_predict,
    iul_impute,
    rf_missing_predict,
    stack_labels,
    unstack,
)
from .theory import (
    TheoremInstance,
    TheoremReport,
    sample_instance,
    verify_theorem1,
)

__version__ = "0.1.0"

__all__ = [
    "ColumnKind",
    "ColumnSchema",
    "DataTable",
    "LabelVector",
    "MaskedMse",
    "accuracy",
    "apply_mcar",
    "concat_rows",
    "labels_equal",
    "load_csv",
    "masked_mse",
    "save_csv",
    "scale_minmax",
    "schema_from_json",
    "schema_to_json",
    "split_label",
    "tables_equal",
    "train_test_split",
    "DataError",
    "InvariantError",
    "SchemaError",
    "ForestModel",
    "ForestParams",
    "fit_forest",
    "predict",
    "predict_with_missing",
    "AggregateRow",
    "ExperimentConfig",
    "ExperimentReport",
    "RunRecord",
    "Scenario",
    "emit_report",
    "load_experiment_config",
    "resolve_dataset",
    "run_experiment",
    "save_experiment_config",
    "IterationTrace",
    "MiceParams",
    "MissForestParams",
    "SweepRecord",
    "impute",
    "mice_impute",
    "missforest_impute",
    "CbmiResult",
    "cbmi_predict",
    "di_impute",
    "iclf_predict",
    "iul_impute",
    "rf_missing_predict",
    "stack_labels",
    "unstack",
    "TheoremInstance",
    "TheoremReport",
    "sample_instance",
    "verify_theorem1",
    "__version__",
]
