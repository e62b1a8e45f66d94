"""Tabular data model and dataset machinery.

A DataTable is an immutable n x p grid of optionally-missing cells over a
typed column schema.  Continuous cells hold reals; categorical cells hold
dense category indices 0..K-1 whose labels live in the schema.  Missingness
is carried by an explicit boolean flag array: the flag is the single source
of truth, and every operation masks on it before doing arithmetic (the NaN
stored behind a flagged cell is a tripwire, never an input).

The module also provides CSV ingestion with schema inference, seeded
train/test splitting, exact-count MCAR masking, min-max scaling to [-1, 1],
and the two evaluation metrics (masked MSE, accuracy).  Masks are (n, p)
boolean flag arrays, the same type as DataTable.missing.
"""

from __future__ import annotations

import csv
import enum
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from ._rng import make_rng
from .errors import DataError, SchemaError, _number, _shown, _where, checked

#: Field tokens read as a missing cell, per common UCI and numpy/pandas
#: export conventions.
MISSING_TOKENS = frozenset({"", "NA", "?", "nan", "NaN"})


def round_half_away(x: float) -> int:
    """Round to the nearest integer with halves away from zero.

    Used for every count computation (split sizes, MCAR cell counts) so
    that counts are reproducible and do not depend on banker's rounding.
    """
    if x >= 0:
        return int(math.floor(x + 0.5))
    return -int(math.floor(-x + 0.5))


class ColumnKind(enum.Enum):
    CONTINUOUS = "continuous"
    CATEGORICAL = "categorical"


@dataclass(frozen=True)
class ColumnSchema:
    """Name and type of one column; categorical columns carry their labels."""

    name: str
    kind: ColumnKind
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind is ColumnKind.CATEGORICAL:
            if not self.categories:
                raise SchemaError(f"categorical column {self.name!r} has no categories")
            if len(set(self.categories)) != len(self.categories):
                raise SchemaError(f"duplicate category labels in column {self.name!r}")
        elif self.categories:
            raise SchemaError(f"continuous column {self.name!r} cannot list categories")

    @property
    def n_categories(self) -> int:
        return len(self.categories)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_cells(schema: Sequence[ColumnSchema], values: np.ndarray,
                 missing: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frozen copies of (n, p) cells under the cell rules: NaN behind every
    flag, present cells finite, present categorical cells indices 0..K-1."""
    values, missing = values.copy(), missing.copy()
    values[missing] = np.nan
    present = ~missing
    if not np.all(np.isfinite(values[present])):
        raise DataError("present cells must be finite")
    for j, col in enumerate(schema):
        if col.kind is ColumnKind.CATEGORICAL:
            vj = values[present[:, j], j]
            if vj.size and (np.any(vj != np.floor(vj)) or np.any(vj < 0)
                            or np.any(vj >= col.n_categories)):
                raise SchemaError(
                    f"column {col.name!r} holds an index outside 0..{col.n_categories - 1}"
                )
    return _freeze(values), _freeze(missing)


@dataclass(frozen=True)
class DataTable:
    """Immutable typed table with explicit missingness flags.

    values : (n, p) float64, NaN at flagged cells, finite elsewhere.
    missing : (n, p) bool, True where the cell is missing.
    """

    schema: tuple[ColumnSchema, ...]
    values: np.ndarray
    missing: np.ndarray

    def __post_init__(self):
        schema = tuple(self.schema)
        object.__setattr__(self, "schema", schema)
        values = np.asarray(self.values, dtype=np.float64)
        missing = np.asarray(self.missing, dtype=bool)
        if values.ndim != 2 or missing.shape != values.shape:
            raise DataError("values/missing must be matching 2-D arrays")
        if values.shape[1] != len(schema):
            raise DataError(
                f"schema lists {len(schema)} columns but values has {values.shape[1]}"
            )
        for field, value in zip(("values", "missing"), _check_cells(schema, values, missing)):
            object.__setattr__(self, field, value)

    @classmethod
    def _unsafe(cls, schema: tuple[ColumnSchema, ...], values: np.ndarray,
                missing: np.ndarray) -> "DataTable":
        # Fast path for internal callers that guarantee the invariants: no
        # validation, and the table owns and freezes the arrays it is handed.
        obj = object.__new__(cls)
        object.__setattr__(obj, "schema", schema)
        object.__setattr__(obj, "values", _freeze(values))
        object.__setattr__(obj, "missing", _freeze(missing))
        return obj

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.schema)

    def column_index(self, name: str) -> int:
        for j, c in enumerate(self.schema):
            if c.name == name:
                return j
        raise DataError(f"no column named {name!r}")

    def continuous_columns(self) -> np.ndarray:
        return np.array([j for j, c in enumerate(self.schema)
                         if c.kind is ColumnKind.CONTINUOUS], dtype=np.intp)

    def categorical_columns(self) -> np.ndarray:
        return np.array([j for j, c in enumerate(self.schema)
                         if c.kind is ColumnKind.CATEGORICAL], dtype=np.intp)

    def is_complete(self) -> bool:
        return not self.missing.any()

    def missing_count_by_column(self) -> np.ndarray:
        return self.missing.sum(axis=0)

    def observed_column(self, j: int) -> np.ndarray:
        """Observed values of column j, in row order."""
        return self.values[~self.missing[:, j], j]

    def with_cells(self, values: np.ndarray) -> "DataTable":
        """New complete table over the same schema with the given cells."""
        return DataTable(self.schema, values, np.zeros_like(values, dtype=bool))

    def take_rows(self, idx: np.ndarray) -> "DataTable":
        idx = np.asarray(idx, dtype=np.intp)
        return DataTable._unsafe(self.schema, self.values[idx], self.missing[idx])

    def drop_column(self, j: int) -> "DataTable":
        keep = [k for k in range(self.n_cols) if k != j]
        schema = tuple(self.schema[k] for k in keep)
        # take, unlike [:, keep], returns a C-ordered copy
        return DataTable._unsafe(schema, self.values.take(keep, axis=1),
                                 self.missing.take(keep, axis=1))


def _same_cells(a: DataTable | LabelVector, b: DataTable | LabelVector) -> bool:
    return (a.values.shape == b.values.shape and np.array_equal(a.missing, b.missing)
            and np.array_equal(a.values[~a.missing], b.values[~b.missing]))


def tables_equal(a: DataTable, b: DataTable) -> bool:
    """Bit-exact equality: same schema, same flags, same present values."""
    return a.schema == b.schema and _same_cells(a, b)


def concat_rows(top: DataTable, bottom: DataTable) -> DataTable:
    """Row-stack two tables sharing an identical schema."""
    if top.schema != bottom.schema:
        raise SchemaError("cannot row-stack tables with different schemas")
    return DataTable._unsafe(top.schema, np.vstack([top.values, bottom.values]),
                             np.vstack([top.missing, bottom.missing]))


_UNNAMED_CLASSES = 1 << 16   # a class label without categories names ids below this


@dataclass(frozen=True)
class LabelVector:
    """Length-n target vector: the column it becomes when stacked.  A
    CATEGORICAL label holds class indices into `categories`, a CONTINUOUS
    one regression targets."""

    kind: ColumnKind
    values: np.ndarray
    missing: np.ndarray
    categories: tuple[str, ...] = ()
    name: str = "label"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        missing = np.asarray(self.missing, dtype=bool)
        if values.ndim != 1 or missing.shape != values.shape:
            raise DataError("label values/missing must be matching 1-D arrays")
        cats = tuple(self.categories)
        if self.kind is ColumnKind.CATEGORICAL and not cats:
            # name plain integer classes 0..max; a non-finite class is left
            # to fail the cell rule as a DataError, and a huge one fails
            # before any name is made
            present = values[~missing]
            top = present.max(initial=0) if np.isfinite(present).all() else 0
            if top >= _UNNAMED_CLASSES:
                raise DataError(f"class id {float(top)!r} is too large to name: unnamed "
                                f"classes go up to {_UNNAMED_CLASSES - 1}; pass categories")
            cats = tuple(str(k) for k in range(int(top) + 1))
        column = ColumnSchema(self.name, self.kind, cats)
        values, missing = _check_cells((column,), values[:, None], missing[:, None])
        for field, value in (("values", values[:, 0]), ("missing", missing[:, 0]),
                             ("categories", cats)):
            object.__setattr__(self, field, value)

    @classmethod
    def _unsafe(cls, kind: ColumnKind, values: np.ndarray, missing: np.ndarray,
                categories: tuple[str, ...], name: str) -> "LabelVector":
        # Fast-path constructor for labels the package built itself from
        # checked data; skips validation, as DataTable._unsafe does.  Kept
        # for speed: a checked 100-row class label costs ~25 µs against ~3 µs.
        obj = object.__new__(cls)
        for field, value in (("kind", kind), ("values", _freeze(values)),
                             ("missing", _freeze(missing)), ("categories", categories),
                             ("name", name)):
            object.__setattr__(obj, field, value)
        return obj

    @classmethod
    def from_ints(cls, labels: Sequence[int], categories: Sequence[str] = (),
                  name: str = "label") -> "LabelVector":
        arr = np.asarray(labels, dtype=np.float64)
        return cls(ColumnKind.CATEGORICAL, arr, np.zeros(arr.shape, dtype=bool),
                   tuple(categories), name)

    @classmethod
    def all_missing(cls, n: int, kind: ColumnKind, categories: Sequence[str] = (),
                    name: str = "label") -> "LabelVector":
        if kind is ColumnKind.CATEGORICAL and not categories:
            raise DataError("an all-missing class label needs explicit categories")
        return cls(kind, np.full(n, np.nan), np.ones(n, dtype=bool),
                   tuple(categories), name)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return len(self.categories)

    def is_complete(self) -> bool:
        return not self.missing.any()

    def as_ints(self) -> np.ndarray:
        if self.missing.any():
            raise DataError("label vector has missing entries")
        return self.values.astype(np.int64)

    def take(self, idx: np.ndarray) -> "LabelVector":
        idx = np.asarray(idx, dtype=np.intp)
        return LabelVector._unsafe(self.kind, self.values[idx], self.missing[idx],
                                   self.categories, self.name)


def labels_equal(a: LabelVector, b: LabelVector) -> bool:
    """Bit-exact equality of kind, categories, flags and present values."""
    return a.kind is b.kind and a.categories == b.categories and _same_cells(a, b)


# ---------------------------------------------------------------------------
# CSV ingestion and emission
# ---------------------------------------------------------------------------

def _parse_real(token: str) -> float | None:
    """The token as a float (possibly non-finite), or None if it is not a number."""
    try:
        return float(token)
    except ValueError:
        return None


def load_csv(path: str | Path, schema: Sequence[ColumnSchema] | None = None) -> DataTable:
    """Read an RFC-4180 CSV with a header row into a DataTable.

    Without a schema, each column is inferred Continuous iff every
    non-missing field parses as a real; otherwise it is Categorical with
    categories in first-appearance order.  A non-finite value (``inf``) in a
    continuous column is an error that names its row and column, and so is
    a repeated header name.  With a schema, header names must match and
    unknown categories are schema violations.  A blank line is skipped, as
    pandas does, except in a one-column file, where it is the only way to
    write a missing cell; rows are counted after skipping.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    except csv.Error as exc:  # a field over csv.field_size_limit()
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if header is None:
        raise DataError(f"{path}: empty file, header row required")
    p = len(header)
    if p == 0:
        raise DataError(f"{path}: header row has no columns")
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise DataError(f"{path}: duplicate header names {repeated}")
    rows = [row or [""] for row in rows] if p == 1 else [row for row in rows if row]
    for i, row in enumerate(rows):
        if len(row) != p:
            raise DataError(f"{path}: row {i} has {len(row)} fields, expected {p}")

    if schema is not None:
        schema = tuple(schema)
        names = tuple(c.name for c in schema)
        if names != tuple(header):
            raise SchemaError(
                f"{path}: header {tuple(header)} does not match schema names {names}"
            )
    else:
        schema = _infer_schema(header, rows)

    n = len(rows)
    values = np.zeros((n, p), dtype=np.float64)
    missing = np.zeros((n, p), dtype=bool)
    cat_index = [
        {lab: k for k, lab in enumerate(col.categories)}
        if col.kind is ColumnKind.CATEGORICAL else None
        for col in schema
    ]
    for i, row in enumerate(rows):
        for j, token in enumerate(row):
            if token in MISSING_TOKENS:
                missing[i, j] = True
                continue
            col = schema[j]
            if col.kind is ColumnKind.CONTINUOUS:
                v = _parse_real(token)
                if v is None or not math.isfinite(v):
                    raise DataError(
                        f"{path}: row {i}, column {col.name!r}: "
                        f"{token!r} is not a finite real"
                    )
                values[i, j] = v
            else:
                k = cat_index[j].get(token)
                if k is None:
                    raise SchemaError(
                        f"{path}: row {i}, column {col.name!r}: "
                        f"unknown category {token!r}"
                    )
                values[i, j] = k
    return DataTable(schema, values, missing)


def _infer_schema(header: Sequence[str], rows: Sequence[Sequence[str]]
                  ) -> tuple[ColumnSchema, ...]:
    schema = []
    for j, name in enumerate(header):
        tokens = [row[j] for row in rows if row[j] not in MISSING_TOKENS]
        if all(_parse_real(t) is not None for t in tokens):
            schema.append(ColumnSchema(name, ColumnKind.CONTINUOUS))
        else:
            cats: list[str] = []
            seen = set()
            for t in tokens:
                if t not in seen:
                    seen.add(t)
                    cats.append(t)
            if not cats:
                # A fully-missing column with no evidence: default continuous.
                schema.append(ColumnSchema(name, ColumnKind.CONTINUOUS))
            else:
                schema.append(ColumnSchema(name, ColumnKind.CATEGORICAL, tuple(cats)))
    return tuple(schema)


def save_csv(table: DataTable, path: str | Path) -> None:
    """Write a DataTable to CSV that load_csv, given the table's schema,
    reads back to the same table; floats use shortest round-trip form and
    missing cells ``NA``.

    A present categorical cell whose label is a missing token would read
    back as missing, so it is a DataError naming the column and the label,
    raised before the file is opened.
    """
    rows = [table.column_names]
    for i in range(table.n_rows):
        row = []
        for j, col in enumerate(table.schema):
            if table.missing[i, j]:
                row.append("NA")
            elif col.kind is ColumnKind.CONTINUOUS:
                row.append(repr(float(table.values[i, j])))
            else:
                label = col.categories[int(table.values[i, j])]
                if label in MISSING_TOKENS:
                    raise DataError(f"{path}: column {col.name!r} has category "
                                    f"{label!r}, which reads back as missing")
                row.append(label)
        rows.append(row)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def schema_from_json(path: str | Path) -> tuple[ColumnSchema, ...]:
    """Read a sidecar JSON list of {name, kind, categories} into schemas.

    Text that is not such a list is a SchemaError naming the bad entry.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            spec_list = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, huge ints, deep nesting
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(spec_list, list):
        raise SchemaError(f"{path}: expected a JSON list of column entries")
    out = []
    for i, entry in enumerate(spec_list):
        try:
            name, cats = entry["name"], entry.get("categories", [])
            if not (isinstance(name, str) and isinstance(cats, list)
                    and all(isinstance(c, str) for c in cats)):
                raise TypeError
            out.append(ColumnSchema(name, ColumnKind(entry["kind"]), tuple(cats)))
        except (KeyError, TypeError, ValueError):
            raise SchemaError(
                f"{path}: column entry {i} {_shown(entry)} needs a string name, a kind in "
                f"{[k.value for k in ColumnKind]} and a list of category names") from None
        except SchemaError as exc:  # no, repeated or stray categories
            raise SchemaError(f"{path}: column entry {i}: {exc}") from None
    return tuple(out)


def schema_to_json(schema: Sequence[ColumnSchema], path: str | Path) -> None:
    payload = [
        {"name": c.name, "kind": c.kind.value, "categories": list(c.categories)}
        for c in schema
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def split_label(table: DataTable, label: str | int) -> tuple[DataTable, LabelVector]:
    """Peel one column off a table as the target vector: a categorical
    column becomes class labels, a continuous one regression targets."""
    j = table.column_index(label) if isinstance(label, str) else int(label)
    if not 0 <= j < table.n_cols:
        raise DataError(f"label column index {j} out of range")
    col = table.schema[j]
    # a table column already satisfies every label invariant
    return table.drop_column(j), LabelVector._unsafe(
        col.kind, table.values[:, j].copy(), table.missing[:, j].copy(), col.categories, col.name)


# ---------------------------------------------------------------------------
# Splitting, masking, scaling
# ---------------------------------------------------------------------------

_rate = _where(_number, lambda r: 0.0 <= r < 1.0, "outside [0, 1)")
_ratio = _where(_number, lambda r: 0.0 < r < 1.0, "outside (0, 1)")


def train_test_split(table: DataTable, labels: LabelVector, ratio: float,
                     seed: int) -> tuple[tuple[DataTable, LabelVector],
                                         tuple[DataTable, LabelVector]]:
    """Row-disjoint partition via a seeded uniform shuffle.

    Train size is round(ratio * n) with halves away from zero.
    """
    n = table.n_rows
    if labels.n != n:
        raise DataError("labels length does not match table rows")
    if n < 2:
        raise DataError("need at least 2 rows to split")
    ratio = checked(ratio, _ratio, "ratio")
    k = round_half_away(ratio * n)
    if k == 0 or k == n:
        raise DataError(f"split ratio {ratio} leaves an empty side for n={n}")
    perm = make_rng(seed).permutation(n)
    tr, te = perm[:k], perm[k:]
    return ((table.take_rows(tr), labels.take(tr)),
            (table.take_rows(te), labels.take(te)))


def apply_mcar(table: DataTable, rate: float, seed: int) -> tuple[DataTable, np.ndarray]:
    """Blank exactly round(rate * n * p) distinct cells, chosen uniformly.

    Returns the masked table and its (n, p) boolean missingness flags, which
    are ``masked.missing`` itself.  The input must be fully observed; rate
    must lie in [0, 1).
    """
    rate = checked(rate, _rate, "rate")
    if table.missing.any():
        raise DataError("table already has missing cells; refusing to re-mask")
    n, p = table.n_rows, table.n_cols
    k = round_half_away(rate * n * p)
    flags = np.zeros((n, p), dtype=bool)
    flags.flat[make_rng(seed).choice(n * p, size=k, replace=False)] = True
    values = table.values.copy()
    values[flags] = np.nan
    masked = DataTable._unsafe(table.schema, values, flags)
    return masked, masked.missing


def scale_minmax(fit_table: DataTable, apply_tables: Sequence[DataTable]
                 ) -> list[DataTable]:
    """Map continuous cells to [-1, 1] using the fit table's observed range.

    v -> 2 * (v - min) / (max - min) - 1; a constant column maps to 0.
    Categorical and missing cells pass through untouched.  Every apply
    table must share the fit table's schema.
    """
    ranges = {}
    for j, col in enumerate(fit_table.schema):
        if col.kind is not ColumnKind.CONTINUOUS:
            continue
        obs = fit_table.observed_column(j)
        if obs.size == 0:
            raise DataError(f"continuous column {col.name!r} is fully missing; cannot fit scale")
        ranges[j] = obs.min(), obs.max()
    out = []
    for table in apply_tables:
        if table.schema != fit_table.schema:
            raise SchemaError("apply table schema differs from the fit table")
        values = table.values.copy()
        for j, (lo, hi) in ranges.items():
            obs = ~table.missing[:, j]
            if hi == lo:
                values[obs, j] = 0.0
            else:
                values[obs, j] = 2.0 * (values[obs, j] - lo) / (hi - lo) - 1.0
        out.append(DataTable._unsafe(table.schema, values, table.missing))
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class MaskedMse(NamedTuple):
    """Masked-cell mean squared error plus the number of cells it averaged."""

    value: float
    n_cells: int


def masked_mse(imputed: DataTable, original: DataTable, mask: np.ndarray) -> MaskedMse:
    """MSE between imputed and original over the masked continuous cells.

    mask is an (n, p) boolean array shaped like the tables, such as the
    flags apply_mcar returns; the cells are averaged in row-major order.
    With no masked continuous cell the value is 0 and n_cells records that.
    """
    if imputed.schema != original.schema:
        raise SchemaError("imputed/original schemas differ")
    if imputed.values.shape != original.values.shape:
        raise DataError("imputed/original shapes differ")
    if not (isinstance(mask, np.ndarray) and mask.dtype == bool
            and mask.shape == imputed.values.shape):
        raise DataError("mask must be a boolean array of the tables' shape")
    cells = mask.copy()
    cells[:, imputed.categorical_columns()] = False
    if not cells.any():
        return MaskedMse(0.0, 0)
    a = imputed.values[cells]
    b = original.values[cells]
    if np.any(np.isnan(a)) or np.any(np.isnan(b)):
        raise DataError("masked cells must be filled in both tables to score")
    return MaskedMse(float(np.mean((a - b) ** 2)), a.size)


def accuracy(pred: LabelVector, truth: LabelVector) -> float:
    """Exact-match fraction between two complete label vectors."""
    if pred.n != truth.n:
        raise DataError("prediction/truth lengths differ")
    if pred.missing.any() or truth.missing.any():
        raise DataError("accuracy needs complete label vectors")
    if pred.n == 0:
        raise DataError("accuracy of an empty vector is undefined")
    return float(np.mean(pred.values == truth.values))
