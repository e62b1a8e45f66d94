"""Iterative imputation engines.

missforest_impute fills a mixed-type table by cycling over columns in
ascending missing-count order, refitting a random forest per column on the
currently-completed values of the other columns and overwriting only the
originally-missing cells.  Sweeps repeat until a convergence statistic
first worsens (the previous sweep's matrix is returned) or max_iter is
reached.  Two statistics are tracked:

  continuous   sum((new - old)^2) / sum(new^2) over all continuous columns
  categorical  changed originally-missing categorical cells / their count

mice_impute is the deterministic chained-equations counterpart: ridge
least squares per continuous column, one-vs-rest least-squares scoring
with argmax per categorical column, a fixed number of sweeps, no sampling.
Its design is an intercept plus the columns two index arrays describe:
`source` (the table column) and `level` (-1 for a continuous column, else
a category 1..k-1 of a categorical one).  It is expanded once per call
and updated one column block at a time; each column fit gathers its rows
once and forms one normal matrix, which serves every category of a
categorical column.

impute is the one entry point that picks an engine, from the type of the
params it is given.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from ._rng import child_seed
from .data import ColumnKind, DataTable, LabelVector
from .errors import DataError, _non_negative_real, _of, _positive, _seed, check_fields
from .forest import ForestParams, fit_forest, predict

_COLUMN_TAG = 424243  # stream separator for per-column forest seeds


# Fields of each engine's params that an experiment config also sets.
_MISSFOREST_FIELDS = {"max_iter": _positive}
_MICE_FIELDS = {"n_iter": _positive, "ridge": _non_negative_real}


@dataclass(frozen=True)
class MissForestParams:
    forest: ForestParams = ForestParams()
    max_iter: int = 10
    seed: int = 0

    def __post_init__(self):
        check_fields(self, {"forest": _of(ForestParams), **_MISSFOREST_FIELDS,
                            "seed": _seed})


@dataclass(frozen=True)
class MiceParams:
    n_iter: int = 10
    ridge: float = 1e-8

    def __post_init__(self):
        check_fields(self, _MICE_FIELDS)


@dataclass(frozen=True)
class SweepRecord:
    """Convergence statistics after one full column sweep."""

    iteration: int
    delta_continuous: float | None
    delta_categorical: float | None


@dataclass
class IterationTrace:
    sweeps: list[SweepRecord] = field(default_factory=list)
    stop_reason: str = ""

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iteration", "delta_continuous", "delta_categorical"])
            for s in self.sweeps:
                w.writerow([
                    s.iteration,
                    "" if s.delta_continuous is None else repr(s.delta_continuous),
                    "" if s.delta_categorical is None else repr(s.delta_categorical),
                ])


def init_impute(table: DataTable) -> DataTable:
    """Fill every missing cell with its column mean (continuous) or mode
    (categorical, ties to the smallest category index)."""
    values = table.values.copy()
    for j, col in enumerate(table.schema):
        holes = table.missing[:, j]
        if not holes.any():
            continue
        if holes.all():
            raise DataError(f"column {col.name!r} is fully missing; cannot impute")
        obs = table.values[~holes, j]
        if col.kind is ColumnKind.CONTINUOUS:
            values[holes, j] = obs.mean()
        else:
            counts = np.bincount(obs.astype(np.int64), minlength=col.n_categories)
            values[holes, j] = float(np.argmax(counts))
    return table.with_cells(values)


def order_columns_by_missing(table: DataTable) -> list[int]:
    """Column indices sorted by ascending missing count, ties by index."""
    counts = table.missing_count_by_column()
    return [int(j) for j in np.argsort(counts, kind="stable")]


def _set_up(table: DataTable, engine: str) -> tuple[np.ndarray, list[int], np.ndarray]:
    """The start both engines share: the missing flags, the columns that
    have holes in ascending-missing order, and a writable copy of the
    mean/mode-filled cells."""
    cells = init_impute(table).values.copy()
    if table.n_cols < 2:
        raise DataError(f"{engine} needs at least two columns")
    counts = table.missing_count_by_column()
    return table.missing, [j for j in order_columns_by_missing(table) if counts[j]], cells


def delta_continuous(new: np.ndarray, old: np.ndarray, columns: Iterable[int]) -> float:
    """Relative squared change over the given continuous columns."""
    cols = np.asarray(list(columns), dtype=np.intp)
    if cols.size == 0:
        raise DataError("delta_continuous needs at least one column")
    num = float(((new[:, cols] - old[:, cols]) ** 2).sum())
    den = float((new[:, cols] ** 2).sum())
    if den == 0.0:
        raise DataError("delta_continuous denominator is zero")
    return num / den


def delta_categorical(new: np.ndarray, old: np.ndarray, columns: Iterable[int],
                      missing: np.ndarray) -> float:
    """Fraction of originally-missing categorical cells that changed."""
    cols = np.asarray(list(columns), dtype=np.intp)
    if cols.size == 0:
        raise DataError("delta_categorical needs at least one column")
    holes = missing[:, cols]
    total = int(holes.sum())
    if total == 0:
        raise DataError("delta_categorical needs at least one missing cell")
    changed = int((new[:, cols][holes] != old[:, cols][holes]).sum())
    return changed / total


def _fit_predict_column(values: np.ndarray, table: DataTable, s: int, mis: np.ndarray,
                        forest_params: ForestParams, seed: int) -> np.ndarray:
    """Forest-regress column s on all other columns; return predictions for
    the rows flagged in `mis`.  Each block is gathered once; `values` is
    complete, so no block has a missing cell."""
    keep = np.flatnonzero(np.arange(values.shape[1]) != s)
    schema, col = tuple(table.schema[j] for j in keep), table.schema[s]

    def rows(flags):
        block = values[np.ix_(flags, keep)]
        return DataTable._unsafe(schema, block, np.zeros(block.shape, dtype=bool))

    target = values[~mis, s]
    y = LabelVector._unsafe(col.kind, target, np.zeros(target.shape, dtype=bool),
                            col.categories, col.name)
    return predict(fit_forest(rows(~mis), y, forest_params, seed), rows(mis)).values


def missforest_impute(table: DataTable, params: MissForestParams
                      ) -> tuple[DataTable, IterationTrace]:
    """Iterative per-column random-forest imputation.

    Returns the completed table and a per-sweep trace.  Observed cells are
    preserved bit-exactly; a table with no missing cells is returned
    unchanged with an empty trace.
    """
    if table.is_complete():
        return table, IterationTrace(stop_reason="no_missing")
    mask, order, cur = _set_up(table, "forest imputation")
    cont_cols = [int(j) for j in table.continuous_columns()]
    cat_cols = [int(j) for j in table.categorical_columns()]
    cat_holes = bool(mask[:, cat_cols].any())
    col_seeds = {s: child_seed(params.seed, _COLUMN_TAG, s) for s in order}

    trace = IterationTrace(stop_reason="max_iter")
    prev: tuple[float | None, float | None] = (None, None)
    for it in range(1, params.max_iter + 1):
        old = cur.copy()
        for s in order:
            mis = mask[:, s]
            cur[mis, s] = _fit_predict_column(cur, table, s, mis, params.forest,
                                              col_seeds[s])
        dc: float | None = None
        if cont_cols:
            try:
                dc = delta_continuous(cur, old, cont_cols)
            except DataError:
                dc = None  # zero denominator: criterion unusable this run
        dg = delta_categorical(cur, old, cat_cols, mask) if cat_holes else None
        trace.sweeps.append(SweepRecord(it, dc, dg))

        if any(d is not None and p is not None and d > p for d, p in zip((dc, dg), prev)):
            trace.stop_reason = "delta_increase"
            cur = old  # the sweep before the increase
            break
        if np.array_equal(cur, old):
            # a full sweep changed nothing; with per-column seeds fixed
            # across sweeps every later sweep would repeat it exactly
            trace.stop_reason = "fixed_point"
            break
        prev = dc, dg
    return table.with_cells(cur), trace


# ---------------------------------------------------------------------------
# Chained equations
# ---------------------------------------------------------------------------

def _write_design(design: np.ndarray, rows: slice | np.ndarray, cols: np.ndarray,
                  cells: np.ndarray, level: np.ndarray) -> None:
    """Write design columns `cols` in `rows` from one table column's cells:
    the cells as-is where the level is -1, else the indicator cells == level.
    Column by column, so no block-sized temporary is made."""
    for c in cols:
        design[rows, c] = cells if level[c] < 0 else cells == level[c]


def _ridge_fill(design: np.ndarray, others: np.ndarray, mis: np.ndarray,
                y: np.ndarray, cats: np.ndarray | None, ridge: float) -> np.ndarray:
    """Ridge least squares of y on the design columns `others` (intercept
    first, unpenalized), fitted on the rows outside `mis` and evaluated on
    the rows in it.  With `cats`, each category is scored one-vs-rest and
    the argmax is returned, ties to the smallest index.  One normal matrix
    serves every category."""
    A_obs = design.compress(~mis, axis=0).take(others, axis=1)
    A_mis = design.compress(mis, axis=0).take(others, axis=1)
    M = A_obs.T @ A_obs
    reg = np.full(M.shape[0], ridge)
    reg[0] = 0.0
    M = M + np.diag(reg)
    if ridge == 0.0 and np.linalg.matrix_rank(M) < M.shape[0]:
        raise DataError("singular design; set ridge > 0 to regularize")
    targets = [y] if cats is None else [(y == c).astype(np.float64) for c in cats]
    try:
        scores = [A_mis @ np.linalg.solve(M, A_obs.T @ b) for b in targets]
    except np.linalg.LinAlgError as exc:
        raise DataError(f"normal equations failed ({exc}); set ridge > 0") from exc
    if cats is None:
        return scores[0]
    return cats[np.argmax(np.column_stack(scores), axis=1)].astype(np.float64)


def mice_impute(table: DataTable, params: MiceParams) -> DataTable:
    """Deterministic chained-equations imputation.

    Runs exactly n_iter sweeps in ascending-missing-count column order.
    Continuous columns are refit by ridge least squares on all other
    columns (categoricals one-hot encoded, reference level dropped);
    categorical columns take the argmax of one-vs-rest least-squares
    scores over the column's observed categories, ties to the smallest
    index.  No randomness is involved anywhere.

    The design of all columns is expanded once.  A fit on column s reads
    every block but s's; writing s refreshes s's block in its missing rows.
    """
    if table.is_complete():
        return table
    mask, order, cur = _set_up(table, "chained-equations imputation")
    observed_cats = {
        j: np.unique(table.values[~mask[:, j], j]).astype(np.int64)
        for j in table.categorical_columns()
    }
    # design column -> table column (-1 for the intercept) and level; the
    # first category is the reference level and is dropped
    levels = [np.arange(1, col.n_categories) if col.kind is ColumnKind.CATEGORICAL
              else np.array([-1]) for col in table.schema]
    source = np.repeat(np.arange(-1, table.n_cols), [1] + [lv.size for lv in levels])
    level = np.concatenate([[-1], *levels])
    design = np.ones((table.n_rows, source.size))
    for j in range(table.n_cols):
        _write_design(design, slice(None), np.flatnonzero(source == j), cur[:, j], level)

    for _ in range(params.n_iter):
        for s in order:
            mis = mask[:, s]
            # a call, so the gathered rows are freed before the next fit gathers
            cur[mis, s] = _ridge_fill(design, np.flatnonzero(source != s), mis,
                                      cur[~mis, s], observed_cats.get(s), params.ridge)
            _write_design(design, mis, np.flatnonzero(source == s), cur[mis, s], level)
    return table.with_cells(cur)


ImputerParams = MissForestParams | MiceParams


def impute(table: DataTable, params: ImputerParams
           ) -> tuple[DataTable, IterationTrace | None]:
    """Fill every missing cell with the engine the type of params selects:
    missforest_impute and its trace, or mice_impute and no trace (None)."""
    if isinstance(params, MiceParams):
        return mice_impute(table, params), None
    if isinstance(params, MissForestParams):
        return missforest_impute(table, params)
    raise DataError(f"unknown imputer parameter type {type(params).__name__}")
