"""Iterative imputation engines.

impute runs one sweep loop for both engines, missForest or MICE, picked by
the type of the params it is given.  Both start alike.  Each hole is filled
with its column's mean, or its mode with ties to the smallest category, and
the columns with holes are visited in ascending missing count, ties by
index.  The start refuses a fully missing column and a column whose mean is
not finite (one that overflows float64), each named, and then a table of
fewer than two columns.

A sweep refits every column with holes on the currently-completed values of
the other columns and overwrites only its originally-missing cells.  Each
sweep records two statistics:

  continuous   sum((new - old)^2) / sum(new^2) over all continuous columns
  categorical  changed originally-missing categorical cells / their count

A statistic is None when it is untracked (no continuous column, or no
categorical hole), and the continuous one also while every continuous cell
is 0.  Sweeps repeat until a sweep changes no cell (fixed_point: neither
engine draws anything that differs between sweeps, so every later sweep
would repeat it), the sweep limit (max_iter or n_iter) is reached, or, for
missForest only, either statistic rises above its value in the previous
sweep (the previous sweep's matrix is returned; a tie sweeps on).

missForest fits a random forest per column, seeded per column.  MICE is the
deterministic chained-equations counterpart: ridge least squares per
continuous column, one-vs-rest least-squares scoring with argmax per
categorical column, at most n_iter sweeps, stopping early at fixed_point.
Its design D, expanded once per call, is an intercept plus one block per
column: the cells, or the indicators of categories 1..k-1.  Each fit reads
its normal equations from G = DᵀD, formed afresh every sweep: the observed
rows' Gram matrix is G - D_misᵀD_mis, or D_obsᵀD_obs when a column has
more missing than observed rows, and a filled block moves G by the change
in D_misᵀD_mis.  That rounds unlike the direct normal equations: on the
tests' tables continuous cells stay within 1e-12 of their largest value.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

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


def _set_up(table: DataTable, engine: str) -> tuple[np.ndarray, list[int], np.ndarray]:
    """The start of the module docstring: the missing flags, the columns with
    holes in visiting order, and a writable copy of the filled cells."""
    mask, cells = table.missing, table.values.copy()
    counts = mask.sum(axis=0)
    for j in np.flatnonzero(counts):
        col, obs = table.schema[j], table.values[~mask[:, j], j]
        if not obs.size:
            raise DataError(f"column {col.name!r} is fully missing; cannot impute")
        if col.kind is ColumnKind.CATEGORICAL:
            fill = np.argmax(np.bincount(obs.astype(np.int64), minlength=col.n_categories))
        else:
            with np.errstate(over="ignore"):
                fill = obs.mean()
            if not np.isfinite(fill):  # the grower's split tables hold finite values only
                raise DataError(f"column {col.name!r} has no finite mean; cannot impute")
        cells[mask[:, j], j] = fill
    if table.n_cols < 2:
        raise DataError(f"{engine} needs at least two columns")
    return mask, [int(j) for j in np.argsort(counts, kind="stable") if counts[j]], cells


def _forest_sweeps(table: DataTable, params: MissForestParams, mask: np.ndarray,
                   order: list[int], cur: np.ndarray) -> Iterator[None]:
    """missForest's step: forest-regress each column with holes, in order, on
    all other columns and overwrite its missing cells.  Each block is
    gathered once; `cur` is complete, so no block has a missing cell."""
    seeds = {s: child_seed(params.seed, _COLUMN_TAG, s) for s in order}
    while True:
        for s in order:
            mis, col = mask[:, s], table.schema[s]
            keep = np.flatnonzero(np.arange(table.n_cols) != s)
            schema = tuple(table.schema[j] for j in keep)
            X, Q = (DataTable._unsafe(schema, b, np.zeros(b.shape, dtype=bool))
                    for b in (cur[np.ix_(~mis, keep)], cur[np.ix_(mis, keep)]))
            y = LabelVector._unsafe(col.kind, cur[~mis, s], np.zeros(X.n_rows, dtype=bool),
                                    col.categories, col.name)
            cur[mis, s] = predict(fit_forest(X, y, params.forest, seeds[s]), Q).values
        yield


# ---------------------------------------------------------------------------
# Chained equations
# ---------------------------------------------------------------------------

def _write_design(design: np.ndarray, rows: slice | np.ndarray, block: slice,
                  cells: np.ndarray, level: np.ndarray) -> None:
    """Write the design columns in `block` in `rows` from one table column's
    cells: the cells as-is where the level is -1, else the indicator
    cells == level.  Column by column, so no block-sized temporary is made."""
    for c in range(block.start, block.stop):
        design[rows, c] = cells if level[c] < 0 else cells == level[c]


def _ridge_fill(G: np.ndarray, d_mis: np.ndarray, own: slice, others: np.ndarray,
                reg: np.ndarray, cats: np.ndarray | None, ridge: float) -> np.ndarray:
    """Ridge least squares on the design columns `others` (intercept first,
    unpenalized: `reg` is the ridge diagonal), read from G, the Gram matrix
    of the observed rows, and evaluated on the missing rows `d_mis`.  The
    target is the column's own design column, or with `cats` the indicator
    of each observed category, scored one-vs-rest in one stacked solve and
    argmaxed, ties to the smallest index; level 0 is the intercept column
    minus the indicators of levels 1..k-1."""
    Go = G[others]
    M = Go[:, others] + reg
    if ridge == 0.0 and np.linalg.matrix_rank(M) < M.shape[0]:
        raise DataError("singular design; set ridge > 0 to regularize")
    rhs = Go[:, own.start] if cats is None else np.column_stack(
        [Go[:, 0] - Go[:, own].sum(axis=1), Go[:, own]])[:, cats]
    coef = np.zeros((G.shape[0],) + rhs.shape[1:])  # zero on the own block
    try:
        coef[others] = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise DataError(f"normal equations failed ({exc}); set ridge > 0") from exc
    scores = d_mis @ coef
    return scores if cats is None else cats[np.argmax(scores, axis=1)].astype(np.float64)


def _mice_sweeps(table: DataTable, params: MiceParams, mask: np.ndarray,
                 order: list[int], cur: np.ndarray) -> Iterator[None]:
    """MICE's step: refit each column with holes, in order, on all other
    columns and overwrite its missing cells, one solve per fit (see the
    module docstring)."""
    # each table column's block of design columns and their levels: -1 for
    # a continuous column, else categories 1..k-1 (the first category is the
    # reference level and is dropped); design column 0 is the intercept
    levels = [np.arange(1, col.n_categories) if col.kind is ColumnKind.CATEGORICAL
              else np.array([-1]) for col in table.schema]
    edges = np.cumsum([1] + [lv.size for lv in levels])
    blocks = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
    level = np.concatenate([[-1], *levels])
    design = np.ones((table.n_rows, edges[-1]))
    for j, block in enumerate(blocks):
        _write_design(design, slice(None), block, cur[:, j], level)
    # per column, fixed for the call: rows, design blocks and path; a fit
    # downdates G when its missing rows are no more than its observed rows
    downdates = [2 * mask[:, s].sum() <= table.n_rows for s in order]
    fits = []
    for i, s in enumerate(order):
        block, mis = blocks[s], mask[:, s]
        others = np.delete(np.arange(edges[-1]), block)
        cats = (np.unique(table.values[~mis, s]).astype(np.int64)
                if table.schema[s].kind is ColumnKind.CATEGORICAL else None)
        fits.append((s, np.flatnonzero(mis), None if downdates[i] else np.flatnonzero(~mis),
                     block, others, params.ridge * np.diag(others > 0), cats,
                     any(downdates[i + 1:])))

    while True:
        # afresh each sweep, so the downdates do not drift
        G = design.T @ design if any(downdates) else None
        for s, mis, obs, block, others, reg, cats, upkeep in fits:
            d_mis = design.take(mis, axis=0)
            d = d_mis if obs is None else design.take(obs, axis=0)
            # Gram products only (X.T @ X): unlike a thin product summed over
            # as many rows, their bits do not depend on the BLAS thread count
            gram = d.T @ d
            G_obs = G - gram if obs is None else gram
            cur[mis, s] = filled = _ridge_fill(G_obs, d_mis, block, others, reg, cats,
                                               params.ridge)
            _write_design(design, mis, block, filled, level)
            if upkeep:  # a later fit of this sweep reads G, and this one downdated it
                _write_design(d_mis, slice(None), block, filled, level)
                G[block] += (d_mis.T @ d_mis)[block] - gram[block]
                G[:, block] = G[block].T
        yield


ImputerParams = MissForestParams | MiceParams


def impute(table: DataTable, params: ImputerParams) -> tuple[DataTable, IterationTrace]:
    """Fill every missing cell with the engine the type of params selects;
    return the completed table and its per-sweep trace.  Observed cells are
    preserved bit-exactly; a complete table is returned with an empty trace."""
    if isinstance(params, MissForestParams):
        engine, sweeps, limit = "forest imputation", _forest_sweeps, params.max_iter
    elif isinstance(params, MiceParams):
        engine, sweeps, limit = "chained-equations imputation", _mice_sweeps, params.n_iter
    else:
        raise DataError(f"unknown imputer parameter type {type(params).__name__}")
    if table.is_complete():
        return table, IterationTrace(stop_reason="no_missing")
    mask, order, cur = _set_up(table, engine)
    cont = table.continuous_columns()
    cat_holes = mask.copy()
    cat_holes[:, cont] = False
    # a sweep writes the holes alone: their flat indices, continuous first,
    # and where the continuous ones sit in the continuous block
    holes = np.concatenate([np.flatnonzero(mask & ~cat_holes), np.flatnonzero(cat_holes)])
    at = np.nonzero(mask[:, cont])
    k, n_holes = at[0].size, int(cat_holes.sum())
    step = sweeps(table, params, mask, order, cur)
    trace = IterationTrace(stop_reason="max_iter")
    prev = None, None
    for it in range(1, limit + 1):
        old = cur.take(holes)
        next(step)
        new = cur.take(holes)
        dc = dg = None
        if cont.size:  # both sums span the whole block, zeros included: that fixes their rounding
            block = cur[:, cont]
            den = float(np.square(block, out=block).sum())
            block.fill(0.0)
            block[at] = new[:k] - old[:k]
            dc = float(np.square(block, out=block).sum()) / den if den else None
        if n_holes:
            dg = int((new[k:] != old[k:]).sum()) / n_holes
        trace.sweeps.append(SweepRecord(it, dc, dg))
        if sweeps is _forest_sweeps and any(
                d is not None and p is not None and d > p for d, p in zip((dc, dg), prev)):
            trace.stop_reason = "delta_increase"
            cur.put(holes, old)  # the sweep before the increase
            break
        if np.array_equal(new, old):  # every later sweep would repeat this one
            trace.stop_reason = "fixed_point"
            break
        prev = dc, dg
    step.close()  # the engine's arrays go before the output table is built
    return table.with_cells(cur), trace


def missforest_impute(table: DataTable, params: MissForestParams
                      ) -> tuple[DataTable, IterationTrace]:
    """Iterative per-column random-forest imputation: impute's result."""
    return impute(table, params)


def mice_impute(table: DataTable, params: MiceParams) -> DataTable:
    """Deterministic chained-equations imputation: the completed table after
    at most n_iter sweeps, stopping early at fixed_point.  Continuous columns
    are refit by ridge least squares on all other columns (categoricals
    one-hot encoded, reference level dropped); categorical columns take the
    argmax of one-vs-rest least-squares scores over the column's observed
    categories, ties to the smallest index.  No randomness is involved."""
    return impute(table, params)[0]
