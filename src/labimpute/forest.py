"""Random forests over typed tables, built on hand-grown CART trees.

Trees split greedily: continuous features scan midpoints between
consecutive distinct sorted values; categorical features enumerate binary
category partitions when the column has at most 10 categories and fall
back to prefix cuts along the categories ordered by mean target beyond
that.  Regression trees score splits by sum-of-squares reduction,
classification trees by Gini impurity decrease.

Randomness is confined to one Generator per tree, derived from the master
seed and the tree index, so a forest is reproducible regardless of how the
trees are scheduled.  Trees can optionally be fit on data with missing
predictor cells: rows missing the candidate feature are excluded from that
split's score and sent to the majority child, and the same majority
routing is applied when predicting rows with missing features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import make_rng
from .data import ColumnKind, DataTable, LabelKind, LabelVector
from .errors import DataError

_TREE_TAG = 769001  # stream separator for per-tree generators


@dataclass(frozen=True)
class ForestParams:
    """Forest hyperparameters; None leaves mtry/min_leaf at task defaults.

    Defaults mirror the classic randomForest settings: 100 trees,
    ceil(sqrt(p)) candidate features for classification and ceil(p/3) for
    regression, leaves of at least 1 (classification) or 5 (regression)
    rows, unbounded depth, bootstrap resampling on.
    """

    n_trees: int = 100
    mtry: int | None = None
    min_leaf: int | None = None
    max_depth: int | None = None
    bootstrap: bool = True

    def __post_init__(self):
        if self.n_trees < 1:
            raise DataError("n_trees must be >= 1")
        if self.mtry is not None and self.mtry < 1:
            raise DataError("mtry must be >= 1")
        if self.min_leaf is not None and self.min_leaf < 1:
            raise DataError("min_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise DataError("max_depth must be >= 0")


class _Leaf:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value  # mean target (regression) or compressed vote (classification)


class _Split:
    __slots__ = ("feature", "threshold", "left_cats", "majority_left", "left", "right")

    def __init__(self, feature, threshold, left_cats, majority_left):
        self.feature = feature
        self.threshold = threshold      # float for continuous splits, else None
        self.left_cats = left_cats      # int64 array of category ids, else None
        self.majority_left = majority_left
        self.left = None
        self.right = None


@dataclass(frozen=True)
class ForestModel:
    """A fitted forest plus the metadata needed to validate inputs."""

    kind: LabelKind
    trees: tuple
    feature_signature: tuple
    classes: np.ndarray | None       # original class ids, ascending
    label_categories: tuple[str, ...]
    label_name: str
    params: ForestParams
    seed: int

    @property
    def n_features(self) -> int:
        return len(self.feature_signature)


def _signature(schema) -> tuple:
    return tuple(
        (c.kind, c.n_categories if c.kind is ColumnKind.CATEGORICAL else 0)
        for c in schema
    )


def _resolve(params: ForestParams, p: int, kind: LabelKind) -> tuple[int, int]:
    if kind is LabelKind.CLASS:
        mtry = params.mtry if params.mtry is not None else math.ceil(math.sqrt(p))
        min_leaf = params.min_leaf if params.min_leaf is not None else 1
    else:
        mtry = params.mtry if params.mtry is not None else math.ceil(p / 3)
        min_leaf = params.min_leaf if params.min_leaf is not None else 5
    if mtry > p:
        raise DataError(f"mtry={mtry} exceeds feature count {p}")
    return mtry, min_leaf


_subset_masks_cache: dict[int, np.ndarray] = {}


def _subset_masks(k: int) -> np.ndarray:
    """All 2^(k-1) - 1 binary partitions of k categories, as bool rows.

    Each partition appears once: the enumerated side never contains the
    last category, so complements are not revisited.
    """
    masks = _subset_masks_cache.get(k)
    if masks is None:
        count = (1 << (k - 1)) - 1
        codes = np.arange(1, count + 1, dtype=np.uint64)
        masks = (codes[:, None] >> np.arange(k, dtype=np.uint64)) & 1
        masks = masks.astype(bool)
        _subset_masks_cache[k] = masks
    return masks


class _Grower:
    """Grows one tree; all state is per-fit, all randomness from `rng`."""

    def __init__(self, X, miss, y, is_class, n_classes, cat_sizes, mtry,
                 min_leaf, max_depth, rng):
        self.X = X
        self.miss = miss            # None when the predictors are complete
        self.y = y
        self.is_class = is_class
        self.C = n_classes
        self.cat_sizes = cat_sizes  # 0 for continuous columns
        self.mtry = mtry
        self.min_leaf = min_leaf
        self.max_depth = max_depth
        self.rng = rng
        self.p = X.shape[1]

    def grow(self, rows: np.ndarray):
        holder = [None]
        stack = [(rows, 0, holder, 0)]
        while stack:
            rows, depth, container, slot = stack.pop()
            node = self._make_node(rows, depth)
            if isinstance(node, _Leaf):
                self._put(container, slot, node)
                continue
            split, left_rows, right_rows = node
            self._put(container, slot, split)
            stack.append((right_rows, depth + 1, split, 2))
            stack.append((left_rows, depth + 1, split, 1))
        return holder[0]

    @staticmethod
    def _put(container, slot, node):
        if slot == 0:
            container[0] = node
        elif slot == 1:
            container.left = node
        else:
            container.right = node

    def _leaf(self, y_node):
        if self.is_class:
            counts = np.bincount(y_node, minlength=self.C)
            return _Leaf(int(np.argmax(counts)))  # ties go to the smallest class
        return _Leaf(float(np.mean(y_node)))

    def _make_node(self, rows, depth):
        y_node = self.y[rows]
        m = rows.size
        if m < 2 * self.min_leaf:
            return self._leaf(y_node)
        if self.max_depth is not None and depth >= self.max_depth:
            return self._leaf(y_node)
        if self.is_class:
            if np.all(y_node == y_node[0]):
                return self._leaf(y_node)
        else:
            if np.ptp(y_node) == 0.0:
                return self._leaf(y_node)

        feats = self.rng.choice(self.p, size=self.mtry, replace=False)
        feats.sort()  # fixed evaluation order makes ties deterministic
        best = None   # (decrease, feature, threshold, left_cats)
        num_feats = [f for f in feats if self.cat_sizes[f] == 0]
        if num_feats:
            cand = (self._scan_numeric_missing(rows, y_node, num_feats)
                    if self.miss is not None
                    else self._scan_numeric(rows, y_node, num_feats))
            if cand is not None:
                best = cand
        for f in feats:
            if self.cat_sizes[f] == 0:
                continue
            cand = self._scan_categorical(rows, y_node, int(f))
            if cand is not None and (best is None or cand[0] > best[0]):
                best = cand

        if best is None or best[0] <= 0.0:
            return self._leaf(y_node)
        dec, f, threshold, left_cats = best
        xcol = self.X[rows, f]
        if self.miss is not None:
            obs = ~self.miss[rows, f]
            if threshold is not None:
                go_left = xcol <= threshold
            else:
                go_left = np.isin(xcol, left_cats)
            nl = int(np.count_nonzero(go_left & obs))
            nr = int(np.count_nonzero(obs)) - nl
            majority_left = nl >= nr
            go_left = np.where(obs, go_left, majority_left)
        else:
            if threshold is not None:
                go_left = xcol <= threshold
            else:
                go_left = np.isin(xcol, left_cats)
            majority_left = int(np.count_nonzero(go_left)) * 2 >= m
        split = _Split(int(f), threshold, left_cats, bool(majority_left))
        return split, rows[go_left], rows[~go_left]

    # -- continuous features, complete predictors: one batched scan --------

    def _scan_numeric(self, rows, y_node, num_feats):
        m = rows.size
        sub = self.X[np.ix_(rows, num_feats)]
        order = np.argsort(sub, axis=0, kind="stable")
        sv = np.take_along_axis(sub, order, axis=0)
        boundary_ok = sv[1:] != sv[:-1]
        if not boundary_ok.any():
            return None
        nl = np.arange(1, m, dtype=np.float64)[:, None]
        nr = m - nl
        size_ok = (nl >= self.min_leaf) & (nr >= self.min_leaf)
        valid = boundary_ok & size_ok
        if not valid.any():
            return None

        if self.is_class:
            ysorted = y_node[order]
            onehot = ysorted[:, :, None] == np.arange(self.C)
            cl = np.cumsum(onehot, axis=0, dtype=np.float64)
            counts_l = cl[:-1]
            counts_r = cl[-1][None, :, :] - counts_l
            G = (counts_l ** 2).sum(axis=2) / nl + (counts_r ** 2).sum(axis=2) / nr
            total = np.bincount(y_node, minlength=self.C).astype(np.float64)
            g_parent = float((total ** 2).sum() / m)
            score = np.where(valid, G, -np.inf)
            flat = int(np.argmax(score))
            i, j = divmod(flat, len(num_feats))
            dec = (float(score[i, j]) - g_parent) / m
        else:
            ysorted = y_node[order]
            cs = np.cumsum(ysorted, axis=0)
            css = np.cumsum(ysorted * ysorted, axis=0)
            sse = (css[:-1] - cs[:-1] ** 2 / nl) \
                + ((css[-1] - css[:-1]) - (cs[-1] - cs[:-1]) ** 2 / nr)
            parent = float(css[-1, 0] - cs[-1, 0] ** 2 / m)
            score = np.where(valid, sse, np.inf)
            flat = int(np.argmin(score))
            i, j = divmod(flat, len(num_feats))
            dec = (parent - float(score[i, j])) / m
        if not math.isfinite(dec) or dec <= 0.0:
            return None
        threshold = float((sv[i, j] + sv[i + 1, j]) / 2.0)
        return dec, int(num_feats[j]), threshold, None

    # -- continuous features, missing predictors: per-feature scan ---------

    def _scan_numeric_missing(self, rows, y_node, num_feats):
        m = rows.size
        best = None
        for f in num_feats:
            obs = ~self.miss[rows, f]
            mo = int(np.count_nonzero(obs))
            if mo < 2 * self.min_leaf:
                continue
            xs = self.X[rows[obs], f]
            ys = y_node[obs]
            order = np.argsort(xs, kind="stable")
            sv = xs[order]
            boundary_ok = sv[1:] != sv[:-1]
            if not boundary_ok.any():
                continue
            nl = np.arange(1, mo, dtype=np.float64)
            nr = mo - nl
            valid = boundary_ok & (nl >= self.min_leaf) & (nr >= self.min_leaf)
            if not valid.any():
                continue
            ysorted = ys[order]
            if self.is_class:
                onehot = ysorted[:, None] == np.arange(self.C)
                cl = np.cumsum(onehot, axis=0, dtype=np.float64)
                counts_l = cl[:-1]
                counts_r = cl[-1][None, :] - counts_l
                G = (counts_l ** 2).sum(axis=1) / nl + (counts_r ** 2).sum(axis=1) / nr
                g_parent = float((cl[-1] ** 2).sum() / mo)
                score = np.where(valid, G, -np.inf)
                i = int(np.argmax(score))
                dec = (float(score[i]) - g_parent) / m
            else:
                cs = np.cumsum(ysorted)
                css = np.cumsum(ysorted * ysorted)
                sse = (css[:-1] - cs[:-1] ** 2 / nl) \
                    + ((css[-1] - css[:-1]) - (cs[-1] - cs[:-1]) ** 2 / nr)
                parent = float(css[-1] - cs[-1] ** 2 / mo)
                score = np.where(valid, sse, np.inf)
                i = int(np.argmin(score))
                dec = (parent - float(score[i])) / m
            if not math.isfinite(dec) or dec <= 0.0:
                continue
            if best is None or dec > best[0]:
                best = (dec, int(f), float((sv[i] + sv[i + 1]) / 2.0), None)
        return best

    # -- categorical features ----------------------------------------------

    def _scan_categorical(self, rows, y_node, f: int):
        m = rows.size
        if self.miss is not None:
            obs = ~self.miss[rows, f]
            if int(np.count_nonzero(obs)) < 2 * self.min_leaf:
                return None
            xs = self.X[rows[obs], f].astype(np.int64)
            ys = y_node[obs]
        else:
            xs = self.X[rows, f].astype(np.int64)
            ys = y_node
        k = self.cat_sizes[f]
        cnt = np.bincount(xs, minlength=k).astype(np.float64)
        if int(np.count_nonzero(cnt)) < 2:
            return None
        mo = float(xs.size)

        if self.is_class:
            cc = np.bincount(xs * self.C + ys, minlength=k * self.C)
            percat = cc.reshape(k, self.C).astype(np.float64)
            target_mean = None
            if k > 10:
                with np.errstate(invalid="ignore"):
                    target_mean = percat @ np.arange(self.C) / cnt
        else:
            s1 = np.bincount(xs, weights=ys, minlength=k)
            s2 = np.bincount(xs, weights=ys * ys, minlength=k)
            target_mean = None
            if k > 10:
                with np.errstate(invalid="ignore"):
                    target_mean = s1 / cnt

        if k <= 10:
            masks = _subset_masks(k)
        else:
            # categories ordered by mean target; absent ones sort last and
            # land on the right side of every prefix cut
            tm = np.where(cnt > 0, target_mean, np.inf)
            order = np.argsort(tm, kind="stable")
            masks = np.zeros((k - 1, k), dtype=bool)
            for i in range(k - 1):
                masks[i, order[: i + 1]] = True

        nl = masks @ cnt
        nr = mo - nl
        ok = (nl >= self.min_leaf) & (nr >= self.min_leaf)
        if not ok.any():
            return None
        if self.is_class:
            counts_l = masks @ percat
            counts_r = percat.sum(axis=0)[None, :] - counts_l
            with np.errstate(divide="ignore", invalid="ignore"):
                G = (counts_l ** 2).sum(axis=1) / nl + (counts_r ** 2).sum(axis=1) / nr
            g_parent = float((percat.sum(axis=0) ** 2).sum() / mo)
            score = np.where(ok, G, -np.inf)
            i = int(np.argmax(score))
            dec = (float(score[i]) - g_parent) / m
        else:
            suml = masks @ s1
            ssl = masks @ s2
            with np.errstate(divide="ignore", invalid="ignore"):
                sse = (ssl - suml ** 2 / nl) \
                    + ((s2.sum() - ssl) - (s1.sum() - suml) ** 2 / nr)
            parent = float(s2.sum() - s1.sum() ** 2 / mo)
            score = np.where(ok, sse, np.inf)
            i = int(np.argmin(score))
            dec = (parent - float(score[i])) / m
        if not math.isfinite(dec) or dec <= 0.0:
            return None
        left_cats = np.nonzero(masks[i])[0].astype(np.int64)
        return dec, f, None, left_cats


def fit_forest(X: DataTable, y: LabelVector, params: ForestParams, seed: int,
               allow_missing: bool = False) -> ForestModel:
    """Fit a forest of CART trees on X against y.

    X must be complete unless allow_missing is set, in which case missing
    predictor cells are excluded from split scores and routed to the
    majority child.  y must be complete either way.
    """
    if y.n != X.n_rows:
        raise DataError("X rows and y length differ")
    if X.n_rows < 1:
        raise DataError("cannot fit a forest on an empty table")
    if y.missing.any():
        raise DataError("target has missing entries")
    if not allow_missing and X.missing.any():
        raise DataError("X has missing cells; impute first or allow missing routing")

    p = X.n_cols
    mtry, min_leaf = _resolve(params, p, y.kind)
    cat_sizes = np.array(
        [c.n_categories if c.kind is ColumnKind.CATEGORICAL else 0 for c in X.schema],
        dtype=np.int64,
    )
    big_cat = cat_sizes.max(initial=0)
    if big_cat > 10 and y.kind is LabelKind.CLASS and len(np.unique(y.values)) > 64:
        raise DataError("too many classes for mean-target category ordering")

    if y.kind is LabelKind.CLASS:
        raw = y.values.astype(np.int64)
        classes = np.unique(raw)
        y_arr = np.searchsorted(classes, raw)
        n_classes = int(classes.size)
        is_class = True
    else:
        classes = None
        y_arr = y.values.astype(np.float64)
        n_classes = 0
        is_class = False

    Xv = X.values
    miss = X.missing if (allow_missing and X.missing.any()) else None
    if miss is not None:
        # NaN placeholders must not reach comparisons: substitute zeros
        # behind the flags before routing math.
        Xv = np.where(miss, 0.0, Xv)

    n = X.n_rows
    trees = []
    for t in range(params.n_trees):
        rng = make_rng(seed, _TREE_TAG, t)
        if params.bootstrap:
            idx = rng.integers(0, n, n)
        else:
            idx = np.arange(n)
        grower = _Grower(Xv[idx], None if miss is None else miss[idx],
                         y_arr[idx], is_class, n_classes, cat_sizes,
                         mtry, min_leaf, params.max_depth, rng)
        trees.append(grower.grow(np.arange(n, dtype=np.intp)))

    return ForestModel(
        kind=y.kind,
        trees=tuple(trees),
        feature_signature=_signature(X.schema),
        classes=classes,
        label_categories=y.categories,
        label_name=y.name,
        params=params,
        seed=seed,
    )


def _route_tree(node, Xv, miss, out):
    n = Xv.shape[0]
    stack = [(node, np.arange(n, dtype=np.intp))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if isinstance(node, _Leaf):
            out[idx] = node.value
            continue
        x = Xv[idx, node.feature]
        if node.threshold is not None:
            go_left = x <= node.threshold
        else:
            go_left = np.isin(x, node.left_cats)
        if miss is not None:
            hole = miss[idx, node.feature]
            go_left = np.where(hole, node.majority_left, go_left)
        stack.append((node.left, idx[go_left]))
        stack.append((node.right, idx[~go_left]))


def _predict_arrays(model: ForestModel, Xv: np.ndarray, miss: np.ndarray | None
                    ) -> np.ndarray:
    n = Xv.shape[0]
    if miss is not None:
        Xv = np.where(miss, 0.0, Xv)
    if model.kind is LabelKind.CLASS:
        C = int(model.classes.size)
        votes = np.zeros((n, C), dtype=np.int64)
        buf = np.zeros(n, dtype=np.int64)
        for tree in model.trees:
            _route_tree(tree, Xv, miss, buf)
            votes[np.arange(n), buf] += 1
        winner = np.argmax(votes, axis=1)  # ties go to the smallest class
        return model.classes[winner].astype(np.float64)
    acc = np.zeros(n, dtype=np.float64)
    buf = np.zeros(n, dtype=np.float64)
    for tree in model.trees:
        _route_tree(tree, Xv, miss, buf)
        acc += buf
    return acc / len(model.trees)


def _check_arity(model: ForestModel, X: DataTable) -> None:
    if _signature(X.schema) != model.feature_signature:
        raise DataError("feature columns do not match the fitted model")


def _wrap_predictions(model: ForestModel, raw: np.ndarray) -> LabelVector:
    flags = np.zeros(raw.shape, dtype=bool)
    if model.kind is LabelKind.CLASS:
        return LabelVector(LabelKind.CLASS, raw, flags, model.label_categories,
                           model.label_name)
    return LabelVector(LabelKind.REGRESSION, raw, flags, name=model.label_name)


def predict(model: ForestModel, X: DataTable) -> LabelVector:
    """Predict on complete rows; regression averages trees, classification
    takes a majority vote with ties broken by the smallest class index."""
    _check_arity(model, X)
    if X.missing.any():
        raise DataError("X has missing cells; use predict_with_missing")
    return _wrap_predictions(model, _predict_arrays(model, X.values, None))


def predict_with_missing(model: ForestModel, X: DataTable) -> LabelVector:
    """Predict rows that may have missing cells: a row reaching a split on
    a feature it lacks follows the child that took the majority of the
    training rows at that node."""
    _check_arity(model, X)
    miss = X.missing if X.missing.any() else None
    Xv = X.values if miss is None else np.where(miss, 0.0, X.values)
    return _wrap_predictions(model, _predict_arrays(model, Xv, miss))
