"""Random forests over typed tables, built on hand-grown CART trees.

Trees split greedily: continuous features cut at the midpoints between
consecutive distinct values present in the node; categorical features
enumerate binary category partitions when the column has at most 10
categories and fall back to prefix cuts along the categories ordered by
mean target beyond that.  Regression trees score splits by sum-of-squares
reduction, classification trees by Gini impurity decrease.

Growth is level-wise, the exact-histogram scheme of LightGBM applied to
CART: columns are rank-coded once per fit, and one step advances every open
node of a batch of trees by one depth.  One sort of (node, feature, rank)
keys and one integer cumulative sum give the class counts or target sums
left of every cut, and the categorical histograms.  Regression targets are
centred and scaled per node and summed in fixed point, so every sum is
exact whichever nodes and trees share a step.

Randomness: tree t draws its bootstrap, then a 63-bit tree key, from the
generator keyed by (seed, t).  Feature draws are keyed per node: a node
takes the mtry features with the smallest splitmix64 hashes of (tree key,
depth, smallest bootstrap position in the node, feature).  A tree is thus a
pure function of (seed, tree index, data), whatever the batching.

Tie rule: gains within 1e-10 times the node's impurity of its best gain
tie, and the tie goes to the smallest feature index, then to the first cut
in that feature's order (ascending threshold; subset masks in enumeration
order; prefixes along the mean order, equal means by category index).  A
node splits only if its best gain exceeds that tolerance.  A threshold is
the midpoint of the values it separates, or the lower one when the midpoint
rounds onto the upper.

Trees can optionally be fit on data with missing predictor cells: rows
missing the candidate feature are excluded from that split's score, whose
decrease is still divided by the whole node size, and they are sent to the
child that took the majority of the observed rows; the same majority
routing is applied when predicting rows with missing features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import make_rng
from .data import ColumnKind, DataTable, LabelKind, LabelVector
from .errors import DataError, _non_negative, _of, _optional, _positive, check_fields

_TREE_TAG = 769001   # stream separator for per-tree generators
_TIE_RTOL = 1e-10    # gains closer than this times the node impurity tie
_BATCH_ROWS = 1 << 13  # bootstrap rows of the trees grown together
_BLOCK = 1 << 20     # elements per block of categorical subset sums
_PARAM_FIELDS = {"n_trees": _positive, "mtry": _optional(_positive),
                 "min_leaf": _optional(_positive), "max_depth": _optional(_non_negative),
                 "bootstrap": _of(bool)}


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
        check_fields(self, _PARAM_FIELDS)


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


def _subset_masks(k: int) -> np.ndarray:
    """All 2^(k-1) - 1 binary partitions of k categories, as 0/1 rows.

    Each partition appears once: the enumerated side never contains the
    last category, so complements are not revisited.
    """
    return (np.arange(1, 1 << (k - 1))[:, None] >> np.arange(k)) & 1


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 of every element of a uint64 array."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class _Grower:
    """Grows batches of trees level by level; all state is per fit."""

    def __init__(self, Xv, miss, cat_sizes, y, n_classes, mtry, min_leaf, max_depth):
        # codes: a continuous cell's dense rank among its column's distinct
        # observed values, a categorical cell's category id, and for a
        # missing cell the code one past the column's last
        self.n, self.p = Xv.shape
        self.codes = np.empty((self.n, self.p), dtype=np.int64)
        self.miss_code = cat_sizes.copy()
        uniq = []
        for j in range(self.p):
            obs = np.ones(self.n, dtype=bool) if miss is None else ~miss[:, j]
            u = np.zeros(0)
            if cat_sizes[j]:
                self.codes[:, j] = np.where(obs, Xv[:, j], cat_sizes[j])
            else:
                u, self.codes[obs, j] = np.unique(Xv[obs, j], return_inverse=True)
                self.codes[~obs, j] = self.miss_code[j] = u.size
            uniq.append(u)
        self.values = np.concatenate(uniq)    # distinct continuous values
        self.offsets = np.cumsum([0] + [u.size for u in uniq[:-1]])
        self.K1 = int(self.miss_code.max()) + 1
        self.cat_sizes = cat_sizes            # 0 for continuous columns
        self.is_cat = cat_sizes > 0
        self.y = y
        self.C = n_classes                    # 0 for regression
        self.mtry = mtry
        self.min_leaf = min_leaf
        self.max_depth = max_depth
        # regression sums are exact in 2^-shift fixed point: a node holds at
        # most n targets scaled into [-1, 1]
        self.shift = 0 if n_classes else 62 - self.n.bit_length()

    def grow(self, rows: np.ndarray, tree_keys: np.ndarray) -> list:
        """Grow one tree per key; rows holds each tree's n bootstrap rows
        back to back.  Returns the roots in key order."""
        T = tree_keys.size
        pos = np.tile(np.arange(self.n), T)   # bootstrap position
        node = np.repeat(np.arange(T), self.n)
        keys = tree_keys                      # tree key of each open node
        levels = []
        depth = 0
        while True:
            F = keys.size
            m = np.bincount(node, minlength=F)
            start = np.cumsum(m) - m
            y = self.y[rows]
            if self.C:
                counts = np.bincount(node * self.C + y, minlength=F * self.C)
                counts = counts.reshape(F, self.C)
                value = counts.argmax(axis=1)   # ties go to the smallest class
                open_ = counts.max(axis=1) < m
            else:
                value = np.bincount(node, weights=y, minlength=F) / m
                dev = y - value[node]
                scale = np.maximum.reduceat(np.abs(dev), start)
                open_ = np.maximum.reduceat(y, start) > np.minimum.reduceat(y, start)
            open_ &= m >= 2 * self.min_leaf
            if self.max_depth is not None and depth >= self.max_depth:
                open_[:] = False
            split = np.zeros(F, dtype=bool)
            level = [value, split, None]
            levels.append(level)
            sidx = np.flatnonzero(open_)
            if sidx.size == 0:
                break

            inside = open_[node]
            snode = (np.cumsum(open_) - 1)[node[inside]]
            srows, spos = rows[inside], pos[inside]
            feats = self._draw(keys[sidx], depth, pos[start[sidx]])
            if self.C:
                chan = np.eye(self.C, dtype=np.int32)[y[inside]]
                impurity = m[sidx] - (counts[sidx] ** 2).sum(axis=1) / m[sidx]
            else:
                z = dev[inside] / scale[node[inside]]
                chan = np.rint(np.ldexp(z, self.shift)).astype(np.int64)[:, None]
                impurity = np.bincount(snode, weights=z * z, minlength=sidx.size)
            best = self._score(srows, snode, chan, y[inside], feats, _TIE_RTOL * impurity)
            if best is None:
                break
            ok, feat, cut, thr, left_tab, cats, major = best
            split[sidx] = ok
            level[2] = [(int(feat[i]), float(thr[i]), cats[i], bool(major[i]))
                        for i in np.flatnonzero(ok)]

            go = ok[snode]
            s, r = snode[go], srows[go]
            f = feat[s]
            c = self.codes[r, f]
            left = c <= cut[s]
            if left_tab is not None:
                left = np.where(self.is_cat[f],
                                left_tab[s, np.minimum(c, left_tab.shape[1] - 1)], left)
            left = np.where(c == self.miss_code[f], major[s], left)
            child = 2 * (np.cumsum(ok) - 1)[s] + ~left
            sizes = np.bincount(child, minlength=2 * int(ok.sum()))
            assert sizes.min() >= self.min_leaf, "a split left a child below min_leaf"
            order = np.argsort(child, kind="stable")
            rows, pos, node = r[order], spos[go][order], child[order]
            keys = np.repeat(keys[sidx[ok]], 2)
            depth += 1
        return self._build(levels)

    def _draw(self, tree_keys, depth, min_pos) -> np.ndarray:
        """The mtry candidate features of each node, ascending."""
        if self.mtry == self.p:
            return np.broadcast_to(np.arange(self.p), (tree_keys.size, self.p))
        h = _mix(_mix(tree_keys ^ np.uint64(depth)) ^ min_pos.astype(np.uint64))
        h = _mix(h[:, None] ^ np.arange(self.p, dtype=np.uint64))
        return np.sort(np.argsort(h, axis=1)[:, :self.mtry], axis=1)

    def _score(self, rows, snode, chan, y, feats, tol):
        """Best split of every open node, by the tie rule of the module.

        Each node s scores the pairs (s, feature) of its drawn features; a
        pair's observed entries are sorted by rank code once, and the
        integer cumulative sums of `chan` (one-hot classes, or fixed-point
        targets) give every candidate's left sums.
        """
        S, mtry = feats.shape
        n_pairs = S * mtry
        pair_feat = feats.T.ravel()                # pair id = slot * S + node
        ft = feats[snode].T
        ct = self.codes[rows, ft]
        slot, ent = np.nonzero(ct != self.miss_code[ft])
        pair = slot * S + snode[ent]
        code = ct[slot, ent]
        n_obs = np.bincount(pair, minlength=n_pairs)
        first = np.cumsum(n_obs) - n_obs           # sorted offset of each pair
        key = pair * self.K1 + code
        order = np.argsort(key)
        key = key[order]
        csum = np.zeros((key.size + 1, chan.shape[1]), dtype=chan.dtype)
        np.cumsum(chan[ent[order]], axis=0, out=csum[1:])
        base = csum[first]
        total = (csum[first + n_obs] - base) * 2.0 ** -self.shift
        with np.errstate(divide="ignore", invalid="ignore"):
            parent = np.einsum("pc,pc->p", total, total) / n_obs

        def gain(left, nl, cp):
            """Impurity decrease, in count units, of the cuts of pairs cp
            with integer left sums `left` over nl observed rows."""
            left = left * 2.0 ** -self.shift
            right = total[cp] - left
            return (np.einsum("ic,ic->i", left, left) / nl - parent[cp]
                    + np.einsum("ic,ic->i", right, right) / (n_obs[cp] - nl))

        end = np.flatnonzero(np.append(key[1:] != key[:-1], key.size > 0)) + 1
        r_pair, r_code = np.divmod(key[end - 1], self.K1)

        # candidates: pair, gain, observed left/right sizes and two ints that
        # name the cut (continuous: its code and the next; categorical: the
        # pair's row in its block and the mask or prefix index)
        cands = []
        ml = self.min_leaf
        c = np.flatnonzero((r_pair[1:] == r_pair[:-1]) & ~self.is_cat[pair_feat[r_pair[:-1]]])
        cp = r_pair[c]
        nl = end[c] - first[cp]
        good = (nl >= ml) & (n_obs[cp] - nl >= ml)
        c, cp, nl = c[good], cp[good], nl[good]
        cands.append((cp, gain(csum[end[c]] - base[cp], nl, cp), nl, n_obs[cp] - nl,
                      r_code[c], r_code[c + 1]))

        ranks = {}
        r_len = end.copy()
        r_len[1:] -= end[:-1]
        for f in np.flatnonzero(self.is_cat & (np.bincount(feats.ravel(), minlength=self.p) > 0)):
            k, pf = int(self.cat_sizes[f]), np.flatnonzero(pair_feat == f)
            q_of = np.zeros(n_pairs, dtype=np.int64)
            q_of[pf] = np.arange(pf.size)
            runs = np.flatnonzero(pair_feat[r_pair] == f)
            at = q_of[r_pair[runs]], r_code[runs]
            hist = np.zeros((pf.size, k, chan.shape[1]), dtype=np.int64)
            cnt = np.zeros((pf.size, k, 1), dtype=np.int64)
            hist[at] = csum[end[runs]] - csum[end[runs] - r_len[runs]]
            cnt[at] = r_len[runs, None]
            if k > 10:
                # prefixes of the categories ordered by mean target; absent
                # categories sort last
                if self.C:
                    mean = hist @ np.arange(self.C)
                else:
                    sel = pair_feat[pair] == f
                    mean = np.bincount(q_of[pair[sel]] * k + code[sel], weights=y[ent[sel]],
                                       minlength=pf.size * k).reshape(pf.size, k)
                with np.errstate(divide="ignore", invalid="ignore"):
                    mean = np.where(cnt[..., 0] > 0, mean / cnt[..., 0], np.inf)
                rank = ranks[f] = np.argsort(np.argsort(mean, axis=1, kind="stable"), axis=1)
            n_cut = k - 1 if k > 10 else (1 << (k - 1)) - 1
            step = max(1, _BLOCK // (n_cut * (k + chan.shape[1])))
            for q0 in range(0, pf.size, step):
                q = slice(q0, q0 + step)
                masks = (_subset_masks(k)[None] if k <= 10 else
                         (rank[q, None, :] <= np.arange(k - 1)[:, None]).astype(np.int64))
                nl = (masks @ cnt[q])[..., 0]
                no = n_obs[pf[q], None]
                qi, j = np.nonzero((nl >= ml) & (no - nl >= ml))
                nl, no, cp = nl[qi, j], no[qi, 0], pf[q][qi]
                cands.append((cp, gain((masks @ hist[q])[qi, j], nl, cp), nl, no - nl,
                              qi + q0, j))

        cp, gains, c_nl, c_nr, c_a, c_b = (np.concatenate(a) for a in zip(*cands))
        cs = cp % S
        best = np.full(S, -np.inf)
        np.maximum.at(best, cs, gains)
        ok = best > tol
        if not ok.any():
            return None
        passing = np.flatnonzero(gains >= (best - tol)[cs])
        pick = np.full(n_pairs, gains.size)
        np.minimum.at(pick, cp[passing], passing)
        pick = pick.reshape(mtry, S)
        slot = (pick < gains.size).argmax(axis=0)
        ch = np.where(ok, pick[slot, np.arange(S)], 0)
        feat = feats[np.arange(S), slot]
        a, b = c_a[ch], c_b[ch]
        cat = ok & self.is_cat[feat]
        num = ok & ~cat
        thr = np.zeros(S)
        if num.any():
            lo = self.values[self.offsets[feat[num]] + a[num]]
            hi = self.values[self.offsets[feat[num]] + b[num]]
            with np.errstate(over="ignore"):
                mid = (lo + hi) / 2.0
            thr[num] = np.where(mid < hi, mid, lo)
        left_tab, cats = None, [None] * S
        if cat.any():
            left_tab = np.zeros((S, int(self.cat_sizes.max()) + 1), dtype=bool)
            for s in np.flatnonzero(cat):
                f, k = feat[s], int(self.cat_sizes[feat[s]])
                left_tab[s, :k] = (_subset_masks(k)[b[s]] if k <= 10 else
                                   ranks[f][a[s]] <= b[s])
                cats[s] = np.flatnonzero(left_tab[s]).astype(np.int64)
        return ok, feat, np.where(num, a, -1), thr, left_tab, cats, c_nl[ch] >= c_nr[ch]

    @staticmethod
    def _build(levels) -> list:
        """Linked _Split/_Leaf trees from the per-level node arrays."""
        below = []
        for value, split, specs in reversed(levels):
            kids, specs = iter(below), iter(specs or ())
            nodes = []
            for v, is_split in zip(value.tolist(), split.tolist()):
                if not is_split:
                    nodes.append(_Leaf(v))
                    continue
                f, t, cats, mj = next(specs)
                node = _Split(f, None if cats is not None else t, cats, mj)
                node.left, node.right = next(kids), next(kids)
                nodes.append(node)
            below = nodes
        return below


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
    else:
        classes = None
        y_arr = y.values.astype(np.float64)
        n_classes = 0

    miss = X.missing if (allow_missing and X.missing.any()) else None
    n = X.n_rows
    grower = _Grower(X.values, miss, cat_sizes, y_arr, n_classes, mtry, min_leaf,
                     params.max_depth)
    trees = []
    per_batch = max(1, _BATCH_ROWS // n)
    for t0 in range(0, params.n_trees, per_batch):
        boot, keys = [], []
        for t in range(t0, min(t0 + per_batch, params.n_trees)):
            rng = make_rng(seed, _TREE_TAG, t)
            boot.append(rng.integers(0, n, n) if params.bootstrap else np.arange(n))
            keys.append(int(rng.integers(1 << 63)))
        trees += grower.grow(np.concatenate(boot), np.array(keys, dtype=np.uint64))

    return ForestModel(
        kind=y.kind,
        trees=tuple(trees),
        feature_signature=_signature(X.schema),
        classes=classes,
        label_categories=y.categories,
        label_name=y.name,
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
    return LabelVector(model.kind, raw, np.zeros(raw.shape, dtype=bool),
                       model.label_categories, model.label_name)


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
    return _wrap_predictions(model, _predict_arrays(model, X.values, miss))
